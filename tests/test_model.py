"""Forward model: parameter tensors, edge probabilities, log posterior."""
import numpy as np
import pytest

import sdsbm.model as model
from sdsbm import (
    BlockTensor,
    ContractError,
    Dataset,
    DegenerateParametersWarning,
    FitConfig,
    GroundTruth,
    MembershipTensor,
    PatternSpec,
    PriorConfig,
    fit,
    log_posterior,
    membership_flows,
    sample_dataset,
    score_test_set,
)

from conftest import random_blocks, random_dataset, random_memberships
from model_reference import edge_probability
from model_reference import log_posterior as reference_log_posterior


class TestTensorValidation:
    def test_membership_accepts_valid_rows(self):
        theta = MembershipTensor(random_memberships(3, 4, 2, seed=1))
        assert theta.shape == (3, 4, 2) and theta.n_items == 4
        assert repr(theta) == "MembershipTensor(T=3, I=4, K=2)"

    def test_block_accepts_single_slice(self):
        p = BlockTensor([[0.2, 0.8], [0.6, 0.4]])
        assert p.values.shape == (1, 2, 2) and p.n_labels == 2
        assert repr(p) == "BlockTensor(T=1, K=2, O=2)"
        # the shared slice answers for every epoch
        theta = random_memberships(8, 1, 2, seed=3)
        rows = model._label_rows(theta, p.values, np.array([7]), np.array([0]))
        assert np.array_equal(rows, theta[7] @ p.values[0])

    def test_block_per_epoch_slices(self):
        p = BlockTensor(random_blocks(4, 2, 3, seed=2))
        assert p.values.shape == (4, 2, 3)
        theta = random_memberships(4, 1, 2, seed=3)
        rows = model._label_rows(theta, p.values, np.array([2]), np.array([0]))
        assert np.array_equal(rows, theta[2] @ p.values[2])

    def test_rejects_negative_entries(self):
        with pytest.raises(ContractError):
            MembershipTensor([[[1.2, -0.2]]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ContractError, match="sum to 1"):
            MembershipTensor([[[0.6, 0.3]]])

    def test_accepts_row_sum_within_tolerance(self):
        MembershipTensor([[[0.5, 0.5 + 5e-10]]])

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            MembershipTensor([[[np.nan, 1.0]]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ContractError):
            MembershipTensor([[0.5, 0.5]])

    def test_rejects_empty_axis(self):
        with pytest.raises(ContractError):
            MembershipTensor(np.empty((0, 2, 2)))

    def test_tensors_are_read_only(self):
        theta = MembershipTensor(random_memberships(2, 2, 2))
        with pytest.raises(ValueError):
            theta.values[0, 0, 0] = 0.5

    def test_cluster_axis_mismatch(self):
        theta = random_memberships(2, 3, 2)
        p = random_blocks(2, 3, 4)  # K=3 against theta's K=2
        with pytest.raises(ContractError, match="cluster axes"):
            log_posterior(theta, p, random_dataset(2, 3, 4, 10))

    def test_epoch_extent_mismatch(self):
        theta = random_memberships(3, 2, 2)
        p = random_blocks(2, 2, 4)  # neither 1 nor 3 slices
        with pytest.raises(ContractError, match="must have 1 or 3 epochs"):
            log_posterior(theta, p, random_dataset(3, 2, 4, 10))


def _bad_pair(kind):
    """A (theta, p) pair of arrays for T=3, I=4, K=2, O=3, broken as ``kind`` says."""
    theta = random_memberships(3, 4, 2, seed=30)
    p = random_blocks(3, 2, 3, seed=31)
    if kind == "2-D theta":
        return theta[0], p
    if kind == "1-D p":
        return theta, p[0, 0]
    if kind == "NaN theta":
        theta[1, 2, 0] = np.nan
        return theta, p
    if kind == "negative theta":
        return -theta, p
    return 3.0 * theta, p  # rows summing to 3


_ENTRY_POINTS = {
    "log_posterior": lambda th, p, data: log_posterior(th, p, data),
    "score_test_set": lambda th, p, data: score_test_set(th, p, data),
    "membership_flows": lambda th, p, data: list(membership_flows(th, p)),
    "sample_dataset": lambda th, p, data: sample_dataset(
        GroundTruth(th, p, PatternSpec("sinusoidal", 3, 4, n_clusters=2)), 2),
    "fit(start=)": lambda th, p, data: fit(
        data, FitConfig(n_clusters=2, max_iterations=2, restarts=1), start=(th, p)),
}


class TestParameterContract:
    """Every entry point that takes a (theta, p) pair checks arrays like tensors."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("kind,message", [
        ("2-D theta", "membership tensor must have 3 axes"),
        ("1-D p", "block tensor must have 3 axes"),
        ("NaN theta", "non-finite"),
        ("negative theta", "negative entries"),
        ("unnormalized theta", "sum to 1"),
    ])
    def test_bad_arrays_are_a_contract_error_naming_the_problem(self, entry, kind, message):
        theta, p = _bad_pair(kind)
        data = random_dataset(3, 4, 3, 30, seed=32)
        with pytest.raises(ContractError, match=message):
            _ENTRY_POINTS[entry](theta, p, data)

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_valid_arrays_pass(self, entry):
        theta, p = random_memberships(3, 4, 2, seed=30), random_blocks(3, 2, 3, seed=31)
        _ENTRY_POINTS[entry](theta, p, random_dataset(3, 4, 3, 30, seed=32))

    def test_one_epoch_stands_for_every_epoch_of_the_data(self):
        th, pv = model._arrays(random_memberships(1, 4, 2), random_blocks(1, 2, 3),
                               random_dataset(5, 4, 3, 20))
        assert th.shape == (1, 4, 2) and pv.shape == (1, 2, 3)
        with pytest.raises(ContractError, match="must have 1 or 1 epochs"):
            model._arrays(random_memberships(1, 4, 2), random_blocks(5, 2, 3),
                          random_dataset(5, 4, 3, 20))


class TestEdgeProbability:
    def test_hard_membership_hard_block_is_certain(self):
        theta = [[[1.0, 0.0, 0.0]]]
        p = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        assert edge_probability(theta, p, 0, 0, 0) == 1.0

    def test_mixture_value(self):
        theta = [[[0.5, 0.5]]]
        p = [[0.2, 0.8], [0.6, 0.4]]
        assert edge_probability(theta, p, 0, 0, 0) == pytest.approx(0.4, abs=1e-15)

    def test_uniform_rows_give_uniform_labels(self):
        theta = [[[0.5, 0.5]]]
        p = np.full((2, 4), 0.25)
        assert edge_probability(theta, p, 0, 3, 0) == pytest.approx(0.25, abs=1e-15)

    def test_accepts_wrapped_tensors(self):
        theta = MembershipTensor([[[0.5, 0.5]]])
        p = BlockTensor([[0.2, 0.8], [0.6, 0.4]])
        assert edge_probability(theta, p, 0, 1, 0) == pytest.approx(0.6, abs=1e-15)

    def test_distribution_over_labels_normalizes(self):
        theta = random_memberships(3, 5, 4, seed=3)
        p = random_blocks(3, 4, 6, seed=4)
        for t in range(3):
            for i in range(5):
                total = sum(edge_probability(theta, p, i, o, t) for o in range(6))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_per_epoch_slice_is_used(self):
        theta = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
        p = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.3, 0.7], [0.5, 0.5]]])
        assert edge_probability(theta, p, 0, 0, 0) == 1.0
        assert edge_probability(theta, p, 0, 0, 1) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize(
        "triplet,dimension",
        [((5, 0, 0), "node"), ((0, 9, 0), "label"), ((0, 0, 4), "epoch")],
    )
    def test_out_of_range_ids_name_the_dimension(self, triplet, dimension):
        theta = random_memberships(2, 3, 2)
        p = random_blocks(2, 2, 3)
        node, label, epoch = triplet
        with pytest.raises(IndexError, match=dimension):
            edge_probability(theta, p, node, label, epoch)


class TestLogPosterior:
    def test_empty_dataset_no_coupling_is_zero(self):
        data = Dataset([], [], [], n_items=2, n_labels=2, n_epochs=1)
        theta = random_memberships(1, 2, 2)
        p = random_blocks(1, 2, 2)
        assert log_posterior(theta, p, data) == 0.0

    def test_single_observation_log_mixture(self):
        data = Dataset([0], [0], [0], n_items=1, n_labels=2, n_epochs=1)
        theta = [[[0.5, 0.5]]]
        p = [[0.2, 0.8], [0.6, 0.4]]
        value = log_posterior(theta, p, data)
        assert value == pytest.approx(np.log(0.4), abs=1e-12)
        assert value == pytest.approx(-0.9163, abs=5e-5)

    def test_duplicate_observations_add_exactly(self):
        single = Dataset([0], [1], [0], n_items=1, n_labels=2, n_epochs=1)
        double = Dataset([0, 0], [1, 1], [0, 0], n_items=1, n_labels=2, n_epochs=1)
        theta = random_memberships(1, 1, 3, seed=5)
        p = random_blocks(1, 3, 2, seed=6)
        assert log_posterior(theta, p, double) == 2.0 * log_posterior(theta, p, single)

    def test_matches_brute_force_sum(self):
        data = random_dataset(3, 4, 5, 60, seed=7)
        theta = random_memberships(3, 4, 2, seed=8)
        p = random_blocks(3, 2, 5, seed=9)
        expected = sum(
            np.log(edge_probability(theta, p, node, label, epoch))
            for node, label, epoch in zip(data.nodes, data.labels, data.epochs)
        )
        assert log_posterior(theta, p, data) == pytest.approx(expected, rel=1e-12)

    def test_coupling_term_with_constant_rows(self):
        # identical rows at every epoch are their own neighbour average, so the
        # pull reduces to beta * sum(x * log x) over every epoch's entries
        T, I, K, O = 4, 3, 2, 3
        rng = np.random.default_rng(10)
        row_theta = rng.dirichlet(np.ones(K), size=I)
        row_p = rng.dirichlet(np.ones(O), size=K)
        theta = np.broadcast_to(row_theta, (T, I, K)).copy()
        p = np.broadcast_to(row_p, (T, K, O)).copy()
        data = random_dataset(T, I, O, 40, seed=11)
        prior = PriorConfig(beta_theta=2.0, beta_p=3.0)
        base = log_posterior(theta, p, data)
        expected = (
            base
            + 2.0 * T * np.sum(row_theta * np.log(row_theta))
            + 3.0 * T * np.sum(row_p * np.log(row_p))
        )
        value = log_posterior(theta, p, data, prior)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_coupling_matches_no_prior(self, monkeypatch):
        # an uncoupled objective never builds the (T, T) coupling matrix
        def no_coupling(*args):
            raise AssertionError("TemporalCoupling built for an uncoupled objective")

        monkeypatch.setattr(model, "TemporalCoupling", no_coupling)
        data = random_dataset(3, 4, 3, 30, seed=12)
        theta = random_memberships(3, 4, 2, seed=13)
        p = random_blocks(3, 2, 3, seed=14)
        assert log_posterior(theta, p, data, PriorConfig()) == log_posterior(theta, p, data)

    def test_one_epoch_memberships_score_every_epoch(self):
        # a one-epoch theta is read at slice 0 for every epoch, as a shared p
        # is; neither family has per-epoch slices, so no prior term is added
        data = random_dataset(4, 3, 3, 50, seed=20)
        theta = random_memberships(1, 3, 2, seed=21)
        p = random_blocks(1, 2, 3, seed=22)
        expected = reference_log_posterior(theta, p, data)
        assert log_posterior(theta, p, data) == pytest.approx(expected, rel=1e-12)
        prior = PriorConfig(beta_theta=5.0, beta_p=5.0)
        assert log_posterior(theta, p, data, prior) == log_posterior(theta, p, data)
        assert log_posterior(theta, p, data) == pytest.approx(
            log_posterior(theta, p, data.collapse_epochs()), rel=1e-12)

    def test_static_block_skips_block_coupling(self):
        # a single shared block slice has no temporal neighbours to pull toward
        data = random_dataset(3, 4, 3, 30, seed=15)
        theta = random_memberships(3, 4, 2, seed=16)
        p = random_blocks(1, 2, 3, seed=17)
        with_pull = log_posterior(theta, p, data, PriorConfig(beta_p=50.0))
        assert with_pull == log_posterior(theta, p, data)

    def test_degenerate_triplet_warns_and_returns_neg_inf(self):
        data = Dataset([0], [1], [0], n_items=1, n_labels=2, n_epochs=1)
        theta = [[[1.0, 0.0]]]
        p = [[1.0, 0.0], [0.5, 0.5]]  # cluster 0 never emits label 1
        with pytest.warns(DegenerateParametersWarning, match="node=0, label=1, epoch=0"):
            value = log_posterior(theta, p, data)
        assert value == -np.inf

    @pytest.mark.parametrize("axis", ["items", "labels"])
    def test_parameters_need_the_data_extents(self, axis):
        # the pass indexes flat (epoch, item) and (epoch, label) rows of the
        # data's extents, so a larger parameter tensor is refused
        data = random_dataset(2, 3, 4, 10, seed=19)
        theta = random_memberships(2, 4 if axis == "items" else 3, 2)
        p = random_blocks(2, 2, 5 if axis == "labels" else 4)
        with pytest.raises(ContractError, match=r"data \(2, 3, 4\)"):
            log_posterior(theta, p, data)

    def test_epoch_extent_check(self):
        data = random_dataset(5, 2, 2, 10, seed=18)
        theta = random_memberships(3, 2, 2)
        p = random_blocks(1, 2, 2)
        with pytest.raises(ContractError, match="epochs"):
            log_posterior(theta, p, data)
