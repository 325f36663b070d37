"""EM engine: responsibilities, coordinate updates, full fits."""
from dataclasses import replace

import numpy as np
import pytest

import sdsbm.em as em
import sdsbm.model as model
from sdsbm import (
    DEFAULT_BETA_GRID,
    BlockTensor,
    ContractError,
    Dataset,
    DegenerateParameterError,
    FitConfig,
    GroundTruth,
    MembershipTensor,
    PatternSpec,
    PriorConfig,
    block_matrix,
    fit,
    generate_memberships,
    rmse_aligned,
    sample_dataset,
)

from sdsbm.prior import TemporalCoupling

from conftest import random_blocks, random_dataset, random_memberships
from model_reference import edge_probability, log_posterior, responsibilities
from sweep_reference import sweep


class TestFitConfig:
    @pytest.mark.parametrize("bad", [
        {"n_clusters": 0},
        {"n_clusters": 2, "max_iterations": 0},
        {"n_clusters": 2, "tol": 0.0},
        {"n_clusters": 2, "restarts": 0},
        {"n_clusters": 2, "p_mode": "frozen"},
        {"n_clusters": 2, "p_mode": "fixed"},                      # missing tensor
        {"n_clusters": 2, "fixed_p": [[1.0, 0.0], [0.0, 1.0]]},    # tensor without mode
        {"n_clusters": 2.5},
        {"n_clusters": 2, "max_iterations": 2.5},
        {"n_clusters": 2, "restarts": 1.5},
        {"n_clusters": 2, "seed": 1.5},
        {"n_clusters": 2, "seed": -1},
    ])
    def test_rejects_bad_settings(self, bad):
        with pytest.raises(ContractError):
            FitConfig(**bad)

    def test_fixed_mode_requires_tensor(self):
        config = FitConfig(n_clusters=2, p_mode="fixed",
                           fixed_p=[[1.0, 0.0], [0.0, 1.0]])
        assert config.p_mode == "fixed"
        assert isinstance(config.fixed_p, BlockTensor)

    def test_fixed_blocks_of_another_cluster_count_are_refused_at_construction(self):
        with pytest.raises(ContractError, match="K=3.*K=2"):
            FitConfig(n_clusters=2, p_mode="fixed", fixed_p=block_matrix(0.1))

    def test_numpy_integers_are_accepted_as_ints(self):
        config = FitConfig(n_clusters=np.int64(2), restarts=np.int32(3), seed=np.uint8(4))
        assert (config.n_clusters, config.restarts, config.seed) == (2, 3, 4)
        assert type(config.seed) is int


class TestResponsibilities:
    def test_single_cluster_takes_everything(self):
        omega = responsibilities([[[1.0]]], [[0.3, 0.7]], 0, 1, 0)
        np.testing.assert_array_equal(omega, [1.0])

    def test_hand_computed_split(self):
        theta = [[[0.5, 0.5]]]
        p = [[0.2, 0.8], [0.6, 0.4]]
        omega = responsibilities(theta, p, 0, 0, 0)
        np.testing.assert_allclose(omega, [0.25, 0.75], atol=1e-12)

    def test_hard_membership_stays_hard(self):
        theta = [[[1.0, 0.0]]]
        p = [[0.4, 0.6], [0.9, 0.1]]
        omega = responsibilities(theta, p, 0, 0, 0)
        np.testing.assert_array_equal(omega, [1.0, 0.0])

    def test_normalizes_to_one(self):
        theta = random_memberships(2, 3, 5, seed=1)
        p = random_blocks(2, 5, 4, seed=2)
        for t in range(2):
            for i in range(3):
                for o in range(4):
                    omega = responsibilities(theta, p, i, o, t)
                    assert omega.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_raises_with_triplet(self):
        theta = [[[1.0, 0.0]]]
        p = [[1.0, 0.0], [0.5, 0.5]]
        with pytest.raises(DegenerateParameterError) as err:
            responsibilities(theta, p, 0, 1, 0)
        assert err.value.triplet == (0, 1, 0)

    def test_jensen_bound_is_tight_at_the_posterior(self):
        # plugging the posterior weights into the bound recovers log P exactly
        theta = random_memberships(2, 2, 4, seed=3)
        p = random_blocks(2, 4, 3, seed=4)
        for (i, o, t) in [(0, 0, 0), (1, 2, 1), (0, 1, 1)]:
            omega = responsibilities(theta, p, i, o, t)
            joint = theta[t, i] * p[t, :, o]
            keep = omega > 0
            bound = np.sum(omega[keep] * (np.log(joint[keep]) - np.log(omega[keep])))
            direct = np.log(edge_probability(theta, p, i, o, t))
            assert bound == pytest.approx(direct, abs=1e-10)


def _two_label_dataset():
    return Dataset([0, 0], [0, 1], [0, 0], n_items=1, n_labels=2, n_epochs=1)


def _two_epoch_dataset():
    # both epochs observed, so neither is a fallback epoch
    return Dataset([0, 0, 0], [0, 1, 0], [0, 0, 1], n_items=1, n_labels=2, n_epochs=2)


def _count_calls(monkeypatch, *names):
    """Wrap the named ``sdsbm.em`` functions so that each call is counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(em, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(em, name, counted)
    return calls


def _swap(theta):
    """(T, I, K) memberships in the sweep's (T, K, I) working layout, and back."""
    return np.ascontiguousarray(np.swapaxes(theta, 1, 2))


def _theta_step(data, omega_sums, avg, prior):
    """Membership half of the engine's M-step on (T, I, K) arrays; the block tensor is held fixed."""
    K = np.shape(omega_sums)[2]
    theta, _, _ = em._m_step(_swap(omega_sums), None, (None if avg is None else _swap(avg), None),
                             None, model._Problem(data, prior, K), "fixed")
    return _swap(theta)


def _block_step(data, omega_sums, avg, prior, mode="dynamic", current=None):
    """Block half of the engine's M-step: ``(p, rows_reset)``."""
    T, K, _ = np.shape(omega_sums)
    _, p, reset = em._m_step(np.zeros((T, K, data.n_items)), omega_sums, (None, avg),
                             current, model._Problem(data, prior, K), mode)
    return p, reset


class TestMembershipUpdate:
    def test_plain_maximum_likelihood(self):
        data = _two_label_dataset()
        omega_sums = np.array([[[1.5, 0.5]]])
        theta = _theta_step(data, omega_sums, None, PriorConfig())
        np.testing.assert_allclose(theta, [[[0.75, 0.25]]], atol=1e-15)

    def test_unobserved_row_equals_the_neighbour_average(self):
        data = Dataset([0], [0], [1], n_items=1, n_labels=1, n_epochs=2)
        omega_sums = np.zeros((2, 1, 2))
        omega_sums[1, 0] = [0.4, 0.6]
        avg = np.array([[[0.7, 0.3]], [[0.5, 0.5]]])
        prior = PriorConfig(beta_theta=2.0)
        theta = _theta_step(data, omega_sums, avg, prior)
        # epoch 0 has no observations: numerator and denominator are all prior
        np.testing.assert_allclose(theta[0], [[0.7, 0.3]], atol=1e-12)

    def test_uncoupled_row_without_observations_is_uniform(self):
        # item 1 is never seen at epoch 1: with no count and no prior pull, one
        # M-step makes its row the mode of the flat prior, whatever the start
        data = Dataset([0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1],
                       n_items=2, n_labels=2, n_epochs=2)
        for seed in range(3):
            report = fit(data, FitConfig(n_clusters=3, max_iterations=1, restarts=1,
                                         seed=seed))
            np.testing.assert_array_equal(report.theta.values[1, 1], np.full(3, 1 / 3))

    def test_strong_coupling_pins_rows_to_the_average(self):
        data = _two_epoch_dataset()
        omega_sums = np.array([[[1.5, 0.5]], [[0.2, 0.8]]])
        avg = np.array([[[0.1, 0.9]], [[0.6, 0.4]]])
        prior = PriorConfig(beta_theta=1e9)
        theta = _theta_step(data, omega_sums, avg, prior)
        np.testing.assert_allclose(theta, avg, atol=1e-6)

    def test_fallback_epoch_ignores_the_coupling(self):
        # a single epoch has no neighbours: its prior is flat whatever avg holds
        data = _two_label_dataset()
        omega_sums = np.array([[[1.5, 0.5]]])
        avg = np.array([[[0.1, 0.9]]])
        prior = PriorConfig(beta_theta=100.0)
        theta = _theta_step(data, omega_sums, avg, prior)
        np.testing.assert_allclose(theta, [[[0.75, 0.25]]], atol=1e-15)

    def test_rows_sum_to_one(self):
        data = random_dataset(3, 5, 4, 50, seed=5)
        rng = np.random.default_rng(6)
        omega_sums = rng.random((3, 5, 4))
        # scale each row to its observation count so the update is consistent
        counts = model._Problem(data, PriorConfig(), 4).counts
        scale = np.where(counts > 0, counts / omega_sums.sum(axis=2), 0.0)
        omega_sums *= scale[:, :, None]
        coupling = TemporalCoupling(data.epoch_counts, PriorConfig())
        avg = coupling.average(random_memberships(3, 5, 4, seed=7))
        prior = PriorConfig(beta_theta=2.5)
        theta = _theta_step(data, omega_sums, avg, prior)
        np.testing.assert_allclose(theta.sum(axis=2), 1.0, atol=1e-9)


class TestBlockUpdate:
    def test_single_cluster_single_label(self):
        data = Dataset([0], [0], [0], n_items=1, n_labels=1, n_epochs=1)
        p, reset = _block_step(data, np.array([[[2.0]]]), None, PriorConfig())
        np.testing.assert_array_equal(p, [[[1.0]]])
        assert reset == 0

    def test_plain_maximum_likelihood(self):
        data = random_dataset(1, 2, 2, 4, seed=8)
        omega_sums = np.array([[[3.0, 1.0]]])
        p, _ = _block_step(data, omega_sums, None, PriorConfig())
        np.testing.assert_allclose(p, [[[0.75, 0.25]]], atol=1e-15)

    def test_fixed_mode_returns_the_input_untouched(self):
        data = _two_label_dataset()
        current = BlockTensor([[0.3, 0.7], [0.9, 0.1]]).values
        result, reset = _block_step(data, np.ones((1, 2, 2)), None, PriorConfig(),
                                    mode="fixed", current=current)
        assert result is current
        assert reset == 0

    def test_dead_cluster_resets_to_uniform(self):
        data = _two_label_dataset()
        omega_sums = np.array([[[3.0, 1.0], [0.0, 0.0]]])
        p, rows_reset = _block_step(data, omega_sums, None, PriorConfig())
        np.testing.assert_allclose(p[0, 1], [0.5, 0.5], atol=1e-15)
        assert rows_reset == 1

    def test_static_mode_pools_epochs(self):
        # a shared slice is indexed by label alone: its sums arrive pooled over every epoch
        data = Dataset([0] * 8, [0, 0, 0, 1, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1],
                       n_items=1, n_labels=2, n_epochs=2)
        problem = model._Problem(data, PriorConfig(), 1)
        theta = np.ones((2, 1, 1))
        _, per_epoch, _ = model._accumulate(theta, np.full((2, 1, 2), 0.5), problem)
        _, shared, _ = model._accumulate(theta, np.full((1, 1, 2), 0.5), problem)
        np.testing.assert_array_equal(per_epoch, [[[3.0, 1.0]], [[1.0, 3.0]]])
        np.testing.assert_array_equal(shared, per_epoch.sum(axis=0, keepdims=True))
        p, _ = _block_step(data, shared, None, PriorConfig(), mode="static")
        np.testing.assert_allclose(p, [[[0.5, 0.5]]], atol=1e-15)

    def test_coupled_update_mixes_in_the_average(self):
        data = _two_epoch_dataset()
        omega_sums = np.array([[[3.0, 1.0]], [[1.0, 0.0]]])
        avg = np.array([[[0.5, 0.5]], [[0.25, 0.75]]])
        p, _ = _block_step(data, omega_sums, avg, PriorConfig(beta_p=4.0))
        # (3 + 4*0.5) / (4 + 4) and (1 + 4*0.5) / 8; (1 + 4*0.25) / 5 and 3 / 5
        np.testing.assert_allclose(p, [[[0.625, 0.375]], [[0.4, 0.6]]], atol=1e-15)

    def test_rows_sum_to_one(self):
        data = random_dataset(3, 4, 5, 60, seed=10)
        rng = np.random.default_rng(11)
        omega_sums = rng.random((3, 2, 5))
        coupling = TemporalCoupling(data.epoch_counts, PriorConfig())
        avg = coupling.average(random_blocks(3, 2, 5, seed=12))
        p, _ = _block_step(data, omega_sums, avg, PriorConfig(beta_p=1.5))
        np.testing.assert_allclose(p.sum(axis=2), 1.0, atol=1e-9)


class TestAccumulation:
    def test_matches_per_observation_responsibilities(self):
        data = random_dataset(3, 4, 3, 80, seed=13)
        theta = random_memberships(3, 4, 2, seed=14)
        p = random_blocks(3, 2, 3, seed=15)
        problem = model._Problem(data, PriorConfig(), 2)
        s_theta, s_p, loglik = model._accumulate(_swap(theta), p, problem)
        expected_theta = np.zeros((3, 4, 2))
        expected_p = np.zeros((3, 2, 3))
        for node, label, epoch in zip(data.nodes, data.labels, data.epochs):
            omega = responsibilities(theta, p, node, label, epoch)
            expected_theta[epoch, node] += omega
            expected_p[epoch, :, label] += omega
        np.testing.assert_allclose(_swap(s_theta), expected_theta, atol=1e-10)
        np.testing.assert_allclose(s_p, expected_p, atol=1e-10)
        assert loglik == pytest.approx(log_posterior(theta, p, data), rel=1e-12)

    def test_static_block_pools_label_sums(self):
        data = random_dataset(3, 4, 3, 60, seed=16)
        theta = random_memberships(3, 4, 2, seed=17)
        p = random_blocks(1, 2, 3, seed=18)
        problem = model._Problem(data, PriorConfig(), 2)
        s_theta, s_p, loglik = model._accumulate(_swap(theta), p, problem)
        assert s_p.shape == (1, 2, 3)
        expected_p = np.zeros((2, 3))
        for node, label, epoch in zip(data.nodes, data.labels, data.epochs):
            omega = responsibilities(theta, p, node, label, epoch)
            expected_p[:, label] += omega
        np.testing.assert_allclose(s_p[0], expected_p, atol=1e-10)
        assert loglik == pytest.approx(log_posterior(theta, p, data), rel=1e-12)

    def test_responsibility_mass_lands_where_observed(self):
        data = random_dataset(2, 3, 2, 40, seed=19)
        theta = random_memberships(2, 3, 3, seed=20)
        p = random_blocks(2, 3, 2, seed=21)
        problem = model._Problem(data, PriorConfig(), 3)
        s_theta, s_p, loglik = model._accumulate(_swap(theta), p, problem)
        # every observation contributes exactly one unit of responsibility
        np.testing.assert_allclose(s_theta.sum(axis=1), problem.counts, atol=1e-9)
        assert s_theta.sum() == pytest.approx(len(data), abs=1e-9)
        assert s_p.sum() == pytest.approx(len(data), abs=1e-9)
        assert loglik == pytest.approx(log_posterior(theta, p, data), rel=1e-12)

    @pytest.mark.parametrize("n_clusters", [1, 3])
    @pytest.mark.parametrize("n_slices", [3, 1])
    def test_chunked_pass_matches_one_block(self, monkeypatch, n_clusters, n_slices):
        # ~80 triplets over 3 epochs; label 5 occurs only in the last epoch,
        # so every triplet carrying it sits past the first block of 7
        rng = np.random.default_rng(22)
        epochs = rng.integers(0, 3, size=200)
        labels = np.where(epochs == 2, rng.integers(0, 6, size=200),
                          rng.integers(0, 5, size=200))
        data = Dataset(rng.integers(0, 6, size=200), labels, epochs,
                       n_items=6, n_labels=6, n_epochs=3)
        problem = model._Problem(data, PriorConfig(), n_clusters)
        assert 70 <= problem.weights.size <= 100
        theta = _swap(random_memberships(3, 6, n_clusters, seed=23))
        p = random_blocks(n_slices, n_clusters, 6, seed=24)
        whole = model._accumulate(theta, p, problem)
        monkeypatch.setattr(model, "CHUNK", 7)
        chunked = model._accumulate(theta, p, problem)
        np.testing.assert_allclose(chunked[0], whole[0], rtol=1e-12)
        np.testing.assert_allclose(chunked[1], whole[1], rtol=1e-12)
        assert chunked[2] == pytest.approx(whole[2], rel=1e-12)

        # the first triplet (2, i, 5) becomes impossible: its theta row puts all
        # mass on cluster 0, which never emits label 5
        u = int(np.argmax((problem.epochs_u == 2) & (problem.labels_u == 5)))
        assert u >= model.CHUNK
        i = int(problem.nodes_u[u])
        theta[2, :, i] = np.eye(n_clusters)[0]
        p[0 if n_slices == 1 else 2, 0, 5] = 0.0
        with pytest.raises(DegenerateParameterError) as info:
            model._accumulate(theta, p, problem)
        assert info.value.triplet == (i, 5, 2)


class TestSweepOracle:
    @pytest.mark.parametrize("chunk", [model.CHUNK, 7])
    @pytest.mark.parametrize("beta", [0.0, 2.0])
    @pytest.mark.parametrize("p_mode", em.P_MODES)
    @pytest.mark.parametrize("n_clusters", [1, 3, 9])  # 9 crosses numpy's 8-wide pairwise sum
    def test_one_sweep_matches_the_dense_reference(self, monkeypatch, n_clusters, p_mode,
                                                   beta, chunk):
        # epochs 3 and 5 are empty, so with window 1 epoch 4 has no weighted
        # neighbours (a fallback epoch), and every row of epochs 3 and 5 is unobserved
        rng = np.random.default_rng(40)
        data = Dataset(rng.integers(0, 5, size=60), rng.integers(0, 4, size=60),
                       rng.choice([0, 1, 2, 4], size=60), n_items=5, n_labels=4, n_epochs=6)
        prior = PriorConfig(beta_theta=beta, beta_p=beta, window=1)
        theta = random_memberships(6, 5, n_clusters, seed=41)
        if n_clusters > 1:  # the last cluster has no mass at epoch 4: a dead block row
            theta[4, :, -1] = 0.0
            theta[4] /= theta[4].sum(axis=1, keepdims=True)
        p = random_blocks(1 if p_mode == "static" else 6, n_clusters, 4, seed=42)
        monkeypatch.setattr(model, "CHUNK", chunk)
        problem = model._Problem(data, prior, n_clusters)

        s_theta, s_p, averages, loglik, objective = model._e_step(_swap(theta), p, problem)
        new_theta, new_p, rows_reset = em._m_step(s_theta, s_p, averages, p, problem, p_mode)

        expected = sweep(theta, p, data, prior, p_mode)
        np.testing.assert_allclose(_swap(s_theta), expected.s_theta, rtol=1e-12)
        np.testing.assert_allclose(s_p, expected.s_p, rtol=1e-12)
        assert loglik == pytest.approx(expected.loglik, rel=1e-12)
        assert objective == pytest.approx(expected.objective, rel=1e-12)
        np.testing.assert_allclose(_swap(new_theta), expected.theta, rtol=1e-12)
        np.testing.assert_allclose(new_p, expected.p, rtol=1e-12)
        assert rows_reset == expected.rows_reset
        assert rows_reset == (n_clusters > 1 and p_mode == "dynamic")


def _toy_truth(n_epochs, n_items, seed=0, noise=0.1):
    pattern = PatternSpec(kind="sinusoidal", n_epochs=n_epochs, n_items=n_items,
                          n_clusters=3, seed=seed)
    return GroundTruth(generate_memberships(pattern), block_matrix(noise), pattern)


class TestFit:
    def test_trace_is_monotone_without_coupling(self):
        truth = _toy_truth(1, 20, seed=1)
        data = sample_dataset(truth, 30, seed=1)
        report = fit(data, FitConfig(n_clusters=3, max_iterations=60, restarts=2,
                                     seed=0))
        assert np.all(np.diff(report.trace) >= -1e-8)

    def test_static_block_trace_is_monotone(self):
        truth = _toy_truth(4, 15, seed=2)
        data = sample_dataset(truth, 10, seed=2)
        report = fit(data, FitConfig(n_clusters=3, p_mode="static",
                                     max_iterations=40, restarts=1, seed=0))
        assert report.p.values.shape[0] == 1
        assert np.all(np.diff(report.trace) >= -1e-8)

    def test_seeded_fits_are_bit_identical(self):
        truth = _toy_truth(3, 10, seed=3)
        data = sample_dataset(truth, 8, seed=3)
        config = FitConfig(n_clusters=3, prior=PriorConfig(beta_theta=2.0, beta_p=2.0),
                           max_iterations=25, restarts=2, seed=11)
        first = fit(data, config)
        second = fit(data, config)
        assert np.array_equal(first.theta.values, second.theta.values)
        assert np.array_equal(first.p.values, second.p.values)
        assert np.array_equal(first.trace, second.trace)
        assert first.best_restart == second.best_restart

    def test_different_seeds_differ(self):
        truth = _toy_truth(2, 10, seed=4)
        data = sample_dataset(truth, 8, seed=4)
        a = fit(data, FitConfig(n_clusters=3, max_iterations=5, restarts=1, seed=0))
        b = fit(data, FitConfig(n_clusters=3, max_iterations=5, restarts=1, seed=1))
        assert not np.array_equal(a.theta.values, b.theta.values)

    def test_tensors_are_row_stochastic_after_fitting(self):
        truth = _toy_truth(4, 12, seed=5)
        data = sample_dataset(truth, 6, seed=5)
        report = fit(data, FitConfig(
            n_clusters=3, prior=PriorConfig(beta_theta=5.0, beta_p=5.0),
            max_iterations=30, restarts=1, seed=2,
        ))
        np.testing.assert_allclose(report.theta.values.sum(axis=2), 1.0, atol=1e-9)
        np.testing.assert_allclose(report.p.values.sum(axis=2), 1.0, atol=1e-9)

    def test_recovers_hard_memberships(self):
        # deterministic labels from one-hot memberships: the fitted rows must
        # land within 0.05 of the planted ones after cluster alignment
        rng = np.random.default_rng(6)
        assignments = np.repeat(np.arange(3), 10)
        theta_true = np.zeros((1, 30, 3))
        theta_true[0, np.arange(30), assignments] = 1.0
        truth = GroundTruth(
            MembershipTensor(theta_true), block_matrix(0.0),
            PatternSpec(kind="sinusoidal", n_epochs=1, n_items=30),
        )
        data = sample_dataset(truth, 100, seed=6)
        report = fit(data, FitConfig(n_clusters=3, max_iterations=120, restarts=4,
                                     seed=3))
        assert rmse_aligned(report.theta, truth.theta) < 0.05

    def test_final_objective_is_near_the_trace_maximum(self):
        truth = _toy_truth(6, 10, seed=7)
        data = sample_dataset(truth, 10, seed=7)
        report = fit(data, FitConfig(
            n_clusters=3, prior=PriorConfig(beta_theta=20.0, beta_p=20.0),
            max_iterations=60, restarts=1, seed=4,
        ))
        peak = report.trace.max()
        assert report.objective >= peak - 1e-6 * abs(peak)

    @pytest.mark.parametrize("beta", (4.0,) + DEFAULT_BETA_GRID)
    def test_frozen_average_update_never_decreases_the_objective(self, beta):
        # with the neighbour averages frozen at its start, each sweep is an exact
        # EM step on loglik(x) + beta * sum(<x> log x): that surrogate never falls
        truth = _toy_truth(5, 10, seed=8)
        data = sample_dataset(truth, 12, seed=8)
        prior = PriorConfig(beta_theta=beta, beta_p=beta)
        problem = model._Problem(data, prior, 3)
        fallback = problem.coupling.fallback
        theta = _swap(random_memberships(5, 10, 3, seed=9))
        p = random_blocks(5, 3, 3, seed=10)

        def frozen_objective(th, pv, averages):
            value = model.log_posterior(_swap(th), pv, data)
            for values, avg in zip((th, pv), averages):
                if avg is not None:
                    pull = np.where(avg > 0, avg * np.log(values), 0.0)
                    value += beta * pull[~fallback].sum()
            return value

        for _ in range(30):
            s_theta, s_p, averages, *_ = model._e_step(theta, p, problem)
            before = frozen_objective(theta, p, averages)
            theta, p, _ = em._m_step(s_theta, s_p, averages, p, problem, "dynamic")
            after = frozen_objective(theta, p, averages)
            assert after >= before - 1e-10 * abs(before)

    def test_coupled_chain_stops_once_its_log_likelihood_settles(self, monkeypatch):
        # at beta=30 the prior term keeps the objective rising; the chain stops
        # at the first sweep whose log-likelihood moved less than tol from the last
        truth = _toy_truth(10, 20, seed=31)
        data = sample_dataset(truth, 20, seed=31)
        swept = []
        m_step = em._m_step

        def recording(*args):
            theta, p, dead = m_step(*args)
            swept.append((_swap(theta), p.copy()))
            return theta, p, dead

        monkeypatch.setattr(em, "_m_step", recording)
        config = FitConfig(n_clusters=3, prior=PriorConfig(beta_theta=30.0, beta_p=30.0),
                           restarts=1, seed=0)
        report = fit(data, config)
        loglik = np.array([model.log_posterior(th, pv, data) for th, pv in swept])
        settled = np.abs(np.diff(loglik)) < config.tol * np.abs(loglik[:-1])
        first = 2 + int(np.argmax(settled))  # sweeps are counted from 1
        assert settled.any() and report.n_iterations == len(swept) == first
        assert report.n_iterations < config.max_iterations and report.converged
        rise = report.trace[-1] - report.trace[-2]
        assert rise > config.tol * abs(report.trace[-2])

    @pytest.mark.parametrize("p_mode", ["dynamic", "static"])
    def test_uncoupled_chain_stops_where_its_objective_settles(self, p_mode):
        # at beta=0 the log-likelihood is the objective: stopping on either is one rule
        truth = _toy_truth(4, 10, seed=32)
        data = sample_dataset(truth, 8, seed=32)
        config = FitConfig(n_clusters=3, p_mode=p_mode, restarts=1, seed=17)
        report = fit(data, config)
        problem = model._Problem(data, config.prior, 3)
        theta, p = em._initial(data, config, 0)
        theta = _swap(theta)
        s_theta, s_p, averages, *_ = model._e_step(theta, p, problem)
        trace = []
        for _ in range(config.max_iterations):
            theta, p, _ = em._m_step(s_theta, s_p, averages, p, problem, p_mode)
            s_theta, s_p, averages, _, objective = model._e_step(theta, p, problem)
            trace.append(objective)
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) < config.tol * abs(trace[-2]):
                break
        assert report.converged and report.n_iterations == len(trace) < config.max_iterations
        assert np.array_equal(report.trace, trace)
        assert np.array_equal(report.theta.values, _swap(theta))
        assert np.array_equal(report.p.values, p)

    def test_fixed_block_mode_never_updates_it(self):
        truth = _toy_truth(3, 10, seed=11)
        data = sample_dataset(truth, 10, seed=11)
        fixed = block_matrix(0.1)
        report = fit(data, FitConfig(n_clusters=3, p_mode="fixed", fixed_p=fixed,
                                     max_iterations=20, restarts=1, seed=6))
        assert np.array_equal(report.p.values, fixed.values)

    def test_fixed_block_extent_mismatch(self):
        truth = _toy_truth(2, 5, seed=12)
        data = sample_dataset(truth, 5, seed=12)
        with pytest.raises(ContractError, match="fixed block tensor"):
            fit(data, FitConfig(n_clusters=2, p_mode="fixed", fixed_p=block_matrix(0.1)))

    def test_fixed_block_of_another_epoch_count(self):
        data = sample_dataset(_toy_truth(4, 5, seed=12), 5, seed=12)
        config = FitConfig(n_clusters=3, p_mode="fixed", fixed_p=random_blocks(3, 3, 3))
        with pytest.raises(ContractError, match="must have 1 or 4 epochs, got 3"):
            fit(data, config)

    def test_dead_cluster_rows_are_reset_and_reported(self, caplog):
        # a start that leaves cluster 1 empty gives its block row no mass and no
        # pull at both observed epochs of the first sweep; the floor revives it
        data = Dataset([0, 1, 0, 1], [0, 1, 2, 0], [0, 0, 1, 1],
                       n_items=2, n_labels=3, n_epochs=2)
        theta = np.zeros((2, 2, 2))
        theta[..., 0] = 1.0
        start = (theta, random_blocks(2, 2, 3, seed=3))
        with caplog.at_level("WARNING", logger="sdsbm.em"):
            report = fit(data, FitConfig(n_clusters=2, max_iterations=3), start=start)
        assert report.diagnostics["dead_cluster_resets"] == 2
        assert "winning restart reset 2 dead cluster rows" in caplog.text

    @pytest.mark.parametrize("warm", [False, True])
    def test_impossible_observation_fails_once_before_any_sweep(self, monkeypatch, caplog,
                                                                warm):
        if warm:
            # node 0 starts epoch 0 wholly in cluster 0, which never emits its label 1
            data = Dataset([0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1],
                           n_items=2, n_labels=2, n_epochs=2)
            theta = np.full((2, 2, 2), 0.5)
            theta[0, 0] = [1.0, 0.0]
            p = np.array([[[1.0, 0.0], [0.5, 0.5]]] * 2)
            config, start = FitConfig(n_clusters=2, restarts=3), (theta, p)
            triplet = (0, 1, 0)
        else:
            data = Dataset([0, 1], [0, 1], [0, 0], n_items=2, n_labels=2, n_epochs=1)
            fixed = BlockTensor([[1.0, 0.0], [1.0, 0.0]])  # label 1 can never occur
            config = FitConfig(n_clusters=2, p_mode="fixed", fixed_p=fixed, restarts=3, seed=7)
            start = None
            triplet = (1, 1, 0)
        calls = _count_calls(monkeypatch, "_run_chain", "_m_step")
        with caplog.at_level("DEBUG", logger="sdsbm.em"):
            with pytest.raises(DegenerateParameterError) as err:
                fit(data, config, start=start)
        assert err.value.triplet == triplet
        assert calls == {"_run_chain": 1, "_m_step": 0}
        assert not [record for record in caplog.records if record.name == "sdsbm.em"]

    def test_tied_restarts_go_to_the_first(self, monkeypatch):
        chain = em._run_chain

        def tied(*args):
            theta, p, _, *rest = chain(*args)
            return theta, p, np.array([-1.0]), *rest

        monkeypatch.setattr(em, "_run_chain", tied)
        data = sample_dataset(_toy_truth(3, 8, seed=13), 6, seed=13)
        report = fit(data, FitConfig(n_clusters=3, max_iterations=3, restarts=3, seed=8))
        assert report.best_restart == 0

    def test_diagnostics_are_reported(self):
        truth = _toy_truth(3, 8, seed=13)
        data = sample_dataset(truth, 6, seed=13)
        report = fit(data, FitConfig(n_clusters=3, max_iterations=10, restarts=1,
                                     seed=8))
        for key in ("aborted_restarts", "dead_cluster_resets", "fallback_epochs",
                    "seconds_per_iteration"):
            assert key in report.diagnostics
        assert report.diagnostics["aborted_restarts"] == 0
        assert report.n_iterations == len(report.trace)

    @pytest.mark.parametrize("p_mode", ["dynamic", "static", "fixed"])
    def test_tensors_are_validated_only_where_parameters_leave_a_chain(
        self, monkeypatch, p_mode
    ):
        # the sweep runs on plain arrays: a fit validates the winning chain's two
        # tensors, whatever the number of restarts, and FitConfig validates a
        # fixed block tensor once
        truth = _toy_truth(3, 8, seed=17)
        data = sample_dataset(truth, 6, seed=17)
        fixed = random_blocks(3, 3, 3, seed=18) if p_mode == "fixed" else None
        calls = []
        validated = model._validated

        def counting(*args):
            calls.append(args[2])
            return validated(*args)

        monkeypatch.setattr(model, "_validated", counting)
        for restarts in (1, 3):
            calls.clear()
            report = fit(data, FitConfig(
                n_clusters=3, prior=PriorConfig(beta_theta=2.0, beta_p=2.0), p_mode=p_mode,
                fixed_p=fixed, max_iterations=50, tol=1e-300, restarts=restarts, seed=12,
            ))
            assert report.n_iterations == 50
            assert len(calls) == 2 + (p_mode == "fixed")

    def test_uncoupled_fit_builds_no_coupling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("TemporalCoupling built for an uncoupled fit")

        monkeypatch.setattr(model, "TemporalCoupling", refuse)
        truth = _toy_truth(4, 8, seed=19)
        data = sample_dataset(truth, 6, seed=19)
        report = fit(data, FitConfig(n_clusters=3, max_iterations=5, restarts=1, seed=13))
        assert report.diagnostics["fallback_epochs"] == 0

    def test_empty_epoch_resets_no_dead_clusters(self, caplog):
        # epoch 2 has no observations: at beta_p = 0 its block rows have no
        # mass and no pull on every sweep, which is not a dead cluster
        truth = _toy_truth(4, 12, seed=0)
        data = sample_dataset(truth, np.array([40, 40, 0, 40]), seed=0)
        with caplog.at_level("WARNING", logger="sdsbm.em"):
            report = fit(data, FitConfig(n_clusters=3, max_iterations=10, restarts=2,
                                         seed=0))
        assert report.diagnostics["dead_cluster_resets"] == 0
        assert not caplog.records

    def test_empty_epoch_in_range_is_handled(self):
        data = Dataset([0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 2, 2],
                       n_items=2, n_labels=2, n_epochs=3)
        report = fit(data, FitConfig(n_clusters=2, prior=PriorConfig(beta_theta=1.0),
                                     max_iterations=15, restarts=1, seed=9))
        assert report.theta.shape == (3, 2, 2)
        np.testing.assert_allclose(report.theta.values.sum(axis=2), 1.0, atol=1e-9)

    @pytest.mark.parametrize("beta", [0.0, 4.0, 1000.0])
    @pytest.mark.parametrize("p_mode", ["dynamic", "static", "fixed"])
    def test_reported_objective_is_the_log_posterior(self, p_mode, beta):
        # the engine reads its objective off its own E-step; the per-observation
        # reference objective must agree, prior terms included (fixed p has one
        # slice per epoch here, so its prior pull counts too)
        truth = _toy_truth(5, 10, seed=14)
        data = sample_dataset(truth, 8, seed=14)
        prior = PriorConfig(beta_theta=beta, beta_p=beta)
        fixed = BlockTensor(random_blocks(5, 3, 3, seed=15)) if p_mode == "fixed" else None
        report = fit(data, FitConfig(n_clusters=3, prior=prior, p_mode=p_mode,
                                     fixed_p=fixed, max_iterations=30, restarts=2,
                                     seed=10))
        expected = log_posterior(report.theta, report.p, data, prior)
        assert report.objective == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p_mode", ["dynamic", "static"])
    def test_coupling_is_inert_on_a_single_epoch(self, p_mode):
        # one epoch has no neighbours: its prior is uniform whatever beta is
        truth = _toy_truth(1, 12, seed=16)
        data = sample_dataset(truth, 20, seed=16)

        def run(beta):
            return fit(data, FitConfig(
                n_clusters=3, prior=PriorConfig(beta_theta=beta, beta_p=beta),
                p_mode=p_mode, max_iterations=30, restarts=2, seed=11,
            ))

        coupled, plain = run(5.0), run(0.0)
        assert np.array_equal(coupled.theta.values, plain.theta.values)
        assert np.array_equal(coupled.p.values, plain.p.values)
        assert np.array_equal(coupled.trace, plain.trace)


class TestFitFromAStart:
    """``fit(..., start=(theta, p))``: one chain from given arrays."""

    @staticmethod
    def _bench():
        truth = _toy_truth(4, 10, seed=20)
        return sample_dataset(truth, 8, seed=20)

    @pytest.mark.parametrize("p_mode", ["dynamic", "static"])
    def test_one_repeatable_chain_from_the_given_arrays(self, monkeypatch, p_mode):
        data = self._bench()
        prior = PriorConfig(beta_theta=3.0, beta_p=3.0 if p_mode == "dynamic" else 0.0)
        config = FitConfig(n_clusters=3, prior=prior, p_mode=p_mode,
                           max_iterations=15, restarts=4, seed=14)
        cold = fit(data, config)
        start = (cold.theta.values, cold.p.values)
        calls = _count_calls(monkeypatch, "_run_chain")
        warm = fit(data, replace(config, prior=replace(prior, beta_theta=10.0)),
                   start=start)
        again = fit(data, replace(config, prior=replace(prior, beta_theta=10.0)),
                    start=start)
        assert calls == {"_run_chain": 2}
        assert warm.best_restart == 0
        assert np.array_equal(warm.theta.values, again.theta.values)
        assert np.array_equal(warm.p.values, again.p.values)
        assert np.array_equal(warm.trace, again.trace)
        assert not np.array_equal(warm.theta.values, cold.theta.values)

    def test_a_converged_start_stays_converged(self):
        data = self._bench()
        config = FitConfig(n_clusters=3, max_iterations=400, tol=1e-9, restarts=1, seed=15)
        cold = fit(data, config)
        warm = fit(data, config, start=(cold.theta.values, cold.p.values))
        assert warm.converged and warm.n_iterations < cold.n_iterations
        assert warm.objective >= cold.objective - 1e-9 * abs(cold.objective)

    def test_fixed_blocks_stay_fixed(self):
        data = self._bench()
        fixed = random_blocks(4, 3, 3, seed=21)
        config = FitConfig(n_clusters=3, p_mode="fixed", fixed_p=fixed,
                           max_iterations=10, restarts=1, seed=16)
        start = (random_memberships(4, 10, 3, seed=22), random_blocks(4, 3, 3, seed=23))
        report = fit(data, config, start=start)
        assert np.array_equal(report.p.values, fixed)

    @pytest.mark.parametrize("p_mode,theta_shape,p_shape,message", [
        ("dynamic", (3, 10, 3), (4, 3, 3), "model covers"),  # one epoch short
        ("dynamic", (4, 9, 3), (4, 3, 3), "model covers"),   # one item short
        ("dynamic", (4, 10, 2), (4, 2, 3), "start arrays"),  # K differs from the config
        ("dynamic", (4, 10, 3), (1, 3, 3), "start arrays"),  # a shared slice for per-epoch blocks
        ("dynamic", (4, 10, 3), (4, 3, 4), "model covers"),  # one label too many
        ("static", (4, 10, 3), (4, 3, 3), "start arrays"),   # per-epoch slices for a shared block
        ("fixed", (4, 10, 3), (1, 3, 3), "start arrays"),    # not the fixed tensor's extents
    ])
    def test_start_arrays_of_other_extents_are_rejected(self, p_mode, theta_shape, p_shape,
                                                          message):
        data = self._bench()
        fixed = random_blocks(4, 3, 3, seed=24) if p_mode == "fixed" else None
        config = FitConfig(n_clusters=3, p_mode=p_mode, fixed_p=fixed, max_iterations=5,
                           restarts=1)
        start = (random_memberships(*theta_shape, seed=25), random_blocks(*p_shape, seed=26))
        with pytest.raises(ContractError, match=message):
            fit(data, config, start=start)
