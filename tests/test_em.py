"""EM engine: responsibilities, coordinate updates, full fits."""
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import sdsbm.em as em
import sdsbm.model as model
import sdsbm.pool as pool
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

import engine
from conftest import item_counts, random_blocks, random_dataset, random_memberships
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


class TestStarts:
    @pytest.mark.parametrize("p_mode", em.P_MODES)
    def test_each_epoch_draws_dirichlet_rows_from_its_own_stream(self, p_mode):
        # the stream keyed (seed, restart, t) gives epoch t its membership rows, then
        # its block rows, as rng.dirichlet(np.ones(n)) draws them; a shared block slice
        # takes the stream of epoch T, and fixed blocks get no start
        T, I, K, O = 4, 5, 3, 4
        data = random_dataset(T, I, O, 40, seed=70)
        fixed = random_blocks(T, K, O, seed=71) if p_mode == "fixed" else None
        config = FitConfig(n_clusters=K, p_mode=p_mode, fixed_p=fixed, seed=72)
        for restart in range(3):
            theta, p = engine.initial(data, config, restart)
            streams = [np.random.default_rng(np.random.SeedSequence(72, spawn_key=(restart, t)))
                       for t in range(T + 1)]
            assert theta.shape == (T, I, K)
            for t in range(T):
                assert np.array_equal(theta[t], streams[t].dirichlet(np.ones(K), size=I))
                if p_mode == "dynamic":
                    assert np.array_equal(p[t], streams[t].dirichlet(np.ones(O), size=K))
            if p_mode == "static":
                assert np.array_equal(p, streams[T].dirichlet(np.ones(O), size=K)[None])
            assert (p is None) == (p_mode == "fixed")


class TestMembershipUpdate:
    def test_plain_maximum_likelihood(self):
        data = _two_label_dataset()
        omega_sums = np.array([[[1.5, 0.5]]])
        theta = engine.theta_step(data, omega_sums, None, PriorConfig())
        np.testing.assert_allclose(theta, [[[0.75, 0.25]]], atol=1e-15)

    def test_unobserved_row_equals_the_neighbour_average(self):
        data = Dataset([0], [0], [1], n_items=1, n_labels=1, n_epochs=2)
        omega_sums = np.zeros((2, 1, 2))
        omega_sums[1, 0] = [0.4, 0.6]
        avg = np.array([[[0.7, 0.3]], [[0.5, 0.5]]])
        prior = PriorConfig(beta_theta=2.0)
        theta = engine.theta_step(data, omega_sums, avg, prior)
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
        theta = engine.theta_step(data, omega_sums, avg, prior)
        np.testing.assert_allclose(theta, avg, atol=1e-6)

    def test_fallback_epoch_ignores_the_coupling(self):
        # a single epoch has no neighbours: its average is zero, its prior flat
        data = _two_label_dataset()
        omega_sums = np.array([[[1.5, 0.5]]])
        prior = PriorConfig(beta_theta=100.0)
        avg = TemporalCoupling(data.epoch_counts, prior).average(np.array([[[0.1, 0.9]]]))
        theta = engine.theta_step(data, omega_sums, avg, prior)
        np.testing.assert_allclose(theta, [[[0.75, 0.25]]], atol=1e-15)

    def test_rows_sum_to_one(self):
        data = random_dataset(3, 5, 4, 50, seed=5)
        rng = np.random.default_rng(6)
        omega_sums = rng.random((3, 5, 4))
        # scale each row to its observation count so the update is consistent
        counts = item_counts(data)
        scale = np.where(counts > 0, counts / omega_sums.sum(axis=2), 0.0)
        omega_sums *= scale[:, :, None]
        coupling = TemporalCoupling(data.epoch_counts, PriorConfig())
        avg = coupling.average(random_memberships(3, 5, 4, seed=7))
        prior = PriorConfig(beta_theta=2.5)
        theta = engine.theta_step(data, omega_sums, avg, prior)
        np.testing.assert_allclose(theta.sum(axis=2), 1.0, atol=1e-9)


class TestBlockUpdate:
    def test_single_cluster_single_label(self):
        data = Dataset([0], [0], [0], n_items=1, n_labels=1, n_epochs=1)
        p, reset = engine.block_step(data, np.array([[[2.0]]]), None, PriorConfig())
        np.testing.assert_array_equal(p, [[[1.0]]])
        assert reset == 0

    def test_plain_maximum_likelihood(self):
        data = random_dataset(1, 2, 2, 4, seed=8)
        omega_sums = np.array([[[3.0, 1.0]]])
        p, _ = engine.block_step(data, omega_sums, None, PriorConfig())
        np.testing.assert_allclose(p, [[[0.75, 0.25]]], atol=1e-15)

    def test_fixed_mode_returns_the_input_untouched(self):
        data = _two_label_dataset()
        current = BlockTensor([[0.3, 0.7], [0.9, 0.1]]).values
        result, reset = engine.block_step(data, np.ones((1, 2, 2)), None, PriorConfig(),
                                          mode="fixed", current=current)
        assert result is current
        assert reset == 0

    def test_dead_cluster_resets_to_uniform(self):
        data = _two_label_dataset()
        omega_sums = np.array([[[3.0, 1.0], [0.0, 0.0]]])
        p, rows_reset = engine.block_step(data, omega_sums, None, PriorConfig())
        np.testing.assert_allclose(p[0, 1], [0.5, 0.5], atol=1e-15)
        assert rows_reset == 1

    def test_static_mode_pools_epochs(self):
        # a shared slice is indexed by label alone: its sums arrive pooled over every epoch
        data = Dataset([0] * 8, [0, 0, 0, 1, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1],
                       n_items=1, n_labels=2, n_epochs=2)
        theta = np.ones((2, 1, 1))
        _, per_epoch, _ = engine.accumulate(theta, np.full((2, 1, 2), 0.5),
                                            engine.problem(data, PriorConfig(), 1, 2, 2))
        _, shared, _ = engine.accumulate(theta, np.full((1, 1, 2), 0.5),
                                         engine.problem(data, PriorConfig(), 1, 2, 1))
        np.testing.assert_array_equal(per_epoch, [[[3.0, 1.0]], [[1.0, 3.0]]])
        np.testing.assert_array_equal(shared, per_epoch.sum(axis=0, keepdims=True))
        p, _ = engine.block_step(data, shared, None, PriorConfig(), mode="static")
        np.testing.assert_allclose(p, [[[0.5, 0.5]]], atol=1e-15)

    def test_coupled_update_mixes_in_the_average(self):
        data = _two_epoch_dataset()
        omega_sums = np.array([[[3.0, 1.0]], [[1.0, 0.0]]])
        avg = np.array([[[0.5, 0.5]], [[0.25, 0.75]]])
        p, _ = engine.block_step(data, omega_sums, avg, PriorConfig(beta_p=4.0))
        # (3 + 4*0.5) / (4 + 4) and (1 + 4*0.5) / 8; (1 + 4*0.25) / 5 and 3 / 5
        np.testing.assert_allclose(p, [[[0.625, 0.375]], [[0.4, 0.6]]], atol=1e-15)

    def test_rows_sum_to_one(self):
        data = random_dataset(3, 4, 5, 60, seed=10)
        rng = np.random.default_rng(11)
        omega_sums = rng.random((3, 2, 5))
        coupling = TemporalCoupling(data.epoch_counts, PriorConfig())
        avg = coupling.average(random_blocks(3, 2, 5, seed=12))
        p, _ = engine.block_step(data, omega_sums, avg, PriorConfig(beta_p=1.5))
        np.testing.assert_allclose(p.sum(axis=2), 1.0, atol=1e-9)


class TestAccumulation:
    def test_matches_per_observation_responsibilities(self):
        data = random_dataset(3, 4, 3, 80, seed=13)
        theta = random_memberships(3, 4, 2, seed=14)
        p = random_blocks(3, 2, 3, seed=15)
        problem = engine.problem(data, PriorConfig(), 2, 3, 3)
        s_theta, s_p, loglik = engine.accumulate(theta, p, problem)
        expected_theta = np.zeros((3, 4, 2))
        expected_p = np.zeros((3, 2, 3))
        for node, label, epoch in zip(data.nodes, data.labels, data.epochs):
            omega = responsibilities(theta, p, node, label, epoch)
            expected_theta[epoch, node] += omega
            expected_p[epoch, :, label] += omega
        np.testing.assert_allclose(s_theta, expected_theta, atol=1e-10)
        np.testing.assert_allclose(s_p, expected_p, atol=1e-10)
        assert loglik == pytest.approx(log_posterior(theta, p, data), rel=1e-12)

    def test_static_block_pools_label_sums(self):
        data = random_dataset(3, 4, 3, 60, seed=16)
        theta = random_memberships(3, 4, 2, seed=17)
        p = random_blocks(1, 2, 3, seed=18)
        problem = engine.problem(data, PriorConfig(), 2, 3, 1)
        s_theta, s_p, loglik = engine.accumulate(theta, p, problem)
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
        problem = engine.problem(data, PriorConfig(), 3, 2, 2)
        s_theta, s_p, loglik = engine.accumulate(theta, p, problem)
        # every observation contributes exactly one unit of responsibility
        np.testing.assert_allclose(s_theta.sum(axis=2), item_counts(data), atol=1e-9)
        assert s_theta.sum() == pytest.approx(len(data), abs=1e-9)
        assert s_p.sum() == pytest.approx(len(data), abs=1e-9)
        assert loglik == pytest.approx(log_posterior(theta, p, data), rel=1e-12)

    @staticmethod
    def _three_epochs():
        """~80 triplets over 3 epochs; label 5 occurs only in the last epoch."""
        rng = np.random.default_rng(22)
        epochs = rng.integers(0, 3, size=200)
        labels = np.where(epochs == 2, rng.integers(0, 6, size=200),
                          rng.integers(0, 5, size=200))
        return Dataset(rng.integers(0, 6, size=200), labels, epochs,
                       n_items=6, n_labels=6, n_epochs=3)

    @pytest.mark.parametrize("n_clusters", [1, 3])
    @pytest.mark.parametrize("n_slices", [3, 1])
    def test_chunked_pass_matches_one_block(self, monkeypatch, n_clusters, n_slices):
        # every triplet carrying label 5 sits past the first block of 7
        data = self._three_epochs()
        problem = engine.problem(data, PriorConfig(), n_clusters, 3, n_slices)
        assert 70 <= problem.weights.size <= 100
        theta = random_memberships(3, 6, n_clusters, seed=23)
        p = random_blocks(n_slices, n_clusters, 6, seed=24)
        whole = engine.accumulate(theta, p, problem)
        monkeypatch.setattr(model, "CHUNK", 7)
        chunked = engine.accumulate(theta, p, problem)
        np.testing.assert_allclose(chunked[0], whole[0], rtol=1e-12)
        np.testing.assert_allclose(chunked[1], whole[1], rtol=1e-12)
        assert chunked[2] == pytest.approx(whole[2], rel=1e-12)

        # the first triplet (2, i, 5) becomes impossible: its theta row puts all
        # mass on cluster 0, which never emits label 5
        u = int(np.argmax((problem.epochs_u == 2) & (problem.labels_u == 5)))
        assert u >= model.CHUNK
        i = int(problem.nodes_u[u])
        theta[2, i] = np.eye(n_clusters)[0]
        p[0 if n_slices == 1 else 2, 0, 5] = 0.0
        with pytest.raises(DegenerateParameterError) as info:
            engine.accumulate(theta, p, problem)
        assert info.value.triplet == (i, 5, 2)

    def test_worker_count_does_not_change_the_bits(self, monkeypatch):
        # blocks of 7 run on 1, 2 and 3 threads, switching often, and merge in
        # block order: every sum, log-likelihood, objective and fit is the same bits
        data = self._three_epochs()
        monkeypatch.setattr(model, "CHUNK", 7)
        prior = PriorConfig(beta_theta=2.0, beta_p=3.0)
        theta = random_memberships(3, 6, 3, seed=23)
        p = random_blocks(3, 3, 6, seed=24)
        config = FitConfig(n_clusters=3, prior=prior, restarts=3, max_iterations=50)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(pool, "_workers", lambda: workers)
                problem = engine.problem(data, prior, 3, 3, 3)
                report = fit(data, config)
                runs.append([*engine.accumulate(theta, p, problem),
                             *engine.e_step(theta, p, problem),
                             report.theta.values, report.p.values, report.trace])
        finally:
            sys.setswitchinterval(interval)
        for run in runs[1:]:
            for got, expected in zip(run, runs[0]):
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_first_degenerate_block_is_named(self, monkeypatch, workers):
        data = self._three_epochs()
        monkeypatch.setattr(model, "CHUNK", 7)
        monkeypatch.setattr(pool, "_workers", lambda: workers)
        problem = engine.problem(data, PriorConfig(), 2, 3, 3)
        theta = random_memberships(3, 6, 2, seed=25)
        p = random_blocks(3, 2, 6, seed=26)
        epochs, nodes, labels = problem.epochs_u, problem.nodes_u, problem.labels_u
        # one triplet of block 2 and one of block 5, in a later epoch, become
        # impossible: their theta rows put all mass on cluster 0, which never
        # emits their labels
        bad = [2 * 7 + 3, 5 * 7 + 1]
        assert epochs[bad[0]] < epochs[bad[1]]
        for u in bad:
            theta[epochs[u], nodes[u]] = [1.0, 0.0]
            p[epochs[u], 0, labels[u]] = 0.0
        for u in bad:
            with pytest.raises(DegenerateParameterError) as info:
                engine.accumulate(theta, p, problem)
            assert info.value.triplet == (nodes[u], labels[u], epochs[u])
            p[epochs[u], 0, labels[u]] = 0.5  # now the later one fails first

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_reuse_their_buffers(self, monkeypatch, workers):
        # a pass allocates its sums and, per block, the bincounts of the
        # block's epochs; index, gather and product arrays of its own would
        # take 4 * 3 * 10000 * 8 bytes a block (blocks of 10000 keep numpy's
        # ufunc buffers of 8192 elements out of the count)
        data = random_dataset(20, 200, 10, 60000, seed=27)
        monkeypatch.setattr(model, "CHUNK", 10000)
        monkeypatch.setattr(pool, "_workers", lambda: workers)
        problem = engine.problem(data, PriorConfig(), 3, 20, 20)
        assert problem.weights.size > 3 * model.CHUNK
        theta = engine.working_copy(random_memberships(20, 200, 3, seed=28))
        p = random_blocks(20, 3, 10, seed=29)
        engine.accumulate(theta, p, problem)  # makes a buffer set per block in flight
        tracemalloc.start()
        try:
            engine.accumulate(theta, p, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (theta.size + p.size) * 8 + 3 * model.CHUNK * 8


class TestPriorPull:
    """A fit's problem decides once which families the prior pulls; the pass adds each pull."""

    @pytest.mark.parametrize("theta_slices,p_slices,betas", [
        (6, 6, (2.0, 3.0)),  # both families coupled
        (6, 6, (0.0, 3.0)),  # blocks alone
        (6, 6, (0.0, 0.0)),  # no prior
        (6, 1, (2.0, 3.0)),  # a static or one-slice fixed block tensor
        (1, 1, (2.0, 3.0)),  # one-slice memberships, as log_posterior may take them
    ], ids=["both", "blocks-alone", "no-prior", "one-block-slice", "one-slice-pair"])
    def test_sums_gain_the_pull_of_each_coupled_family(self, theta_slices, p_slices, betas):
        # epochs 3 and 4 are empty: with window 1, epoch 5 falls back
        rng = np.random.default_rng(50)
        data = Dataset(rng.integers(0, 5, size=60), rng.integers(0, 4, size=60),
                       rng.choice([0, 1, 2, 5], size=60), n_items=5, n_labels=4, n_epochs=6)
        prior = PriorConfig(beta_theta=betas[0], beta_p=betas[1], window=1)
        theta = random_memberships(theta_slices, 5, 3, seed=51)
        p = random_blocks(p_slices, 3, 4, seed=52)
        problem = engine.problem(data, prior, 3, theta_slices, p_slices)
        bare_theta, bare_p, loglik = engine.accumulate(theta, p, problem)
        s_theta, s_p, e_loglik, _ = engine.e_step(theta, p, problem)
        coupling = TemporalCoupling(data.epoch_counts, prior)
        for values, bare, sums, beta, average in (
                (theta, bare_theta, s_theta, betas[0], engine.average),
                (p, bare_p, s_p, betas[1], TemporalCoupling.average)):
            if beta > 0 and len(values) == data.n_epochs:
                np.testing.assert_array_equal(sums, bare + beta * average(coupling, values))
            else:
                np.testing.assert_array_equal(sums, bare)
        assert e_loglik == loglik

    @pytest.mark.parametrize("beta_p", [0.0, 2.0])
    @pytest.mark.parametrize("p_slices", [1, 6], ids=["one-slice", "per-epoch"])
    def test_held_blocks_get_no_sums(self, p_slices, beta_p):
        # a fixed block tensor is gathered for the mixture but never accumulated;
        # the membership sums and the objective, prior term included, stay as
        # the pass that accumulates both families gives them
        rng = np.random.default_rng(53)
        data = Dataset(rng.integers(0, 5, size=60), rng.integers(0, 4, size=60),
                       rng.choice([0, 1, 2, 5], size=60), n_items=5, n_labels=4, n_epochs=6)
        prior = PriorConfig(beta_theta=2.0, beta_p=beta_p, window=1)
        theta = random_memberships(6, 5, 3, seed=54)
        p = random_blocks(p_slices, 3, 4, seed=55)
        both = engine.e_step(theta, p, engine.problem(data, prior, 3, 6, p_slices))
        held = engine.e_step(theta, p, engine.problem(data, prior, 3, 6, p_slices, hold_p=True))
        assert held[1] is None
        np.testing.assert_array_equal(held[0], both[0])
        assert held[2:] == both[2:]

    @pytest.mark.parametrize("window", [None, 1], ids=["readme", "fallback-epochs"])
    def test_m_step_arrays_keep_the_bits_of_the_masked_log(self, window):
        # every array the M-step returns is floored above 0, so the objective
        # takes their plain log; where <x> is 0 that adds ±0, so it has the bits
        # of the log masked to <x> > 0.  The README bench; with window 1 and
        # epochs 10-11 and 13-14 emptied, epoch 12 averages to zero.
        data = sample_dataset(_toy_truth(100, 50, noise=0.05), 10, seed=0)
        if window:
            epochs, nodes, labels, weights = data.compressed()
            kept = ~np.isin(epochs, [10, 11, 13, 14])
            data = Dataset(nodes[kept], labels[kept], epochs[kept], 50, 3, 100,
                           weights=weights[kept])
        prior = PriorConfig(beta_theta=30.0, beta_p=30.0, window=window)
        problem = engine.problem(data, prior, 3, 100, 100)
        theta = random_memberships(100, 50, 3, seed=56)
        p = random_blocks(100, 3, 3, seed=57)
        for _ in range(3):
            theta, p, _ = engine.m_step(*engine.e_step(theta, p, problem)[:2], p, problem)
        _, _, loglik, objective = engine.e_step(theta, p, problem)
        for values in (theta, p):
            avg = problem.coupling.average(values)
            assert values.min() > 0 and (avg.min() == 0) == bool(window)
        expected = loglik
        for term in engine.masked_pulls(theta, p, problem):  # each 30 * <x> . log x, masked
            expected += term
        assert objective == expected


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
        problem = engine.problem(data, prior, n_clusters, 6, len(p), hold_p=p_mode == "fixed")

        s_theta, s_p, _ = engine.accumulate(theta, p,
                                            engine.problem(data, prior, n_clusters, 6, len(p)))
        sums_theta, sums_p, loglik, objective = engine.e_step(theta, p, problem)
        new_theta, new_p, rows_reset = engine.m_step(sums_theta, sums_p, p, problem)
        assert (sums_p is None) == (p_mode == "fixed")

        expected = sweep(theta, p, data, prior, p_mode)
        np.testing.assert_allclose(s_theta, expected.s_theta, rtol=1e-12)
        np.testing.assert_allclose(s_p, expected.s_p, rtol=1e-12)
        assert loglik == pytest.approx(expected.loglik, rel=1e-12)
        assert objective == pytest.approx(expected.objective, rel=1e-12)
        np.testing.assert_allclose(new_theta, expected.theta, rtol=1e-12)
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

    def test_lone_epoch_fits_as_if_uncoupled(self):
        # one epoch has no neighbours: its zero average leaves the prior flat,
        # so the strongest coupling gives the beta = 0 fit bit for bit
        data = sample_dataset(_toy_truth(1, 12, seed=5), 10, seed=5)
        flat, coupled = (
            fit(data, FitConfig(n_clusters=3, prior=PriorConfig(beta_theta=beta, beta_p=beta),
                                max_iterations=30, restarts=2, seed=3))
            for beta in (0.0, 100.0)
        )
        assert coupled.diagnostics["fallback_epochs"] == 1
        assert np.array_equal(coupled.theta.values, flat.theta.values)
        assert np.array_equal(coupled.p.values, flat.p.values)
        assert np.array_equal(coupled.trace, flat.trace)

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
        problem = engine.problem(data, prior, 3, 5, 5)
        fallback = problem.coupling.fallback
        theta = random_memberships(5, 10, 3, seed=9)
        p = random_blocks(5, 3, 3, seed=10)

        def frozen_objective(th, pv, averages):
            value = model.log_posterior(th, pv, data)
            for values, avg in zip((th, pv), averages):
                if avg is not None:
                    pull = np.where(avg > 0, avg * np.log(values), 0.0)
                    value += beta * pull[~fallback].sum()
            return value

        for _ in range(30):
            s_theta, s_p, *_ = engine.e_step(theta, p, problem)
            averages = engine.average(problem.coupling, theta), problem.coupling.average(p)
            before = frozen_objective(theta, p, averages)
            theta, p, _ = engine.m_step(s_theta, s_p, p, problem)
            after = frozen_objective(theta, p, averages)
            assert after >= before - 1e-10 * abs(before)

    def test_coupled_chain_stops_once_its_log_likelihood_settles(self, monkeypatch):
        # at beta=30 the prior term keeps the objective rising; the chain stops
        # at the first sweep whose log-likelihood moved less than tol from the last
        truth = _toy_truth(10, 20, seed=31)
        data = sample_dataset(truth, 20, seed=31)
        swept = []
        engine.watch_m_steps(monkeypatch, lambda theta, p: swept.append((theta.copy(), p.copy())))
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
        theta, p = engine.initial(data, config, 0)
        problem = engine.problem(data, config.prior, 3, 4, len(p))
        s_theta, s_p, *_ = engine.e_step(theta, p, problem)
        trace = []
        for _ in range(config.max_iterations):
            theta, p, s_theta, s_p, _, objective = engine.sweep(s_theta, s_p, p, problem)
            trace.append(objective)
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) < config.tol * abs(trace[-2]):
                break
        assert report.converged and report.n_iterations == len(trace) < config.max_iterations
        assert np.array_equal(report.trace, trace)
        assert np.array_equal(report.theta.values, theta)
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
        calls = engine.count_calls(monkeypatch, "e_step", "m_step")
        with caplog.at_level("DEBUG", logger="sdsbm.em"):
            with pytest.raises(DegenerateParameterError) as err:
                fit(data, config, start=start)
        assert err.value.triplet == triplet
        assert calls == {"e_step": 1, "m_step": 0}
        assert not [record for record in caplog.records if record.name == "sdsbm.em"]

    def test_tied_restarts_go_to_the_first(self, monkeypatch):
        engine.tie_every_objective(monkeypatch)
        data = sample_dataset(_toy_truth(3, 8, seed=13), 6, seed=13)
        report = fit(data, FitConfig(n_clusters=3, max_iterations=3, restarts=3, seed=8))
        assert report.best_restart == 0

    def test_diagnostics_are_reported(self):
        truth = _toy_truth(3, 8, seed=13)
        data = sample_dataset(truth, 6, seed=13)
        report = fit(data, FitConfig(n_clusters=3, max_iterations=10, restarts=1,
                                     seed=8))
        for key in ("aborted_restarts", "dead_cluster_resets", "fallback_epochs",
                    "seconds_per_iteration", "sweeps_total"):
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

    @pytest.mark.parametrize("case", ["static", "one-slice fixed", "log_posterior"])
    def test_a_prior_on_one_block_slice_builds_no_coupling(self, monkeypatch, case):
        # beta_p pulls only a block tensor with one slice per epoch: on one
        # shared slice it couples nothing, and no epoch falls back, although
        # with window 1 epochs 3 and 5 have no observed neighbour
        def refuse(*args, **kwargs):
            raise AssertionError("TemporalCoupling built for an uncoupled fit")

        monkeypatch.setattr(model, "TemporalCoupling", refuse)
        data = sample_dataset(_toy_truth(6, 8, seed=19), np.array([6, 6, 0, 0, 0, 6]), seed=19)
        prior = PriorConfig(beta_p=2.0, window=1)
        blocks = random_blocks(1, 3, 3, seed=20)
        if case == "log_posterior":
            theta = random_memberships(6, 8, 3, seed=21)
            value = model.log_posterior(theta, blocks, data, prior)
            assert value == model.log_posterior(theta, blocks, data)
            return
        fixed = case == "one-slice fixed"
        report = fit(data, FitConfig(n_clusters=3, prior=prior,
                                     p_mode="fixed" if fixed else "static",
                                     fixed_p=blocks if fixed else None,
                                     max_iterations=5, restarts=1, seed=13))
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

    @pytest.mark.parametrize("n_epochs", [1, 3])
    @pytest.mark.parametrize("p_mode", ["dynamic", "static"])
    def test_data_without_observations_resets_no_dead_clusters(self, caplog, p_mode, n_epochs):
        # no slice saw an observation, so no block row had mass to lose
        data = Dataset([], [], [], n_items=3, n_labels=2, n_epochs=n_epochs)
        with caplog.at_level("WARNING", logger="sdsbm.em"):
            report = fit(data, FitConfig(n_clusters=2, p_mode=p_mode, restarts=1,
                                         max_iterations=3))
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

    def test_objective_skips_the_log_of_structural_zeros(self):
        # block_matrix(0.05) has a zero in every row; fixed at all 10 epochs,
        # its neighbour average is zero there too, so the prior term leaves
        # log 0 out: an unmasked log gives nan for 0 * log 0
        data = sample_dataset(_toy_truth(10, 10, seed=14), 8, seed=14)
        blocks = np.repeat(block_matrix(0.05).values, 10, axis=0)
        prior = PriorConfig(beta_p=3.0)
        report = fit(data, FitConfig(n_clusters=3, prior=prior, p_mode="fixed", fixed_p=blocks,
                                     max_iterations=30, restarts=2, seed=10))
        assert np.all(np.isfinite(report.trace))
        assert report.objective == model.log_posterior(report.theta, report.p, data, prior)
        assert report.objective == pytest.approx(
            log_posterior(report.theta, report.p, data, prior), rel=1e-12)
        # every epoch is observed, so each one's average is the slice itself
        mass = blocks > 0
        prior_term = report.objective - model.log_posterior(report.theta, report.p, data)
        assert prior_term == pytest.approx(3.0 * np.sum(blocks[mass] * np.log(blocks[mass])),
                                           rel=1e-9)

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


def _assert_report_is(report, chain):
    theta, p, trace = chain
    assert np.array_equal(report.theta.values, theta)
    assert np.array_equal(report.p.values, p)
    assert np.array_equal(report.trace, trace)


class TestRacedRestarts:
    """Cold restarts race ``RACE_SWEEPS`` sweeps; only the leader runs on."""

    @staticmethod
    def _coupled(seed=1, restarts=3, **settings):
        data = sample_dataset(_toy_truth(6, 12, seed=seed), 10, seed=seed)
        config = FitConfig(n_clusters=3, prior=PriorConfig(beta_theta=5.0, beta_p=5.0),
                           restarts=restarts, seed=seed, **settings)
        return data, config

    @pytest.mark.parametrize("tol", [1e-6, 1e-300])
    def test_only_the_leader_sweeps_past_the_race(self, monkeypatch, tol):
        data, config = self._coupled(tol=tol, max_iterations=70)
        calls = engine.count_calls(monkeypatch, "m_step")
        report = fit(data, config)
        assert calls["m_step"] == report.diagnostics["sweeps_total"]
        assert report.n_iterations > em.RACE_SWEEPS
        if tol == 1e-300:  # no chain stops on its own
            assert report.diagnostics["sweeps_total"] == 2 * em.RACE_SWEEPS + 70

    def test_the_leader_ends_where_its_chain_run_alone_ends(self):
        data, config = self._coupled()
        report = fit(data, config)
        restart = report.best_restart
        assert restart > 0 and report.n_iterations > em.RACE_SWEEPS
        start = engine.initial(data, config, restart)
        _assert_report_is(report, engine.chain_alone(data, config, *start))
        assert report.diagnostics["sweeps_total"] == 2 * em.RACE_SWEEPS + report.n_iterations

    def test_chains_stopping_inside_the_race_keep_the_highest_final_objective(self):
        data = sample_dataset(_toy_truth(6, 12, seed=0), 10, seed=0)
        config = FitConfig(n_clusters=3, tol=1e-3, restarts=3, seed=0)
        chains = [engine.chain_alone(data, config, *engine.initial(data, config, restart))
                  for restart in range(3)]
        assert all(len(trace) < em.RACE_SWEEPS for *_, trace in chains)
        finals = [trace[-1] for *_, trace in chains]
        report = fit(data, config)
        assert report.best_restart == finals.index(max(finals)) > 0
        _assert_report_is(report, chains[report.best_restart])
        assert report.diagnostics["sweeps_total"] == sum(len(trace) for *_, trace in chains)

    def test_a_tie_at_the_race_goes_to_the_first(self, monkeypatch):
        data, config = self._coupled(max_iterations=60, tol=1e-300)
        engine.tie_every_objective(monkeypatch)
        report = fit(data, config)
        assert report.best_restart == 0 and report.n_iterations == 60
        start = engine.initial(data, config, 0)
        _assert_report_is(report, engine.chain_alone(data, config, *start))

    @pytest.mark.parametrize("warm", [False, True])
    def test_single_chains_are_unchanged(self, warm):
        # one restart, or a given start, is one chain run to its stop as before
        data, config = self._coupled(restarts=1 + 3 * warm)
        start = engine.initial(data, replace(config, seed=99), 0) if warm else None
        report = fit(data, config, start=start)
        assert report.n_iterations > em.RACE_SWEEPS and report.best_restart == 0
        assert report.diagnostics["sweeps_total"] == report.n_iterations
        start = start or engine.initial(data, config, 0)
        _assert_report_is(report, engine.chain_alone(data, config, *start))

    def test_seconds_per_iteration_times_the_winners_own_sweeps(self, monkeypatch):
        # a clock that moves 1 s per M-step: the losers' race sweeps, run
        # while the winner is paused, must not count toward its seconds
        now = [0.0]

        def tick(theta, p):
            now[0] += 1.0

        engine.watch_m_steps(monkeypatch, tick)
        monkeypatch.setattr(em, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        data, config = self._coupled(max_iterations=60, tol=1e-300)
        report = fit(data, config)
        assert report.best_restart > 0 and now[0] == 2 * em.RACE_SWEEPS + 60
        assert report.diagnostics["seconds_per_iteration"] == 1.0


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
        calls = engine.count_calls(monkeypatch, "chain")
        warm = fit(data, replace(config, prior=replace(prior, beta_theta=10.0)),
                   start=start)
        again = fit(data, replace(config, prior=replace(prior, beta_theta=10.0)),
                    start=start)
        assert calls == {"chain": 2}
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
