"""Planted-trajectory generators and the observation sampler."""
import numpy as np
import pytest
from scipy import stats

from sdsbm import (
    BlockTensor,
    ContractError,
    GroundTruth,
    MembershipTensor,
    PatternSpec,
    block_matrix,
    even_schedule,
    generate_memberships,
    sample_dataset,
)

from conftest import random_blocks
from model_reference import edge_probability


class TestBlockMatrix:
    def test_zero_noise_is_the_identity(self):
        np.testing.assert_array_equal(block_matrix(0.0).values[0], np.eye(3))

    def test_small_noise_rows(self):
        expected = [[0.95, 0.05, 0.0], [0.0, 0.95, 0.05], [0.05, 0.0, 0.95]]
        np.testing.assert_array_equal(block_matrix(0.05).values[0], expected)

    def test_half_noise_splits_rows_evenly(self):
        expected = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
        np.testing.assert_array_equal(block_matrix(0.5).values[0], expected)

    def test_is_a_single_static_slice(self):
        assert block_matrix(0.3).values.shape == (1, 3, 3)

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, np.nan])
    def test_rejects_out_of_range_noise(self, bad):
        with pytest.raises(ContractError):
            block_matrix(bad)


class TestPatternSpec:
    @pytest.mark.parametrize("bad", [
        {"kind": "sawtooth", "n_epochs": 5, "n_items": 2},
        {"kind": "sinusoidal", "n_epochs": 0, "n_items": 2},
        {"kind": "sinusoidal", "n_epochs": 5, "n_items": 0},
        {"kind": "sinusoidal", "n_epochs": 5, "n_items": 2, "n_clusters": 0},
        {"kind": "sinusoidal", "n_epochs": 5, "n_items": 2, "cycles": 0.0},
        {"kind": "sinusoidal", "n_epochs": 2.5, "n_items": 2},
        {"kind": "sinusoidal", "n_epochs": 5, "n_items": 2.5},
        {"kind": "sinusoidal", "n_epochs": 5, "n_items": 2, "n_clusters": 2.5},
        {"kind": "sinusoidal", "n_epochs": 5, "n_items": 2, "seed": 1.5},
        {"kind": "sinusoidal", "n_epochs": 5, "n_items": 2, "seed": -1},
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ContractError):
            PatternSpec(**bad)


class TestGenerateMemberships:
    def test_rows_are_on_the_simplex(self):
        for kind in ("sinusoidal", "broken_line"):
            spec = PatternSpec(kind=kind, n_epochs=40, n_items=7, seed=1)
            theta = generate_memberships(spec)
            assert theta.shape == (40, 7, 3)
            np.testing.assert_allclose(theta.values.sum(axis=2), 1.0, atol=1e-9)
            assert np.all(theta.values >= 0)

    def test_seeded_generation_is_deterministic(self):
        for kind in ("sinusoidal", "broken_line"):
            spec = PatternSpec(kind=kind, n_epochs=20, n_items=4, seed=5)
            a = generate_memberships(spec)
            b = generate_memberships(spec)
            assert np.array_equal(a.values, b.values)
            other = generate_memberships(
                PatternSpec(kind=kind, n_epochs=20, n_items=4, seed=6)
            )
            assert not np.array_equal(a.values, other.values)

    def test_sinusoidal_steps_are_small(self):
        # one raised sinusoid per cluster: per-epoch steps can never exceed
        # the phase increment divided by the cluster count
        spec = PatternSpec(kind="sinusoidal", n_epochs=100, n_items=10,
                           n_clusters=3, cycles=1.0, seed=2)
        theta = generate_memberships(spec).values
        steps = np.abs(np.diff(theta, axis=0)).max()
        assert steps <= 2 * np.pi * spec.cycles / (100 * 3) + 1e-9

    def test_sinusoidal_is_periodic(self):
        spec = PatternSpec(kind="sinusoidal", n_epochs=100, n_items=5, cycles=2.0,
                           seed=3)
        theta = generate_memberships(spec).values
        np.testing.assert_allclose(theta[:50], theta[50:], atol=1e-9)

    def test_sinusoidal_single_cluster_is_constant(self):
        spec = PatternSpec(kind="sinusoidal", n_epochs=5, n_items=2, n_clusters=1)
        np.testing.assert_array_equal(generate_memberships(spec).values, 1.0)

    def test_broken_line_steps_are_bounded(self):
        # at most 5 interior turning points on a half-jittered regular grid
        # keep every segment at least (T-1)/12 epochs long
        spec = PatternSpec(kind="broken_line", n_epochs=101, n_items=20, seed=4)
        theta = generate_memberships(spec).values
        steps = np.abs(np.diff(theta, axis=0)).max()
        assert steps <= 12.0 / 100 + 1e-9

    def test_broken_line_is_piecewise_linear_not_constant(self):
        spec = PatternSpec(kind="broken_line", n_epochs=60, n_items=3, seed=7)
        theta = generate_memberships(spec).values
        assert np.abs(np.diff(theta, axis=0)).max() > 0


class TestEvenSchedule:
    def test_spreads_remainder_from_the_first_to_the_last_epoch(self):
        np.testing.assert_array_equal(even_schedule(10, 3), [4, 3, 3])
        np.testing.assert_array_equal(even_schedule(5, 3), [2, 1, 2])

    def test_exact_division(self):
        np.testing.assert_array_equal(even_schedule(6, 3), [2, 2, 2])

    def test_budget_below_epoch_count(self):
        np.testing.assert_array_equal(even_schedule(2, 4), [1, 0, 0, 1])
        schedule = even_schedule(12, 30)
        assert schedule[0] == schedule[-1] == 1 and schedule.sum() == 12

    def test_total_is_preserved(self):
        for total, epochs in ((17, 5), (3, 7), (0, 4)):
            assert even_schedule(total, epochs).sum() == total

    def test_rejects_bad_arguments(self):
        with pytest.raises(ContractError):
            even_schedule(-1, 3)
        with pytest.raises(ContractError):
            even_schedule(5, 0)


def _truth(kind="sinusoidal", n_epochs=4, n_items=6, noise=0.2, seed=0):
    spec = PatternSpec(kind=kind, n_epochs=n_epochs, n_items=n_items, seed=seed)
    return GroundTruth(generate_memberships(spec), block_matrix(noise), spec)


class TestSampleDataset:
    def test_counts_follow_the_schedule_exactly(self):
        truth = _truth(n_epochs=3, n_items=4)
        data = sample_dataset(truth, [2, 0, 5], seed=1)
        np.testing.assert_array_equal(data.epoch_counts, [8, 0, 20])
        assert data.n_items == 4 and data.n_labels == 3 and data.n_epochs == 3
        per_item = np.bincount(data.epochs * 4 + data.nodes, minlength=12).reshape(3, 4)
        np.testing.assert_array_equal(per_item, [[2] * 4, [0] * 4, [5] * 4])

    @pytest.mark.parametrize("n_slices,n_clusters,match", [
        (9, 3, "1 or 6 epochs, got 9"),
        (3, 3, "1 or 6 epochs, got 3"),
        (1, 2, "memberships have K=3, block tensor has K=2"),
    ], ids=["nine-slices", "three-slices", "two-clusters"])
    def test_block_tensor_must_fit_the_memberships(self, n_slices, n_clusters, match):
        truth = _truth(n_epochs=6, n_items=4)
        blocks = BlockTensor(random_blocks(n_slices, n_clusters, 3, seed=3))
        with pytest.raises(ContractError, match=match):
            sample_dataset(GroundTruth(truth.theta, blocks, truth.pattern), 5, seed=1)

    def test_scalar_schedule_applies_to_every_epoch(self):
        truth = _truth(n_epochs=3, n_items=2)
        data = sample_dataset(truth, 7, seed=2)
        np.testing.assert_array_equal(data.epoch_counts, [14, 14, 14])

    def test_deterministic_labels_from_hard_memberships(self):
        assignments = np.array([0, 1, 2, 1])
        theta = np.zeros((2, 4, 3))
        theta[:, np.arange(4), assignments] = 1.0
        truth = GroundTruth(
            MembershipTensor(theta), block_matrix(0.0),
            PatternSpec(kind="sinusoidal", n_epochs=2, n_items=4),
        )
        data = sample_dataset(truth, 5, seed=3)
        np.testing.assert_array_equal(data.labels, assignments[data.nodes])

    def test_seeded_sampling_is_deterministic(self):
        truth = _truth()
        a = sample_dataset(truth, 6, seed=9)
        b = sample_dataset(truth, 6, seed=9)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.epochs, b.epochs)
        c = sample_dataset(truth, 6, seed=10)
        assert not (np.array_equal(a.nodes, c.nodes)
                    and np.array_equal(a.labels, c.labels))

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ContractError, match="seed"):
            sample_dataset(_truth(), 2, seed=seed)

    def test_rejects_bad_schedules(self):
        truth = _truth(n_epochs=3)
        with pytest.raises(ContractError):
            sample_dataset(truth, [1, 2], seed=0)
        with pytest.raises(ContractError):
            sample_dataset(truth, [-1, 1, 1], seed=0)

    def test_label_frequencies_match_the_mixture(self):
        # empirical frequencies converge to the planted mixture: every
        # (item, epoch, label) cell within 3.5 standard errors
        truth = _truth(n_epochs=2, n_items=3, noise=0.25, seed=4)
        n = 20000
        data = sample_dataset(truth, n, seed=5)
        for t in range(2):
            for i in range(3):
                labels = data.labels[(data.nodes == i) & (data.epochs == t)]
                freq = np.bincount(labels, minlength=3) / n
                for o in range(3):
                    q = edge_probability(truth.theta, truth.p, i, o, t)
                    se = np.sqrt(q * (1 - q) / n)
                    assert abs(freq[o] - q) <= 3.5 * se + 1e-12

    def test_sampler_passes_a_goodness_of_fit_check(self):
        # chi-squared against the planted mixtures, pooled over every
        # (item, epoch) cell, must not reject at the 1% level
        truth = _truth(n_epochs=3, n_items=5, noise=0.3, seed=6)
        n = 4000
        data = sample_dataset(truth, n, seed=7)
        statistic = 0.0
        dof = 0
        for t in range(3):
            mix = truth.theta.values[t] @ truth.p.values[0]
            for i in range(5):
                observed = np.bincount(
                    data.labels[(data.nodes == i) & (data.epochs == t)], minlength=3
                )
                expected = n * mix[i]
                keep = expected > 0
                statistic += ((observed[keep] - expected[keep]) ** 2
                              / expected[keep]).sum()
                dof += int(keep.sum()) - 1
        p_value = stats.chi2.sf(statistic, dof)
        assert p_value > 0.01
