"""Temporal coupling: kernel weights, neighbour averages, concentrations, modes."""
import tracemalloc

import numpy as np
import pytest

from sdsbm import ContractError, PriorConfig
from sdsbm.prior import TemporalCoupling

from conftest import random_memberships
from prior_reference import (
    concentration,
    dirichlet_mode,
    kernel_weight,
    neighbour_average,
)


class TestPriorConfig:
    def test_defaults_are_decoupled(self):
        config = PriorConfig()
        assert config.beta_theta == 0.0 and config.beta_p == 0.0
        assert config.kernel_exponent == 1 and config.window is None

    @pytest.mark.parametrize("bad", [{"beta_theta": -1.0}, {"beta_p": np.inf},
                                     {"kernel_exponent": 0}, {"kernel_exponent": 1.5},
                                     {"kernel_exponent": 2.0}, {"window": 0},
                                     {"window": 1.5}])
    def test_rejects_bad_settings(self, bad):
        with pytest.raises(ContractError):
            PriorConfig(**bad)


class TestKernelWeight:
    COUNTS = [2, 10, 7, 3, 10]

    def test_adjacent_epoch(self):
        assert kernel_weight(2, 1, self.COUNTS, 1) == 10.0

    def test_two_slices_away(self):
        assert kernel_weight(2, 4, self.COUNTS, 1) == 5.0

    def test_default_exponent_is_one(self):
        assert kernel_weight(2, 4, self.COUNTS) == 5.0

    def test_steeper_exponent(self):
        assert kernel_weight(2, 4, self.COUNTS, 2) == 2.5

    def test_empty_epoch_has_no_weight(self):
        assert kernel_weight(0, 3, [5, 1, 1, 0]) == 0.0

    def test_self_weight_is_a_contract_violation(self):
        with pytest.raises(ContractError):
            kernel_weight(2, 2, self.COUNTS)

    def test_epoch_out_of_range(self):
        with pytest.raises(ContractError):
            kernel_weight(0, 9, self.COUNTS)

    def test_bad_exponent(self):
        with pytest.raises(ContractError):
            kernel_weight(0, 1, self.COUNTS, 0)

    def test_symmetric_in_distance_up_to_counts(self):
        # the gap enters only through |t - t'|; equal counts make it symmetric
        counts = [4, 9, 4]
        assert kernel_weight(1, 0, counts) == kernel_weight(1, 2, counts)


class TestNeighbourAverage:
    def test_hand_computed_average(self):
        # seen from epoch 0: epoch 1 weighs 10/1, epoch 2 weighs 10/2
        counts = [3, 10, 10]
        param = np.array([[[0.5, 0.5]], [[0.8, 0.2]], [[0.2, 0.8]]])
        result = neighbour_average(param, counts, PriorConfig(), t=0)
        assert not result.fallback
        np.testing.assert_allclose(result.values, [[0.6, 0.4]], atol=1e-12)

    def test_constant_rows_average_to_themselves(self):
        row = np.array([[0.3, 0.6, 0.1]])
        param = np.broadcast_to(row, (5, 1, 3)).copy()
        counts = [4, 0, 2, 9, 1]
        result = neighbour_average(param, counts, PriorConfig(), t=2)
        np.testing.assert_allclose(result.values, row, atol=1e-12)

    def test_rows_stay_normalized(self):
        param = random_memberships(6, 5, 3, seed=1)
        counts = [3, 1, 4, 1, 5, 9]
        for t in range(6):
            result = neighbour_average(param, counts, PriorConfig(), t)
            np.testing.assert_allclose(result.values.sum(axis=-1), 1.0, atol=1e-9)

    def test_single_epoch_falls_back_to_uniform(self):
        param = random_memberships(1, 2, 4)
        result = neighbour_average(param, [7], PriorConfig(), t=0)
        assert result.fallback
        np.testing.assert_array_equal(result.values, np.full((2, 4), 0.25))

    def test_all_neighbours_empty_falls_back(self):
        param = random_memberships(3, 2, 2)
        result = neighbour_average(param, [0, 5, 0], PriorConfig(), t=1)
        assert result.fallback

    def test_window_excludes_far_epochs(self):
        param = random_memberships(4, 1, 2, seed=2)
        counts = [5, 5, 5, 5]
        config = PriorConfig(window=1)
        result = neighbour_average(param, counts, config, t=0)
        np.testing.assert_allclose(result.values, param[1], atol=1e-15)

    def test_enlarging_window_over_empty_epochs_changes_nothing(self):
        param = random_memberships(4, 2, 3, seed=3)
        counts = [3, 4, 0, 0]
        narrow = neighbour_average(param, counts, PriorConfig(window=1), t=0)
        wide = neighbour_average(param, counts, PriorConfig(window=3), t=0)
        np.testing.assert_allclose(narrow.values, wide.values, atol=1e-15)

    def test_nearest_heavy_neighbour_dominates(self):
        param = random_memberships(4, 2, 3, seed=4)
        counts = [0, 10**12, 1, 1]
        result = neighbour_average(param, counts, PriorConfig(), t=0)
        np.testing.assert_allclose(result.values, param[1], atol=1e-9)

    def test_epoch_extent_checks(self):
        param = random_memberships(3, 1, 2)
        with pytest.raises(ContractError):
            neighbour_average(param, [1, 1], PriorConfig(), t=0)
        with pytest.raises(ContractError):
            neighbour_average(param, [1, 1, 1], PriorConfig(), t=5)


class TestTemporalCoupling:
    def test_matches_per_epoch_averages(self):
        param = random_memberships(5, 3, 4, seed=5)
        counts = [2, 0, 7, 1, 3]
        config = PriorConfig(kernel_exponent=2)
        coupling = TemporalCoupling(counts, config)
        values = coupling.average(param)
        for t in range(5):
            single = neighbour_average(param, counts, config, t)
            np.testing.assert_allclose(values[t], single.values, atol=1e-12)
            assert coupling.fallback[t] == single.fallback

    def test_windowed_coupling_matches(self):
        param = random_memberships(6, 2, 3, seed=6)
        counts = [1, 2, 3, 4, 5, 6]
        config = PriorConfig(window=2)
        coupling = TemporalCoupling(counts, config)
        values = coupling.average(param)
        for t in range(6):
            single = neighbour_average(param, counts, config, t)
            np.testing.assert_allclose(values[t], single.values, atol=1e-12)

    def test_fallback_rows_are_zero_and_flagged(self):
        # epoch 1's only neighbours are empty; epochs 0 and 2 see epoch 1
        coupling = TemporalCoupling([0, 5, 0], PriorConfig())
        values = coupling.average(random_memberships(3, 2, 4))
        assert coupling.fallback.tolist() == [False, True, False]
        np.testing.assert_array_equal(values[1], np.zeros((2, 4)))
        np.testing.assert_allclose(values.sum(axis=-1)[[0, 2]], 1.0, atol=1e-12)

    def test_epoch_mismatch_rejected(self):
        coupling = TemporalCoupling([1, 2], PriorConfig())
        with pytest.raises(ContractError):
            coupling.average(random_memberships(3, 1, 2))

    def test_rejects_zero_epochs(self):
        with pytest.raises(ContractError, match="at least one epoch"):
            TemporalCoupling([], PriorConfig())

    def test_rejects_negative_counts(self):
        with pytest.raises(ContractError):
            TemporalCoupling([3, -1], PriorConfig())

    @pytest.mark.parametrize("exponent,window", [(1, None), (2, None), (3, 7), (1, 1)])
    def test_built_in_one_buffer_with_the_kernel_formula(self, exponent, window):
        # T = 1000 empty and populated epochs: the construction peaks near one
        # (T, T) float matrix, and the matrix is bit for bit the plain formula
        T = 1000
        counts = np.random.default_rng(7).integers(0, 4, size=T)
        config = PriorConfig(kernel_exponent=exponent, window=window)
        tracemalloc.start()
        try:
            matrix = TemporalCoupling(counts, config).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * T * T * 8

        gap = np.abs(np.arange(T)[:, None] - np.arange(T)[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            w = counts[None, :] / gap.astype(float) ** exponent
        np.fill_diagonal(w, 0.0)
        if window is not None:
            w[gap > window] = 0.0
        row_sums = w.sum(axis=1)
        expected = w / np.where(row_sums == 0, 1.0, row_sums)[:, None]
        expected[row_sums == 0] = 0.0
        assert np.array_equal(matrix, expected)


class TestConcentration:
    def test_zero_coupling_is_flat(self):
        param = random_memberships(3, 2, 4, seed=7)
        alpha = concentration(param, [1, 1, 1], PriorConfig(), t=0)
        np.testing.assert_array_equal(alpha, np.ones((2, 4)))

    def test_hand_computed_entry(self):
        counts = [3, 10, 10]
        param = np.array([[[0.5, 0.5]], [[0.8, 0.2]], [[0.2, 0.8]]])
        config = PriorConfig(beta_theta=10.0)
        alpha = concentration(param, counts, config, t=0)
        np.testing.assert_allclose(alpha, [[7.0, 5.0]], atol=1e-12)

    def test_fallback_uniform_concentration(self):
        # an epoch with no weighted neighbours takes the flat beta=0 prior
        param = random_memberships(1, 1, 4)
        alpha = concentration(param, [9], PriorConfig(beta_theta=1.0), t=0)
        np.testing.assert_array_equal(alpha, np.ones((1, 4)))

    def test_family_selects_beta(self):
        param = random_memberships(2, 1, 2, seed=8)
        counts = [1, 1]
        config = PriorConfig(beta_theta=0.0, beta_p=4.0)
        np.testing.assert_array_equal(
            concentration(param, counts, config, 0, family="theta"), np.ones((1, 2))
        )
        alpha_p = concentration(param, counts, config, 0, family="p")
        assert np.all(alpha_p > 1.0)

    def test_entries_never_below_one(self):
        param = random_memberships(4, 3, 3, seed=9)
        alpha = concentration(param, [1, 2, 3, 4], PriorConfig(beta_theta=7.0), t=2)
        assert np.all(alpha >= 1.0)


class TestDirichletMode:
    def test_symmetric_concentration(self):
        mode = dirichlet_mode([2.0, 2.0, 2.0])
        assert not mode.uniform
        np.testing.assert_allclose(mode.values, [1 / 3] * 3, atol=1e-15)

    def test_recovers_the_underlying_average(self):
        alpha = 1.0 + 10.0 * np.array([0.7, 0.2, 0.1])
        mode = dirichlet_mode(alpha)
        np.testing.assert_allclose(mode.values, [0.7, 0.2, 0.1], atol=1e-12)
        assert not mode.uniform

    def test_flat_concentration_flags_uniform(self):
        mode = dirichlet_mode([1.0, 1.0])
        assert mode.uniform
        np.testing.assert_array_equal(mode.values, [0.5, 0.5])

    def test_boundary_component(self):
        mode = dirichlet_mode([1.0, 2.0])
        np.testing.assert_allclose(mode.values, [0.0, 1.0], atol=1e-15)

    def test_symmetric_below_one_is_uniform(self):
        mode = dirichlet_mode([0.5, 0.5, 0.5])
        assert mode.uniform

    def test_rejects_asymmetric_below_one(self):
        with pytest.raises(ContractError):
            dirichlet_mode([0.5, 2.0, 0.3])

    def test_rejects_zero_excess_mixture(self):
        with pytest.raises(ContractError):
            dirichlet_mode([0.9, 1.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            dirichlet_mode([np.inf, 1.0])

    def test_mode_of_concentration_is_the_average(self):
        # round trip at 1e-12: concentration then mode gives back the average
        param = random_memberships(5, 4, 3, seed=10)
        counts = [4, 6, 0, 2, 8]
        config = PriorConfig(beta_theta=3.5)
        for t in range(5):
            avg = neighbour_average(param, counts, config, t)
            alpha = concentration(param, counts, config, t)
            for i in range(4):
                mode = dirichlet_mode(alpha[i])
                np.testing.assert_allclose(mode.values, avg.values[i], atol=1e-12)
