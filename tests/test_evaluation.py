"""Splits, ranking metrics, alignment error, flows, cross-validation."""
import csv
import itertools
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import linear_sum_assignment

from sdsbm import (
    BlockTensor,
    ContractError,
    Dataset,
    FitConfig,
    GroundTruth,
    MembershipTensor,
    PatternSpec,
    PriorConfig,
    SplitPlan,
    average_precision,
    block_matrix,
    coverage_error_normalized,
    cross_validate,
    flow_matrix,
    generate_memberships,
    membership_flows,
    rmse_aligned,
    roc_auc,
    sample_dataset,
    score_test_set,
    write_results,
)
from sdsbm import evaluation
from sdsbm.evaluation import (
    DEFAULT_BETA_GRID,
    FAMILIES,
    EvalResult,
    FoldOutcome,
    _family_config,
)

import evaluation_reference as reference
from conftest import random_blocks, random_dataset, random_memberships, score_table


def brute_force_auc(scores, positives):
    """Pair-counting AUC: every positive-negative pair, ties worth half."""
    pos = scores[positives]
    neg = scores[~positives]
    total = 0.0
    for sp in pos:
        for sn in neg:
            total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return total / (pos.size * neg.size)


def reference_average_precision(scores, positives):
    """Threshold sweep over distinct scores, tied scores entering together."""
    ap = 0.0
    previous_tp = 0
    for threshold in np.unique(scores)[::-1]:
        selected = scores >= threshold
        tp = int(positives[selected].sum())
        ap += (tp / selected.sum()) * (tp - previous_tp)
        previous_tp = tp
    return ap / positives.sum()


def random_table(rng, n_rows, n_labels, levels=None):
    if levels is None:
        scores = rng.random((n_rows, n_labels))
    else:
        scores = rng.choice(levels, size=(n_rows, n_labels))
    return score_table(scores, rng.integers(0, n_labels, size=n_rows))


class TestSplitPlan:
    def test_fractions_give_expected_sizes(self):
        data = random_dataset(4, 10, 5, 100, seed=1)
        train, val, test = SplitPlan(seed=3).split(data, 0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_splits_partition_the_observations(self):
        data = random_dataset(3, 6, 4, 90, seed=2)
        train, val, test = SplitPlan().split(data, 2)
        combined = np.sort(np.concatenate([
            part.epochs * 1000 + part.nodes * 10 + part.labels
            for part in (train, val, test)
        ]))
        original = np.sort(data.epochs * 1000 + data.nodes * 10 + data.labels)
        np.testing.assert_array_equal(combined, original)

    def test_parts_follow_the_per_observation_law(self):
        # each fold's per-triplet train, validation and test counts have the
        # law of the reference's permutation of the expanded observations:
        # chi-squared on the joint outcomes of 2000 folds of each, at the 1%
        # level, outcomes seen fewer than 10 times pooled into one
        data = Dataset([0, 1, 2], [1, 0, 1], [0, 1, 1], n_items=3, n_labels=2, n_epochs=2,
                       weights=[5, 3, 2])  # node u is triplet u
        plan = SplitPlan(n_folds=2000, train_fraction=0.5, validation_fraction=0.3)

        def outcome(parts):
            return tuple(tuple(np.bincount(part.compressed()[1], weights=part.compressed()[3],
                                           minlength=3).astype(int))
                         for part in parts)

        got = Counter(outcome(plan.split(data, fold)) for fold in range(plan.n_folds))
        want = Counter(outcome(reference.split(plan, data, fold))
                       for fold in range(plan.n_folds))
        assert all(sum(map(sum, parts)) == 10 for parts in got)
        common = [key for key in got | want if got[key] + want[key] >= 10]
        table = [[counts[key] for key in common] for counts in (got, want)]
        table = [row + [plan.n_folds - sum(row)] for row in table]
        assert stats.chi2_contingency(table)[1] > 0.01

    def test_a_heavy_triplet_splits_in_little_memory(self):
        # the draw is per triplet, never one entry per observation
        data = Dataset([0, 1, 2], [1, 0, 1], [0, 1, 1], n_items=3, n_labels=2, n_epochs=2,
                       weights=[10**7, 7, 13])
        tracemalloc.start()
        try:
            parts = SplitPlan().split(data, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert sum(len(part) for part in parts) == len(data)

    def test_a_billion_observations_are_refused(self):
        # numpy's exact draw takes totals below 10**9; a larger one is an
        # input error before anything is drawn
        data = Dataset([0, 1, 2], [1, 0, 1], [0, 1, 1], n_items=3, n_labels=2, n_epochs=2,
                       weights=[10**9 - 20, 7, 13])
        with pytest.raises(ContractError, match="fewer than 1000000000"):
            SplitPlan().split(data, 0)

    def test_extents_are_preserved(self):
        data = random_dataset(5, 6, 4, 60, seed=3)
        train, _, _ = SplitPlan().split(data, 0)
        assert (train.n_epochs, train.n_items, train.n_labels) == (5, 6, 4)

    def test_folds_differ_and_reproduce(self):
        data = random_dataset(3, 6, 4, 60, seed=4)
        plan = SplitPlan(seed=9)
        first = plan.split(data, 0)
        again = plan.split(data, 0)
        np.testing.assert_array_equal(first[0].nodes, again[0].nodes)
        other = plan.split(data, 1)
        assert not np.array_equal(first[0].nodes, other[0].nodes)

    def test_fold_out_of_range(self):
        data = random_dataset(2, 4, 3, 30, seed=5)
        with pytest.raises(ContractError):
            SplitPlan(n_folds=5).split(data, 5)

    def test_tiny_dataset_cannot_fill_three_splits(self):
        data = random_dataset(1, 4, 3, 5, seed=6)
        with pytest.raises(ContractError):
            SplitPlan().split(data, 0)

    @pytest.mark.parametrize("bad", [
        {"n_folds": 0},
        {"train_fraction": 0.0},
        {"validation_fraction": 1.0},
        {"train_fraction": 0.9, "validation_fraction": 0.2},
        {"n_folds": 2.5},
        {"seed": 1.5},
        {"seed": -1},
    ])
    def test_rejects_bad_plans(self, bad):
        with pytest.raises(ContractError):
            SplitPlan(**bad)


class TestScoreTestSet:
    def test_scores_are_the_model_mixtures(self):
        # one row per unique test triplet, weighted by its multiplicity
        theta = random_memberships(2, 3, 2, seed=7)
        p = random_blocks(2, 2, 4, seed=8)
        test = random_dataset(2, 3, 4, 20, seed=9)
        epochs, nodes, labels, weights = test.compressed()
        assert weights.sum() == 20 and weights.size < 20
        table = score_test_set(theta, p, test)
        expected = np.einsum("nk,nko->no", theta[epochs, nodes], p[epochs])
        np.testing.assert_allclose(table.scores, expected, atol=1e-12)
        np.testing.assert_array_equal(table.true_labels, labels)
        np.testing.assert_array_equal(table.weights, weights)

    def test_other_extents_are_rejected(self):
        theta = random_memberships(2, 2, 2, seed=10)
        p = random_blocks(2, 2, 3, seed=11)
        # wider on every axis, then on one axis at a time, then fewer epochs
        for extents in ((4, 5, 3), (4, 2, 3), (2, 5, 3), (2, 2, 4), (1, 2, 3)):
            test = random_dataset(*extents, 40, seed=12)
            with pytest.raises(ContractError, match="covers"):
                score_test_set(theta, p, test)

    def test_collapsed_model_scores_every_epoch_with_its_single_slice(self):
        theta = random_memberships(1, 3, 2, seed=13)
        p = random_blocks(1, 2, 3, seed=14)
        test = random_dataset(6, 3, 3, 30, seed=15)
        table = score_test_set(theta, p, test)
        _, nodes, _, weights = test.compressed()
        assert table.scores.shape == (weights.size, 3)
        expected = theta[0, nodes] @ p[0]
        np.testing.assert_allclose(table.scores, expected, atol=1e-12)

    def test_accepts_tensors_and_a_shared_block_slice(self):
        theta = random_memberships(3, 3, 2, seed=19)
        p = random_blocks(1, 2, 4, seed=20)
        test = random_dataset(3, 3, 4, 25, seed=21)
        table = score_test_set(MembershipTensor(theta), BlockTensor(p), test)
        epochs, nodes, _, _ = test.compressed()
        expected = np.einsum("nk,ko->no", theta[epochs, nodes], p[0])
        np.testing.assert_allclose(table.scores, expected, atol=1e-12)


class TestRocAuc:
    def test_perfect_separation(self):
        table = score_table(np.array([[0.9, 0.1], [0.8, 0.2]]), np.array([0, 0]))
        assert roc_auc(table) == 1.0

    def test_all_ties_sit_in_the_middle(self):
        table = score_table(np.full((3, 4), 0.25), np.array([0, 1, 2]))
        assert roc_auc(table) == 0.5

    def test_hand_counted_pairs(self):
        # flattened pairs: positives 0.9 and 0.3, negatives 0.8 and 0.1;
        # three of the four orderings are correct
        table = score_table(np.array([[0.9, 0.8], [0.1, 0.3]]), np.array([0, 1]))
        assert roc_auc(table) == 0.75

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(19)
        for trial in range(40):
            levels = np.linspace(0.1, 0.9, 5) if trial % 2 else None
            table = random_table(rng, n_rows=5, n_labels=4, levels=levels)
            scores = table.scores.ravel()
            positives = np.zeros(scores.size, dtype=bool)
            positives[np.arange(5) * 4 + table.true_labels] = True
            assert roc_auc(table) == brute_force_auc(scores, positives)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(20)
        table = random_table(rng, 8, 3, levels=np.array([0.1, 0.2, 0.5]))
        transformed = score_table(np.exp(5.0 * table.scores), table.true_labels)
        assert roc_auc(table) == roc_auc(transformed)

    def test_rejects_degenerate_tables(self):
        with pytest.raises(ContractError):
            roc_auc(score_table(np.empty((0, 3)), np.empty(0, dtype=int)))
        with pytest.raises(ContractError):
            roc_auc(score_table(np.ones((3, 1)), np.zeros(3, dtype=int)))

    def test_rejects_true_labels_that_do_not_match_the_rows(self):
        with pytest.raises(ContractError, match="true labels do not match"):
            roc_auc(score_table(np.full((3, 2), 0.5), np.zeros(2, dtype=int)))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        table = score_table(np.array([[0.9, 0.1], [0.8, 0.2]]), np.array([0, 0]))
        assert average_precision(table) == 1.0

    def test_hand_computed_value(self):
        # sorted pairs: pos 0.9, neg 0.7, pos 0.5, neg 0.2 -> (1 + 2/3) / 2
        table = score_table(np.array([[0.9, 0.7], [0.5, 0.2]]), np.array([0, 0]))
        assert average_precision(table) == pytest.approx(5 / 6, abs=1e-12)

    def test_matches_the_threshold_sweep(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            levels = np.array([0.1, 0.3, 0.6]) if trial % 2 else None
            table = random_table(rng, 6, 3, levels=levels)
            scores = table.scores.ravel()
            positives = np.zeros(scores.size, dtype=bool)
            positives[np.arange(6) * 3 + table.true_labels] = True
            assert average_precision(table) == pytest.approx(
                reference_average_precision(scores, positives), abs=1e-12
            )

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(22)
        table = random_table(rng, 10, 4, levels=np.array([0.2, 0.4, 0.8]))
        shuffled = rng.permutation(10)
        reordered = score_table(table.scores[shuffled], table.true_labels[shuffled])
        assert average_precision(table) == pytest.approx(
            average_precision(reordered), abs=1e-12
        )


class TestCoverageError:
    def test_true_label_first_is_zero(self):
        table = score_table(np.array([[0.7, 0.2, 0.1]] * 3), np.array([0, 0, 0]))
        assert coverage_error_normalized(table) == 0.0

    def test_true_label_last_is_one(self):
        table = score_table(np.array([[0.7, 0.2, 0.1]] * 2), np.array([2, 2]))
        assert coverage_error_normalized(table) == 1.0

    def test_uniform_scores_sit_at_one_half(self):
        table = score_table(np.full((4, 5), 0.2), np.array([0, 1, 2, 3]))
        assert coverage_error_normalized(table) == 0.5

    def test_random_scores_average_near_one_half(self):
        rng = np.random.default_rng(23)
        table = random_table(rng, 4000, 6)
        assert abs(coverage_error_normalized(table) - 0.5) < 0.02

    def test_stable_under_rescaling(self):
        rng = np.random.default_rng(24)
        table = random_table(rng, 10, 4, levels=np.array([0.1, 0.5, 0.9]))
        scaled = score_table(7.0 * table.scores, table.true_labels)
        assert coverage_error_normalized(table) == coverage_error_normalized(scaled)

    def test_single_label_is_undefined(self):
        with pytest.raises(ContractError):
            coverage_error_normalized(score_table(np.ones((3, 1)),
                                                 np.zeros(3, dtype=int)))


@pytest.mark.parametrize("metric", [roc_auc, average_precision, coverage_error_normalized])
@pytest.mark.parametrize("scores, true_labels, message", [
    (np.full((2, 3), 1 / 3), [3, 0], r"true labels must lie in \[0, 3\)"),
    (np.full((2, 3), 1 / 3), [-1, 0], r"true labels must lie in \[0, 3\)"),
    ([[0.2, np.nan, 0.3], [0.5, 0.1, 0.4]], [0, 1], "scores must be finite"),
    ([[0.2, np.inf, 0.3], [0.5, 0.1, 0.4]], [0, 1], "scores must be finite"),
    (np.full((2, 3), 1 / 3), [2.0, 0.0], "true labels must be integers"),
])
def test_metrics_reject_tables_they_cannot_score(metric, scores, true_labels, message):
    table = score_table(np.array(scores), np.array(true_labels))
    with pytest.raises(ContractError, match=message):
        metric(table)


@pytest.mark.parametrize("metric, expected", [
    (roc_auc, reference.roc_auc),
    (average_precision, reference.average_precision),
    (coverage_error_normalized, reference.coverage_error_normalized),
])
def test_weighted_metrics_equal_their_expanded_tables(metric, expected):
    # every weighted value is exact: the table with row r repeated weights[r]
    # times, scored one observation per row, gives the same float
    rng = np.random.default_rng(41)
    for trial in range(150):
        n_rows, n_labels = int(rng.integers(1, 25)), int(rng.integers(2, 6))
        levels = None if trial % 3 == 0 else np.linspace(0.1, 0.9, int(rng.integers(1, 6)))
        unit = random_table(rng, n_rows, n_labels, levels=levels)
        table = score_table(unit.scores, unit.true_labels,
                            rng.integers(1, 2000 if trial % 2 else 4, size=n_rows))
        expanded = reference.expand_table(table.scores, table.true_labels, table.weights)
        assert metric(table) == expected(*expanded)
        assert metric(score_table(*expanded)) == expected(*expanded)


@pytest.mark.parametrize("metric", [roc_auc, average_precision, coverage_error_normalized])
@pytest.mark.parametrize("weights, message", [
    (np.ones(3, dtype=np.int64), "one integer per score row"),
    (np.ones((2, 1), dtype=np.int64), "one integer per score row"),
    (np.ones(2), "one integer per score row"),
    (np.array([1, 0]), "weights must be >= 1, got 0"),
    (np.array([2, -3]), "weights must be >= 1, got -3"),
])
def test_metrics_reject_bad_weights(metric, weights, message):
    table = score_table(np.full((2, 3), 1 / 3), [0, 1], weights)
    with pytest.raises(ContractError, match=message):
        metric(table)


class TestRmseAligned:
    def test_identical_tensors_score_zero(self):
        theta = random_memberships(3, 4, 3, seed=25)
        assert rmse_aligned(theta, theta) == 0.0

    def test_column_permutation_is_absorbed(self):
        theta = random_memberships(3, 4, 4, seed=26)
        permuted = theta[:, :, [2, 0, 3, 1]]
        assert rmse_aligned(permuted, theta) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_versus_one_hot(self):
        truth = np.zeros((1, 6, 3))
        truth[0, np.arange(6), np.arange(6) % 3] = 1.0
        uniform = np.full((1, 6, 3), 1 / 3)
        assert rmse_aligned(uniform, truth) == pytest.approx(np.sqrt(2 / 9),
                                                             abs=1e-12)

    def test_invariant_under_permuting_either_argument(self):
        rng = np.random.default_rng(27)
        est = random_memberships(2, 5, 4, seed=28)
        tru = random_memberships(2, 5, 4, seed=29)
        base = rmse_aligned(est, tru)
        for _ in range(5):
            perm = rng.permutation(4)
            assert rmse_aligned(est[:, :, perm], tru) == pytest.approx(base,
                                                                       abs=1e-12)
            assert rmse_aligned(est, tru[:, :, perm]) == pytest.approx(base,
                                                                       abs=1e-12)

    def test_single_slice_estimate_broadcasts_over_the_truth(self):
        truth = random_memberships(4, 3, 2, seed=30)
        flat = truth.mean(axis=0, keepdims=True)
        flat /= flat.sum(axis=2, keepdims=True)
        value = rmse_aligned(flat, truth)
        manual = rmse_aligned(np.broadcast_to(flat, truth.shape).copy(), truth)
        assert value == pytest.approx(manual, abs=1e-15)

    def test_exhaustive_search_matches_the_assignment_solver(self):
        # oracle: try every relabeling of the estimate's cluster axis
        for k in range(1, 8):
            est = random_memberships(2, 6, k, seed=40 + k)
            tru = random_memberships(2, 6, k, seed=50 + k)
            best = min(
                ((est[:, :, list(perm)] - tru) ** 2).sum()
                for perm in itertools.permutations(range(k))
            )
            exhaustive = np.sqrt(best / tru.size)
            assert rmse_aligned(est, tru) == pytest.approx(exhaustive, abs=1e-12)

    def test_accepts_two_dimensional_arguments(self):
        est = random_memberships(1, 4, 3, seed=31)[0]
        tru = random_memberships(1, 4, 3, seed=32)[0]
        assert rmse_aligned(est, tru) == rmse_aligned(est[None], tru[None])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            rmse_aligned(random_memberships(2, 3, 2), random_memberships(2, 3, 3))

    @pytest.mark.parametrize("corrupt,message", [
        (lambda x: np.full_like(x, np.nan), "non-finite"),
        (lambda x: 3.0 * x, "sum to 1"),
        (lambda x: -x, "negative"),
    ], ids=["nan", "scaled", "negated"])
    @pytest.mark.parametrize("side", ["estimate", "truth"])
    def test_rows_off_the_simplex_are_rejected(self, side, corrupt, message):
        good = np.full((2, 3, 2), 0.5)
        args = (corrupt(good), good) if side == "estimate" else (good, corrupt(good))
        with pytest.raises(ContractError, match=message):
            rmse_aligned(*args)


class TestAssignment:
    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("ties", [False, True], ids=["floats", "small-integers"])
    def test_total_cost_is_the_exhaustive_minimum(self, k, ties):
        rng = np.random.default_rng(60 + k)
        rows = np.arange(k)
        permutations = np.array(list(itertools.permutations(range(k))))
        for _ in range(20):
            cost = rng.integers(0, 3, (k, k)).astype(float) if ties else rng.random((k, k))
            cols = evaluation._assignment(cost)
            assert sorted(cols) == list(range(k))
            best = cost[rows, permutations].sum(axis=1).min()
            assert cost[rows, cols].sum() == pytest.approx(best, abs=1e-12)

    def test_tie_free_costs_give_scipys_permutation(self):
        rng = np.random.default_rng(70)
        for k in range(1, 31):
            for _ in range(5):
                cost = rng.random((k, k)) * 10.0 ** rng.uniform(-6, 6)
                np.testing.assert_array_equal(evaluation._assignment(cost),
                                              linear_sum_assignment(cost)[1])


class TestFlows:
    def test_marginals_match_the_endpoints(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            src = rng.dirichlet(np.ones(4))
            tgt = rng.dirichlet(np.ones(4))
            flows = flow_matrix(src, tgt)
            np.testing.assert_allclose(flows.sum(axis=1), src, atol=1e-12)
            np.testing.assert_allclose(flows.sum(axis=0), tgt, atol=1e-12)
            assert np.all(flows >= 0)

    def test_mass_that_can_stay_does_stay(self):
        src = np.array([0.6, 0.4])
        tgt = np.array([0.3, 0.7])
        flows = flow_matrix(src, tgt)
        np.testing.assert_allclose(np.diag(flows), [0.3, 0.4], atol=1e-15)
        assert flows[1, 0] == 0.0
        assert flows[0, 1] == pytest.approx(0.3, abs=1e-15)

    def test_identical_rows_move_nothing(self):
        row = np.array([0.2, 0.5, 0.3])
        np.testing.assert_array_equal(flow_matrix(row, row), np.diag(row))

    def test_rejects_mismatched_vectors(self):
        with pytest.raises(ContractError):
            flow_matrix(np.ones(2) / 2, np.ones(3) / 3)
        with pytest.raises(ContractError):
            flow_matrix(np.ones((2, 3)) / 3, np.ones(3) / 3)
        with pytest.raises(ContractError):
            flow_matrix(1.0, 1.0)

    @pytest.mark.parametrize("k", [3, 9])
    def test_stacked_rows_give_the_per_row_matrices(self, k):
        rng = np.random.default_rng(40 + k)
        src = rng.dirichlet(np.ones(k), size=(4, 5))
        tgt = rng.dirichlet(np.ones(k), size=(4, 5))
        tgt[1] = src[1]  # rows with no moved mass
        flows = flow_matrix(src, tgt)
        assert flows.shape == (4, 5, k, k)
        for index in np.ndindex(4, 5):
            np.testing.assert_array_equal(flows[index], flow_matrix(src[index], tgt[index]))
        np.testing.assert_array_equal(flows[1], np.stack([np.diag(row) for row in src[1]]))

    def test_membership_flows_cover_every_transition(self):
        theta = random_memberships(3, 2, 3, seed=34)
        rows = list(membership_flows(theta, random_blocks(3, 3, 4, seed=35)))
        assert all(mass > 0 for *_, mass in rows)
        for t in range(2):
            for i in range(2):
                total = sum(mass for (t0, _, node, _, _, mass) in rows
                            if t0 == t and node == i)
                assert total == pytest.approx(1.0, abs=1e-9)


    def test_membership_flows_align_the_clusters_of_consecutive_epochs(self):
        # epoch 1 is epoch 0 with its clusters renumbered: theta's columns and
        # p's rows permuted together, so no mass moves between clusters
        theta = random_memberships(1, 4, 3, seed=36)[0]
        p = random_blocks(1, 3, 5, seed=37)[0]
        order = [2, 0, 1]
        rows = list(membership_flows(np.stack([theta, theta[:, order]]),
                                     np.stack([p, p[order]])))
        assert {(k_from, k_to) for *_, k_from, k_to, _ in rows} <= {(0, 0), (1, 1), (2, 2)}
        for *_, node, k, _, mass in rows:
            assert mass == pytest.approx(theta[node, k], abs=1e-15)

    def test_membership_flows_with_a_shared_slice_keep_the_cluster_ids(self):
        theta = random_memberships(2, 2, 3, seed=38)
        shared = list(membership_flows(theta, random_blocks(1, 3, 4, seed=39)))
        expected = [(0, 1, i, k_from, k_to, mass)
                    for i in range(2)
                    for (k_from, k_to), mass in np.ndenumerate(flow_matrix(theta[0, i],
                                                                            theta[1, i]))
                    if mass > 0]
        assert shared == expected


class TestEvalResult:
    def test_aggregates(self):
        folds = [FoldOutcome(fold=i, beta=1.0, metrics={"roc": value})
                 for i, value in enumerate([0.8, 0.9, 1.0])]
        result = EvalResult("sdsbm", folds)
        assert result.mean("roc") == pytest.approx(0.9)
        expected_se = np.std([0.8, 0.9, 1.0], ddof=1) / np.sqrt(3)
        assert result.std_error("roc") == pytest.approx(expected_se, abs=1e-12)
        assert result.summary()["roc"]["mean"] == pytest.approx(0.9)

    def test_single_fold_has_zero_error(self):
        result = EvalResult("nc", [FoldOutcome(0, 0.0, {"roc": 0.7})])
        assert result.std_error("roc") == 0.0


class TestFamilyConfigs:
    def test_coupled_family_ties_both_strengths_when_dynamic(self):
        template = FitConfig(n_clusters=3, p_mode="dynamic")
        config = _family_config(template, 30.0)
        assert config.prior.beta_theta == 30.0
        assert config.prior.beta_p == 30.0

    def test_coupled_family_leaves_shared_blocks_unpulled(self):
        template = FitConfig(n_clusters=3, p_mode="static")
        config = _family_config(template, 30.0)
        assert config.prior.beta_theta == 30.0
        assert config.prior.beta_p == 0.0

    def test_baselines_are_decoupled(self):
        template = FitConfig(
            n_clusters=3, prior=PriorConfig(beta_theta=9.0, beta_p=9.0,
                                            kernel_exponent=2),
        )
        # nc and static are the coupling at beta = 0, whatever the template's betas
        config = _family_config(template, 0.0)
        assert config.prior.beta_theta == 0.0
        assert config.prior.beta_p == 0.0
        assert config.prior.kernel_exponent == 2


def _small_benchmark(seed=0):
    spec = PatternSpec(kind="sinusoidal", n_epochs=4, n_items=12, seed=seed)
    truth = GroundTruth(generate_memberships(spec), block_matrix(0.1), spec)
    data = sample_dataset(truth, 40, seed=seed)
    return truth, data


def _unseen_epoch_bench():
    """``(data, template, plan, truth)`` whose epoch 2 is never observed."""
    spec = PatternSpec(kind="sinusoidal", n_epochs=4, n_items=12, seed=0)
    truth = GroundTruth(generate_memberships(spec), block_matrix(0.1), spec)
    data = sample_dataset(truth, np.array([40, 40, 0, 40]), seed=0)
    template = FitConfig(n_clusters=3, max_iterations=10, tol=1e-4, restarts=1, seed=0)
    plan = SplitPlan(n_folds=2, train_fraction=0.7, validation_fraction=0.15, seed=0)
    return data, template, plan, truth


class TestCrossValidate:
    def test_reports_one_outcome_per_fold(self):
        truth, data = _small_benchmark(seed=1)
        template = FitConfig(n_clusters=3, max_iterations=25, tol=1e-5, restarts=1,
                             seed=0)
        plan = SplitPlan(n_folds=2, train_fraction=0.7, validation_fraction=0.15,
                         seed=1)
        [result] = cross_validate(data, ("sdsbm",), (0.0, 10.0), plan,
                                  template=template, truth=truth)
        assert result.family == "sdsbm"
        assert [o.fold for o in result.folds] == [0, 1]
        for outcome in result.folds:
            assert outcome.beta in (0.0, 10.0)
            assert set(outcome.metrics) == {"roc", "ap", "nce", "rmse"}
            assert 0.0 <= outcome.metrics["roc"] <= 1.0
            assert 0.0 <= outcome.metrics["nce"] <= 1.0

    def test_baseline_families_ignore_the_grid(self):
        _, data = _small_benchmark(seed=2)
        template = FitConfig(n_clusters=3, max_iterations=15, tol=1e-4, restarts=1,
                             seed=0)
        plan = SplitPlan(n_folds=2, train_fraction=0.7, validation_fraction=0.15,
                         seed=2)
        for family in ("nc", "static"):
            [result] = cross_validate(data, (family,), (5.0, 50.0), plan,
                                      template=template)
            assert all(o.beta == 0.0 for o in result.folds)
            assert set(result.folds[0].metrics) == {"roc", "ap", "nce"}

    def test_static_family_fits_a_single_slice(self):
        truth, data = _small_benchmark(seed=3)
        template = FitConfig(n_clusters=3, max_iterations=15, tol=1e-4, restarts=1,
                             seed=0)
        plan = SplitPlan(n_folds=1, train_fraction=0.7, validation_fraction=0.15,
                         seed=3)
        [result] = cross_validate(data, ("static",), plan=plan, template=template,
                                  truth=truth)
        # recovery error against the full dynamic truth is still defined
        assert result.folds[0].metrics["rmse"] > 0

    def test_rejects_unknown_family_and_empty_grid(self):
        _, data = _small_benchmark(seed=4)
        template = FitConfig(n_clusters=3)
        with pytest.raises(ContractError):
            cross_validate(data, ("mmsbm",), template=template)
        with pytest.raises(ContractError):
            cross_validate(data, ("sdsbm",), (), template=template)
        # empty or repeated families, and a bare string read as letters
        for families in ((), ("nc", "nc"), ("sdsbm", "nc", "sdsbm"), "sdsbm", "nc"):
            with pytest.raises(ContractError):
                cross_validate(data, families, template=template)

    def test_each_fold_is_split_once_and_each_model_fitted_once(self, monkeypatch):
        truth, data = _small_benchmark(seed=5)
        template = FitConfig(n_clusters=3, max_iterations=10, tol=1e-4, restarts=1,
                             seed=0)
        plan = SplitPlan(n_folds=2, train_fraction=0.7, validation_fraction=0.15,
                         seed=5)
        calls = {"fit": 0, "split": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluation, "fit", counted("fit", evaluation.fit))
        monkeypatch.setattr(SplitPlan, "split", counted("split", SplitPlan.split))
        results = cross_validate(data, FAMILIES, (0.0, 10.0), plan, template=template,
                                 truth=truth)
        assert [r.family for r in results] == list(FAMILIES)
        # per fold: sdsbm at beta 0 and 10 (nc reuses beta 0), then static
        assert calls == {"fit": 6, "split": 2}

    def test_each_pick_is_tested_once(self, monkeypatch):
        data, template, plan, truth = _unseen_epoch_bench()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return score_test_set(*args, **kwargs)

        monkeypatch.setattr(evaluation, "score_test_set", counted)
        # beta = 100, started from the beta = 0 fit, loses to it on validation
        results = cross_validate(data, FAMILIES, (0.0, 100.0), plan, template=template,
                                 truth=truth)
        # sdsbm and nc both pick the shared beta = 0 fit in every fold
        assert [[o.beta for o in r.folds] for r in results] == [[0.0, 0.0]] * 3
        assert results[0].folds == results[1].folds
        # per fold: 3 fits scored on validation, 2 distinct picks on test
        assert len(calls) == 2 * (3 + 2)

    def test_scarce_decoupled_scores_do_not_depend_on_the_fit_seed(self):
        # one observation per (item, epoch) with the blocks held fixed: every
        # test observation sits on a row the decoupled model never saw, which
        # it holds at the flat prior's mode, whatever the start
        spec = PatternSpec(kind="sinusoidal", n_epochs=30, n_items=20, seed=1)
        truth = GroundTruth(generate_memberships(spec), block_matrix(0.05), spec)
        data = sample_dataset(truth, 1, seed=201)
        plan = SplitPlan(n_folds=1, seed=4)
        aucs = set()
        for seed in range(3):
            template = FitConfig(n_clusters=3, p_mode="fixed", fixed_p=truth.p,
                                 max_iterations=30, tol=1e-5, restarts=1, seed=seed)
            (nc,) = cross_validate(data, ("nc",), plan=plan, template=template)
            aucs.add(nc.mean("roc"))
        assert len(aucs) == 1

    def test_test_scores_use_the_arrays_fit_returns(self, monkeypatch):
        # the dynamic fits never see epoch 2; what they hold there is what the
        # test split is scored with, as in an archive of the same fit
        data, template, plan, truth = _unseen_epoch_bench()
        splits, fitted, tested = [], [], []
        real_split, real_fit = SplitPlan.split, evaluation.fit

        def split(self, *args):
            splits.append(real_split(self, *args))
            fitted.append([])
            return splits[-1]

        def recorded_fit(fit_data, config, **kwargs):
            train = splits[-1][0]
            assert fit_data is train or len(fit_data) == len(train)
            report = real_fit(fit_data, config, **kwargs)
            fitted[-1].append((report.theta, report.p))
            return report

        def scored(theta, p, dataset):
            if dataset is splits[-1][2]:
                tested.append(any(theta is th and p is pv for th, pv in fitted[-1]))
            return score_test_set(theta, p, dataset)

        monkeypatch.setattr(SplitPlan, "split", split)
        monkeypatch.setattr(evaluation, "fit", recorded_fit)
        monkeypatch.setattr(evaluation, "score_test_set", scored)
        cross_validate(data, FAMILIES, (0.0, 100.0), plan, template=template, truth=truth)
        assert tested == [True] * 4

    @pytest.mark.parametrize("grid", [(3.0, 0.0, 10.0), (10.0, 3.0, 1.0)])
    def test_the_coupled_grid_is_one_warm_path(self, monkeypatch, grid):
        # only the smallest sdsbm beta starts cold; each larger one starts from
        # the fit just before it, and nc and static are always cold, also when
        # nc has no beta = 0 fit to share
        _, data = _small_benchmark(seed=7)
        template = FitConfig(n_clusters=3, max_iterations=8, tol=1e-4, restarts=2,
                             seed=0)
        plan = SplitPlan(n_folds=2, train_fraction=0.7, validation_fraction=0.15,
                         seed=7)
        calls = []
        fitted = {}
        real_fit = evaluation.fit

        def recording(data, config, *, start=None):
            beta = config.prior.beta_theta
            family = ("static" if data.n_epochs == 1 else
                      "nc" if beta == 0 and 0.0 not in grid else "sdsbm")
            warm_from = None if start is None else next(
                b for b, arrays in fitted.items()
                if all(x is y for x, y in zip(arrays, start))
            )
            calls.append((family, beta, warm_from))
            report = real_fit(data, config, start=start)
            if family == "sdsbm":
                fitted[beta] = (report.theta, report.p)
            return report

        monkeypatch.setattr(evaluation, "fit", recording)
        results = cross_validate(data, FAMILIES, grid, plan, template=template)
        path = sorted(grid)
        sdsbm = [("sdsbm", path[0], None)] + [
            ("sdsbm", beta, before) for before, beta in zip(path, path[1:])
        ]
        baselines = ([] if 0.0 in grid else [("nc", 0.0, None)]) + [("static", 0.0, None)]
        assert calls == (sdsbm + baselines) * 2
        starts = dict(zip(path, [None] + path[:-1]))
        for outcome in results[0].folds:
            assert outcome.start == starts[outcome.beta]
        assert all(o.start is None for result in results[1:] for o in result.folds)

    def test_each_fold_fits_one_list_of_models(self, monkeypatch):
        # per fold: the default grid ascending, each beta after the first warm,
        # nc sharing beta = 0, then static on collapsed epochs; a grid without
        # 0 gives nc its own cold fit before static
        _, data = _small_benchmark(seed=10)
        template = FitConfig(n_clusters=3, max_iterations=3, tol=1e-4, restarts=1,
                             seed=0)
        plan = SplitPlan(n_folds=2, train_fraction=0.7, validation_fraction=0.15,
                         seed=10)
        calls = []
        real_fit = evaluation.fit

        def recording(data, config, *, start=None):
            calls.append((config.prior.beta_theta, start is not None, data.n_epochs == 1))
            return real_fit(data, config, start=start)

        monkeypatch.setattr(evaluation, "fit", recording)
        cross_validate(data, FAMILIES, plan=plan, template=template)
        fold = [(beta, beta > 0, False) for beta in DEFAULT_BETA_GRID] + [(0.0, False, True)]
        assert calls == fold * 2
        assert [len(fold), sum(warm for _, warm, _ in fold),
                sum(collapsed for *_, collapsed in fold)] == [9, 7, 1]
        calls.clear()
        cross_validate(data, FAMILIES, (3.0, 1.0), plan, template=template)
        assert calls == [(1.0, False, False), (3.0, True, False),
                         (0.0, False, False), (0.0, False, True)] * 2

    def test_results_do_not_depend_on_the_grid_order(self):
        truth, data = _small_benchmark(seed=8)
        template = FitConfig(n_clusters=3, max_iterations=12, tol=1e-4, restarts=2,
                             seed=2)
        plan = SplitPlan(n_folds=2, train_fraction=0.7, validation_fraction=0.15,
                         seed=8)
        shuffled = cross_validate(data, FAMILIES, (10.0, 0.0, 3.0), plan,
                                  template=template, truth=truth)
        ascending = cross_validate(data, FAMILIES, (0.0, 3.0, 10.0), plan,
                                   template=template, truth=truth)
        for a, b in zip(shuffled, ascending):
            assert a.family == b.family
            assert a.folds == b.folds

    def test_truth_of_other_extents_is_rejected_before_any_fit(self, monkeypatch):
        truth, data = _small_benchmark(seed=9)

        def refuse(*args, **kwargs):
            raise AssertionError("fitted before the truth was checked")

        monkeypatch.setattr(evaluation, "fit", refuse)
        template = FitConfig(n_clusters=3, restarts=1)
        for other, config in ((data.collapse_epochs(), template),
                              (data, replace(template, n_clusters=2))):
            with pytest.raises(ContractError, match="truth memberships have shape"):
                cross_validate(other, FAMILIES, (0.0, 1.0), template=config, truth=truth)

    @pytest.mark.parametrize("grid", [(0.0, 1.0, np.inf), (0.0, np.nan, 1.0), (3.0, -1.0)])
    def test_a_bad_beta_is_rejected_before_any_split_or_fit(self, monkeypatch, grid):
        _, data = _small_benchmark(seed=9)
        calls = []
        monkeypatch.setattr(evaluation, "fit", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(SplitPlan, "split", lambda *args: calls.append(args))
        with pytest.raises(ContractError, match="beta_theta must be finite and >= 0"):
            cross_validate(data, FAMILIES, grid, template=FitConfig(n_clusters=3))
        assert calls == []

    def test_per_epoch_fixed_block_with_the_static_family_is_rejected_before_any_fit(
        self, monkeypatch
    ):
        _, data = _small_benchmark(seed=9)
        calls = []
        monkeypatch.setattr(evaluation, "fit", lambda *args, **kwargs: calls.append(args))
        template = FitConfig(n_clusters=3, p_mode="fixed",
                             fixed_p=random_blocks(4, 3, 3, seed=1), restarts=1)
        with pytest.raises(ContractError, match="static family .* has 4 epochs"):
            cross_validate(data, FAMILIES, (0.0, 1.0), template=template)
        assert calls == []

    def test_shared_pass_matches_one_family_at_a_time(self):
        truth, data = _small_benchmark(seed=6)
        template = FitConfig(n_clusters=3, max_iterations=15, tol=1e-4, restarts=2,
                             seed=1)
        plan = SplitPlan(n_folds=2, train_fraction=0.7, validation_fraction=0.15,
                         seed=6)
        grid = (10.0, 0.0, 3.0)
        together = cross_validate(data, FAMILIES[::-1], grid, plan, template=template,
                                  truth=truth)
        assert [r.family for r in together] == list(FAMILIES[::-1])
        for result in together:
            [alone] = cross_validate(data, (result.family,), grid, plan,
                                     template=template, truth=truth)
            assert result.folds == alone.folds


class TestWriteResults:
    def test_csv_and_json_mirror(self, tmp_path):
        results = [
            EvalResult("sdsbm", [
                FoldOutcome(0, 10.0, {"roc": 0.9, "ap": 0.8, "nce": 0.1,
                                      "rmse": 0.05}),
                FoldOutcome(1, 30.0, {"roc": 0.92, "ap": 0.82, "nce": 0.09,
                                      "rmse": 0.04}, start=10.0),
            ]),
            EvalResult("nc", [
                FoldOutcome(0, 0.0, {"roc": 0.85, "ap": 0.75, "nce": 0.15}),
                FoldOutcome(1, 0.0, {"roc": 0.86, "ap": 0.74, "nce": 0.16}),
            ]),
        ]
        csv_path = tmp_path / "results.csv"
        json_path = tmp_path / "results.json"
        write_results(results, "bench", csv_path, json_path)

        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["model", "dataset", "fold", "beta", "roc", "ap", "nce",
                           "rmse"]
        assert len(rows) == 5
        assert rows[1][:4] == ["sdsbm", "bench", "0", "10.0"]
        assert rows[3][0] == "nc" and rows[3][7] == ""

        payload = json.loads(json_path.read_text())
        assert payload["dataset"] == "bench"
        assert payload["models"]["sdsbm"]["folds"][0]["roc"] == 0.9
        # the fold records name the start of each pick; metrics leave it out
        folds = payload["models"]["sdsbm"]["folds"]
        assert [f["start_beta"] for f in folds] == [None, 10.0]
        aggregates = payload["models"]["sdsbm"]["aggregates"]
        assert aggregates["roc"]["mean"] == pytest.approx(0.91)
        assert set(aggregates) == {"roc", "ap", "nce", "rmse"}
