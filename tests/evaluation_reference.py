"""Per-observation reference for the held-out evaluation.

The split and the ranking metrics as they read one row per observation:
the split permutes the expanded observations and merges each part again,
and the metrics take an unweighted table, ROC-AUC from average ranks, AP
from a sweep over the distinct scores and NCE as a plain mean.  The package
works on weighted unique triplets instead; tests hold it to these values.
"""
import numpy as np
from scipy.stats import rankdata

from sdsbm import Dataset


def expanded(data):
    """(epochs, nodes, labels): one entry per observation, in (epoch, node, label) order."""
    epochs, nodes, labels, weights = data.compressed()
    return tuple(np.repeat(column, weights) for column in (epochs, nodes, labels))


def split(plan, data, fold):
    """(train, validation, test) from a permutation of the expanded observations."""
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(fold,)))
    perm = rng.permutation(len(data))
    n_train = int(len(data) * plan.train_fraction)
    n_val = int(len(data) * plan.validation_fraction)
    epochs, nodes, labels = expanded(data)
    return tuple(
        Dataset(nodes[rows], labels[rows], epochs[rows],
                data.n_items, data.n_labels, data.n_epochs)
        for rows in np.split(perm, [n_train, n_train + n_val])
    )


def expand_table(scores, true_labels, weights):
    """The unweighted (scores, true_labels) with row r repeated ``weights[r]`` times."""
    return np.repeat(scores, weights, axis=0), np.repeat(true_labels, weights)


def _flat_pairs(scores, true_labels):
    n, n_labels = scores.shape
    positives = np.zeros(n * n_labels, dtype=bool)
    positives[np.arange(n) * n_labels + true_labels] = True
    return scores.ravel(), positives


def roc_auc(scores, true_labels):
    """Pooled one-vs-rest ROC-AUC from the average ranks of all pairs."""
    scores, positives = _flat_pairs(scores, true_labels)
    n_pos = int(positives.sum())
    n_neg = scores.size - n_pos
    ranks = rankdata(scores)
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def average_precision(scores, true_labels):
    """Pooled AP: thresholds sweep the distinct scores from above, ties together."""
    scores, positives = _flat_pairs(scores, true_labels)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    true_pos = np.cumsum(positives[order])
    boundary = np.ones(scores.size, dtype=bool)
    boundary[:-1] = sorted_scores[:-1] != sorted_scores[1:]
    group_tp = true_pos[boundary].astype(float)
    group_size = np.flatnonzero(boundary) + 1.0
    precision = group_tp / group_size
    delta_tp = np.diff(np.concatenate(([0.0], group_tp)))
    return float((precision * delta_tp).sum() / group_tp[-1])


def coverage_error_normalized(scores, true_labels):
    """Mean over rows of the true label's midrank, mapped to [0, 1]."""
    n, n_labels = scores.shape
    true_scores = scores[np.arange(n), true_labels]
    higher = (scores > true_scores[:, None]).sum(axis=1)
    ties = (scores == true_scores[:, None]).sum(axis=1) - 1
    mean_rank = (1.0 + higher + 0.5 * ties).mean()
    return float((mean_rank - 1.0) / (n_labels - 1))
