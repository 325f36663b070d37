"""Held-out evaluation: splits, ranking metrics, recovery error, cross-validation.

Test observations are scored with the full label distribution the fitted model
assigns them, once per unique triplet with its weight; ranking metrics pool the
(observation, candidate label) pairs.
Membership recovery is measured after globally aligning cluster identities,
since cluster order is arbitrary.
"""
from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .em import fit
from .errors import ContractError, _integer
from .model import MembershipTensor, _arrays, _label_rows

_log = logging.getLogger(__name__)

DEFAULT_BETA_GRID = (0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
FAMILIES = ("sdsbm", "nc", "static")
#: numpy's exact multivariate hypergeometric draw takes totals below this
SPLIT_LIMIT = 10**9


@dataclass(frozen=True)
class SplitPlan:
    """Per-observation random split into train/validation/test, one per fold.

    Train, then validation, is one multivariate hypergeometric draw from the
    triplet weights left, taken in (epoch, node, label) order, and test keeps
    the rest: the law of a random permutation of the observations, at memory
    in the triplets, and the order of an event file's lines does not move it.
    Each part holds the triplets it drew, weighted by their drawn counts.  A
    dataset of ``SPLIT_LIMIT`` observations or more is a ContractError.
    """

    n_folds: int = 5
    train_fraction: float = 0.8
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_folds", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if not (0 < self.train_fraction < 1) or not (0 < self.validation_fraction < 1):
            raise ContractError("fractions must lie strictly between 0 and 1")
        if self.train_fraction + self.validation_fraction >= 1:
            raise ContractError("train and validation fractions must leave room for test")

    def split(self, data, fold):
        """(train, validation, test) datasets for the given fold; extents are kept."""
        if not 0 <= fold < self.n_folds:
            raise ContractError(f"fold {fold} out of range [0, {self.n_folds})")
        n = len(data)
        n_train = int(n * self.train_fraction)
        n_val = int(n * self.validation_fraction)
        if n_train < 1 or n_val < 1 or n_train + n_val >= n:
            raise ContractError(f"dataset with {n} observations cannot fill all three splits")
        if n >= SPLIT_LIMIT:
            raise ContractError(f"cannot split {n} observations: the exact split draw "
                                f"takes fewer than {SPLIT_LIMIT}")
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(fold,)))
        epochs, nodes, labels, weights = data.compressed()
        train = rng.multivariate_hypergeometric(weights, n_train, method="marginals")
        val = rng.multivariate_hypergeometric(weights - train, n_val, method="marginals")
        parts = []
        for counts in (train, val, weights - train - val):
            kept = counts > 0
            parts.append(Dataset(nodes[kept], labels[kept], epochs[kept], data.n_items,
                                 data.n_labels, data.n_epochs, weights=counts[kept]))
        return tuple(parts)


@dataclass
class ScoreTable:
    """Scored held-out triplets: one label distribution per row, which counts ``weights`` times."""

    scores: np.ndarray
    true_labels: np.ndarray
    weights: np.ndarray


def score_test_set(theta, p, test):
    """Score every unique test triplet once with ``_label_rows``; the pair passes ``_arrays``."""
    epochs, nodes, labels, weights = test.compressed()
    return ScoreTable(_label_rows(*_arrays(theta, p, test), epochs, nodes), labels, weights)


def _check_table(table):
    if table.scores.ndim != 2 or table.scores.shape[0] < 1:
        raise ContractError("score table is empty")
    if table.scores.shape[1] < 2:
        raise ContractError("metrics need at least two candidate labels")
    if table.true_labels.shape != (table.scores.shape[0],):
        raise ContractError("true labels do not match the score rows")
    if table.true_labels.dtype.kind not in "iu":
        raise ContractError(f"true labels must be integers, got {table.true_labels.dtype}")
    if table.true_labels.min() < 0 or table.true_labels.max() >= table.scores.shape[1]:
        raise ContractError(f"true labels must lie in [0, {table.scores.shape[1]})")
    if not np.isfinite(table.scores).all():
        raise ContractError("scores must be finite")
    if table.weights.shape != table.true_labels.shape or table.weights.dtype.kind not in "iu":
        raise ContractError("weights must be one integer per score row")
    if table.weights.min() < 1:
        raise ContractError(f"weights must be >= 1, got {table.weights.min()}")


def _score_levels(table):
    """Positive and negative weight at each distinct pooled score, ascending.

    Every (row, candidate label) pair carries its row's weight, and is positive
    for the row's true label.  The float64 sums are exact below 2**53.
    """
    _check_table(table)
    order = np.argsort(table.scores, axis=None)
    scores = table.scores.ravel()[order]
    rows, candidates = np.divmod(order, table.scores.shape[1])
    starts = np.flatnonzero(np.concatenate(([True], scores[1:] != scores[:-1])))
    weight = table.weights[rows].astype(float)
    total = np.add.reduceat(weight, starts)
    positive = np.add.reduceat(
        np.where(candidates == table.true_labels[rows], weight, 0.0), starts)
    return positive, total - positive


def roc_auc(table):
    """One-vs-rest ROC-AUC over pooled (observation, candidate label) pairs.

    Probability that a true label outscores a non-label, ties counted half:
    the exact pair count, from the weight at each distinct score.
    """
    positive, negative = _score_levels(table)
    below = np.cumsum(negative) - negative
    return float(positive @ (below + 0.5 * negative) / (positive.sum() * negative.sum()))


def average_precision(table):
    """Area under the precision-recall curve over pooled pairs.

    Thresholds sweep the distinct scores from above; tied scores enter
    together, so shuffling rows cannot change the value.
    """
    positive, negative = _score_levels(table)
    positive, total = positive[::-1], (positive + negative)[::-1]
    hits = np.cumsum(positive)
    return float((hits / np.cumsum(total) * positive).sum() / hits[-1])


def coverage_error_normalized(table):
    """Mean normalized rank of the true label within its own observation.

    Rank 1 (true label on top everywhere) gives 0, rank O gives 1; tied scores
    take the midrank, so a uniform scorer sits at 0.5.
    """
    _check_table(table)
    n, n_labels = table.scores.shape
    true_scores = table.scores[np.arange(n), table.true_labels]
    higher = (table.scores > true_scores[:, None]).sum(axis=1)
    ties = (table.scores == true_scores[:, None]).sum(axis=1) - 1
    mean_rank = table.weights @ (1.0 + higher + 0.5 * ties) / table.weights.sum()
    return float((mean_rank - 1.0) / (n_labels - 1))


def _assignment(cost):
    """Column of each row in a minimum-cost perfect matching of a square cost matrix.

    Kuhn-Munkres with Jonker-Volgenant shortest augmenting paths, O(n^3) for
    n rows: each row enters through a virtual column n and follows the
    shortest path of reduced costs to a free column, along which the matching
    flips.  The row and column duals keep every reduced cost non-negative, and
    each step updates the path distance of every column in one vectorised pass.
    """
    n = len(cost)
    row_dual, col_dual = np.zeros(n), np.zeros(n + 1)
    owner = np.full(n + 1, n)  # row matched to each column; n: none yet
    for row in range(n):
        owner[n], col = row, n
        dist, via = np.full(n, np.inf), np.zeros(n, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while owner[col] != n:
            used[col] = True
            i, free = owner[col], ~used[:n]
            reduced = cost[i] - row_dual[i] - col_dual[:n]
            closer = free & (reduced < dist)
            dist[closer], via[closer] = reduced[closer], col
            col = np.argmin(np.where(free, dist, np.inf))
            delta = dist[col]
            row_dual[owner[used]] += delta
            col_dual[used] -= delta
            dist[free] -= delta
        while col != n:
            owner[col], col = owner[via[col]], via[col]
    cols = np.empty(n, dtype=int)
    cols[owner[:n]] = np.arange(n)
    return cols


def _memberships(values):
    """The (T, I, K) values of a membership tensor or array; a 2-D array is one slice."""
    if isinstance(values, MembershipTensor):
        return values.values
    arr = np.asarray(values, dtype=float)
    return MembershipTensor(arr[None] if arr.ndim == 2 else arr).values


def rmse_aligned(estimate, truth):
    """Root-mean-square membership error under the best global cluster relabeling.

    One permutation is applied to the estimate's cluster axis for all epochs
    and items at once.  The squared error of a relabeling is a sum of
    per-cluster-pair costs, so the best one solves a K x K linear assignment
    problem, which ``_assignment`` (Kuhn-Munkres) solves exactly.  A
    single-slice estimate is compared against every epoch of the truth.  Both
    pass the membership-tensor checks (a 2-D array is one slice), so a
    non-finite, negative or unnormalized row is a ContractError.
    """
    est, tru = _memberships(estimate), _memberships(truth)
    if est.shape[0] == 1 and tru.shape[0] > 1:
        est = np.broadcast_to(est, tru.shape)
    if est.shape != tru.shape:
        raise ContractError(f"shape mismatch: estimate {est.shape} vs truth {tru.shape}")
    n_clusters = tru.shape[2]
    flat_est = est.reshape(-1, n_clusters)
    flat_tru = tru.reshape(-1, n_clusters)
    cost = np.empty((n_clusters, n_clusters))
    for a in range(n_clusters):
        diff = flat_est[:, a, None] - flat_tru
        cost[a] = np.einsum("nk,nk->k", diff, diff)
    cols = _assignment(cost)
    return float(np.sqrt(cost[np.arange(n_clusters), cols].sum() / flat_tru.size))


def flow_matrix(source, target):
    """Elementwise min-flow decomposition between simplex rows, ``(..., K)`` to ``(..., K, K)``.

    Mass that stays in a cluster is ``min(source, target)``; the rest moves
    from shrinking clusters to growing ones in proportion to their gains.
    Rows sum to ``source`` and columns to ``target``.  Pairs of rows stacked
    along leading axes give one matrix per pair.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape != tgt.shape or src.ndim < 1:
        raise ContractError("source and target must be rows of equal shape")
    stay = np.minimum(src, tgt)
    loss, gain = src - stay, tgt - stay
    moved = loss.sum(axis=-1, keepdims=True)
    flows = loss[..., :, None] * (gain / np.where(moved > 0, moved, 1.0))[..., None, :]
    diagonal = np.arange(src.shape[-1])
    flows[..., diagonal, diagonal] += stay
    return flows


def membership_flows(theta, p):
    """Per-node cluster mass transfers between consecutive epochs.

    Cluster ids are arbitrary in each epoch, so with one block slice per epoch
    the clusters of epoch t+1 are first matched to those of the aligned epoch
    t: a linear assignment on the squared distance between their block rows,
    solved exactly by ``_assignment`` (Kuhn-Munkres), permutes epoch t+1's
    block rows and membership columns together.  Cluster ids in the output
    are those of epoch 0.  A single shared slice needs no alignment.  The
    pair passes the parameter check of ``_arrays``.

    Yields ``(epoch_from, epoch_to, node, cluster_from, cluster_to, mass)``
    for every positive entry of the per-node flow matrices.
    """
    th, pv = _arrays(theta, p)
    if pv.shape[0] > 1:
        th, pv = th.copy(), pv.copy()
        for t in range(1, pv.shape[0]):
            cost = ((pv[t - 1][:, None, :] - pv[t][None, :, :]) ** 2).sum(axis=2)
            order = _assignment(cost)
            th[t], pv[t] = th[t][:, order], pv[t][order]
    for t in range(th.shape[0] - 1):
        flows = flow_matrix(th[t], th[t + 1])
        for i, k_from, k_to in zip(*np.nonzero(flows > 0)):
            yield (t, t + 1, int(i), int(k_from), int(k_to), float(flows[i, k_from, k_to]))


@dataclass
class FoldOutcome:
    """One family's pick in one fold; ``start`` is the beta whose fit started it (None: cold)."""

    fold: int
    beta: float
    metrics: dict
    start: float | None = None


@dataclass
class EvalResult:
    """Per-fold metrics of one model family plus aggregates."""

    family: str
    folds: list

    def metric(self, name):
        return np.array([f.metrics[name] for f in self.folds])

    def mean(self, name):
        return float(self.metric(name).mean())

    def std_error(self, name):
        values = self.metric(name)
        if values.size < 2:
            return 0.0
        return float(values.std(ddof=1) / np.sqrt(values.size))

    def summary(self):
        names = sorted(self.folds[0].metrics)
        return {
            name: {"mean": self.mean(name), "std_error": self.std_error(name)}
            for name in names
        }


def _family_config(template, beta):
    """The template at coupling ``beta``; ``nc`` and ``static`` are its beta = 0."""
    beta_p = beta if template.p_mode == "dynamic" else 0.0
    return replace(template, prior=replace(template.prior, beta_theta=beta, beta_p=beta_p))


def cross_validate(data, families, beta_grid=DEFAULT_BETA_GRID, plan=None, *,
                   template, truth=None):
    """Cross-validated evaluation of model families, one result each, in order.

    Per fold: split the observations once, fit every model on the training
    split once, pick each family's model with the best validation ROC-AUC,
    and report test metrics for the pick, scored once however many families
    pick it.  The models form one list in fitting order: the coupled
    family's grid in ascending beta, then the decoupled family's beta = 0
    unless the grid holds 0 (then it reuses that fit), then the static
    family's beta = 0 on the epochs collapsed into one.  With planted truth
    available, membership recovery error is reported as well; its extents
    are checked before anything is fitted, as is a fixed block tensor with
    several epochs, which the static family's single epoch cannot use.

    The coupled family's grid is one path in ascending beta: the smallest
    beta is fitted with the template's restarts, which ``fit`` races, and
    each larger one runs a single chain started from the previous beta's
    fit, since neighbouring couplings have neighbouring solutions.  So a
    validation tie goes to the smaller beta, and results do not depend on the
    order of the grid.  The decoupled and static families are always fitted
    cold, with raced restarts too.

    ``template`` supplies everything but the coupling strengths: cluster
    count, block mode, kernel shape, iteration budget, restarts, seed.
    """
    names = () if isinstance(families, str) else tuple(families)
    if not names or len(set(names)) < len(names) or not set(names) <= set(FAMILIES):
        raise ContractError(f"families must be distinct names from {FAMILIES}, got {families!r}")
    beta_grid = tuple(float(beta) for beta in beta_grid)
    if "sdsbm" in names and not beta_grid:
        raise ContractError("beta grid is empty")
    if truth is not None:
        need = (data.n_epochs, data.n_items, template.n_clusters)
        if truth.theta.shape != need:
            raise ContractError(
                f"truth memberships have shape {truth.theta.shape}, the data and "
                f"template need {need}"
            )
    slices = 1 if template.fixed_p is None else len(template.fixed_p.values)
    if "static" in names and slices > 1:
        raise ContractError(f"the static family fits one epoch, but the fixed block "
                            f"tensor has {slices} epochs")
    plan = plan if plan is not None else SplitPlan()
    # (config, epochs collapsed, started from the model before it) in fitting
    # order, and the indices each family picks among
    grid = sorted(set(beta_grid)) if "sdsbm" in names else []
    models = [(_family_config(template, beta), False, index > 0)
              for index, beta in enumerate(grid)]
    picks = {"sdsbm": range(len(grid))}
    if grid[:1] == [0.0]:
        picks["nc"] = [0]
    for family in ("nc", "static"):
        if family in names and family not in picks:
            picks[family] = [len(models)]
            models.append((_family_config(template, 0.0), family == "static", False))
    results = [EvalResult(family, []) for family in names]
    for fold in range(plan.n_folds):
        train, val, test = plan.split(data, fold)
        fits, val_aucs, tested = [], [], {}
        for config, collapsed, warm in models:
            report = fit(train.collapse_epochs() if collapsed else train, config,
                         start=fits[-1] if warm else None)
            fits.append((report.theta, report.p))
            val_aucs.append(roc_auc(score_test_set(*fits[-1], val)))
        for result in results:
            index = max(picks[result.family], key=val_aucs.__getitem__)
            if index not in tested:
                table = score_test_set(*fits[index], test)
                tested[index] = {"roc": roc_auc(table), "ap": average_precision(table),
                                 "nce": coverage_error_normalized(table)}
                if truth is not None:
                    tested[index]["rmse"] = rmse_aligned(fits[index][0], truth.theta)
            config, _, warm = models[index]
            beta = config.prior.beta_theta
            start = models[index - 1][0].prior.beta_theta if warm else None
            result.folds.append(FoldOutcome(fold, beta, dict(tested[index]), start))
            _log.info("fold %d %s: beta=%g start=%s %s", fold, result.family, beta, start,
                      {k: round(v, 4) for k, v in tested[index].items()})
    return results


RESULT_COLUMNS = ("model", "dataset", "fold", "beta", "roc", "ap", "nce", "rmse")


def write_results(results, dataset_name, csv_path, json_path=None):
    """Write per-fold metric rows as CSV, optionally mirrored as JSON."""
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULT_COLUMNS)
        for result in results:
            for outcome in result.folds:
                writer.writerow([result.family, dataset_name, outcome.fold, outcome.beta,
                                 *(outcome.metrics.get(name, "") for name in RESULT_COLUMNS[4:])])
    if json_path is not None:
        payload = {
            "dataset": dataset_name,
            "models": {
                result.family: {
                    "folds": [
                        {"fold": o.fold, "beta": o.beta, "start_beta": o.start,
                         **o.metrics}
                        for o in result.folds
                    ],
                    "aggregates": result.summary(),
                }
                for result in results
            },
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
