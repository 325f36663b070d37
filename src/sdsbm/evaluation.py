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
from scipy.optimize import linear_sum_assignment

from .data import Dataset
from .em import fit
from .errors import ContractError, _integer
from .model import MembershipTensor, _arrays, _label_rows

_log = logging.getLogger(__name__)

DEFAULT_BETA_GRID = (0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
FAMILIES = ("sdsbm", "nc", "static")


@dataclass(frozen=True)
class SplitPlan:
    """Per-observation random split into train/validation/test, one per fold.

    The permutation runs over the observations in (epoch, node, label) order,
    so the order of an event file's lines does not move the split.  Each part
    holds the triplets of the observations it drew, weighted by their count.
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
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(fold,)))
        n = len(data)
        perm = rng.permutation(n)
        n_train = int(n * self.train_fraction)
        n_val = int(n * self.validation_fraction)
        if n_train < 1 or n_val < 1 or n_train + n_val >= n:
            raise ContractError(f"dataset with {n} observations cannot fill all three splits")
        epochs, nodes, labels, weights = data.compressed()
        owner = np.repeat(np.arange(weights.size), weights)[perm]  # drawn triplet ids
        parts = []
        for drawn in np.split(owner, [n_train, n_train + n_val]):
            counts = np.bincount(drawn, minlength=weights.size)
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
    problem exactly.  A single-slice estimate is compared against every epoch
    of the truth.  Both pass the membership-tensor checks (a 2-D array is one
    slice), so a non-finite, negative or unnormalized row is a ContractError.
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
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum() / flat_tru.size))


def flow_matrix(source, target):
    """Elementwise min-flow decomposition between two simplex rows.

    Mass that stays in a cluster is ``min(source, target)``; the rest moves
    from shrinking clusters to growing ones in proportion to their gains.
    Rows sum to ``source`` and columns to ``target``.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape != tgt.shape or src.ndim != 1:
        raise ContractError("source and target must be equal-length vectors")
    stay = np.minimum(src, tgt)
    flows = np.diag(stay)
    moved = (src - stay).sum()
    if moved > 0:
        flows += np.outer(src - stay, (tgt - stay) / moved)
    return flows


def membership_flows(theta, p):
    """Per-node cluster mass transfers between consecutive epochs.

    Cluster ids are arbitrary in each epoch, so with one block slice per epoch
    the clusters of epoch t+1 are first matched to those of the aligned epoch
    t: a linear assignment on the squared distance between their block rows
    permutes epoch t+1's block rows and membership columns together.  Cluster
    ids in the output are those of epoch 0.  A single shared slice needs no
    alignment.  The pair passes the parameter check of ``_arrays``.

    Yields ``(epoch_from, epoch_to, node, cluster_from, cluster_to, mass)``
    for every positive entry of the per-node flow matrices.
    """
    th, pv = _arrays(theta, p)
    if pv.shape[0] > 1:
        th, pv = th.copy(), pv.copy()
        for t in range(1, pv.shape[0]):
            cost = ((pv[t - 1][:, None, :] - pv[t][None, :, :]) ** 2).sum(axis=2)
            _, order = linear_sum_assignment(cost)
            th[t], pv[t] = th[t][:, order], pv[t][order]
    n_epochs, n_items, _ = th.shape
    for t in range(n_epochs - 1):
        for i in range(n_items):
            flows = flow_matrix(th[t, i], th[t + 1, i])
            for k_from, k_to in zip(*np.nonzero(flows > 0)):
                yield (t, t + 1, i, int(k_from), int(k_to), float(flows[k_from, k_to]))


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


def _family_config(template, family, beta):
    if family == "sdsbm":
        beta_p = beta if template.p_mode == "dynamic" else 0.0
        prior = replace(template.prior, beta_theta=beta, beta_p=beta_p)
    else:
        prior = replace(template.prior, beta_theta=0.0, beta_p=0.0)
    return replace(template, prior=prior)


def cross_validate(data, families, beta_grid=DEFAULT_BETA_GRID, plan=None, *,
                   template, truth=None):
    """Cross-validated evaluation of model families, one result each, in order.

    Per fold: split the observations once, fit one model per candidate
    coupling on the training split (the grid collapses to {0} for the
    decoupled and static families), pick each family's candidate with the
    best validation ROC-AUC, and report test metrics for the pick.  A model
    that several families list, such as the decoupled family's and the
    coupled family's beta = 0, is fitted once per fold, and scored on the
    test split once when several families pick it.  With planted truth
    available, membership recovery error is reported as well; its extents
    are checked before anything is fitted, as is a fixed block tensor with
    several epochs, which the static family's single epoch cannot use.

    The coupled family's grid is one path in ascending beta: the smallest
    beta is fitted with the template's restarts, and each larger one runs a
    single chain started from the previous beta's fit, since neighbouring
    couplings have neighbouring solutions.  So a validation tie goes to the
    smaller beta, and results do not depend on the order of the grid.  The
    decoupled and static families are always fitted cold.

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
    # Models are keyed by (epochs collapsed, prior).  sdsbm's grid is walked
    # first, in ascending beta, so the fit walked just before a warm sdsbm
    # model is the one at its start beta.
    configs, betas, starts = {}, {}, {}
    previous = None
    for family in sorted(names, key=lambda name: name != "sdsbm"):
        for beta in sorted(beta_grid) if family == "sdsbm" else (0.0,):
            config = _family_config(template, family, beta)
            key = (family == "static", config.prior)
            if key not in configs:
                configs[key] = config
                starts[key] = previous if family == "sdsbm" else None
            betas.setdefault(family, {}).setdefault(key, beta)
            if family == "sdsbm":
                previous = beta
    results = [EvalResult(family, []) for family in names]
    for fold in range(plan.n_folds):
        train, val, test = plan.split(data, fold)
        best = {}
        fitted = None
        for key, config in configs.items():
            fit_data = train.collapse_epochs() if key[0] else train
            report = fit(fit_data, config, start=None if starts[key] is None else fitted)
            fitted = (report.theta, report.p)
            val_auc = roc_auc(score_test_set(*fitted, val))
            for family, candidates in betas.items():
                if key in candidates and (family not in best or val_auc > best[family][0]):
                    best[family] = (val_auc, key, fitted)
        tested = {}
        for result in results:
            _, key, (th, pv) = best[result.family]
            if key not in tested:
                table = score_test_set(th, pv, test)
                tested[key] = {
                    "roc": roc_auc(table),
                    "ap": average_precision(table),
                    "nce": coverage_error_normalized(table),
                }
                if truth is not None:
                    tested[key]["rmse"] = rmse_aligned(th, truth.theta)
            beta = betas[result.family][key]
            metrics = dict(tested[key])
            result.folds.append(FoldOutcome(fold=fold, beta=beta, metrics=metrics,
                                            start=starts[key]))
            _log.info(
                "fold %d %s: beta=%g start=%s %s", fold, result.family,
                beta, starts[key], {k: round(v, 4) for k, v in metrics.items()},
            )
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
