"""Synthetic dynamic interaction data with planted membership trajectories.

Items drift through K=3 clusters following either sinusoidal or piecewise
linear (broken-line) simplex paths, and emit labels through a cyclic
cluster-to-label matrix whose off-diagonal mass ``s`` tunes how noisy the
labels are: ``s = 0`` is deterministic, ``s = 0.5`` maximizes row entropy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ContractError, _integer
from .model import BlockTensor, MembershipTensor, _arrays, _label_rows

PATTERNS = ("sinusoidal", "broken_line")

#: broken-line paths use this many interior turning points, drawn uniformly
KNOT_RANGE = (2, 5)
#: interior knots sit on a regular grid jittered by at most this fraction of a segment
KNOT_JITTER = 0.5


@dataclass(frozen=True)
class PatternSpec:
    """Recipe for planted membership trajectories.

    kind : {"sinusoidal", "broken_line"}
        Sinusoidal paths phase-shift one raised sine per cluster with a random
        per-item phase; broken-line paths linearly interpolate random simplex
        points at random turning epochs.
    cycles : float
        Full oscillations across the span (sinusoidal only).
    """

    kind: str
    n_epochs: int
    n_items: int
    n_clusters: int = 3
    cycles: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PATTERNS:
            raise ContractError(f"kind must be one of {PATTERNS}, got {self.kind!r}")
        for name, minimum in (("n_epochs", 1), ("n_items", 1), ("n_clusters", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if not self.cycles > 0:
            raise ContractError("cycles must be > 0")


@dataclass(frozen=True)
class GroundTruth:
    """Planted parameters a synthetic dataset was sampled from."""

    theta: MembershipTensor
    p: BlockTensor
    pattern: PatternSpec


def block_matrix(noise):
    """Cyclic 3x3 cluster-to-label matrix with off-diagonal mass ``noise``.

    Row k sends ``1 - noise`` to label k and ``noise`` to label k+1 (mod 3).
    """
    if not 0 <= noise <= 1:
        raise ContractError(f"noise must lie in [0, 1], got {noise}")
    s = float(noise)
    return BlockTensor(
        [[1.0 - s, s, 0.0], [0.0, 1.0 - s, s], [s, 0.0, 1.0 - s]]
    )


def _sinusoidal(spec, rng):
    T, I, K = spec.n_epochs, spec.n_items, spec.n_clusters
    if K == 1:
        return np.ones((T, I, 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=I)
    t = np.arange(T)[:, None, None]
    angle = (
        2.0 * np.pi * spec.cycles * t / T
        + phases[None, :, None]
        + 2.0 * np.pi * np.arange(K)[None, None, :] / K
    )
    theta = 1.0 + np.sin(angle)
    return theta / theta.sum(axis=2, keepdims=True)


def _broken_line(spec, rng):
    T, I, K = spec.n_epochs, spec.n_items, spec.n_clusters
    theta = np.empty((T, I, K))
    grid = np.arange(T, dtype=float)
    for i in range(I):
        n_knots = int(rng.integers(KNOT_RANGE[0], KNOT_RANGE[1] + 1))
        segment = (T - 1) / (n_knots + 1)
        interior = segment * (
            np.arange(1, n_knots + 1)
            + rng.uniform(-KNOT_JITTER / 2, KNOT_JITTER / 2, size=n_knots)
        )
        knots = np.concatenate(([0.0], interior, [float(T - 1)]))
        values = rng.dirichlet(np.ones(K), size=knots.size)
        for k in range(K):
            theta[:, i, k] = np.interp(grid, knots, values[:, k])
    return theta / theta.sum(axis=2, keepdims=True)


def generate_memberships(pattern):
    """Planted membership tensor for the given pattern spec (seeded, reproducible)."""
    rng = np.random.default_rng(np.random.SeedSequence(pattern.seed, spawn_key=(0,)))
    if pattern.kind == "sinusoidal":
        theta = _sinusoidal(pattern, rng)
    else:
        theta = _broken_line(pattern, rng)
    return MembershipTensor(theta)


def even_schedule(total_per_item, n_epochs):
    """Spread a per-item observation budget over epochs as evenly as possible.

    The remainder goes to epochs evenly spaced from the first to the last, so
    a budget below the epoch count still spans the whole range.
    """
    total_per_item = _integer("total_per_item", total_per_item, 0)
    n_epochs = _integer("n_epochs", n_epochs, 1)
    base, remainder = divmod(total_per_item, n_epochs)
    schedule = np.full(n_epochs, base, dtype=np.int64)
    schedule[np.round(np.linspace(0, n_epochs - 1, remainder)).astype(np.int64)] += 1
    return schedule


def sample_dataset(truth, schedule, seed=0):
    """Sample observations from planted parameters.

    Every item emits ``schedule[t]`` labels at epoch t (an int applies to all
    epochs): a cluster is drawn from the item's memberships, then a label from
    that cluster's row.  Sampling draws per-(item, epoch) label counts from the
    marginal mixture, which has exactly that law, one epoch at a time, keeping
    only the non-zero counts.  The planted pair passes the parameter check of
    ``_arrays``: arrays are checked like tensors.
    """
    th, pv = _arrays(truth.theta, truth.p)
    T, I, _ = th.shape
    schedule = np.asarray(schedule, dtype=np.int64)
    if schedule.ndim == 0:
        schedule = np.full(T, int(schedule), dtype=np.int64)
    if schedule.shape != (T,) or np.any(schedule < 0):
        raise ContractError("schedule must be a non-negative int or (T,) array")
    rng = np.random.default_rng(np.random.SeedSequence(_integer("seed", seed, 0), spawn_key=(1,)))
    # flat (t, i, o) index and count of every non-zero count: at most min(n_t, O) per item
    cells = np.empty(int(np.minimum(schedule, pv.shape[2]).sum()) * I, dtype=np.int64)
    weights, size = np.empty_like(cells), 0
    for t in range(T):
        mix = _label_rows(th, pv, np.full(I, t), np.arange(I))
        counts = rng.multinomial(int(schedule[t]), mix).ravel()
        occupied = np.flatnonzero(counts)
        cells[size:size + occupied.size] = occupied + t * counts.size
        weights[size:size + occupied.size] = counts[occupied]
        size += occupied.size
    epochs, nodes, labels = np.unravel_index(cells[:size], (T, I, pv.shape[2]))
    del cells  # the merge in Dataset peaks on top of whatever is still alive
    return Dataset(nodes, labels, epochs, n_items=I, n_labels=pv.shape[2], n_epochs=T,
                   weights=weights[:size])
