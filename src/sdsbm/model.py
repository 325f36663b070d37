"""Parameter tensors and the forward model for dynamic labeled interactions.

A node's chance of producing a label at epoch t mixes its memberships with the
per-cluster label distributions:

    P(node -> label | t) = sum_k theta[t, node, k] * p[t_p, k, label]

where the block tensor either carries one slice per epoch or a single slice
shared by all of them.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractError
from .prior import TemporalCoupling

#: constructors accept rows whose sums deviate from 1 by at most this much
ROW_SUM_TOL = 1e-9


class DegenerateParametersWarning(UserWarning):
    """An observed triplet carries exactly zero probability mass."""


def _validated(values, ndim, name):
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ContractError(f"{name} must have {ndim} axes, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ContractError(f"{name} has an empty axis: shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ContractError(f"{name} contains negative entries")
    dev = np.abs(arr.sum(axis=-1) - 1.0).max()
    if dev > ROW_SUM_TOL:
        raise ContractError(
            f"{name} rows must sum to 1 within {ROW_SUM_TOL}; worst deviation {dev:.3e}"
        )
    arr.setflags(write=False)
    return arr


class MembershipTensor:
    """Per-epoch mixed memberships, shape (T, I, K); every (t, i) row is a simplex point."""

    def __init__(self, values):
        self.values = _validated(values, 3, "membership tensor")

    @property
    def n_epochs(self):
        return self.values.shape[0]

    @property
    def n_items(self):
        return self.values.shape[1]

    @property
    def n_clusters(self):
        return self.values.shape[2]

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"MembershipTensor(T={self.n_epochs}, I={self.n_items}, K={self.n_clusters})"


class BlockTensor:
    """Cluster-to-label distributions, shape (T_p, K, O); one slice per epoch or a single shared slice."""

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 2:  # a single slice is accepted and stored as (1, K, O)
            arr = arr[None, :, :]
        self.values = _validated(arr, 3, "block tensor")

    @property
    def n_epochs(self):
        return self.values.shape[0]

    @property
    def n_clusters(self):
        return self.values.shape[1]

    @property
    def n_labels(self):
        return self.values.shape[2]

    @property
    def shape(self):
        return self.values.shape

    @property
    def static(self):
        return self.values.shape[0] == 1

    def epoch_slice(self, t):
        """Slice in force at epoch t (the shared slice when static)."""
        return self.values[0 if self.static else t]

    def __repr__(self):
        return f"BlockTensor(T={self.n_epochs}, K={self.n_clusters}, O={self.n_labels})"


def _arrays(theta, p):
    th = theta.values if isinstance(theta, MembershipTensor) else np.asarray(theta, float)
    pv = p.values if isinstance(p, BlockTensor) else np.asarray(p, float)
    if pv.ndim == 2:
        pv = pv[None]
    if th.shape[2] != pv.shape[1]:
        raise ContractError(
            f"cluster axes disagree: memberships have K={th.shape[2]}, "
            f"block tensor has K={pv.shape[1]}"
        )
    if pv.shape[0] not in (1, th.shape[0]):
        raise ContractError(
            f"block tensor must have 1 or {th.shape[0]} epochs, got {pv.shape[0]}"
        )
    return th, pv


def _mixtures(th, pv, epochs, nodes, labels):
    """Mixture probability of each (node, label, epoch) triplet, vectorized."""
    t_p = np.zeros_like(epochs) if pv.shape[0] == 1 else epochs
    return np.einsum("uk,uk->u", th[epochs, nodes, :], pv[t_p, :, labels])


def _prior_pull(values, avg, fallback, beta):
    """beta * sum(<x> * log x) over epochs that have neighbours."""
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(avg > 0, avg * np.log(values), 0.0)
    return beta * contrib[~fallback].sum()


def log_posterior(theta, p, data, prior=None):
    """Log joint density of the data and the temporal prior, up to a constant.

    Sum of ``log P(node -> label | t)`` over all observations, plus — for each
    parameter family with per-epoch slices and a positive coupling — the prior
    pull ``beta * sum(<x> * log x)`` where ``<x>`` is the kernel-weighted
    neighbour average of the family itself.  Epochs with no weighted
    neighbours contribute nothing (their prior is uniform).

    Returns ``-inf``, and emits a DegenerateParametersWarning naming the first
    offending triplet, when any observed triplet has zero mixture probability.
    """
    th, pv = _arrays(theta, p)
    if th.shape[0] != data.n_epochs:
        raise ContractError(
            f"memberships cover {th.shape[0]} epochs, data has {data.n_epochs}"
        )
    if th.shape[1] < data.n_items or pv.shape[2] < data.n_labels:
        raise ContractError("parameter extents are smaller than the data extents")

    epochs, nodes, labels, weights = data.compressed()
    total = 0.0
    if len(epochs):
        mix = _mixtures(th, pv, epochs, nodes, labels)
        if np.any(mix <= 0.0):
            u = int(np.argmax(mix <= 0.0))
            warnings.warn(
                f"zero mixture probability for observed triplet (node={nodes[u]}, "
                f"label={labels[u]}, epoch={epochs[u]})",
                DegenerateParametersWarning,
                stacklevel=2,
            )
            return float("-inf")
        total += float(weights @ np.log(mix))

    if prior is not None:
        coupling = TemporalCoupling(data.epoch_counts, prior)
        for values, beta in ((th, prior.beta_theta), (pv, prior.beta_p)):
            if beta > 0 and values.shape[0] > 1:
                total += _prior_pull(values, *coupling.average(values), beta)
    return total
