"""Parameter tensors and the forward model for dynamic labeled interactions.

A node's chance of producing a label at epoch t mixes its memberships with the
per-cluster label distributions:

    P(node -> label | t) = sum_k theta[t_theta, node, k] * p[t_p, k, label]

where each tensor carries one slice per epoch or one shared by all, and
``_arrays`` checks the pair; ``_label_rows`` evaluates that mixture for test
scoring, sampling and ``predict``.  This module owns the one pass over the
compressed observations, ``_e_step``: it yields EM's responsibility sums, the
log-likelihood and the objective.  ``fit`` runs it every sweep, and
``log_posterior`` is a thin call of it.  The pass works in one layout with the
cluster axis second, memberships ``(T, K, I)`` and blocks ``(T_p, K, O)``, so
every gather, broadcast and reduction runs along a long contiguous axis; the
public membership tensor stays ``(T, I, K)``.
"""
from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from .errors import ContractError, DegenerateParameterError
from .prior import PriorConfig, TemporalCoupling

#: constructors accept rows whose sums deviate from 1 by at most this much
ROW_SUM_TOL = 1e-9
#: observations stream through the E-step in blocks of this many unique triplets
CHUNK = 1 << 16


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
    def n_items(self):
        return self.values.shape[1]

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return "MembershipTensor(T={}, I={}, K={})".format(*self.values.shape)


class BlockTensor:
    """Cluster-to-label distributions, shape (T_p, K, O); one slice per epoch or a single shared slice."""

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 2:  # a single slice is accepted and stored as (1, K, O)
            arr = arr[None, :, :]
        self.values = _validated(arr, 3, "block tensor")

    @property
    def n_labels(self):
        return self.values.shape[2]

    def __repr__(self):
        return "BlockTensor(T={}, K={}, O={})".format(*self.values.shape)


def _arrays(theta, p, data=None):
    """The one parameter check: a (theta, p) pair as (T, I, K) and (T_p, K, O) arrays.

    Arrays are checked as the tensor constructors check them (a 2-D block is
    one shared slice); the pair agrees on K, and ``p`` has one slice or one
    per epoch of ``theta``.  Given ``data``, the pair covers its items, labels
    and all of its epochs or one, which then stands for every epoch.
    """
    th = (theta if isinstance(theta, MembershipTensor) else MembershipTensor(theta)).values
    pv = (p if isinstance(p, BlockTensor) else BlockTensor(p)).values
    _covers(th.shape, pv.shape, data)
    return th, pv


def _label_rows(theta, p, epochs, nodes):
    """Rows ``theta[t, i] @ p[t]`` for (epoch, node) arrays, one product per epoch.

    The arrays passed ``_arrays``; a tensor with one slice serves every epoch.
    """
    if theta.shape[0] == 1:
        epochs = np.zeros_like(epochs)
    rows = np.empty((nodes.size, p.shape[2]))
    for t in np.unique(epochs):
        at = epochs == t
        rows[at] = theta[t, nodes[at]] @ p[0 if p.shape[0] == 1 else t]
    return rows


def _covers(theta_shape, p_shape, data=None):
    """The extents rules of ``_arrays``, on the shapes of a pair alone."""
    if theta_shape[2] != p_shape[1]:
        raise ContractError(
            f"cluster axes disagree: memberships have K={theta_shape[2]}, "
            f"block tensor has K={p_shape[1]}"
        )
    if data is not None:
        have = (theta_shape[0], theta_shape[1], p_shape[2])
        need = (data.n_epochs, data.n_items, data.n_labels)
        if have[0] not in (1, need[0]) or have[1:] != need[1:]:
            raise ContractError(f"the model covers (epochs, items, labels) = {have}, data {need}")
    if p_shape[0] not in (1, theta_shape[0]):
        raise ContractError(
            f"block tensor must have 1 or {theta_shape[0]} epochs, got {p_shape[0]}"
        )


class _Problem:
    """Immutable per-fit constants: compressed triplets, base offsets, counts, coupling.

    ``base_theta = t*K*I + i`` and ``base_p = t*K*O + o`` locate each triplet
    in the flat ``(T, K, I)`` and ``(T, K, O)`` working arrays, cluster k lying
    ``k*I`` or ``k*O`` further on; a single slice shared by every epoch is
    indexed by the nodes or labels alone.  The rest is built on first use:
    ``log_posterior`` needs no counts, and an uncoupled fit no coupling.
    """

    def __init__(self, data, prior, n_clusters):
        self.data = data
        self.prior = prior
        self.epochs_u, self.nodes_u, self.labels_u, w = data.compressed()
        self.weights = w.astype(float)
        self.base_theta = self.epochs_u * (n_clusters * data.n_items) + self.nodes_u
        self.base_p = self.epochs_u * (n_clusters * data.n_labels) + self.labels_u

    @cached_property
    def counts(self):
        """(T, I) float observation counts N_{i,t}, summed from the triplet weights."""
        T, I = self.data.n_epochs, self.data.n_items
        rows = self.epochs_u * I + self.nodes_u
        return np.bincount(rows, weights=self.weights, minlength=T * I).reshape(T, I)

    @cached_property
    def coupling(self):
        return TemporalCoupling(self.data.epoch_counts, self.prior)

    @cached_property
    def open_betas(self):
        """(T, 1, 1) beta_theta and beta_p, 0 at fallback epochs: those take the flat prior."""
        open_epochs = ~self.coupling.fallback[:, None, None]
        return self.prior.beta_theta * open_epochs, self.prior.beta_p * open_epochs

    @cached_property
    def theta_denominator(self):
        """(T, 1, I) membership denominators ``N + beta``, 1 where that is 0, and that mask."""
        total = self.counts[:, None, :] + (self.open_betas[0] if self.prior.beta_theta > 0 else 0.0)
        dead = total == 0
        return np.where(dead, 1.0, total), dead


def _sum_rows(rows):
    """Sum over the first axis, adding its slices left to right: the same bits for any length."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _accumulate(theta, p, problem):
    """One pass over the observations: responsibility sums and log-likelihood.

    Returns the sums for both families, in the working layout of (theta, p),
    and ``sum(w * log(normalizer))``, the log-likelihood.  Each block of
    triplets forms its (K, block) indices from the base offsets, gathers each
    family once, and the normalizer adds the K rows left to right.  Streams
    fixed-size blocks so memory stays flat in the number of observations;
    partial sums merge by addition, so sharding the pass over triplet ranges
    changes nothing beyond float associativity.
    """
    base_theta = problem.nodes_u if theta.shape[0] == 1 else problem.base_theta
    base_p = problem.labels_u if p.shape[0] == 1 else problem.base_p
    step_theta = np.arange(theta.shape[1])[:, None] * theta.shape[2]
    step_p = np.arange(p.shape[1])[:, None] * p.shape[2]
    s_theta, s_p = np.zeros(theta.size), np.zeros(p.size)
    loglik = 0.0
    for start in range(0, problem.weights.size, CHUNK):
        sl = slice(start, start + CHUNK)
        at_theta = base_theta[sl] + step_theta
        at_p = base_p[sl] + step_p
        omega = theta.take(at_theta)
        omega *= p.take(at_p)
        denom = _sum_rows(omega)
        if np.any(denom <= 0.0):
            u = start + int(np.argmax(denom <= 0.0))
            raise DegenerateParameterError(int(problem.nodes_u[u]),
                                           int(problem.labels_u[u]),
                                           int(problem.epochs_u[u]))
        weights = problem.weights[sl]
        loglik += float(weights @ np.log(denom))
        omega *= weights / denom
        s_theta += np.bincount(at_theta.ravel(), weights=omega.ravel(), minlength=theta.size)
        s_p += np.bincount(at_p.ravel(), weights=omega.ravel(), minlength=p.size)
    return s_theta.reshape(theta.shape), s_p.reshape(p.shape), loglik


def _e_step(theta, p, problem):
    """Responsibility sums, averages, log-likelihood and objective at working-layout arrays.

    The objective is the log-likelihood plus, for each coupled family of
    ``problem.prior``, the prior pull ``beta * sum(<x> * log x)`` where
    ``<x> > 0``, at the averages the next M-step needs (zero at fallback
    epochs).  An average is None for a family uncoupled or with one shared slice.
    """
    s_theta, s_p, loglik = _accumulate(theta, p, problem)
    objective = loglik
    averages = []
    for values, beta in ((theta, problem.prior.beta_theta), (p, problem.prior.beta_p)):
        avg = None
        if beta > 0 and values.shape[0] == problem.coupling.n_epochs:
            avg = problem.coupling.average(values)
            with np.errstate(divide="ignore"):
                log_values = np.log(values, out=np.zeros_like(values), where=avg > 0)
            objective += beta * float(np.vdot(avg, log_values))
        averages.append(avg)
    return s_theta, s_p, averages, loglik, objective


def log_posterior(theta, p, data, prior=None):
    """Log joint density of the data and the temporal prior, up to a constant.

    Sum of ``log P(node -> label | t)`` over all observations, plus — for each
    parameter family with per-epoch slices and a positive coupling — the prior
    pull ``beta * sum(<x> * log x)`` where ``<x>`` is the kernel-weighted
    neighbour average of the family itself.  Epochs with no weighted
    neighbours contribute nothing (their prior is uniform).  The pair passes
    ``_arrays``, so one slice of either family stands for every epoch.  The
    value is the objective of the E-step pass that ``fit`` runs, summed in its
    order (the last ulp may vary by release).

    Returns ``-inf``, and emits a DegenerateParametersWarning naming the first
    offending triplet, when any observed triplet has zero mixture probability.
    """
    th, pv = _arrays(theta, p, data)
    prior = PriorConfig() if prior is None else prior
    try:
        problem = _Problem(data, prior, th.shape[2])
        *_, objective = _e_step(th.transpose(0, 2, 1).copy(), pv, problem)
    except DegenerateParameterError as err:
        warnings.warn(
            "zero mixture probability for observed triplet "
            "(node={}, label={}, epoch={})".format(*err.triplet),
            DegenerateParametersWarning,
            stacklevel=2,
        )
        return float("-inf")
    return objective
