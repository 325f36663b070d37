"""Parameter tensors and the forward model for dynamic labeled interactions.

A node's chance of producing a label at epoch t mixes its memberships with the
per-cluster label distributions:

    P(node -> label | t) = sum_k theta[t_theta, node, k] * p[t_p, k, label]

where each tensor carries one slice per epoch or one shared by all, and
``_arrays`` checks the pair; ``_label_rows`` evaluates that mixture for test
scoring, sampling and ``predict``.  This module owns the one pass over the
compressed observations, ``_e_step``: it yields the responsibility sums of the
families a sweep updates and the objective, each with the prior's pull, and the
log-likelihood.  ``fit`` runs it every sweep, and ``log_posterior`` is a thin
call of it that updates nothing.  The pass works in one layout with the cluster
axis second, memberships ``(T, K, I)`` and blocks ``(T_p, K, O)``, so every
gather, broadcast and reduction runs along a long contiguous axis; the public
membership tensor stays ``(T, I, K)``.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ContractError, DegenerateParameterError
from .pool import ordered_map
from .prior import PriorConfig, TemporalCoupling

#: constructors accept rows whose sums deviate from 1 by at most this much
ROW_SUM_TOL = 1e-9
#: observations stream through the E-step in blocks of this many unique triplets
CHUNK = 1 << 16


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
    """Immutable per-fit constants for a pair of ``theta_slices`` and ``p_slices`` slices.

    ``base_theta = t*K*I + i`` and ``base_p = t*K*O + o`` locate each triplet
    in the flat ``(T, K, I)`` and ``(T, K, O)`` working arrays, cluster k lying
    ``k*I`` or ``k*O`` further on; a single slice shared by every epoch is
    indexed by the nodes or labels alone.  Two rules per family are decided
    here once.  ``updates`` says whether a sweep updates the family: only then
    does ``_accumulate`` build its responsibility sums (``fit`` holds a fixed
    block tensor, ``log_posterior`` updates neither).  ``pulls`` says how
    strongly the prior couples it: a family's beta where it has one slice per
    epoch, else 0.  ``_e_step`` adds each positive pull to the family's
    objective term and, where they exist, to its sums, from averages frozen for
    the next M-step; the coupling is built on first use.  ``buffers`` hands
    each block of the pass a set of buffers that ``free`` keeps for the life of
    the fit, so a sweep allocates no index, gather or product arrays.
    """

    def __init__(self, data, prior, n_clusters, theta_slices, p_slices, updates):
        self.data = data
        self.prior = prior
        self.updates = updates
        self.n_clusters = n_clusters
        self.free = []  # block buffers that no block is using
        self.epochs_u, self.nodes_u, self.labels_u, w = data.compressed()
        self.weights = w.astype(float)
        self.base_theta = (self.nodes_u if theta_slices == 1
                           else self.epochs_u * (n_clusters * data.n_items) + self.nodes_u)
        self.base_p = (self.labels_u if p_slices == 1
                       else self.epochs_u * (n_clusters * data.n_labels) + self.labels_u)
        self.pulls = (prior.beta_theta if theta_slices == data.n_epochs else 0.0,
                      prior.beta_p if p_slices == data.n_epochs else 0.0)

    def buffers(self):
        """A set of buffers for one block of the pass, sized for ``CHUNK`` triplets.

        The set is the flat index rows of both families, the gathered
        memberships and blocks, and the normalizer and a scratch row, in three
        arrays.  It is taken from ``free``, where a block puts its set back
        once done, or made here when none is free: so a pass holds one set per
        block in flight, and the memory comes from the arena of the thread
        that reads the blocks.
        """
        K, n = self.n_clusters, min(CHUNK, self.weights.size)
        # pool threads only append, so a set seen here is still there to pop
        return self.free.pop() if self.free else (
            np.empty((2, K * n), np.intp), np.empty((2, K * n)), np.empty((2, n)))

    @cached_property
    def coupling(self):
        return TemporalCoupling(self.data.epoch_counts, self.prior)


def _sum_rows(rows):
    """Sum over the first axis, adding its slices left to right: the same bits for any length."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _accumulate(theta, p, problem):
    """One pass over the observations: responsibility sums and log-likelihood.

    Returns the sums of each family that ``problem.updates`` marks, in the
    working layout of (theta, p), ``None`` for any other, and ``sum(w *
    log(normalizer))``, the log-likelihood.  The triplets stream in blocks of
    ``CHUNK``, so memory stays flat in the number of observations.  Each block
    is one call of ``ordered_map``, run on this thread or, where several CPUs
    are free, a pool thread: it forms its (K, block) indices from the base
    offsets, gathers both families once for the mixture, adds the
    normalizer's K rows left to right, takes its part of the log-likelihood
    and ``bincount``s each updated family over the rows of its own epochs,
    all in the buffers ``problem.buffers`` hands it.  This thread adds the
    parts in block order, the order of a serial pass, so the result is the
    same bits for any number of threads.  Raises ``DegenerateParameterError``
    naming the first triplet, in block order, whose normalizer is not positive.
    """
    flats = (theta.reshape(-1), p.reshape(-1))
    steps = [np.arange(x.shape[1])[:, None] * x.shape[2] for x in (theta, p)]
    # a family's entries per epoch, or 0 for one slice that every epoch shares
    spans = [0 if len(x) == 1 else x[0].size for x in (theta, p)]
    starts = range(0, problem.weights.size, CHUNK)

    def block(job):
        """(updated families' (offset, sums), log-likelihood part, first failing row or None)."""
        start, buffers = job
        try:
            return pass_block(start, min(start + CHUNK, problem.weights.size), *buffers)
        finally:
            problem.free.append(buffers)

    def pass_block(start, stop, at, products, rows):
        K, n = theta.shape[1], stop - start  # the buffers as (K, n) and (n,) views
        at = at[:, :K * n].reshape(2, K, n)
        omega, gathered = products[:, :K * n].reshape(2, K, n)
        denom, scale = rows[:, :n]
        # the rows of this block's epochs in each flat family, all of it for one slice
        first, last = int(problem.epochs_u[start]), int(problem.epochs_u[stop - 1]) + 1
        bounds = [(first * span, last * span) if span else (0, flat.size)
                  for span, flat in zip(spans, flats)]
        for out, base, step, (lo, _) in zip(at, (problem.base_theta, problem.base_p),
                                            steps, bounds):
            np.add(base[start:stop], step - lo if lo else step, out=out)
        flats[0][slice(*bounds[0])].take(at[0], out=omega, mode="clip")
        flats[1][slice(*bounds[1])].take(at[1], out=gathered, mode="clip")
        omega *= gathered
        np.copyto(denom, omega[0])  # _sum_rows, into the workspace
        for row in omega[1:]:
            denom += row
        if denom.min() <= 0.0:
            return None, None, int(np.argmax(denom <= 0.0))
        weights = problem.weights[start:stop]
        loglik = float(weights @ np.log(denom, out=scale))
        parts = [None, None]
        if any(problem.updates):  # responsibilities are only read by the sums
            omega *= np.divide(weights, denom, out=scale)
            for family, (lo, hi) in enumerate(bounds):
                if problem.updates[family]:
                    parts[family] = lo, np.bincount(at[family].ravel(), weights=omega.ravel(),
                                                    minlength=hi - lo)
        return parts, loglik, None

    sums = [np.zeros(x.size) if update else None for x, update in zip(flats, problem.updates)]
    loglik = 0.0
    jobs = ((start, problem.buffers()) for start in starts)  # read on this thread
    for start, (parts, part_loglik, failed) in zip(starts, ordered_map(block, jobs)):
        if failed is not None:
            u = start + failed
            raise DegenerateParameterError(int(problem.nodes_u[u]),
                                           int(problem.labels_u[u]),
                                           int(problem.epochs_u[u]))
        loglik += part_loglik
        for s, part in zip(sums, parts):
            if part is not None:
                lo, counts = part
                s[lo:lo + counts.size] += counts
    return (*(None if s is None else s.reshape(x.shape) for s, x in zip(sums, (theta, p))),
            loglik)


def _e_step(theta, p, problem):
    """Responsibility sums, log-likelihood and objective at working-layout arrays.

    For each family with a positive pull ``beta`` in ``problem.pulls``, one
    neighbour average ``<x>`` adds ``beta * sum(<x> * log x)``, over ``<x> >
    0``, to the objective and, if the family is updated, ``beta * <x>`` to its
    sums.  Dividing each row of the sums by its total is then an exact EM step
    on that surrogate, with ``<x>`` frozen at this pass.  Returns ``(s_theta,
    s_p, loglik, objective)``, a family's sums ``None`` where it is not updated.
    """
    s_theta, s_p, loglik = _accumulate(theta, p, problem)
    objective = loglik
    for values, sums, pull in zip((theta, p), (s_theta, s_p), problem.pulls):
        if pull > 0:
            avg = problem.coupling.average(values)
            if sums is not None:
                sums += pull * avg
            if values.min() > 0:  # as every M-step array is: where <x> is 0 the log adds ±0
                log_values = np.log(values)
            else:
                with np.errstate(divide="ignore"):
                    log_values = np.log(values, out=np.zeros_like(values), where=avg > 0)
            objective += pull * float(np.vdot(avg, log_values))
    return s_theta, s_p, loglik, objective


def log_posterior(theta, p, data, prior=None):
    """Log joint density of the data and the temporal prior, up to a constant.

    Sum of ``log P(node -> label | t)`` over all observations, plus — for each
    parameter family with per-epoch slices and a positive coupling — the prior
    pull ``beta * sum(<x> * log x)`` where ``<x>`` is the kernel-weighted
    neighbour average of the family itself.  Epochs with no weighted
    neighbours contribute nothing (their prior is uniform).  The pair passes
    ``_arrays``, so one slice of either family stands for every epoch.  The
    value is the objective of the E-step pass that ``fit`` runs, summed in its
    order (the last ulp may vary by release); the pass updates no family, so it
    builds no responsibility sums.

    Raises DegenerateParameterError naming the first observed triplet of zero
    mixture probability, as ``fit`` does.
    """
    th, pv = _arrays(theta, p, data)
    problem = _Problem(data, PriorConfig() if prior is None else prior, th.shape[2],
                       len(th), len(pv), (False, False))
    return _e_step(th.transpose(0, 2, 1).copy(), pv, problem)[-1]
