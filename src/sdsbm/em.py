"""EM inference for dynamic mixed-membership parameters: the M-step, sweeps, restarts.

Each sweep applies the coordinate updates of ``_m_step`` to plain arrays, then
runs the forward-model pass of ``sdsbm.model`` (``_e_step``) at the new
parameters.  That one pass gives the next sweep's responsibility sums, the
log-likelihood that decides convergence, and the objective that
``log_posterior`` reports.  With zero coupling every epoch decouples into plain
maximum likelihood; for each family the prior couples, the pass adds
``beta * <x>`` to the responsibility sums, and the M-step's division of each
row by its own total pulls it toward its neighbour average.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ContractError, _integer
from .model import BlockTensor, MembershipTensor, _arrays, _covers, _e_step, _Problem, _sum_rows
from .prior import PriorConfig

_log = logging.getLogger(__name__)

#: updated probabilities are floored here, then rows renormalized
PROB_FLOOR = 1e-12
#: every cold restart runs this many sweeps (or to its stop); only the leader goes on
RACE_SWEEPS = 40
P_MODES = ("dynamic", "static", "fixed")


@dataclass(frozen=True)
class FitConfig:
    """Settings for one model fit.

    n_clusters : int
        Number of latent clusters K.
    prior : PriorConfig
        Temporal coupling; the default has both betas at zero.
    p_mode : {"dynamic", "static", "fixed"}
        Per-epoch block slices, a single inferred slice shared by all epochs,
        or a caller-supplied tensor that is never updated.
    fixed_p : BlockTensor (an array is converted), only with ``p_mode="fixed"``
    max_iterations, tol : stop after this many iterations or once the
        log-likelihood changes by less than ``tol`` relative between two
        consecutive iterations, whichever is first.  The prior term of the
        objective is left out of the test: it keeps growing with the coupling
        after the fit to the data has settled.
    restarts : independent EM chains, raced: each runs ``RACE_SWEEPS`` sweeps
        or to its own stop, if sooner, and only the one with the highest
        objective at that point (the first of equals) runs on to its stop and
        wins.  Every chain stopping inside the race, as with ``max_iterations
        <= RACE_SWEEPS``, makes the winner the highest final objective.
    seed : every chain and epoch slice draws its start from a stream derived from
        (seed, restart, epoch): fits are reproducible bit for bit for a fixed numpy/BLAS
        build and BLAS thread count, since OpenBLAS rounds the coupling product
        ``A @ X`` of ``TemporalCoupling.average`` by column position.  The number
        of CPUs does not matter: the E-step's blocks may run on several threads
        but are added in block order (see ``sdsbm.model._accumulate``).
    """

    n_clusters: int
    prior: PriorConfig = field(default_factory=PriorConfig)
    p_mode: str = "dynamic"
    fixed_p: Any = None
    max_iterations: int = 200
    tol: float = 1e-6
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_clusters", 1), ("max_iterations", 1), ("restarts", 1),
                              ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if not self.tol > 0:
            raise ContractError("tol must be > 0")
        if self.p_mode not in P_MODES:
            raise ContractError(f"p_mode must be one of {P_MODES}, got {self.p_mode!r}")
        if (self.fixed_p is None) != (self.p_mode != "fixed"):
            raise ContractError("fixed_p is required exactly when p_mode='fixed'")
        if self.fixed_p is not None:
            if not isinstance(self.fixed_p, BlockTensor):
                object.__setattr__(self, "fixed_p", BlockTensor(self.fixed_p))
            k = self.fixed_p.values.shape[1]
            if k != self.n_clusters:
                raise ContractError(f"fixed block tensor has K={k}, the config K={self.n_clusters}")


@dataclass
class FitReport:
    """Outcome of a fit: tensors of the winning restart plus its history."""

    theta: MembershipTensor
    p: BlockTensor
    trace: np.ndarray
    n_iterations: int
    converged: bool
    best_restart: int
    diagnostics: dict
    config: FitConfig

    @property
    def objective(self):
        """Final objective; its last ulp, like the trace's, may vary by release."""
        return float(self.trace[-1])


def _coordinate_update(sums, axis):
    """Floored simplex rows along ``axis`` of (T, K, R) sums, each divided by its own total.

    A row whose total is 0 (no mass, no prior pull) becomes uniform, the mode
    of its flat prior, and is flagged in the returned mask.  Membership rows
    (``axis=1``) add their K entries left to right; block rows run along the
    labels.  Returns ``(rows, dead)``.
    """
    def row_sums(rows):
        if axis == 1:
            return _sum_rows(rows.swapaxes(0, 1))[:, None]
        return rows.sum(axis=2, keepdims=True)

    total = row_sums(sums)
    dead = total == 0
    out = sums / np.where(dead, 1.0, total)
    np.copyto(out, 1.0 / sums.shape[axis], where=dead)
    np.maximum(out, PROB_FLOOR, out=out)
    out /= row_sums(out)
    return out, dead


def _m_step(s_theta, s_p, p, problem):
    """The M-step on ``(T, K, I)`` and ``(T_p, K, O)`` sums from ``_e_step`` at ``(theta, p)``.

    Every row is divided by its own total.  ``_e_step`` has already added a
    coupled family's prior pull ``beta * <x>`` to its sums, so a row's total
    is ``N + beta`` where its neighbour average sums to 1 and ``N`` at a
    fallback epoch, whose flat prior adds nothing.  A row with no observations
    takes its neighbour average when coupled and is uniform otherwise.  The
    block tensor has one slice per epoch or one whose sums ``_e_step`` pools
    over every epoch; ``s_p`` is ``None`` when the fit holds it fixed, and
    ``p`` is returned as it came.  Returns ``(theta, p, rows_reset)``, where
    ``rows_reset`` counts the cluster rows of ``p`` with no mass and no prior
    pull, which were reset to uniform.  A row counts only where its slice saw
    observations, those of its epoch or, for a shared slice, of the whole
    data: a slice with none had no mass to lose.
    """
    theta, _ = _coordinate_update(s_theta, axis=1)
    if s_p is None:
        return theta, p, 0
    p, dead = _coordinate_update(s_p, axis=2)
    seen = problem.data.epoch_counts > 0
    return theta, p, int(dead[seen if len(p) > 1 else seen.any(keepdims=True)].sum())


def _initial(data, config, restart):
    """Dirichlet(1) start arrays, streams keyed by (seed, restart, epoch); ``p`` None when fixed.

    Each epoch's stream fills its membership rows, then its block rows; a shared block slice
    takes the stream of epoch T.  The rows get the draws and arithmetic of
    ``rng.dirichlet(np.ones(n))``: standard exponentials, times one over their running sum.
    """
    T, K, dynamic = data.n_epochs, config.n_clusters, config.p_mode == "dynamic"
    theta = np.empty((T, data.n_items, K))
    p = None if config.p_mode == "fixed" else np.empty((T if dynamic else 1, K, data.n_labels))
    for t in range(T + (config.p_mode == "static")):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(restart, t)))
        slices = (p[0],) if t == T else (theta[t], p[t]) if dynamic else (theta[t],)
        for rows in slices:
            rng.standard_exponential(out=rows)
    for rows in (theta,) if p is None else (theta, p):
        rows *= 1 / np.cumsum(rows, axis=-1)[..., -1:]
    return theta, p


def _chain(problem, config, theta, p):
    """One EM chain on plain arrays from the start ``(theta, p)``, as a generator.

    It yields the objective after each sweep and stops, returning its result,
    once the log-likelihoods of two consecutive sweeps differ by less than
    ``config.tol`` relative or after ``config.max_iterations`` sweeps.  A sweep
    need not raise the objective itself.  It is an exact EM step on the
    surrogate ``loglik(x) + beta * sum(<x_n> log x)`` whose neighbour averages
    ``<x_n>`` the E-step pass before it took and added to the sums, so it
    never lowers that surrogate.  A paused chain holds only its parameter and
    sum arrays, and a resumed one carries on exactly as if it had never
    paused.  Which families a sweep updates is ``problem.updates``: a block
    tensor the fit holds fixed gets no sums and passes through each M-step as
    it came.  The result is plain values, validated nowhere: the final
    ``(T, I, K)`` and block arrays, the trace, whether the chain converged,
    its dead-row resets and the seconds spent inside the chain, which leave
    out time while it is paused.
    """
    theta = theta.transpose(0, 2, 1).copy()  # the (T, K, I) working layout
    trace = []
    dead_total = 0
    converged = False
    seconds = 0.0
    started = time.perf_counter()
    s_theta, s_p, loglik, _ = _e_step(theta, p, problem)
    for _ in range(config.max_iterations):
        theta, p, dead = _m_step(s_theta, s_p, p, problem)
        dead_total += dead
        previous = loglik
        s_theta, s_p, loglik, objective = _e_step(theta, p, problem)
        trace.append(objective)
        change = abs(loglik - previous) / max(abs(previous), 1e-12)
        converged = len(trace) > 1 and change < config.tol
        seconds += time.perf_counter() - started
        yield objective
        if converged:
            break
        started = time.perf_counter()
    return theta.transpose(0, 2, 1).copy(), p, np.asarray(trace), converged, dead_total, seconds


def _advance(chain, sweeps):
    """Run ``chain`` for up to ``sweeps`` more sweeps: their objectives, and the
    chain's result once it has stopped (None while it can go on)."""
    objectives = []
    try:
        while len(objectives) < sweeps:
            objectives.append(next(chain))
    except StopIteration as stop:
        return objectives, stop.value
    return objectives, None


def fit(data, config, *, start=None):
    """Race ``config.restarts`` EM chains on ``data`` and run the leader to its stop.

    Each chain runs ``RACE_SWEEPS`` sweeps, or fewer if its log-likelihood
    settles first (see ``FitConfig.tol``).  The chain with the highest
    objective at that point wins, the first of equals; the others stop, and
    the winner runs on to its own stop.  A resumed chain ends exactly where it
    would have ended unpaused, so the winner's report is that of its chain
    run alone.  Under coupling a sweep is guaranteed not to lower a surrogate
    whose neighbour averages the E-step pass froze and added to the sums (see
    ``_chain``), not the objective in the trace; with both betas zero the two
    agree and the trace never falls.  Returns one FitReport, built for the
    winning restart: its tensors are validated once per fit, for the winning
    chain.  In its ``diagnostics``, ``sweeps_total`` counts every chain's
    sweeps (the losers' race sweeps plus the winner's ``n_iterations``),
    ``seconds_per_iteration`` times the winner's own sweeps only,
    ``fallback_epochs`` counts the epochs with no weighted neighbours (0 when
    the prior couples no family, so that no epoch has a coupled prior to fall
    back from), and ``aborted_restarts`` is always 0.

    An observed triplet of zero probability raises ``DegenerateParameterError``
    naming it from the first chain's first E-step, before any sweep; no other
    chain runs.  Dirichlet starts are positive and the M-step floors every
    probability at ``PROB_FLOOR``, so only zeros in ``fixed_p`` or ``start``
    can cause one, and then every chain would fail on that same triplet.

    ``start=(theta, p)``, such as the tensors of a fit at a nearby coupling,
    runs exactly one chain (restart 0) from them instead of the Dirichlet
    starts.  The pair passes ``_arrays`` against ``data``, as the shape of
    ``fixed_p`` passes ``_covers``, and needs one membership slice per epoch,
    ``n_clusters`` and the block slices of ``p_mode`` (a ``ContractError``
    otherwise); with ``p_mode="fixed"`` the block tensor stays ``fixed_p``.
    """
    T, K = data.n_epochs, config.n_clusters
    fixed_p = None
    if config.p_mode == "fixed":
        fixed_p = config.fixed_p.values
        _covers((T, data.n_items, K), fixed_p.shape, data)
    p_slices = {"dynamic": T, "static": 1}.get(config.p_mode) or len(fixed_p)
    if start is None:
        starts = (_initial(data, config, restart) for restart in range(config.restarts))
    else:
        theta, p = _arrays(*start, data)
        have = (len(theta), theta.shape[2], len(p))
        need = (T, K, p_slices)
        if have != need:
            raise ContractError(f"start arrays have (epochs, K, block slices) = {have}, "
                                f"a {config.p_mode} fit of this data needs {need}")
        starts = [(theta, p)]
    problem = _Problem(data, config.prior, K, T, p_slices, (True, fixed_p is None))
    chains = [_chain(problem, config, theta, p if fixed_p is None else fixed_p)
              for theta, p in starts]
    raced = [_advance(chain, RACE_SWEEPS) for chain in chains]
    # the highest objective at the race wins; max keeps the first of equal keys
    best = max(range(len(chains)), key=lambda restart: raced[restart][0][-1])
    result = raced[best][1] or _advance(chains[best], config.max_iterations)[1]
    theta, p, trace, converged, dead_resets, seconds = result
    losers_sweeps = sum(len(objectives) for restart, (objectives, _) in enumerate(raced)
                        if restart != best)
    if dead_resets:
        _log.warning("winning restart reset %d dead cluster rows", dead_resets)
    return FitReport(
        theta=MembershipTensor(theta),
        p=BlockTensor(p),
        trace=trace,
        n_iterations=len(trace),
        converged=converged,
        best_restart=best,
        diagnostics={
            "dead_cluster_resets": dead_resets,
            "seconds_per_iteration": seconds / len(trace),
            "sweeps_total": losers_sweeps + len(trace),
            "aborted_restarts": 0,  # always 0; kept because perfbench/tracing.py reads the key
            "fallback_epochs": int(problem.coupling.fallback.sum()) if any(problem.pulls) else 0,
        },
        config=config,
    )
