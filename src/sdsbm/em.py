"""EM inference for dynamic mixed-membership parameters: the M-step, sweeps, restarts.

Each sweep applies the coordinate updates of ``_m_step`` to plain arrays, then
runs the forward-model pass of ``sdsbm.model`` (``_e_step``) at the new
parameters.  That one pass gives the next sweep's responsibility sums, the
log-likelihood that decides convergence, and the objective that
``log_posterior`` reports.  With zero coupling every epoch decouples into plain
maximum likelihood; with positive coupling the numerator gains ``beta * <x>``
and the denominator ``beta``, pulling each row toward its neighbour average.
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
    restarts : independent EM chains; the one with the highest final objective
        wins.  Chains may stop after different numbers of iterations.
    seed : every chain and epoch slice draws its start from a stream derived from
        (seed, restart, epoch): fits are reproducible bit for bit for a fixed numpy/BLAS
        build and BLAS thread count, since OpenBLAS rounds the coupling product
        ``A @ X`` of ``TemporalCoupling.average`` by column position.
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


def _coordinate_update(sums, denominator, dead, axis):
    """Floored simplex rows ``sums / denominator`` along ``axis`` of (T, K, R) sums.

    ``dead`` rows (no mass, no prior pull, denominator 1) become uniform, the
    mode of their flat prior.  Membership rows (``axis=1``) add their K
    entries left to right; block rows run along the labels.
    """
    out = sums / denominator
    np.copyto(out, 1.0 / sums.shape[axis], where=dead)
    np.maximum(out, PROB_FLOOR, out=out)
    out /= _sum_rows(out.swapaxes(0, 1))[:, None] if axis == 1 else out.sum(axis=2, keepdims=True)
    return out


def _m_step(s_theta, s_p, averages, p, problem, p_mode):
    """The M-step on ``(T, K, I)`` and ``(T_p, K, O)`` arrays, from ``_e_step`` at ``(theta, p)``.

    Counts, prior and fallback epochs (which take the flat beta=0 prior) come
    from ``problem``.  A row with no observations takes its neighbour average
    when coupled and is uniform otherwise.  The block tensor follows
    ``p_mode``: ``dynamic`` updates one slice per epoch, ``static`` its one
    slice, whose sums ``_e_step`` pools over every epoch with no neighbour
    average (zero at T = 1, a fallback epoch), ``fixed`` returns ``p`` as it
    came.  Returns ``(theta, p, rows_reset)``, where ``rows_reset`` counts the
    cluster rows of ``p`` with no mass and no prior pull, which were reset to
    uniform.  Rows of an epoch with no observations are reset too but not
    counted: they had no mass to lose.
    """
    avg_theta, avg_p = averages
    if avg_theta is not None:
        s_theta = s_theta + problem.open_betas[0] * avg_theta
    theta = _coordinate_update(s_theta, *problem.theta_denominator, axis=1)
    if p_mode == "fixed":
        return theta, p, 0
    counts = s_p.sum(axis=2, keepdims=True)
    if avg_p is not None:
        s_p = s_p + problem.open_betas[1] * avg_p
        counts = counts + problem.open_betas[1]
    dead = counts == 0
    p = _coordinate_update(s_p, np.where(dead, 1.0, counts), dead, axis=2)
    if p_mode == "dynamic":
        dead = dead[problem.data.epoch_counts > 0]
    return theta, p, int(dead.sum())


def _initial(data, config, restart):
    """Dirichlet(1) start arrays, streams keyed by (seed, restart, epoch); ``p`` None when fixed."""
    T, I, O = data.n_epochs, data.n_items, data.n_labels
    K = config.n_clusters
    theta = np.empty((T, I, K))
    p = np.empty((T, K, O)) if config.p_mode == "dynamic" else None
    for t in range(T):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(restart, t))
        )
        theta[t] = rng.dirichlet(np.ones(K), size=I)
        if p is not None:
            p[t] = rng.dirichlet(np.ones(O), size=K)
    if config.p_mode == "static":
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(restart, T))
        )
        p = rng.dirichlet(np.ones(O), size=K)[None]
    return theta, p


def _run_chain(problem, config, theta, p):
    """One EM chain on plain arrays from the start ``(theta, p)``.

    The trace records the objective after each sweep; the chain converges once
    the log-likelihoods of two consecutive sweeps differ by less than
    ``config.tol`` relative.  A sweep need not raise the objective itself.  It
    is an exact EM step on the surrogate ``loglik(x) + beta * sum(<x_n> log x)``
    whose neighbour averages ``<x_n>`` are frozen at the sweep's start, so it
    never lowers that surrogate.  Returns plain values, validated nowhere:
    the final ``(T, I, K)`` and block arrays, the trace, whether the chain
    converged, its dead-row resets and its seconds.
    """
    theta = theta.transpose(0, 2, 1).copy()  # the (T, K, I) working layout
    trace = []
    dead_total = 0
    converged = False
    started = time.perf_counter()
    s_theta, s_p, averages, loglik, _ = _e_step(theta, p, problem)
    for _ in range(config.max_iterations):
        theta, p, dead = _m_step(s_theta, s_p, averages, p, problem, config.p_mode)
        dead_total += dead
        previous = loglik
        s_theta, s_p, averages, loglik, objective = _e_step(theta, p, problem)
        trace.append(objective)
        if len(trace) > 1 and abs(loglik - previous) / max(abs(previous), 1e-12) < config.tol:
            converged = True
            break
    seconds = time.perf_counter() - started
    return theta.transpose(0, 2, 1).copy(), p, np.asarray(trace), converged, dead_total, seconds


def fit(data, config, *, start=None):
    """Run ``config.restarts`` EM chains on ``data`` and keep the best.

    Each chain stops once its log-likelihood settles (see ``FitConfig.tol``),
    and the chain with the highest final objective wins.  Under coupling a
    sweep is guaranteed not to lower a surrogate whose neighbour averages are
    frozen at the sweep's start (see ``_run_chain``), not the objective in the
    trace; with both betas zero the two agree and the trace never falls.
    Returns one FitReport, built for the winning restart: its tensors are
    validated once per fit, for the winning chain.  In its ``diagnostics``,
    ``fallback_epochs`` counts the epochs with no weighted neighbours (0 when
    both betas are zero, since no epoch then has a coupled prior to fall back
    from), and ``aborted_restarts`` is always 0.

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
    if start is None:
        starts = (_initial(data, config, restart) for restart in range(config.restarts))
    else:
        theta, p = _arrays(*start, data)
        have = (len(theta), theta.shape[2], len(p))
        need = (T, K, {"dynamic": T, "static": 1}.get(config.p_mode) or len(fixed_p))
        if have != need:
            raise ContractError(f"start arrays have (epochs, K, block slices) = {have}, "
                                f"a {config.p_mode} fit of this data needs {need}")
        starts = [(theta, p)]
    problem = _Problem(data, config.prior, K)
    chains = (_run_chain(problem, config, theta, p if fixed_p is None else fixed_p)
              for theta, p in starts)
    # the highest final objective wins; max keeps the first of equal keys
    best, (theta, p, trace, converged, dead_resets, seconds) = max(
        enumerate(chains), key=lambda chain: chain[1][2][-1]
    )
    if dead_resets:
        _log.warning("winning restart reset %d dead cluster rows", dead_resets)
    coupled = config.prior.beta_theta > 0 or config.prior.beta_p > 0
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
            "aborted_restarts": 0,  # always 0; kept because perfbench/tracing.py reads the key
            "fallback_epochs": int(problem.coupling.fallback.sum()) if coupled else 0,
        },
        config=config,
    )
