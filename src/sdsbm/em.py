"""EM inference for dynamic mixed-membership parameters: M-steps, sweeps, restarts.

Each sweep applies the coordinate updates ``m_step_theta`` and ``m_step_p``,
then runs the forward-model pass of ``sdsbm.model`` (``_e_step``) at the new
parameters.  That one pass gives both the next sweep's responsibility sums
and the objective that ``log_posterior`` reports.  With zero coupling every
epoch decouples into plain maximum likelihood; with positive coupling the
numerator gains ``beta * <x>`` and the denominator ``beta``, pulling each row
toward its neighbour average.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ContractError, DegenerateParameterError
from .model import BlockTensor, MembershipTensor, _e_step, _Problem
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
    fixed_p : BlockTensor or array, only with ``p_mode="fixed"``
    max_iterations, tol : stop after this many iterations or once the
        relative objective change drops below ``tol``, whichever is first.
    restarts : independent EM chains; the best final objective wins.
    seed : every chain and epoch slice draws its start from a stream derived
        from (seed, restart, epoch), so fits are reproducible bit for bit.
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
        if self.n_clusters < 1:
            raise ContractError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.max_iterations < 1:
            raise ContractError("max_iterations must be >= 1")
        if not self.tol > 0:
            raise ContractError("tol must be > 0")
        if self.restarts < 1:
            raise ContractError("restarts must be >= 1")
        if self.p_mode not in P_MODES:
            raise ContractError(f"p_mode must be one of {P_MODES}, got {self.p_mode!r}")
        if (self.fixed_p is None) != (self.p_mode != "fixed"):
            raise ContractError("fixed_p is required exactly when p_mode='fixed'")


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
        return float(self.trace[-1])


def _block(values):
    return values if isinstance(values, BlockTensor) else BlockTensor(values)


def _coordinate_update(sums, counts, averages, beta, previous=None):
    """Row update ``(sums + beta*<x>) / (counts + beta)`` of (T, R, C) sums.

    ``beta`` is dropped at fallback epochs (their prior is uniform).  Rows
    with a zero denominator — no mass and no prior pull — take ``previous``
    (uniform without one).  Returns the floored rows and how many were reset.
    """
    if beta > 0:
        if averages is None:
            raise ContractError("neighbour averages are required when beta > 0")
        avg, fallback = averages
        beta_t = np.where(fallback, 0.0, beta)
        numer = sums + beta_t[:, None, None] * avg
        denom = counts + beta_t[:, None]
    else:
        numer, denom = sums, counts
    dead = denom == 0
    out = numer / np.where(dead, 1.0, denom)[:, :, None]
    if dead.any():
        out[dead] = (1.0 / sums.shape[2]) if previous is None else previous[dead]
    np.maximum(out, PROB_FLOOR, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out, int(dead.sum())


def m_step_theta(data, omega_sums, averages, prior, previous=None):
    """Coordinate update of the membership tensor.

    Parameters
    ----------
    data : Dataset
    omega_sums : (T, I, K) array
        Responsibility sums per (epoch, item, cluster).
    averages : (values, fallback) pair from ``TemporalCoupling.average``, or
        None when the membership coupling is zero.
    prior : PriorConfig
    previous : optional (T, I, K) array used for rows with no data and no pull.
    """
    omega_sums = np.asarray(omega_sums, dtype=float)
    T, I, K = omega_sums.shape
    if T != data.n_epochs or I != data.n_items:
        raise ContractError("omega sums do not match the data extents")
    out, _ = _coordinate_update(
        omega_sums, data.item_epoch_counts.astype(float), averages,
        prior.beta_theta, previous,
    )
    return MembershipTensor(out)


def m_step_p(data, omega_sums, averages, prior, mode="dynamic", current=None):
    """Coordinate update of the block tensor for the requested mode.

    ``dynamic`` updates one slice per epoch, ``static`` pools every epoch into
    a single slice (the same update with no temporal prior), ``fixed`` returns
    ``current`` untouched.  Returns ``(BlockTensor, rows_reset)``, where
    ``rows_reset`` counts the cluster rows whose responsibility mass and prior
    pull were both zero and which were reset to uniform.
    """
    if mode not in P_MODES:
        raise ContractError(f"mode must be one of {P_MODES}, got {mode!r}")
    if mode == "fixed":
        if current is None:
            raise ContractError("fixed mode requires the current block tensor")
        return _block(current), 0
    omega_sums = np.asarray(omega_sums, dtype=float)
    if omega_sums.ndim != 3 or omega_sums.shape[2] != data.n_labels:
        raise ContractError("omega sums must be (T, K, O) matching the data labels")
    beta = prior.beta_p
    if mode == "static":
        omega_sums = omega_sums.sum(axis=0, keepdims=True)
        averages, beta = None, 0.0
    out, dead = _coordinate_update(omega_sums, omega_sums.sum(axis=2), averages, beta)
    return BlockTensor(out), dead


def _initial(problem, config, restart):
    """Dirichlet(1) start for every epoch slice, streams keyed by (seed, restart, epoch)."""
    data = problem.data
    T, I, O = data.n_epochs, data.n_items, data.n_labels
    K = config.n_clusters
    theta = np.empty((T, I, K))
    p = np.empty((T, K, O))
    for t in range(T):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(restart, t))
        )
        theta[t] = rng.dirichlet(np.ones(K), size=I)
        if config.p_mode == "dynamic":
            p[t] = rng.dirichlet(np.ones(O), size=K)
    if config.p_mode == "static":
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(restart, T))
        )
        p = rng.dirichlet(np.ones(O), size=K)[None]
    elif config.p_mode == "fixed":
        p = config.fixed_p
    return MembershipTensor(theta), _block(p)


def _run_chain(problem, config, restart):
    """One EM chain from the start drawn for ``restart``, as a report of its own."""
    theta, p = _initial(problem, config, restart)
    prior = config.prior
    trace = []
    dead_total = 0
    converged = False
    started = time.perf_counter()
    s_theta, s_p, (avg_theta, avg_p), _ = _e_step(theta.values, p.values, problem, prior)
    for _ in range(config.max_iterations):
        theta = m_step_theta(problem.data, s_theta, avg_theta, prior,
                             previous=theta.values)
        p, dead = m_step_p(problem.data, s_p, avg_p, prior, mode=config.p_mode,
                           current=p)
        dead_total += dead
        s_theta, s_p, (avg_theta, avg_p), objective = _e_step(
            theta.values, p.values, problem, prior)
        trace.append(objective)
        if len(trace) > 1:
            rel = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
            if rel < config.tol:
                converged = True
                break
    seconds = time.perf_counter() - started
    return FitReport(
        theta=theta,
        p=p,
        trace=np.asarray(trace),
        n_iterations=len(trace),
        converged=converged,
        best_restart=restart,
        diagnostics={
            "dead_cluster_resets": dead_total,
            "seconds_per_iteration": seconds / len(trace),
        },
        config=config,
    )


def fit(data, config):
    """Run ``config.restarts`` EM chains on ``data`` and keep the best.

    Restarts that hit degenerate parameters are aborted, logged and counted;
    the fit fails only if every chain aborts.  Returns a FitReport whose trace
    belongs to the winning restart.
    """
    if config.p_mode == "fixed":
        pv = _block(config.fixed_p).values
        if pv.shape[1] != config.n_clusters or pv.shape[2] != data.n_labels:
            raise ContractError(
                f"fixed block tensor is {pv.shape[1]}x{pv.shape[2]}, "
                f"need K={config.n_clusters}, O={data.n_labels}"
            )
        if pv.shape[0] not in (1, data.n_epochs):
            raise ContractError(f"fixed block tensor must have 1 or {data.n_epochs} epochs")
    problem = _Problem(data, config.prior)
    best = None
    aborted = 0
    last_error = None
    for restart in range(config.restarts):
        try:
            report = _run_chain(problem, config, restart)
        except DegenerateParameterError as err:
            aborted += 1
            last_error = err
            _log.warning("restart %d aborted on degenerate parameters: %s", restart, err)
            continue
        if best is None or report.objective > best.objective:
            best = report
    if best is None:
        raise last_error
    best.diagnostics.update(
        aborted_restarts=aborted,
        fallback_epochs=int(problem.coupling.fallback.sum()),
    )
    if best.diagnostics["dead_cluster_resets"]:
        _log.warning(
            "winning restart reset %d dead cluster rows",
            best.diagnostics["dead_cluster_resets"],
        )
    return best
