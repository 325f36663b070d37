"""Scalar reference versions of the temporal prior, used as test oracles.

One epoch at a time and written for clarity: the kernel weight of a single
epoch pair, the neighbour average of one epoch, its Dirichlet concentration
and the mode of a Dirichlet density.  ``TemporalCoupling`` computes the same
averages for all epochs in one matrix product; the tests check it against
these.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sdsbm import ContractError


@dataclass(frozen=True)
class NeighbourAverage:
    """Kernel-weighted average of one epoch's parameter slice over the others.

    ``values`` matches the slice shape; ``fallback`` is True when no neighbour
    carried any weight and a uniform slice was substituted.
    """

    values: np.ndarray
    fallback: bool


@dataclass(frozen=True)
class DirichletMode:
    """Mode of a Dirichlet density; ``uniform`` flags the flat (all-ones) case."""

    values: np.ndarray
    uniform: bool


def kernel_weight(t, t_prime, counts, exponent=1):
    """Weight of epoch ``t_prime`` seen from epoch ``t``: N_{t'} / |t - t'|**a.

    Zero when epoch ``t_prime`` is empty.  ``t == t_prime`` is a contract
    violation: an epoch is never its own neighbour.  Window truncation is not
    the kernel's business; it is applied where neighbours are averaged.
    """
    if t == t_prime:
        raise ContractError("kernel_weight requires t != t_prime")
    counts = np.asarray(counts)
    if not 0 <= t_prime < counts.size:
        raise ContractError(f"epoch {t_prime} out of range [0, {counts.size})")
    a = int(exponent)
    if a != exponent or a < 1:
        raise ContractError(f"kernel exponent must be an integer >= 1, got {exponent}")
    gap = abs(int(t) - int(t_prime))
    return float(counts[t_prime]) / gap ** a


def neighbour_average(param, counts, config, t):
    """Kernel-weighted average of epoch t's parameter slice over all others.

    Parameters
    ----------
    param : (T, ...) array
        Full per-epoch parameter tensor (e.g. memberships (T, I, K)).
    counts : (T,) array of int
        Global observation count of every epoch (kernel numerators).
    config : PriorConfig
    t : int
        Target epoch.

    Returns
    -------
    NeighbourAverage
        Slice-shaped values; uniform slice with ``fallback=True`` when no
        neighbour carries weight (single epoch, empty neighbours, or window
        excludes everything).
    """
    param = np.asarray(param, dtype=float)
    counts = np.asarray(counts)
    if param.shape[0] != counts.size:
        raise ContractError("param and counts disagree on the number of epochs")
    if not 0 <= t < counts.size:
        raise ContractError(f"epoch {t} out of range [0, {counts.size})")
    weights = np.zeros(counts.size)
    for tp in range(counts.size):
        if tp == t:
            continue
        if config.window is not None and abs(tp - t) > config.window:
            continue
        weights[tp] = kernel_weight(t, tp, counts, config.kernel_exponent)
    total = weights.sum()
    if total == 0:
        return NeighbourAverage(np.full(param.shape[1:], 1.0 / param.shape[-1]), True)
    values = np.tensordot(weights / total, param, axes=(0, 0))
    return NeighbourAverage(values, False)


def concentration(param, counts, config, t, family="theta"):
    """Dirichlet concentration for epoch t: ``1 + beta * neighbour average``.

    ``family`` picks which beta applies ("theta" or "p").  With beta = 0, and
    at a fallback epoch, which takes the flat beta=0 prior, this is exactly
    the flat all-ones concentration.
    """
    beta = {"theta": config.beta_theta, "p": config.beta_p}[family]
    avg = neighbour_average(param, counts, config, t)
    if avg.fallback:
        return np.ones(avg.values.shape)
    return 1.0 + beta * avg.values


def dirichlet_mode(alpha):
    """Mode of a Dirichlet density: ``(alpha - 1) / sum(alpha - 1)``.

    Accepts concentrations with every entry >= 1 (entries equal to 1 put the
    mode on the corresponding boundary face), or a symmetric vector.  The flat
    vector (all ones) has no unique mode; a uniform vector is returned with
    ``uniform=True``, likewise for symmetric concentrations below 1.
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.size < 1 or not np.all(np.isfinite(alpha)):
        raise ContractError("concentration must be a non-empty finite vector")
    excess = alpha - 1.0
    total = excess.sum()
    uniform = np.full(alpha.size, 1.0 / alpha.size)
    if abs(total) <= 1e-12 * alpha.size:
        if not np.allclose(alpha, 1.0, atol=1e-9):
            raise ContractError("concentration with zero excess must be all ones")
        return DirichletMode(uniform, True)
    if np.all(excess >= 0):
        return DirichletMode(excess / total, False)
    if np.all(alpha == alpha[0]):
        return DirichletMode(uniform, True)
    raise ContractError(
        "concentration must have all entries >= 1 or be symmetric; "
        f"got {alpha.tolist()}"
    )
