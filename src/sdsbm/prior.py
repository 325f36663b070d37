"""Temporal Dirichlet prior: epoch coupling kernel and neighbour averages.

Each epoch's parameter rows get a Dirichlet prior whose concentration is
``1 + beta * <x>``, where ``<x>`` is a kernel-weighted average of the same
rows at the other epochs.  The kernel weighs epoch t' seen from epoch t as
``N_{t'} / |t - t'|**a``: heavily observed nearby epochs dominate.  With
``beta = 0`` the prior is uniform and every epoch decouples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, _integer


@dataclass(frozen=True)
class PriorConfig:
    """Temporal prior settings.

    beta_theta, beta_p : float
        Coupling strengths for the membership and block-interaction families,
        stored as Python floats.  Zero switches the corresponding prior off.
    kernel_exponent : int
        Power ``a`` in ``N_{t'} / |t - t'|**a``; an integer (numpy's too) >= 1.
    window : int or None
        When set, an integer >= 1: epochs farther than ``window`` slices
        contribute nothing.
    """

    beta_theta: float = 0.0
    beta_p: float = 0.0
    kernel_exponent: int = 1
    window: int | None = None

    def __post_init__(self):
        for name in ("beta_theta", "beta_p"):
            b = getattr(self, name)
            if not np.isfinite(b) or b < 0:
                raise ContractError(f"{name} must be finite and >= 0, got {b}")
            object.__setattr__(self, name, float(b))  # a numpy scalar would not save as JSON
        object.__setattr__(self, "kernel_exponent",
                           _integer("kernel_exponent", self.kernel_exponent, 1))
        if self.window is not None:
            object.__setattr__(self, "window", _integer("window", self.window, 1))


class TemporalCoupling:
    """Row-normalized neighbour weights for all epochs at once.

    Precomputes the (T, T) matrix A with ``A[t, t'] ∝ N_{t'} / |t - t'|**a``
    for ``t' != t`` inside the window and rows normalized to 1, so that
    ``A @ x`` gives every epoch's neighbour average in one product.  Rows
    whose weights all vanish are flagged in ``fallback`` and average to
    exactly zero, so that the pull ``beta * <x>`` adds nothing there and such
    epochs take the flat beta=0 prior with no special case.
    """

    def __init__(self, counts, config):
        counts = np.asarray(counts, dtype=float).ravel()
        if counts.size < 1:
            raise ContractError("need at least one epoch")
        if np.any(counts < 0):
            raise ContractError("epoch counts must be >= 0")
        # one (T, T) float buffer: gaps, then their powers, then the weights
        t_idx = np.arange(counts.size, dtype=float)
        w = np.subtract.outer(t_idx, t_idx)
        np.abs(w, out=w)
        if config.window is not None:
            w[w > config.window] = np.inf  # outside the window: weight 0
        w **= config.kernel_exponent
        # the diagonal divides by gap 0 and is discarded right after
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(counts, w, out=w)
        np.fill_diagonal(w, 0.0)
        row_sums = w.sum(axis=1)
        self.fallback = row_sums == 0
        w /= np.where(self.fallback, 1.0, row_sums)[:, None]  # fallback rows stay zero
        self.matrix = w
        self.n_epochs = counts.size

    def average(self, param):
        """Neighbour average ``A @ param`` of a (T, ...) tensor, in param's shape.

        Slices at ``fallback`` epochs are zero.
        """
        param = np.asarray(param, dtype=float)
        if param.shape[0] != self.n_epochs:
            raise ContractError(
                f"parameter has {param.shape[0]} epochs, coupling has {self.n_epochs}"
            )
        return (self.matrix @ param.reshape(self.n_epochs, -1)).reshape(param.shape)
