"""Dense reference of one EM sweep, used as a test oracle.

Written on the public ``(T, I, K)`` memberships with ``einsum`` over a dense
``(T, I, O)`` count tensor, in place of the engine's streamed triplets and
working layout: the E-step at ``(theta, p)`` (responsibility sums,
log-likelihood, objective) and the M-step that follows it.  Neighbour averages
come one epoch at a time from ``prior_reference``; fallback epochs average to
zero and take the flat beta=0 prior.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prior_reference import neighbour_average
from sdsbm.em import PROB_FLOOR


@dataclass(frozen=True)
class Sweep:
    s_theta: np.ndarray
    s_p: np.ndarray
    loglik: float
    objective: float
    theta: np.ndarray
    p: np.ndarray
    rows_reset: int


def _averages(values, data, prior):
    """Per-epoch neighbour averages, zero at fallback epochs, and the fallback mask."""
    avg = np.zeros_like(values)
    fallback = np.zeros(data.n_epochs, dtype=bool)
    for t in range(data.n_epochs):
        result = neighbour_average(values, data.epoch_counts, prior, t)
        fallback[t] = result.fallback
        if not result.fallback:
            avg[t] = result.values
    return avg, fallback


def _rows(numerator, denominator):
    """``numerator / denominator`` along the last axis; zero denominators give uniform rows."""
    dead = denominator == 0
    out = numerator / np.where(dead, 1.0, denominator)[..., None]
    out[dead] = 1.0 / out.shape[-1]
    out = np.maximum(out, PROB_FLOOR)
    return out / out.sum(axis=-1, keepdims=True), dead


def sweep(theta, p, data, prior, p_mode):
    """One E-step at ``(theta, p)`` and the M-step after it, for every ``p_mode``.

    ``p`` has one slice per epoch or a single shared one, which ``static``
    mode needs; its prior pull joins the objective whenever it has one slice
    per epoch and ``beta_p > 0``.
    """
    theta = np.asarray(theta, dtype=float)
    p = np.asarray(p, dtype=float)
    T = data.n_epochs
    p_full = np.broadcast_to(p, (T,) + p.shape[1:])
    counts = np.zeros((T, data.n_items, data.n_labels))
    np.add.at(counts, (data.epochs, data.nodes, data.labels), 1.0)
    prob = np.einsum("tik,tko->tio", theta, p_full)
    observed = counts > 0
    loglik = float(np.sum(counts[observed] * np.log(prob[observed])))
    ratio = np.where(observed, counts / np.where(observed, prob, 1.0), 0.0)
    s_theta = theta * np.einsum("tio,tko->tik", ratio, p_full)
    s_p = p_full * np.einsum("tio,tik->tko", ratio, theta)
    if p.shape[0] == 1:
        s_p = s_p.sum(axis=0, keepdims=True)

    objective = loglik
    pulls = {}
    for name, values, beta in (("theta", theta, prior.beta_theta), ("p", p, prior.beta_p)):
        if beta > 0 and values.shape[0] == T:
            avg, fallback = _averages(values, data, prior)
            mass = avg > 0
            objective += beta * float(np.sum(avg[mass] * np.log(values[mass])))
            pulls[name] = (avg, np.where(fallback, 0.0, beta))

    item_counts = counts.sum(axis=2)
    if "theta" in pulls:
        avg, beta = pulls["theta"]
        new_theta, _ = _rows(s_theta + beta[:, None, None] * avg, item_counts + beta[:, None])
    else:
        new_theta, _ = _rows(s_theta, item_counts)

    if p_mode == "fixed":
        return Sweep(s_theta, s_p, loglik, objective, new_theta, p, 0)
    if p_mode == "static":
        new_p, dead = _rows(s_p, s_p.sum(axis=2))
        return Sweep(s_theta, s_p, loglik, objective, new_theta, new_p, int(dead.sum()))
    numerator, denominator = s_p, s_p.sum(axis=2)
    if "p" in pulls:
        avg, beta = pulls["p"]
        numerator = numerator + beta[:, None, None] * avg
        denominator = denominator + beta[:, None]
    new_p, dead = _rows(numerator, denominator)
    rows_reset = int(dead[item_counts.sum(axis=1) > 0].sum())
    return Sweep(s_theta, s_p, loglik, objective, new_theta, new_p, rows_reset)
