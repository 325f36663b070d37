"""Scalar reference versions of the forward model, used as test oracles.

One observation at a time and written for clarity: the mixture probability of
a single ``(node, label, epoch)`` triplet, its posterior cluster weights, and
the objective as a sum over observations plus a per-epoch prior term.  The
engine evaluates all of them for all triplets at once in one pass,
``sdsbm.model._e_step``, which both ``fit`` and ``log_posterior`` run; the
tests check that pass against these.
"""
from __future__ import annotations

import math

import numpy as np

from prior_reference import neighbour_average
from sdsbm import DegenerateParameterError
from sdsbm.model import _arrays


def _check_triplet(th, pv, node, label, epoch):
    """Range-check a triplet against tensor extents; returns the two slice indices.

    A tensor with one slice answers for every epoch, so only a per-epoch
    membership tensor bounds the epoch.
    """
    n_epochs, n_items, _ = th.shape
    n_labels = pv.shape[2]
    if not 0 <= node < n_items:
        raise IndexError(f"node id {node} out of range for I={n_items}")
    if not 0 <= label < n_labels:
        raise IndexError(f"label id {label} out of range for O={n_labels}")
    if epoch < 0 or epoch >= n_epochs > 1:
        raise IndexError(f"epoch {epoch} out of range for T={n_epochs}")
    return (0 if n_epochs == 1 else epoch), (0 if pv.shape[0] == 1 else epoch)


def edge_probability(theta, p, node, label, epoch):
    """Probability that ``node`` produces ``label`` at ``epoch`` (mixture over clusters)."""
    th, pv = _arrays(theta, p)
    t_theta, t_p = _check_triplet(th, pv, node, label, epoch)
    return float(th[t_theta, node] @ pv[t_p, :, label])


def responsibilities(theta, p, node, label, epoch):
    """Posterior cluster weights of one observation, a length-K simplex vector.

    Entry k is ``theta[t, i, k] * p_k(o)`` renormalized over clusters.  A zero
    normalizer means the observation is impossible under the parameters and
    raises DegenerateParameterError carrying the triplet.
    """
    th, pv = _arrays(theta, p)
    t_theta, t_p = _check_triplet(th, pv, node, label, epoch)
    weights = th[t_theta, node] * pv[t_p, :, label]
    total = weights.sum()
    if total <= 0:
        raise DegenerateParameterError(node, label, epoch)
    return weights / total


def log_posterior(theta, p, data, prior=None):
    """Objective of (theta, p): log-likelihood plus ``beta * sum(<x> * log x)``.

    The log-likelihood adds ``log edge_probability`` over every observation,
    repeats included; a one-slice membership tensor is read at slice 0 for
    every epoch.  The prior term covers each family with one slice per
    epoch and a positive beta, at every epoch that is not a fallback epoch,
    with ``<x>`` from ``neighbour_average``.
    """
    th, pv = _arrays(theta, p)
    terms = [
        math.log(edge_probability(th, pv, node, label, epoch))
        for node, label, epoch in zip(data.nodes, data.labels, data.epochs)
    ]
    if prior is not None:
        for values, beta in ((th, prior.beta_theta), (pv, prior.beta_p)):
            if beta == 0 or values.shape[0] != data.n_epochs:
                continue
            for t in range(data.n_epochs):
                avg = neighbour_average(values, data.epoch_counts, prior, t)
                if avg.fallback:
                    continue
                mass = avg.values > 0
                terms.append(beta * float(np.sum(avg.values[mass] * np.log(values[t][mass]))))
    return math.fsum(terms)
