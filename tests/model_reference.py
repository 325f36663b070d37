"""Scalar reference versions of the forward model, used as test oracles.

One observation at a time and written for clarity: the mixture probability of
a single ``(node, label, epoch)`` triplet and its posterior cluster weights.
The engine evaluates both for all triplets at once in ``em._accumulate`` and
``log_posterior``; the tests check those against these.
"""
from __future__ import annotations

from sdsbm import DegenerateParameterError
from sdsbm.model import _arrays


def _check_triplet(th, pv, node, label, epoch):
    """Range-check a triplet against tensor extents; returns the block-slice index."""
    n_epochs, n_items, _ = th.shape
    n_labels = pv.shape[2]
    if not 0 <= node < n_items:
        raise IndexError(f"node id {node} out of range for I={n_items}")
    if not 0 <= label < n_labels:
        raise IndexError(f"label id {label} out of range for O={n_labels}")
    if not 0 <= epoch < n_epochs:
        raise IndexError(f"epoch {epoch} out of range for T={n_epochs}")
    return 0 if pv.shape[0] == 1 else epoch


def edge_probability(theta, p, node, label, epoch):
    """Probability that ``node`` produces ``label`` at ``epoch`` (mixture over clusters)."""
    th, pv = _arrays(theta, p)
    t_p = _check_triplet(th, pv, node, label, epoch)
    return float(th[epoch, node] @ pv[t_p, :, label])


def responsibilities(theta, p, node, label, epoch):
    """Posterior cluster weights of one observation, a length-K simplex vector.

    Entry k is ``theta[t, i, k] * p_k(o)`` renormalized over clusters.  A zero
    normalizer means the observation is impossible under the parameters and
    raises DegenerateParameterError carrying the triplet.
    """
    th, pv = _arrays(theta, p)
    t_p = _check_triplet(th, pv, node, label, epoch)
    weights = th[epoch, node] * pv[t_p, :, label]
    total = weights.sum()
    if total <= 0:
        raise DegenerateParameterError(node, label, epoch)
    return weights / total
