"""Observation container for dynamic labeled interaction data.

An observation is one recorded interaction ``(node, label, epoch)``: the node
interacted with (e.g. rated, listened to, reported) something carrying the
label, during the given time slice.  A dataset is a multiset of such triplets
together with its extents: repeated triplets are meaningful and counted.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError


class Dataset:
    """Multiset of (node, label, epoch) triplets plus extents.

    Parameters
    ----------
    nodes, labels, epochs : array-like of int
        Parallel arrays, one entry per observation.  Repeats are kept: the
        same triplet appearing twice counts twice everywhere.
    n_items, n_labels, n_epochs : int
        Extents I, O, T.  Every id must lie in range; epochs with no
        observations are legal and preserved (their count is simply zero).
    """

    def __init__(self, nodes, labels, epochs, n_items, n_labels, n_epochs):
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        labels = np.asarray(labels, dtype=np.int64).ravel()
        epochs = np.asarray(epochs, dtype=np.int64).ravel()
        if not (nodes.shape == labels.shape == epochs.shape):
            raise ContractError("nodes, labels and epochs must have equal length")
        if min(n_items, n_labels, n_epochs) < 1:
            raise ContractError("extents must all be >= 1")
        for name, ids, extent in (
            ("node", nodes, n_items),
            ("label", labels, n_labels),
            ("epoch", epochs, n_epochs),
        ):
            if ids.size and (ids.min() < 0 or ids.max() >= extent):
                bad = ids[(ids < 0) | (ids >= extent)][0]
                raise ContractError(f"{name} id {bad} out of range [0, {extent})")
        self.nodes = nodes
        self.labels = labels
        self.epochs = epochs
        self.n_items = int(n_items)
        self.n_labels = int(n_labels)
        self.n_epochs = int(n_epochs)
        self.epoch_counts = np.bincount(epochs, minlength=n_epochs).astype(np.int64)
        self._compressed = None

    def __len__(self):
        return self.nodes.size

    def compressed(self):
        """Unique triplets plus multiplicities: arrays (epochs, nodes, labels, weights).

        Sorted lexicographically by (epoch, node, label); weights are positive
        ints summing to ``len(self)``.  Each observation is sorted as one int64
        key ``(t*I + i)*O + o``, whose order is the lexicographic one.
        """
        if self._compressed is None:
            if self.n_epochs * self.n_items * self.n_labels > np.iinfo(np.int64).max:
                raise ContractError("extents T*I*O overflow the int64 triplet key")
            key = (self.epochs * self.n_items + self.nodes) * self.n_labels + self.labels
            keys, weights = np.unique(key, return_counts=True)
            epoch_node, labels = np.divmod(keys, self.n_labels)
            epochs, nodes = np.divmod(epoch_node, self.n_items)
            self._compressed = (epochs, nodes, labels, weights.astype(np.int64))
        return self._compressed

    def subset(self, indices):
        """New dataset containing the selected observations; extents are kept."""
        indices = np.asarray(indices)
        return Dataset(
            self.nodes[indices], self.labels[indices], self.epochs[indices],
            self.n_items, self.n_labels, self.n_epochs,
        )

    def collapse_epochs(self):
        """All observations moved to a single epoch (T=1); static view of the data."""
        return Dataset(
            self.nodes, self.labels, np.zeros(len(self), dtype=np.int64),
            self.n_items, self.n_labels, 1,
        )

    def __repr__(self):
        return (
            f"Dataset(|R|={len(self)}, I={self.n_items}, O={self.n_labels}, "
            f"T={self.n_epochs})"
        )
