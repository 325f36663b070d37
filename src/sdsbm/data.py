"""Observation container for dynamic labeled interaction data.

An observation is one recorded interaction ``(node, label, epoch)``: the node
interacted with (e.g. rated, listened to, reported) something carrying the
label, during the given time slice.  A dataset is a multiset of such triplets
together with its extents: repeated triplets are meaningful and counted.  It
is stored as its unique triplets with their multiplicities, the only form the
model reads.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError, _integer

_INT64_MAX = np.iinfo(np.int64).max


def _int64_column(name, values):
    column = np.asarray(values).ravel()
    if column.dtype.kind in "fO" and not isinstance(values, np.ndarray):
        # numpy reads a list holding an int outside int64 as float64 or object
        items = np.asarray(values, dtype=object).ravel()
        if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in items):
            ints = [int(v) for v in items]
            bad = next((v for v in ints if not -_INT64_MAX - 1 <= v <= _INT64_MAX), None)
            if bad is not None:
                bound = f"at most {_INT64_MAX}" if bad > 0 else f"at least {-_INT64_MAX - 1}"
                raise ContractError(f"{name} must be {bound}, got {bad}")
            column = np.array(ints, dtype=np.int64)
    if column.size and column.dtype.kind not in "iu":
        raise ContractError(f"{name} must be integers, got dtype {column.dtype}")
    if column.size and column.dtype.kind == "u":  # refused before the cast can wrap them
        above = column > np.uint64(_INT64_MAX)
        if above.any():
            raise ContractError(f"{name} must be at most {_INT64_MAX}, got {column[above][0]}")
    return column.astype(np.int64, copy=False)


class Dataset:
    """Multiset of (node, label, epoch) triplets plus extents.

    Parameters
    ----------
    nodes, labels, epochs : array-like of int
        Parallel arrays, one entry per row, of an integer dtype (an empty one
        may have any dtype).  Repeats are kept: the same triplet appearing
        twice counts twice everywhere.
    n_items, n_labels, n_epochs : int
        Extents I, O, T, integers (numpy's too) of at least 1, with T*I*O at
        most 2**63 - 1.  Every id must lie in range; epochs with no
        observations are legal and preserved (their count is simply zero).
    weights : array-like of int, optional
        How many identical observations each row stands for, each at least 1
        (1 when omitted).  The total must not exceed 2**63 - 1.

    The rows are merged once, here, into the unique triplets and their summed
    weights (see ``compressed``); those and ``epoch_counts``, the (T,) total
    weight of every epoch, are all that is kept.
    """

    def __init__(self, nodes, labels, epochs, n_items, n_labels, n_epochs, weights=None):
        extents = [_integer(name, extent, 1) for name, extent in
                   (("n_items", n_items), ("n_labels", n_labels), ("n_epochs", n_epochs))]
        self.n_items, self.n_labels, self.n_epochs = extents
        columns = []
        for name, values, extent in zip(("node", "label", "epoch"), (nodes, labels, epochs),
                                        extents):
            ids = _int64_column(f"{name} ids", values)
            if ids.size and (ids.min() < 0 or ids.max() >= extent):
                bad = ids[(ids < 0) | (ids >= extent)][0]
                raise ContractError(f"{name} id {bad} out of range [0, {extent})")
            columns.append(ids)
        nodes, labels, epochs = columns
        if not (nodes.shape == labels.shape == epochs.shape):
            raise ContractError("nodes, labels and epochs must have equal length")
        if weights is not None:
            weights = _int64_column("weights", weights)
            if weights.shape != nodes.shape:
                raise ContractError("weights must have one entry per row")
            if weights.size and weights.min() < 1:
                raise ContractError(f"weights must be >= 1, got {weights.min()}")
            # exact, unlike a float sum: 32-bit halves summed in uint64 cannot
            # wrap below 2**32 rows
            total = ((int(np.sum(weights >> 32, dtype=np.uint64)) << 32)
                     + int(np.sum(weights & 0xFFFFFFFF, dtype=np.uint64)))
            if total > _INT64_MAX:
                raise ContractError(f"total weight {total} exceeds {_INT64_MAX}")
        if self.n_epochs * self.n_items * self.n_labels > _INT64_MAX:
            raise ContractError("extents T*I*O overflow the int64 triplet key")

        # one int64 key (t*I + i)*O + o per row, built in place; its order is
        # the lexicographic one
        key = epochs * self.n_items
        key += nodes
        key *= self.n_labels
        key += labels
        order = np.argsort(key)
        key = key[order]
        first = np.ones(key.size, dtype=bool)  # each row that starts a new key
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        unique = key[starts]
        if weights is None:  # every row counts once: the run lengths
            weights = np.diff(starts, append=key.size).astype(np.int64, copy=False)
        else:
            # the sorted weights go into the sorted key's buffer, no longer
            # needed; "clip" (a no-op on in-range indices) lets take write there
            weights = np.add.reduceat(np.take(weights, order, out=key, mode="clip"), starts)
        del order, key
        epoch_node, labels = np.divmod(unique, self.n_labels)
        epochs, nodes = np.divmod(epoch_node, self.n_items)
        self._triplets = (epochs, nodes, labels, weights)
        self.epoch_counts = np.zeros(self.n_epochs, np.int64)  # empty epochs count 0
        runs = np.flatnonzero(np.diff(epochs, prepend=-1))  # where each epoch's triplets start
        self.epoch_counts[epochs[runs]] = np.add.reduceat(weights, runs)
        for array in (*self._triplets, self.epoch_counts):
            array.flags.writeable = False

    def __len__(self):
        """Number of observations: the total weight."""
        return int(self._triplets[3].sum())

    def compressed(self):
        """Unique triplets plus multiplicities: arrays (epochs, nodes, labels, weights).

        Sorted lexicographically by (epoch, node, label); weights are positive
        ints summing to ``len(self)``.  The arrays are the dataset's storage,
        read-only and int64.
        """
        return self._triplets

    def _per_observation(self, column):
        expanded = np.repeat(self._triplets[column], self._triplets[3])
        expanded.flags.writeable = False
        return expanded

    # one entry per observation, in (epoch, node, label) order; read-only copies.
    # The package reads none: they stay for the benchmark's event-log writer.
    epochs = property(lambda self: self._per_observation(0))
    nodes = property(lambda self: self._per_observation(1))
    labels = property(lambda self: self._per_observation(2))

    def collapse_epochs(self):
        """All observations moved to a single epoch (T=1); static view of the data."""
        epochs, nodes, labels, weights = self._triplets
        return Dataset(nodes, labels, np.zeros_like(epochs), self.n_items, self.n_labels, 1,
                       weights=weights)

    def __repr__(self):
        return (
            f"Dataset(|R|={len(self)}, I={self.n_items}, O={self.n_labels}, "
            f"T={self.n_epochs})"
        )
