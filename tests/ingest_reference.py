"""Line-by-line reference parser for event files, used as a test oracle.

This is the per-line loop ``sdsbm.ingest`` ran before it became a
vectorized block parser, kept verbatim apart from one change: the file is
opened as UTF-8 rather than in the locale's encoding.  The fuzz tests in
``test_ingest_archive.py`` require both parsers to return the same
``IngestResult`` or raise the same ``IngestError`` (message and line
number) on inputs inside the documented contract: ASCII whitespace,
UTF-8 text, and weights that fit in 64 bits.
"""
from __future__ import annotations

import math

import numpy as np

from sdsbm import Dataset, IngestError
from sdsbm.ingest import IngestResult


def _split_line(line, delimiter):
    if delimiter is None:
        delimiter = "," if "," in line else None  # fall back to any whitespace
    parts = [part.strip() for part in (line.split(delimiter) if delimiter else line.split())]
    return [part for part in parts if part != ""]


def ingest(path, slice_width=None, n_slices=None, delimiter=None):
    """Read an event file and slice its time axis into epochs.

    Exactly one of ``slice_width`` (epoch duration in timestamp units) and
    ``n_slices`` (total epoch count) must be given.  A lone ``slice_width``
    over events with identical timestamps yields a single epoch; asking for
    several slices over a zero-duration span is a degenerate request and
    fails.  The first line is treated as a header when its timestamp field is
    not numeric.
    """
    if (slice_width is None) == (n_slices is None):
        raise IngestError("exactly one of slice_width and n_slices is required")
    if slice_width is not None and not slice_width > 0:
        raise IngestError(f"slice_width must be > 0, got {slice_width}")
    if n_slices is not None and n_slices < 1:
        raise IngestError(f"n_slices must be >= 1, got {n_slices}")

    node_ids, label_ids = {}, {}
    node_keys, label_keys = [], []
    nodes, labels, stamps, weights = [], [], [], []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            parts = _split_line(line, delimiter)
            if len(parts) not in (3, 4):
                raise IngestError(
                    f"expected 3 or 4 fields, got {len(parts)}", line_number
                )
            try:
                stamp = float(parts[2])
            except ValueError:
                if line_number == 1:
                    continue  # header row
                raise IngestError(
                    f"timestamp {parts[2]!r} is not numeric", line_number
                ) from None
            if not math.isfinite(stamp):
                raise IngestError(f"timestamp {parts[2]!r} is not finite", line_number)
            weight = 1
            if len(parts) == 4:
                try:
                    weight = int(parts[3])
                except ValueError:
                    raise IngestError(
                        f"weight {parts[3]!r} is not an integer", line_number
                    ) from None
                if weight < 1:
                    raise IngestError(
                        f"weight must be a positive integer, got {weight}", line_number
                    )
            node, label = parts[0], parts[1]
            if node not in node_ids:
                node_ids[node] = len(node_keys)
                node_keys.append(node)
            if label not in label_ids:
                label_ids[label] = len(label_keys)
                label_keys.append(label)
            nodes.append(node_ids[node])
            labels.append(label_ids[label])
            stamps.append(stamp)
            weights.append(weight)

    if not nodes:
        raise IngestError("no events found")
    stamps = np.asarray(stamps)
    t_min = float(stamps.min())
    span = float(stamps.max()) - t_min
    if n_slices is not None:
        if span == 0.0:
            if n_slices > 1:
                raise IngestError(
                    f"all events share one timestamp; cannot cut {n_slices} slices"
                )
            slice_width = 1.0
        else:
            slice_width = span / n_slices
        epochs = np.minimum((stamps - t_min) / slice_width, n_slices - 1).astype(np.int64)
        n_epochs = n_slices
    else:
        epochs = np.floor((stamps - t_min) / slice_width).astype(np.int64)
        n_epochs = int(span // slice_width) + 1
        epochs = np.minimum(epochs, n_epochs - 1)  # guard the exact upper boundary

    weights = np.asarray(weights)
    dataset = Dataset(
        np.repeat(np.asarray(nodes), weights),
        np.repeat(np.asarray(labels), weights),
        np.repeat(epochs, weights),
        n_items=len(node_keys), n_labels=len(label_keys), n_epochs=n_epochs,
    )
    return IngestResult(dataset, node_keys, label_keys, t_min, float(slice_width))
