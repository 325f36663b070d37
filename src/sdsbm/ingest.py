"""Event-file ingestion: delimited text to a dataset plus key vocabularies.

Input contract:

- The file is UTF-8 text.  A line holding bytes that do not decode fails
  with its line number; a leading byte-order mark is kept as part of the
  first key.
- Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``; the last line may lack
  an ending.  Line numbers count every line, blank ones included.
- Whitespace means the ASCII set: space, tab, ``\\n``, ``\\r``, vertical tab
  and form feed.  A line of whitespace only is skipped.
- Fields: with no ``delimiter``, a line containing a comma is split at
  commas and any other line at runs of whitespace.  An explicit
  ``delimiter`` (any string without a line break; ``""`` means whitespace)
  splits every line.  Each field is stripped of whitespace and empty fields
  are dropped; a line must then have 3 or 4 fields:
  ``node_key, label_key, timestamp[, weight]``.
- The timestamp is a decimal number as Python's ``float`` reads it from
  ASCII and must be finite.  The weight is an integer as ``int`` reads it,
  from 1 to 2**63 - 1, and stands for that many identical observations; the
  weights of a file must sum to at most 2**63 - 1.
- Line 1 is a header, and skipped, when its timestamp field is not numeric.

Keys get dense ids in first-appearance order; timestamps map to epochs by
uniform slicing from the earliest event.  Epochs that happen to contain no
events are kept.

The file is read in blocks of whole lines and each block is tokenized with
numpy byte masks, so Python code runs once per distinct key per block, not
once per line.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset
from .errors import IngestError

#: bytes read per block; a block ends at its last line end, so a line longer
#: than this grows its block until the line ends
BLOCK = 1 << 18


def _byte_table(characters):
    table = np.zeros(256, dtype=bool)
    table[list(characters)] = True
    return table


_WHITESPACE = _byte_table(b" \t\n\r\x0b\x0c")
#: fields made only of these bytes go to numpy's string casts; any other
#: field is parsed by Python's ``float``/``int``, which numpy's casts match
#: on these bytes
_FLOAT_BYTES = _byte_table(b"0123456789+-.eE")
_INT_BYTES = _byte_table(b"0123456789+-")
_INT64_MAX = np.iinfo(np.int64).max
#: a multi-byte delimiter is rewritten to this byte, which UTF-8 never uses
_SENTINEL = 0xFF


@dataclass
class IngestResult:
    """Dataset plus everything needed to map back to the raw keys and times."""

    dataset: Dataset
    node_keys: list
    label_keys: list
    t_min: float
    slice_width: float


def _blocks(handle):
    """Yield the file as blocks of whole lines (only the last may lack an ending).

    Each read is searched once and joined once, so a line many reads long
    costs linear time.
    """
    pending = []  # reads since the last cut, with no line end to cut at
    while chunk := handle.read(BLOCK):
        # a final "\r" may be the first half of "\r\n", so it waits for the next read
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            yield b"".join([*pending, memoryview(chunk)[:cut]])
            pending = []
        pending.append(chunk[cut:])
    if tail := b"".join(pending):
        yield tail


def _length_groups(b, starts, lengths):
    """Yield ``(rows, cells)`` per field length: the (rows, length) bytes of those fields."""
    for length in np.flatnonzero(np.bincount(lengths)):
        rows = np.flatnonzero(lengths == length)
        yield rows, sliding_window_view(b, length)[starts[rows]]


def _numbers(b, data, starts, stops, dtype, allowed):
    """Parse fields as ``dtype``; return the values and a mask of fields that parsed."""
    values = np.zeros(starts.size, dtype)
    ok = np.ones(starts.size, dtype=bool)
    slow = [np.empty(0, dtype=np.intp)]
    for rows, cells in _length_groups(b, starts, stops - starts):
        fast = allowed[cells].all(axis=1)
        try:
            values[rows[fast]] = cells[fast].view(f"S{cells.shape[1]}").ravel().astype(dtype)
        except (ValueError, OverflowError):
            fast[:] = False
        slow.append(rows[~fast])
    parse = float if dtype == np.float64 else int
    for row in np.concatenate(slow).tolist():
        try:
            values[row] = parse(data[starts[row]:stops[row]])
        except (ValueError, OverflowError):
            ok[row] = False
    return values, ok


def _key_ids(b, data, starts, stops, ids):
    """Global ids of key fields; keys new to ``ids`` join it in first-appearance order."""
    out = np.empty(starts.size, dtype=np.int64)
    firsts, groups, offset = [np.empty(0, dtype=np.intp)], [], 0
    for rows, cells in _length_groups(b, starts, stops - starts):
        codes = cells.view(f"S{cells.shape[1]}").ravel()
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        firsts.append(rows[first])
        groups.append((rows, offset + inverse.ravel()))
        offset += first.size
    # the block's distinct keys, in the order they first appear
    firsts = np.concatenate(firsts)
    order = np.argsort(firsts)
    rows = firsts[order]
    block_ids = np.empty(order.size, dtype=np.int64)
    block_ids[order] = [
        ids.setdefault(data[start:stop].decode("utf-8"), len(ids))
        for start, stop in zip(starts[rows].tolist(), stops[rows].tolist())
    ]
    for rows, distinct in groups:
        out[rows] = block_ids[distinct]
    return out


def _per_line(positions, ends):
    """How many of the sorted ``positions`` (none a line end) fall on each line."""
    return np.diff(np.searchsorted(positions, ends), prepend=0)


def _stamp_error(text):
    try:
        float(text.encode())
    except ValueError:
        return f"timestamp {text!r} is not numeric"
    return f"timestamp {text!r} is not finite"


def _weight_error(text):
    try:
        weight = int(text.encode())
    except ValueError:
        return f"weight {text!r} is not an integer"
    if weight < 1:
        return f"weight must be a positive integer, got {weight}"
    return f"weight {text!r} exceeds the largest weight, {_INT64_MAX}"


def _parse_block(data, separator, first_line, node_ids, label_ids):
    """Events of one block of whole lines: (nodes, labels, stamps, weights, n_lines).

    ``separator`` is None to choose comma or whitespace per line, ``b""`` for
    whitespace, else the delimiter's bytes.  ``first_line`` is the number of
    lines before the block.  Raises the ``IngestError`` of the block's first
    failing line, ranking a line's own failures in the order they are listed
    in the module's input contract.
    """
    errors = []  # (line within the block, rank within the line, message)
    undecodable = len(data)  # a line index past every line
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start]
        undecodable = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        errors.append((undecodable, 0,
                       f"bytes {data[err.start:err.end]!r} are not valid UTF-8"))
    marks_lines = separator is None or separator.strip() != b""
    if separator is not None and len(separator) > 1:
        data = data.replace(separator, bytes([_SENTINEL]))
        separator = bytes([_SENTINEL])

    b = np.frombuffer(data, dtype=np.uint8)
    is_n = b == 10
    term = b == 13
    term[:-1] &= ~is_n[1:]  # the "\r" of "\r\n" is whitespace, not a line end
    term |= is_n
    ws = _WHITESPACE[b]
    ends = np.flatnonzero(term)
    if not term[-1]:
        ends = np.append(ends, b.size)  # the last line has no ending
    if separator == b"":
        hits, bounds = np.zeros_like(term), ws
    else:
        hits = b == (44 if separator is None else separator[0])
        bounds = hits | term
    delimited = (_per_line(np.flatnonzero(hits), ends) > 0) & marks_lines
    if separator is None:  # lines without a comma split at whitespace
        bounds |= ws & np.repeat(~delimited, np.diff(ends, prepend=-1))[:b.size]
    bounds = np.flatnonzero(bounds)
    if not term[-1]:
        bounds = np.append(bounds, b.size)

    starts = np.concatenate(([0], bounds[:-1] + 1))
    keep = bounds > starts
    starts, stops = starts[keep], bounds[keep]
    padded = np.flatnonzero(ws[starts] | ws[stops - 1])
    if padded.size:
        solid = np.flatnonzero(~ws)
        lo = np.searchsorted(solid, starts[padded])
        hi = np.searchsorted(solid, stops[padded]) - 1
        filled = lo <= hi
        starts[padded[filled]] = solid[lo[filled]]
        stops[padded[filled]] = solid[hi[filled]] + 1
        keep = np.ones(starts.size, dtype=bool)
        keep[padded[~filled]] = False
        starts, stops = starts[keep], stops[keep]

    counts = _per_line(starts, ends)
    written = (counts > 0) | delimited
    shaped = (counts == 3) | (counts == 4)
    misshaped = np.flatnonzero(written & ~shaped)
    if misshaped.size:
        line = misshaped[0]
        errors.append((line, 1, f"expected 3 or 4 fields, got {counts[line]}"))
    events = np.flatnonzero(written & shaped)
    field = (np.cumsum(counts) - counts)[events]
    if first_line == 0 and events.size and events[0] == 0:
        try:
            float(data[starts[field[0] + 2]:stops[field[0] + 2]])
        except ValueError:  # header row
            events, field = events[1:], field[1:]

    def fail(failed, lines, at, rank, message):
        """Record the first failed field, unless an undecodable line comes first."""
        failed = np.flatnonzero(failed)
        if failed.size and lines[failed[0]] < undecodable:
            at = at[failed[0]]
            text = data[starts[at]:stops[at]].decode("utf-8")
            errors.append((lines[failed[0]], rank, message(text)))

    at = field + 2
    stamps, parsed = _numbers(b, data, starts[at], stops[at], np.float64, _FLOAT_BYTES)
    fail(~parsed | ~np.isfinite(stamps), events, at, 2, _stamp_error)
    weighted = counts[events] == 4
    at = field[weighted] + 3
    weights = np.ones(events.size, dtype=np.int64)
    weights[weighted], parsed = _numbers(b, data, starts[at], stops[at], np.int64,
                                         _INT_BYTES)
    fail(~parsed | (weights[weighted] < 1), events[weighted], at, 3, _weight_error)
    if errors:
        line, _, message = min(errors)
        raise IngestError(message, first_line + int(line) + 1)

    nodes = _key_ids(b, data, starts[field], stops[field], node_ids)
    labels = _key_ids(b, data, starts[field + 1], stops[field + 1], label_ids)
    return nodes, labels, stamps, weights, ends.size


def ingest(path, slice_width=None, n_slices=None, delimiter=None):
    """Read an event file and slice its time axis into epochs.

    Exactly one of ``slice_width`` (epoch duration in timestamp units) and
    ``n_slices`` (total epoch count) must be given.  A lone ``slice_width``
    over events with identical timestamps yields a single epoch; asking for
    several slices over a zero-duration span is a degenerate request and
    fails.  The accepted file format is the module's input contract.
    """
    if (slice_width is None) == (n_slices is None):
        raise IngestError("exactly one of slice_width and n_slices is required")
    if slice_width is not None and not slice_width > 0:
        raise IngestError(f"slice_width must be > 0, got {slice_width}")
    if n_slices is not None and n_slices < 1:
        raise IngestError(f"n_slices must be >= 1, got {n_slices}")
    separator = None if delimiter is None else delimiter.encode("utf-8")
    if separator is not None and (b"\n" in separator or b"\r" in separator):
        raise IngestError(f"delimiter {delimiter!r} contains a line break")

    node_ids, label_ids = {}, {}
    # columns grow in place by realloc, so no block's arrays outlive it and no
    # join copies them
    columns = [bytearray() for _ in range(4)]
    first_line = 0
    with open(path, "rb") as handle:
        for data in _blocks(handle):
            *parsed, n_lines = _parse_block(data, separator, first_line,
                                            node_ids, label_ids)
            for column, part in zip(columns, parsed):
                column += memoryview(part).cast("B")
            first_line += n_lines
    nodes, labels, stamps, weights = (
        np.frombuffer(columns.pop(0), dtype)
        for dtype in (np.int64, np.int64, np.float64, np.int64)
    )

    if not nodes.size:
        raise IngestError("no events found")
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
    # (stamps - t_min) / slice_width, in place so no second float array exists
    stamps -= t_min
    stamps /= slice_width
    n_epochs = n_slices if n_slices is not None else int(span // slice_width) + 1
    epochs = np.floor(stamps, out=stamps).astype(np.int64)
    del stamps
    np.minimum(epochs, n_epochs - 1, out=epochs)  # guard the exact upper boundary
    dataset = Dataset(nodes, labels, epochs, n_items=len(node_ids), n_labels=len(label_ids),
                      n_epochs=n_epochs, weights=weights)
    return IngestResult(dataset, list(node_ids), list(label_ids), t_min, float(slice_width))
