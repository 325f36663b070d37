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

Blocks of whole lines are tokenized with numpy byte masks, and a block builds
only the masks its bytes need: no ``\\r`` mask without a ``\\r`` byte, and no
whitespace split when every line holds a comma.  The numbers of a length that
all share one dot column are read in one Horner pass, and keys of at most 7
bytes are uniqued as one group of ``uint64`` codes per block.  Python code
runs once per distinct key of the file and once per number that neither the
exact decimal parser nor numpy's string cast reads, not once per line.
Blocks tokenize and parse through ``sdsbm.pool``, on several threads where
several CPUs are free; key ids, the vocabularies, line numbers and the first
error are settled on the calling thread in block order, so the result does
not depend on the thread count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import IngestError
from .pool import ordered_map

#: bytes read per block; a block ends at its last line end, so a line longer
#: than this grows its block until the line ends
BLOCK = 1 << 18
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

    Each read is searched once and joined once: a line many reads long costs
    linear time.  The last block is held back until the file ends, so a last
    line without an ending joins it rather than making a block of its own."""
    held = b""  # the last block cut, not yet yielded
    pending = []  # reads since the last cut, with no line end to cut at
    while chunk := handle.read(BLOCK):
        # a final "\r" may be the first half of "\r\n", so it waits for the next read
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            if held:
                yield held
            held = b"".join([*pending, memoryview(chunk)[:cut]])
            pending = []
        pending.append(chunk[cut:])
    if last := b"".join([held, *pending]):
        yield last


def _length_groups(b, starts, lengths):
    """Yield ``(length, rows, codes)`` per field length; codes are the fields as ``S{length}``."""
    for length in np.flatnonzero(np.bincount(lengths)):
        rows = np.flatnonzero(lengths == length)
        windows = np.ndarray(b.size - length + 1, f"S{length}", b, strides=(1,))
        yield length, rows, windows[starts[rows]]


def _horner(digits, dot):
    """Each row of ``digits`` read as one decimal ``int64``, skipping column ``dot``."""
    mantissa = np.zeros(len(digits), np.int64)
    for column in range(digits.shape[1]):
        if column != dot:
            mantissa *= 10
            mantissa += digits[:, column]
    return mantissa


def _first_group(cells, others, floats):
    """The first field's group: the column of its one byte that is no digit if that
    is a ``.`` (floats only, and never the only byte), its length if it has none,
    else -1."""
    length, columns = cells.shape[1], np.flatnonzero(others[0])
    if not columns.size:
        return length
    dotted = columns.size == 1 and floats and length > 1 and cells[0, columns[0]] == 46
    return columns[0] if dotted else -1


def _numbers(b, data, starts, stops, dtype):
    """Parse fields as ``dtype``; return the values and a mask of fields that parsed.

    A plain decimal of at most 18 bytes (digits, at least one, and for a float
    at most one ``.``) is read as ``M / 10**k``: an int64 mantissa over an exact
    power of ten rounds once while ``M < 2**53``, to ``float``'s bits (Clinger's
    fast path).  The fields of one length are read this way when they all share
    the first one's dot column (or its lack of a dot): one Horner pass over
    their digit columns and one division by the group's power of ten.  The
    fields of a length that mixes dot columns, signs or exponents, and the
    mantissas from 2**53, go to numpy's string cast, which reads fields of
    ``0-9+-`` (and ``.eE`` for a float) holding a digit as ``float``/``int``
    do; the rest, and groups the cast rejects, go to ``float``/``int`` per field.
    """
    values, ok = np.zeros(starts.size, dtype), np.zeros(starts.size, dtype=bool)
    floats = dtype == np.float64
    castable = np.frombuffer(b"0123456789+-.eE"[:15 if floats else 12], np.uint8)
    for length, rows, codes in _length_groups(b, starts, stops - starts):
        cells = codes.view(np.uint8).reshape(-1, length)
        if length <= 18:
            digits = cells - np.uint8(48)
            others = digits > 9  # bytes that are no digit
            # every field fits the first one's group when its only bytes no digit are the dots
            dot = _first_group(cells, others, floats)
            if dot >= 0 and np.count_nonzero(others) == len(cells) * (dot < length) and (
                    dot == length or np.all(cells[:, dot] == 46)):
                mantissa = _horner(digits, dot)
                values[rows] = mantissa if dot == length else (
                    mantissa / np.float64(10 ** (length - 1 - dot)))
                ok[rows] = (mantissa < 2**53) | (not floats)
        cast = np.flatnonzero(~ok[rows])
        if cast.size:
            # a field with no digit is no number, and one would make the cast reject the group
            fields = cells[cast]
            number = np.isin(fields, castable).all(axis=1) & (fields - np.uint8(48) < 10).any(axis=1)
            cast = cast[number]
            try:
                values[rows[cast]] = codes[cast].astype(dtype)
                ok[rows[cast]] = True
            except (ValueError, OverflowError):
                pass
    parse = float if floats else int
    for row in np.flatnonzero(~ok).tolist():
        try:
            values[row], ok[row] = parse(data[starts[row]:stops[row]]), True
        except (ValueError, OverflowError):
            pass
    return values, ok


#: a short key's code: its bytes masked to its length, and the length in the top byte
_MASKS = np.array([(1 << 8 * length) - 1 for length in range(8)], np.uint64)
_TAGS = np.arange(8, dtype=np.uint64) << np.uint64(56)


def _key_groups(b, starts, stops):
    """Yield ``(table, rows, codes)``: keys of at most 7 bytes as one ``uint64``
    group in table 7, longer keys per length in the table of that length."""
    lengths = stops - starts
    short = np.flatnonzero(lengths < 8)
    if short.size:  # the 8 bytes at each key's start; zeros past the block's end
        padded = b if starts[short].max() <= b.size - 8 else np.concatenate(
            (b, np.zeros(7, np.uint8)))
        words = np.ndarray(padded.size - 7, "<u8", padded, strides=(1,))
        n = lengths[short]
        yield 7, short, words[starts[short]] & _MASKS[n] | _TAGS[n]
    long = np.flatnonzero(lengths >= 8)
    for length, rows, codes in _length_groups(b, starts[long], lengths[long]):
        yield length, long[rows], codes.view(np.uint64) if length == 8 else codes


def _key_ids(b, data, starts, stops, keys, tables):
    """Ids of key fields; keys new to ``keys`` join it in first-appearance order.

    ``tables`` maps a table to the file's keys of it as sorted runs of (codes,
    ids), each at least twice the next: a block's new codes form a run that
    absorbs smaller ones, so a code is merged O(log n) times.  Keys of at most
    7 bytes share table 7, whose code is the key's bytes and its length in
    one ``uint64``, so ``"z"`` and ``"z\\0"`` differ; a longer key's table is
    its length, whose code is the key as one ``uint64`` at 8 bytes, else
    ``S{length}``.  Each code is exact.
    """
    out = np.empty(starts.size, dtype=np.int64)
    firsts, groups = [np.empty(0, dtype=np.intp)], []
    for table, rows, codes in _key_groups(b, starts, stops):
        distinct, inverse = np.unique(codes, return_inverse=True)
        ids = np.full(distinct.size, -1)
        for known, known_ids in tables.setdefault(table, []):
            at = np.searchsorted(known, distinct).clip(max=known.size - 1)
            ids = np.where(known[at] == distinct, known_ids[at], ids)
        new = ids < 0
        later = np.flatnonzero(new[inverse])  # rows holding a new key
        firsts.append(rows[later[np.unique(inverse[later], return_index=True)[1]]])
        groups.append((tables[table], rows, inverse, ids, new, distinct[new]))
    # the block's new keys get ids in the order they first appear
    firsts = np.concatenate(firsts)
    order = np.argsort(firsts)
    fresh = np.argsort(order) + len(keys)
    keys += [data[start:stop].decode("utf-8") for start, stop in
             zip(starts[firsts[order]].tolist(), stops[firsts[order]].tolist())]
    for runs, rows, inverse, ids, new, distinct in groups:
        ids[new], fresh = fresh[:new.sum()], fresh[new.sum():]
        out[rows] = ids[inverse]
        if new.any():
            runs.append((distinct, ids[new]))
            while len(runs) > 1 and runs[-2][0].size < 2 * runs[-1][0].size:
                (known, known_ids), (codes, code_ids) = runs.pop(-2), runs.pop()
                at = np.searchsorted(known, codes)  # a linear merge of the two sorted runs
                runs.append((np.insert(known, at, codes), np.insert(known_ids, at, code_ids)))
    return out


def _space(x):
    """Mask of ASCII whitespace: tab, ``\\n``, vertical tab, form feed, ``\\r``, space."""
    return ((x - np.uint8(9)) < 5) | (x == 32)


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
    return f"weight {text!r} exceeds the largest weight, {2**63 - 1}"


def _parse_block(index, data, separator):
    """Fields of the ``index``-th block of whole lines, with no key ids yet.

    Returns ``(data, keys, stamps, weights, n_lines, error)``: the block's
    bytes with a multi-byte delimiter rewritten, the (starts, stops) of the
    node and the label fields in them, and ``weights`` None when no line has
    one.  ``separator`` is None to choose comma or whitespace per line,
    ``b""`` for whitespace, else the delimiter's bytes.  ``error`` is None or
    the (line within the block, message) of the block's first failing line,
    ranking a line's own failures as the input contract lists them.  Reads and
    writes nothing but its arguments, so blocks parse on any thread.
    """
    errors = []  # (line within the block, rank within the line, message)
    undecodable = len(data)  # a line index past every line
    try:
        if not data.isascii():  # ASCII is UTF-8
            data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start]
        undecodable = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        errors.append((undecodable, 0, f"bytes {data[err.start:err.end]!r} are not valid UTF-8"))
    marks_lines = separator is None or separator.strip() != b""
    if separator is not None and len(separator) > 1:
        data = data.replace(separator, bytes([_SENTINEL]))
        separator = bytes([_SENTINEL])

    # bounds: the bytes that end a field, line ends included; masks the block
    # does not need are not built, and a pool thread's malloc arena keeps a
    # parse's peak, so masks go once read
    b = np.frombuffer(data, dtype=np.uint8)
    term = b == 10
    if b"\r" in data:  # a "\r" ends a line unless it is the "\r" of "\r\n"
        cr = b == 13
        cr[:-1] &= ~term[1:]
        term |= cr
        del cr
    if separator == b"":
        bounds = _space(b)
    else:
        bounds = b == (44 if separator is None else separator[0])
        bounds |= term
    bounds = np.flatnonzero(bounds)
    ended = term[bounds]
    if not term[-1]:  # the last line has no ending
        bounds, ended = np.append(bounds, b.size), np.append(ended, True)
    del term
    ends = np.flatnonzero(ended)  # each line's end, as an index into bounds
    del ended
    delimited = (np.diff(ends, prepend=-1) > 1) & marks_lines  # a delimiter before the end
    if separator is None and not delimited.all():  # lines without a comma split at whitespace
        line_ends = bounds[ends]
        spaced = np.zeros(b.size + 1, dtype=bool)
        spaced[:-1] = _space(b) & np.repeat(~delimited, np.diff(line_ends, prepend=-1))[:b.size]
        spaced[bounds] = True
        bounds = np.flatnonzero(spaced)
        del spaced
        ends = np.searchsorted(bounds, line_ends)

    # fields: the bytes between bounds, stripped of whitespace; empty ones are dropped
    starts, stops = np.concatenate(([0], bounds[:-1] + 1)), bounds
    del bounds
    empty = starts == stops
    padded = np.empty(0, dtype=np.intp)
    # only whitespace that bounds no field can pad one, and "\n" always bounds one
    if separator != b"" and any(space in data for space in (b" ", b"\t", b"\r", b"\v", b"\f")):
        padded = ~empty & (_space(b.take(starts, mode="clip")) | _space(b[stops - 1]))
        padded = np.flatnonzero(padded)
    if padded.size:
        solid = np.flatnonzero(~_space(b))
        lo = np.searchsorted(solid, starts[padded])
        hi = np.searchsorted(solid, stops[padded]) - 1
        filled = lo <= hi
        starts[padded[filled]] = solid[lo[filled]]
        stops[padded[filled]] = solid[hi[filled]] + 1
        empty[padded[~filled]] = True
    counts = np.diff(ends, prepend=-1)  # fields on each line
    if empty.any():
        counts -= np.diff(np.cumsum(empty)[ends], prepend=0)
        starts, stops = starts[~empty], stops[~empty]
    del empty
    written = (counts > 0) | delimited
    shaped = (counts == 3) | (counts == 4)
    misshaped = np.flatnonzero(written & ~shaped)
    if misshaped.size:
        errors.append((misshaped[0], 1, f"expected 3 or 4 fields, got {counts[misshaped[0]]}"))
    events = np.flatnonzero(written & shaped)
    field = (np.cumsum(counts) - counts)[events]
    if index == 0 and events.size and events[0] == 0:
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
    stamps, parsed = _numbers(b, data, starts[at], stops[at], np.float64)
    fail(~parsed | ~np.isfinite(stamps), events, at, 2, _stamp_error)
    weighted = counts[events] == 4
    at = field[weighted] + 3
    weights = np.ones(events.size, dtype=np.int64)
    weights[weighted], parsed = _numbers(b, data, starts[at], stops[at], np.int64)
    fail(~parsed | (weights[weighted] < 1), events[weighted], at, 3, _weight_error)
    error = None
    if errors:
        line, _, message = min(errors)
        error = int(line), message
    keys = (starts[field], stops[field]), (starts[field + 1], stops[field + 1])
    return data, keys, stamps, weights if weighted.any() else None, ends.size, error


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

    node_keys, label_keys = ([], {}), ([], {})
    # columns grow in place by realloc, so no block's arrays outlive it and no join
    # copies them; weights start at the first weighted line, lines without one weigh 1
    columns, first_line = [bytearray() for _ in range(4)], 0
    with open(path, "rb") as handle:
        # blocks parse on the pool; ids, vocabularies and line numbers follow in block order
        for data, keys, stamps, weights, n_lines, error in ordered_map(
                lambda block: _parse_block(*block, separator), enumerate(_blocks(handle))):
            if error is not None:
                line, message = error
                raise IngestError(message, first_line + line + 1)
            b = np.frombuffer(data, dtype=np.uint8)
            parsed = [_key_ids(b, data, *fields, *vocabulary)
                      for fields, vocabulary in zip(keys, (node_keys, label_keys))]
            parsed.append(stamps)
            if weights is not None or columns[3]:
                columns[3] += np.ones((len(columns[0]) - len(columns[3])) // 8, np.int64).tobytes()
                parsed.append(np.ones(parsed[0].size, np.int64) if weights is None else weights)
            for at, part in enumerate(parsed):  # by index: a loop name would keep a column
                columns[at] += memoryview(part).cast("B")
            first_line += n_lines
    nodes, labels, stamps, weights = (np.frombuffer(columns.pop(0), dtype) for dtype in
                                      (np.int64, np.int64, np.float64, np.int64))

    if not nodes.size:
        raise IngestError("no events found")
    t_min = float(stamps.min())
    span = float(stamps.max()) - t_min
    if n_slices is not None and span == 0.0 and n_slices > 1:
        raise IngestError(f"all events share one timestamp; cannot cut {n_slices} slices")
    if n_slices is not None:
        slice_width = span / n_slices if span else 1.0
    n_epochs = n_slices if n_slices is not None else span // slice_width + 1
    if not float(n_epochs) < 2**63:  # the cast of the stamps below would overflow
        raise IngestError(f"slicing the time axis gives {n_epochs:.6g} epochs, past int64")
    n_epochs = int(n_epochs)
    # (stamps - t_min) / slice_width, in place so no second float array exists
    stamps -= t_min
    stamps /= slice_width
    epochs = np.floor(stamps, out=stamps).astype(np.int64)
    del stamps  # its column was popped, so this frees it
    np.minimum(epochs, n_epochs - 1, out=epochs)  # guard the exact upper boundary
    dataset = Dataset(nodes, labels, epochs, len(node_keys[0]), len(label_keys[0]), n_epochs,
                      weights=weights if weights.size else None)
    return IngestResult(dataset, node_keys[0], label_keys[0], t_min, float(slice_width))
