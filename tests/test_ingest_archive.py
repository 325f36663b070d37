"""Event-file ingestion, dataset container semantics, model archives."""
import importlib
import json
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import sdsbm.archive as archive_module
import sdsbm.pool as pool
from sdsbm import (
    BlockTensor,
    ContractError,
    Dataset,
    FitConfig,
    IngestError,
    MembershipTensor,
    ModelArchive,
    PriorConfig,
    cli,
    fit,
    ingest,
)
from sdsbm.archive import TRACE_TAIL

from conftest import random_dataset
from ingest_reference import ingest as reference_ingest

ingest_module = importlib.import_module("sdsbm.ingest")


def write_events(tmp_path, text, name="events.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_daily_slices(self, tmp_path):
        path = write_events(tmp_path, "\n".join([
            "alice,rock,0",
            "bob,jazz,86400",
            "alice,rock,172800",
        ]))
        result = ingest(path, slice_width=86400)
        assert result.dataset.n_epochs == 3
        np.testing.assert_array_equal(result.dataset.epochs, [0, 1, 2])
        assert result.t_min == 0.0
        assert result.slice_width == 86400.0
        assert result.node_keys == ["alice", "bob"]
        assert result.label_keys == ["rock", "jazz"]

    def test_wide_slice_collapses_to_one_epoch(self, tmp_path):
        path = write_events(tmp_path, "a,x,0\nb,y,86400\na,y,172800\n")
        result = ingest(path, slice_width=1e6)
        assert result.dataset.n_epochs == 1
        np.testing.assert_array_equal(result.dataset.epochs, [0, 0, 0])

    def test_weight_column_expands_observations(self, tmp_path):
        path = write_events(tmp_path, "a,x,0,3\nb,y,10,1\n")
        result = ingest(path, slice_width=20)
        data = result.dataset
        assert len(data) == 4
        np.testing.assert_array_equal(data.nodes, [0, 0, 0, 1])
        np.testing.assert_array_equal(data.labels, [0, 0, 0, 1])

    def test_billion_weight_line_ingests_and_fits_without_expanding(self, tmp_path):
        path = write_events(tmp_path, "a,x,0,1000000000\nb,y,1,3\na,y,1\n")
        tracemalloc.start()
        try:
            data = ingest(path, slice_width=1).dataset
            config = FitConfig(n_clusters=2, prior=PriorConfig(beta_theta=1, beta_p=1),
                               max_iterations=5, restarts=1)
            report = fit(data, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one 10^9-row column would take 8 GB
        assert len(data) == 1_000_000_004
        np.testing.assert_array_equal(data.epoch_counts, [1_000_000_000, 4])
        assert report.n_iterations == 5 and np.isfinite(report.objective)

    def test_total_weight_past_int64_exits_3(self, tmp_path, capsys):
        path = write_events(tmp_path, "a,x,0,4611686018427387904\nb,y,1,4611686018427387904\n")
        with pytest.raises(ContractError, match="total weight 9223372036854775808"):
            ingest(path, slice_width=1)
        code = cli.main(["fit", "--data", str(path), "--slice", "1", "--clusters", "2",
                         "--out", str(tmp_path / "model.npz")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: total weight")

    def test_an_unweighted_log_builds_no_weights_column(self, tmp_path):
        # the column would hold 1.6 MB at 200k lines; Dataset counts the rows instead
        lines = [f"u{i % 997},g{i % 13},{i / 1000:.3f}" for i in range(200_000)]
        peaks, results = [], []
        for suffix in ("", ",1"):
            path = write_events(tmp_path, "".join(line + suffix + "\n" for line in lines),
                                name=f"events{suffix}.csv")
            tracemalloc.start()
            try:
                results.append(ingest(path, slice_width=1.0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        for a, b in zip(*(result.dataset.compressed() for result in results)):
            np.testing.assert_array_equal(a, b)
        assert peaks[0] <= peaks[1] - 1_000_000, peaks

    def test_header_row_is_skipped(self, tmp_path):
        path = write_events(
            tmp_path, "node,label,timestamp,weight\na,x,5,2\nb,y,15,1\n"
        )
        result = ingest(path, slice_width=10)
        assert len(result.dataset) == 3
        assert result.t_min == 5.0
        assert result.node_keys == ["a", "b"]

    def test_ids_follow_first_appearance(self, tmp_path):
        path = write_events(tmp_path, "b,beta,0\na,alpha,1\nb,alpha,2\n")
        result = ingest(path, slice_width=1)
        assert result.node_keys == ["b", "a"]
        assert result.label_keys == ["beta", "alpha"]
        np.testing.assert_array_equal(result.dataset.nodes, [0, 1, 0])
        np.testing.assert_array_equal(result.dataset.labels, [0, 1, 1])

    def test_gaps_leave_empty_epochs(self, tmp_path):
        path = write_events(tmp_path, "a,x,0\nb,y,5.5\n")
        result = ingest(path, slice_width=1.0)
        assert result.dataset.n_epochs == 6
        np.testing.assert_array_equal(result.dataset.epoch_counts,
                                      [1, 0, 0, 0, 0, 1])

    def test_latest_event_lands_in_the_last_epoch(self, tmp_path):
        path = write_events(tmp_path, "a,x,0\nb,y,10\n")
        result = ingest(path, slice_width=5)
        assert result.dataset.n_epochs == 3
        np.testing.assert_array_equal(result.dataset.epoch_counts, [1, 0, 1])

    def test_awkward_float_widths_never_overflow_the_last_epoch(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(25):
            stamps = np.round(rng.uniform(0, 30, size=12), 2)
            width = float(rng.choice([0.1, 0.2, 0.3, 0.7, 1.3]))
            text = "\n".join(f"n{i},x,{s}" for i, s in enumerate(stamps))
            path = write_events(tmp_path, text, name=f"fuzz{trial}.csv")
            result = ingest(path, slice_width=width)  # constructor checks ranges
            assert result.dataset.epochs.max() < result.dataset.n_epochs

    def test_slice_count_mode(self, tmp_path):
        path = write_events(tmp_path, "a,x,0\nb,y,50\nc,z,100\n")
        result = ingest(path, n_slices=4)
        assert result.slice_width == 25.0
        assert result.dataset.n_epochs == 4
        np.testing.assert_array_equal(result.dataset.epochs, [0, 2, 3])

    def test_single_slice_over_identical_timestamps(self, tmp_path):
        path = write_events(tmp_path, "a,x,42\nb,y,42\n")
        result = ingest(path, n_slices=1)
        assert result.dataset.n_epochs == 1
        assert result.slice_width == 1.0
        assert result.t_min == 42.0

    def test_many_slices_over_zero_span_fail(self, tmp_path):
        path = write_events(tmp_path, "a,x,42\nb,y,42\n")
        with pytest.raises(IngestError, match="cannot cut 3 slices"):
            ingest(path, n_slices=3)

    @pytest.mark.parametrize("slicing,count", [
        ({"slice_width": 1e-300}, "2e+300"),
        ({"n_slices": 10**19}, "1e+19"),
    ])
    def test_epoch_counts_past_int64_are_input_errors(self, tmp_path, slicing, count):
        path = write_events(tmp_path, "a,x,0\nb,y,1\nc,x,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning comes first
            with pytest.raises(IngestError, match=re.escape(f"gives {count} epochs")):
                ingest(path, **slicing)

    def test_zero_span_with_a_width_is_one_epoch(self, tmp_path):
        path = write_events(tmp_path, "a,x,42\nb,y,42\n")
        result = ingest(path, slice_width=10)
        assert result.dataset.n_epochs == 1

    @pytest.mark.parametrize("delimiter,text", [
        (None, "a,x,1\nb,y,2\n"),
        (None, "a x 1\nb y 2\n"),
        (None, "a\tx\t1\nb\ty\t2\n"),
        ("\t", "a\tx\t1\nb\ty\t2\n"),
        (",", "a , x , 1\nb,y,2\n"),
    ])
    def test_delimiters(self, tmp_path, delimiter, text):
        path = write_events(tmp_path, text)
        result = ingest(path, slice_width=1, delimiter=delimiter)
        assert result.node_keys == ["a", "b"]
        assert result.label_keys == ["x", "y"]

    def test_comma_files_may_carry_spaces_in_keys(self, tmp_path):
        path = write_events(tmp_path, "big node,some label,0\nother,some label,1\n")
        result = ingest(path, slice_width=1)
        assert result.node_keys == ["big node", "other"]

    def test_blank_lines_are_ignored(self, tmp_path):
        path = write_events(tmp_path, "\na,x,0\n\n\nb,y,1\n\n")
        assert len(ingest(path, slice_width=1).dataset) == 2

    @pytest.mark.parametrize("bad_line,fragment", [
        ("a,x", "expected 3 or 4 fields"),
        ("a,x,1,2,3", "expected 3 or 4 fields"),
        ("a,x,noon", "not numeric"),
        ("a,x,1,heavy", "not an integer"),
        ("a,x,1,0", "positive integer"),
        ("a,x,1,-2", "positive integer"),
    ])
    def test_malformed_lines_name_their_line_number(self, tmp_path, bad_line,
                                                    fragment):
        path = write_events(tmp_path, "a,x,0\n" + bad_line + "\n")
        with pytest.raises(IngestError, match=fragment) as info:
            ingest(path, slice_width=1)
        assert info.value.line_number == 2
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("slicing", [{"slice_width": 1.0}, {"n_slices": 2}])
    def test_non_finite_timestamps_name_their_line_number(self, tmp_path, stamp,
                                                          slicing):
        path = write_events(tmp_path, f"a,x,0\nb,y,1\nc,z,{stamp}\n")
        with pytest.raises(IngestError, match="not finite") as info:
            ingest(path, **slicing)
        assert info.value.line_number == 3
        assert "line 3" in str(info.value)

    @pytest.mark.parametrize("flag", [["--slice", "1"], ["--slices", "2"]])
    def test_non_finite_timestamp_exits_3_from_the_cli(self, tmp_path, capsys, flag):
        path = write_events(tmp_path, "a,x,0\nb,y,nan\n")
        code = cli.main(["fit", "--data", str(path), *flag, "--clusters", "2",
                         "--out", str(tmp_path / "model.npz")])
        assert code == 3
        assert "line 2: timestamp 'nan' is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        (b"a,x,0,2\nb,y,1,99999999999999999999\n",
         "line 2: weight '99999999999999999999' exceeds the largest weight, "
         "9223372036854775807"),
        (b"a,x,0\ncaf\xe9,y,1\n", "line 2: bytes b'\\xe9' are not valid UTF-8"),
        (b"caf\xe9,label,timestamp\na,x,0\n",
         "line 1: bytes b'\\xe9' are not valid UTF-8"),
    ])
    def test_unreadable_lines_name_their_line_number(self, tmp_path, capsys, content,
                                                     message):
        path = tmp_path / "events.csv"
        path.write_bytes(content)
        with pytest.raises(IngestError) as info:
            ingest(path, slice_width=1)
        assert str(info.value) == message
        assert info.value.line_number == int(message.split(":")[0].split()[1])
        code = cli.main(["fit", "--data", str(path), "--slice", "1", "--clusters", "2",
                         "--out", str(tmp_path / "model.npz")])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_keys_are_decoded_as_utf8(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes("café,日本,0\n\ufeffx,🙂,1\n".encode("utf-8"))
        result = ingest(path, slice_width=1)
        assert result.node_keys == ["café", "\ufeffx"]
        assert result.label_keys == ["日本", "🙂"]

    @pytest.mark.parametrize("delimiter", ["\n", "\r", ",\r\n"])
    def test_delimiters_with_a_line_break_are_rejected(self, tmp_path, delimiter):
        path = write_events(tmp_path, "a,x,0\n")
        with pytest.raises(IngestError, match="contains a line break"):
            ingest(path, slice_width=1, delimiter=delimiter)

    def test_empty_file(self, tmp_path):
        path = write_events(tmp_path, "")
        with pytest.raises(IngestError, match="no events"):
            ingest(path, slice_width=1)

    def test_slicing_arguments_are_exclusive(self, tmp_path):
        path = write_events(tmp_path, "a,x,0\n")
        with pytest.raises(IngestError):
            ingest(path, slice_width=1, n_slices=2)
        with pytest.raises(IngestError):
            ingest(path)
        with pytest.raises(IngestError):
            ingest(path, slice_width=0)
        with pytest.raises(IngestError):
            ingest(path, n_slices=0)

    def test_line_order_does_not_change_the_histogram(self, tmp_path):
        lines = [f"n{i % 5},l{i % 3},{i * 2.5}" for i in range(20)]
        forward = write_events(tmp_path, "\n".join(lines), name="fwd.csv")
        backward = write_events(tmp_path, "\n".join(reversed(lines)),
                                name="bwd.csv")
        a = ingest(forward, slice_width=7)
        b = ingest(backward, slice_width=7)
        np.testing.assert_array_equal(a.dataset.epoch_counts,
                                      b.dataset.epoch_counts)
        assert a.dataset.n_items == b.dataset.n_items
        assert a.dataset.n_labels == b.dataset.n_labels


def _plain_decimal(rng):
    """Digits with at most one dot, at the exact parser's edges, of small magnitude.

    15 to 17 significant digits straddle 2**53; 0 to 25 fraction digits span
    the exact powers of ten and past them; the dot may lead or trail.
    """
    fraction = int(rng.integers(26))
    significant = min(int(rng.choice([1, 2, 15, 16, 17, 18])), fraction + 2)
    digits = "".join(map(str, rng.integers(0, 10, significant)))
    split = max(significant - fraction, 0)
    text = (digits[:split] or str(rng.choice(["0", ""]))) + "." + (
        "0" * (fraction - significant) + digits[split:])
    if fraction == 0 and rng.random() < 0.5:
        text = text.rstrip(".")
    return "0" * int(rng.choice([0, 0, 1, 3, 12])) + text  # leading zeros


def _random_stamp(rng):
    value = float(rng.uniform(-5, 30))
    kind = int(rng.integers(12))
    if kind == 0:
        return str(int(value))
    if kind == 1:
        return f"{value:.3f}"
    if kind == 2:
        return repr(value)
    if kind == 3:
        return f"{value:.4e}".replace("e", str(rng.choice(["e", "E"])))
    if kind == 4:  # long, leading zeros
        return "0" * int(rng.integers(1, 40)) + f"{abs(value):.6f}"
    if kind == 5:  # not numpy-castable digits: Python's float reads these
        return f"{int(rng.integers(3))}_{int(rng.integers(10))}"
    if kind == 6:
        return str(rng.choice([f"+{abs(value):g}", ".5", "7.", "-0"]))
    if kind == 7:  # one length with the dot in every column: 1.25, 12.5, 125., .125
        digits = "".join(map(str, rng.integers(0, 10, 3)))
        at = int(rng.integers(4))
        return digits[:at] + "." + digits[at:]
    if kind == 8:  # mantissas either side of 2**53 = 9007199254740992
        return str(rng.choice(["0.9007199254740991", "0.9007199254740992",
                               "0.9007199254740993", "9.007199254740993", "0." + "9" * 17,
                               "0000000000000000.5", "00000000000000000.5"]))
    if kind in (9, 10):
        return _plain_decimal(rng)
    return f"{value:g}"


def _random_event_file(rng):
    """Bytes of a random event file, its delimiter and slicing arguments.

    Within the input contract the reference parser shares: ASCII whitespace
    only, UTF-8 keys, weights that fit in 64 bits.
    """
    keys = ["a", "b", "c", "node7", "x_1", "Zeta", "é", "naïve", "日本", "🙂",
            "k" * 9, "longer-key-" * 3,
            # 7, 8 and 9 bytes: either side of the one-uint64 codes
            "seven77", "eight888", "nine99999", "日本語", "ab日本", "ab日本é",
            # differ only by a trailing NUL, which fixed-width byte strings drop
            "z", "z\x00", "trailing-nul", "trailing-nul\x00", "seven77\x00",
            "eight888\x00"]
    late_keys = ["late", "late-comer", "l8\x00"]  # only on the last lines, so in late blocks
    delimiter = [None, None, None, "", ",", ";", "::", "\t", " ", " | ", "§"][
        rng.integers(11)]
    spaces = [" ", "\t", "  ", " \x0b", "\x0c", "\t \t"]
    blanks = ["", " ", "\t", " \x0b\x0c "]
    bad_counts = [["a", "x"], ["a", "x", "1", "2", "3"], ["", "", ""]]
    bad_stamps = ["noon", "1e", "--1", "0x10", "1.2.3", "nan", "inf", "-Infinity",
                  "1e999", "NaN", "timestamp", ".", "..", "1..", ".1.", "1.2.",
                  "1" * 400]
    bad_weights = ["heavy", "1.5", "0", "-2", "+-1", "-99999999999999999999",
                   "0" * 18, "0" * 19, "1.", "2.0"]
    n_bad = int(rng.choice([0, 0, 1, 2]))
    bad_at = set(rng.integers(1, 30, n_bad).tolist())
    lines = []
    if rng.random() < 0.3:
        lines.append(["node", "label", "timestamp"] + ["weight"] * int(rng.integers(2)))
    for number in range(int(rng.integers(1, 30))):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(blanks)))
            continue
        # by index: a numpy string array would drop the trailing NULs
        pool = keys + late_keys if number > 20 else keys
        fields = [pool[rng.integers(len(pool))], pool[rng.integers(len(pool))],
                  _random_stamp(rng)]
        if rng.random() < 0.4:  # 18 and 19 digits: either side of the exact int64 parse
            fields.append(str(rng.choice(["1", "2", "3", "+2", "07", "1_0",
                                          "0" * 17 + "2", "0" * 18 + "3"])))
        if number in bad_at:
            kind = int(rng.integers(4))
            if kind == 0:
                fields = bad_counts[rng.integers(3)]
            if kind in (1, 3):
                fields[2] = str(rng.choice(bad_stamps))
            if kind in (2, 3):  # both: the timestamp is reported
                fields[3:] = [str(rng.choice(bad_weights))]
        lines.append(fields)
    text = []
    for line in lines:
        if isinstance(line, list):
            if delimiter is None and rng.random() < 0.5 or delimiter in ("", " "):
                line = str(rng.choice(spaces)).join(line)
            else:
                sep = "," if delimiter is None else delimiter
                pad = [str(rng.choice(["", "", " ", "\t "])) for _ in line]
                line = sep.join(p + field + p[::-1] for p, field in zip(pad, line))
                if line and rng.random() < 0.1:
                    line += sep  # a trailing empty field is dropped
                if delimiter is None and rng.random() < 0.2:
                    line = line.replace("a", "big node", 1)  # comma keys may hold spaces
        text.append(line + str(rng.choice(["\n", "\r\n", "\r"])))
    if text and rng.random() < 0.5:
        text[-1] = text[-1].rstrip("\r\n")
    slicing = ({"slice_width": float(rng.choice([0.5, 1.0, 2.5, 7.0]))}
               if rng.random() < 0.6 else {"n_slices": int(rng.choice([1, 2, 5]))})
    return "".join(text).encode("utf-8"), delimiter, slicing


def _outcome(parse, path, **kwargs):
    try:
        result = parse(path, **kwargs)
    except IngestError as err:
        return ("error", str(err), err.line_number)
    data = result.dataset
    for array in (data.nodes, data.labels, data.epochs):
        assert array.dtype == np.int64
    return ("ok", result.node_keys, result.label_keys, result.t_min,
            result.slice_width, data.n_items, data.n_labels, data.n_epochs,
            data.nodes.tolist(), data.labels.tolist(), data.epochs.tolist())


def _number_fields(rng, count):
    """Number fields: plain decimals of 1 to 20 digits, the dot anywhere or
    nowhere, some with leading zeros, and one in ten that Python must read."""
    junk = ["+1.5", "-2", "-0", "1e3", "2E-5", "1_0", ".", "..", "1.2.3", "0x1f", "inf",
            "nan", "1e400", "+", "-", "١٢", "9" * 30, "0" * 25 + "1.5", "12a", "a12"]
    pool = "".join(map(str, rng.integers(0, 10, 20 * count).tolist()))
    fields = []
    for at, (size, dot, zeros) in enumerate(zip(
            rng.integers(1, 21, count).tolist(), rng.integers(-1, 21, count).tolist(),
            rng.choice([0, 0, 0, 1, 4, 12], count).tolist())):
        digits = "0" * zeros + pool[20 * at:20 * at + size]
        fields.append(digits if dot < 0 else digits[:dot] + "." + digits[dot:])
    for at in rng.choice(count, count // 10, replace=False).tolist():
        fields[at] = str(rng.choice(junk))
    return fields


def _field_block(fields):
    """One field a line: the block's bytes, as bytes and as uint8, and the fields' spans."""
    data = "\n".join(fields).encode()
    lengths = np.array([len(field.encode()) for field in fields])
    starts = np.concatenate(([0], np.cumsum(lengths + 1)[:-1]))
    return np.frombuffer(data, dtype=np.uint8), data, starts, starts + lengths


def _parse_numbers(fields, dtype):
    return ingest_module._numbers(*_field_block(fields), dtype)


class TestNumbers:
    """The vectorised number parser against Python's ``float`` and ``int``."""

    def test_floats_have_the_bits_of_python_float(self):
        fields = _number_fields(np.random.default_rng(31), 100_000)
        fields += ["0.9007199254740991", "0.9007199254740993", "9007199254740993",
                   "1." + "0" * 16 + "1", "." + "1" * 17, "5e-324", "1" * 18 + "."]
        values, parsed = _parse_numbers(fields, np.float64)
        expected = []
        for field in fields:
            try:
                expected.append(float(field.encode()))  # as ingest reads it: ASCII only
            except ValueError:
                expected.append(None)
        np.testing.assert_array_equal(parsed, [value is not None for value in expected])
        expected = np.array([0.0 if value is None else value for value in expected])
        np.testing.assert_array_equal(values.view(np.int64)[parsed],
                                      expected.view(np.int64)[parsed])

    def test_signs_exponents_and_long_fields_stay_in_numpy(self, monkeypatch):
        # numpy's string cast reads these as float/int do, with no call per field
        def refuse(text):
            raise AssertionError(f"{text!r} went to Python")

        monkeypatch.setattr(ingest_module, "float", refuse, raising=False)
        monkeypatch.setattr(ingest_module, "int", refuse, raising=False)
        stamps = [f"{0.1 * i:.18e}" for i in range(50)] + [
            str(1.76e9 + i / 7) for i in range(50)] + ["-1.5", "+2.25", "1E5", "0" * 19 + "1.5"]
        values, parsed = _parse_numbers(stamps, np.float64)
        assert parsed.all()
        assert values.tolist() == [float(stamp) for stamp in stamps]
        weights = ["+7", "-3", "0" * 18 + "12", str(2**63 - 1)]
        values, parsed = _parse_numbers(weights, np.int64)
        assert parsed.all() and values.tolist() == [int(weight) for weight in weights]

    def test_fixed_point_groups_stay_in_numpy(self, monkeypatch):
        # fields of one length and one dot column are one Horner pass; a
        # length that mixes dot columns goes to numpy's string cast, and a
        # field with no digit such as "." stays out of it
        def python_reads(parse, allowed):
            def read(text):
                assert text in allowed, f"{text!r} went to Python"
                return parse(text)
            return read

        monkeypatch.setattr(ingest_module, "float", python_reads(float, {b"."}), raising=False)
        monkeypatch.setattr(ingest_module, "int", python_reads(int, set()), raising=False)
        rng = np.random.default_rng(33)
        stamps = [f"{value:.6f}" for width in range(8, 19)  # %.6f at every length 8-18
                  for value in rng.uniform(10.0 ** (width - 8), 10.0 ** (width - 7), 30)]
        assert {len(stamp) for stamp in stamps} == set(range(8, 19))
        stamps += ["123456.78901", "-1234.567890", "1.234567e+03", "00001.234567",
                   "-0000.000001", "+9999.999999"]  # length 12, among its %.6f stamps
        stamps += ["9007199254.740991", "9007199254.740992", "9007199254.740993",
                   "0000000000.000001"]  # length 17: mantissas either side of 2**53
        stamps += [".", "7", "0", "1.", ".5", "42", "9.", "0.", ".0"]  # lengths 1 and 2
        stamps += [str(value) for value in rng.integers(0, 10**17, 30)]  # all digits
        values, parsed = _parse_numbers(stamps, np.float64)
        assert parsed.tolist() == [stamp != "." for stamp in stamps]
        expected = np.array([0.0 if stamp == "." else float(stamp) for stamp in stamps])
        np.testing.assert_array_equal(values.view(np.int64)[parsed],
                                      expected.view(np.int64)[parsed])
        weights = [str(value).zfill(length) for length in range(1, 19)
                   for value in rng.integers(0, 10 ** min(length, 17), 20).tolist()]
        values, parsed = _parse_numbers(weights, np.int64)
        assert values.dtype == np.int64 and parsed.all()
        assert values.tolist() == [int(weight) for weight in weights]

    def test_integers_equal_python_int(self):
        fields = _number_fields(np.random.default_rng(32), 100_000)
        fields += ["9" * 18, "9" * 19, str(2**63 - 1), str(2**63), "0" * 18, "0" * 30 + "7"]
        values, parsed = _parse_numbers(fields, np.int64)
        expected = []
        for field in fields:
            try:
                value = int(field.encode())
            except ValueError:
                value = None
            expected.append(value if value is not None and -(2**63) <= value < 2**63 else None)
        assert parsed.tolist() == [value is not None for value in expected]
        assert values[parsed].tolist() == [value for value in expected if value is not None]


def test_key_tables_stay_logarithmic():
    # keys new in every block, as in a log of mostly distinct ids: each
    # table's sorted runs are at least twice the next, so there are O(log n)
    # of them and a code is merged O(log n) times.  Keys of 2 to 7 bytes
    # share table 7; keys of 9 to 12 bytes have a table per length.
    rng = np.random.default_rng(7)
    keys, tables, expected = [], {}, {}
    for _ in range(300):
        fields = ["k" + f"{value:011d}"[1 - size:] for value, size in zip(
            rng.integers(0, 30_000, 100).tolist(),
            rng.choice([2, 3, 4, 5, 6, 7, 9, 10, 11, 12], 100).tolist())]
        ids = ingest_module._key_ids(*_field_block(fields), keys, tables)
        assert ids.tolist() == [expected.setdefault(field, len(expected)) for field in fields]
    assert keys == list(expected)
    assert sorted(tables) == [7, 9, 10, 11, 12]
    for table, runs in tables.items():
        sizes = [codes.size for codes, _ in runs]
        assert sum(sizes) == sum(max(len(key), 7) == table for key in keys)
        assert all(size >= 2 * smaller for size, smaller in zip(sizes, sizes[1:])), sizes


class TestIngestMatchesReference:
    """The block parser against the line-by-line reference in ``ingest_reference``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_files(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng([seed, 4])
        kinds = set()
        for trial in range(30):
            content, delimiter, slicing = _random_event_file(rng)
            path = tmp_path / f"events{trial}.csv"
            path.write_bytes(content)
            # small blocks make lines straddle reads and line ends straddle blocks
            monkeypatch.setattr(ingest_module, "BLOCK",
                                int(rng.choice([1, 2, 3, 7, 16, 64, 1 << 18])))
            expected = _outcome(reference_ingest, path, delimiter=delimiter, **slicing)
            got = _outcome(ingest, path, delimiter=delimiter, **slicing)
            assert got == expected, (content, delimiter, slicing)
            kinds.add(expected[0])
        assert kinds == {"ok", "error"}

    def test_block_size_does_not_change_the_result(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        lines = [f"u{i},g{j},{t:.6f}" for i, j, t in zip(
            rng.integers(0, 300, 1500), rng.integers(0, 20, 1500),
            np.sort(rng.uniform(0, 50, 1500)))]
        path = write_events(tmp_path, "\r\n".join(lines))
        expected = _outcome(reference_ingest, path, slice_width=1.0)
        for block in (13, 1000, 1 << 18):
            monkeypatch.setattr(ingest_module, "BLOCK", block)
            assert _outcome(ingest, path, slice_width=1.0) == expected

    def test_a_last_line_without_an_ending_joins_the_last_block(self, tmp_path, monkeypatch):
        path = tmp_path / "events.csv"
        path.write_bytes(b"a,b,1\nc,d,2\ne,f,3")
        with open(path, "rb") as handle:
            assert list(ingest_module._blocks(handle)) == [b"a,b,1\nc,d,2\ne,f,3"]
        monkeypatch.setattr(ingest_module, "BLOCK", 8)  # each read ends one line
        with open(path, "rb") as handle:
            assert list(ingest_module._blocks(handle)) == [b"a,b,1\n", b"c,d,2\ne,f,3"]

    def test_lines_many_blocks_long(self, tmp_path, monkeypatch):
        # The block reader searches each read once and joins it once, so a
        # line thousands of reads long stays linear; only the result is
        # asserted here.
        monkeypatch.setattr(ingest_module, "BLOCK", 5)
        content = ("a,b,1\r" + "n" * 3000 + "é" * 700 + ",lab,2\r\n" + " " * 999
                   + "\r\nb,\t" + "日" * 800 + "\t,3,2").encode("utf-8")
        path = tmp_path / "events.csv"
        path.write_bytes(content)
        with open(path, "rb") as handle:
            blocks = list(ingest_module._blocks(handle))
        assert b"".join(blocks) == content
        for block in blocks[:-1]:
            assert block.endswith(b"\n") or block.endswith(b"\r")
        assert len(blocks) > 1
        expected = _outcome(reference_ingest, path, n_slices=2)
        assert expected[0] == "ok"
        assert _outcome(ingest, path, n_slices=2) == expected
        # a long line without any line end fails with its field count
        path.write_bytes(b"a b " + b"x," * 4000 + b"9")
        assert _outcome(ingest, path, n_slices=1) == (
            _outcome(reference_ingest, path, n_slices=1))


class TestIngestOnThePool:
    """Blocks parse on the pool; ids, vocabularies and errors follow in block order."""

    @staticmethod
    def _lines(seed, n=1500):
        rng = np.random.default_rng(seed)
        return [f"u{i},g{j},{t:.6f}" for i, j, t in zip(
            rng.integers(0, 300, n), rng.integers(0, 20, n), np.sort(rng.uniform(0, 50, n)))]

    def test_worker_count_does_not_change_the_result(self, tmp_path, monkeypatch):
        path = write_events(tmp_path, "\n".join(["node,label,time"] + self._lines(6)))
        monkeypatch.setattr(ingest_module, "BLOCK", 512)  # about 60 blocks
        expected = _outcome(reference_ingest, path, slice_width=1.0)
        assert expected[0] == "ok"
        for workers in (1, 2, 3):
            monkeypatch.setattr(pool, "_workers", lambda: workers)
            assert _outcome(ingest, path, slice_width=1.0) == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_earlier_of_two_bad_blocks_is_reported(self, tmp_path, monkeypatch, workers):
        lines = self._lines(7)
        lines[300] = "u1,g1"
        lines[330] = "u1,g1,noon"  # in the next block, which may parse first
        path = write_events(tmp_path, "\n".join(lines))
        monkeypatch.setattr(ingest_module, "BLOCK", 512)
        monkeypatch.setattr(pool, "_workers", lambda: workers)
        with pytest.raises(IngestError, match="line 301: expected 3 or 4 fields, got 2") as info:
            ingest(path, slice_width=1.0)
        assert info.value.line_number == 301

    def test_a_block_parses_in_bounded_memory(self):
        # a pool thread's malloc arena keeps the peak of its parses, so the
        # tokenizer must not trade memory for speed: one block of the
        # benchmark's lines peaks at about 2.3 MiB, and peaked at 3.0 MiB when
        # every byte mask was built and every dot mended row by row
        rng = np.random.default_rng(10)
        epochs = np.sort(rng.integers(0, 50, 16_000))
        text = "".join(f"u{i},g{o},{t:.6f}\n" for i, o, t in zip(
            rng.integers(0, 500, epochs.size).tolist(), rng.integers(0, 20, epochs.size).tolist(),
            (epochs + rng.random(epochs.size)).tolist()))
        data = text.encode()[:ingest_module.BLOCK]
        data = data[:data.rfind(b"\n") + 1]
        tracemalloc.start()
        try:
            parsed = ingest_module._parse_block(0, data, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed[-2] > 14_000 and parsed[-1] is None
        assert peak < 3.4 * 2**20

    def test_a_single_block_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(workers):
            raise AssertionError("a single block reached the pool")

        monkeypatch.setattr(pool, "_workers", lambda: 2)
        monkeypatch.setattr(pool, "_executor", refuse)
        # the last line has no ending: it joins the block before it
        path = write_events(tmp_path, "\n".join(self._lines(8, n=200)))
        assert len(ingest(path, slice_width=1.0).dataset) == 200

class TestDataset:
    def test_compressed_merges_repeats(self):
        data = Dataset([0, 1, 0, 0], [2, 0, 2, 1], [1, 0, 1, 1],
                       n_items=2, n_labels=3, n_epochs=2)
        epochs, nodes, labels, weights = data.compressed()
        np.testing.assert_array_equal(epochs, [0, 1, 1])
        np.testing.assert_array_equal(nodes, [1, 0, 0])
        np.testing.assert_array_equal(labels, [0, 1, 2])
        np.testing.assert_array_equal(weights, [1, 1, 2])
        assert weights.sum() == len(data)

    def test_compressed_is_sorted_lexicographically(self):
        data = random_dataset(4, 5, 3, 200, seed=60)
        epochs, nodes, labels, _ = data.compressed()
        flat = (epochs * data.n_items + nodes) * data.n_labels + labels
        assert np.all(np.diff(flat) > 0)

    @pytest.mark.parametrize("extents", [
        (6, 5, 4), (1, 5, 4), (6, 1, 4), (6, 5, 1), (1, 1, 1), (40, 3, 200),
    ])
    def test_compressed_matches_row_unique(self, extents):
        """The single-key sort agrees with ``np.unique`` over stacked rows."""
        T, I, O = extents
        for seed in range(5):
            rng = np.random.default_rng([seed, T, I, O])
            n = 0 if seed == 0 else int(rng.integers(1, 300))
            # leave some epochs empty whenever there is more than one
            live = rng.choice(T, size=max(1, T // 2), replace=False)
            data = Dataset(rng.integers(0, I, n), rng.integers(0, O, n),
                           rng.choice(live, n), n_items=I, n_labels=O, n_epochs=T)
            stacked = np.stack([data.epochs, data.nodes, data.labels], axis=1)
            rows, counts = np.unique(stacked, axis=0, return_counts=True)
            got = data.compressed()
            expected = (rows[:, 0], rows[:, 1], rows[:, 2], counts)
            for array, reference in zip(got, expected):
                assert array.dtype == np.int64
                assert np.array_equal(array, reference)

    def test_compressed_rejects_extents_past_the_int64_key(self):
        with pytest.raises(ContractError, match="overflow"):
            Dataset([5], [3], [1], n_items=2**32, n_labels=2**32, n_epochs=2)

    def test_epoch_counts_take_only_the_memory_of_the_counts(self):
        # three rows over a million epochs: each epoch run's exact int64 weight sum
        # goes into the (T,) counts, and the build allocates nothing T-sized besides
        T = 10**6
        tracemalloc.start()
        try:
            data = Dataset([0, 1, 0], [0, 0, 1], [0, 5, T - 1], n_items=2, n_labels=2,
                           n_epochs=T, weights=[3, 1, 2**53 + 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * T
        expected = np.zeros(T, np.int64)
        expected[[0, 5, T - 1]] = [3, 1, 2**53 + 1]  # a float sum would round the last
        assert data.epoch_counts.dtype == np.int64
        np.testing.assert_array_equal(data.epoch_counts, expected)

    def test_collapse_epochs(self):
        data = random_dataset(4, 3, 2, 40, seed=62)
        flat = data.collapse_epochs()
        assert flat.n_epochs == 1
        np.testing.assert_array_equal(flat.epoch_counts, [40])
        # the same (node, label) multiset, now in (node, label) order
        np.testing.assert_array_equal(np.sort(flat.labels * 3 + flat.nodes),
                                      np.sort(data.labels * 3 + data.nodes))

    def test_out_of_range_ids_are_named(self):
        with pytest.raises(ContractError, match=r"node id 7 out of range \[0, 3\)"):
            Dataset([7], [0], [0], n_items=3, n_labels=2, n_epochs=1)
        with pytest.raises(ContractError, match="label id -1"):
            Dataset([0], [-1], [0], n_items=3, n_labels=2, n_epochs=1)
        with pytest.raises(ContractError, match="epoch id 4"):
            Dataset([0], [0], [4], n_items=3, n_labels=2, n_epochs=2)

    def test_unsigned_values_past_int64_are_named(self):
        # refused as the caller passed them, not as the int64 they would wrap to
        with pytest.raises(ContractError, match="node ids .* got 18446744073709551615"):
            Dataset(np.array([2**64 - 1], dtype=np.uint64), [0], [0], 3, 2, 1)
        with pytest.raises(ContractError, match="weights .* got 9223372036854775813"):
            Dataset([0], [0], [0], 3, 2, 1, weights=np.array([2**63 + 5], dtype=np.uint64))
        data = Dataset(np.array([2], dtype=np.uint64), [0], [0], 3, 2, 1,
                       weights=np.array([2**63 - 1], dtype=np.uint64))
        assert len(data) == 2**63 - 1

    @pytest.mark.parametrize("value, bound", [
        (2**63, "at most 9223372036854775807"),
        (2**64, "at most 9223372036854775807"),
        (-2**63 - 1, "at least -9223372036854775808"),
    ])
    def test_python_ints_past_int64_are_named(self, value, bound):
        # numpy reads these lists as float64 or object, not as integers
        with pytest.raises(ContractError, match=f"node ids must be {bound}, got {value}$"):
            Dataset([value, 0], [0, 0], [0, 0], 3, 2, 1)
        with pytest.raises(ContractError, match=f"weights must be {bound}, got {value}$"):
            Dataset([0, 1], [0, 0], [0, 0], 3, 2, 1, weights=[1, value])
        # a float beside them is still no integer
        with pytest.raises(ContractError, match="node ids must be integers"):
            Dataset([value, 0.0], [0, 0], [0, 0], 3, 2, 1)

    def test_ids_and_extents_must_be_integers(self):
        with pytest.raises(ContractError, match="node ids must be integers"):
            Dataset([0.7], [0], [0], 1, 1, 1)
        with pytest.raises(ContractError, match="epoch ids must be integers"):
            Dataset([0], [0], [True], 1, 1, 1)
        with pytest.raises(ContractError, match="n_items must be an integer, got 1.5"):
            Dataset([1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                    n_items=1.5, n_labels=1, n_epochs=1)
        nodes = np.array([1, 0], dtype=np.int64)
        data = Dataset(nodes, np.array([0, 1], dtype=np.int32), [0, 0],
                       n_items=np.int64(2), n_labels=np.uint8(2), n_epochs=1)
        assert data.labels.dtype == np.int64 and type(data.n_labels) is int

    @pytest.mark.parametrize("weights", [None, "ones", "random"])
    def test_weights_merge_like_repeated_rows(self, weights):
        rng = np.random.default_rng(64)
        nodes, labels, epochs = (rng.integers(0, n, 80) for n in (4, 3, 5))
        counts = {None: None, "ones": np.ones(80, dtype=np.int64),
                  "random": rng.integers(1, 6, 80)}[weights]
        data = Dataset(nodes, labels, epochs, n_items=4, n_labels=3, n_epochs=5,
                       weights=counts)
        reps = np.ones(80, dtype=np.int64) if counts is None else counts
        rows = Dataset(np.repeat(nodes, reps), np.repeat(labels, reps),
                       np.repeat(epochs, reps), n_items=4, n_labels=3, n_epochs=5)
        for got, expected in zip(data.compressed(), rows.compressed()):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
        assert len(data) == reps.sum()
        np.testing.assert_array_equal(data.epoch_counts,
                                      np.bincount(epochs, reps, minlength=5))
        for name in ("epochs", "nodes", "labels"):
            np.testing.assert_array_equal(getattr(data, name), getattr(rows, name))

    def test_stores_only_the_read_only_triplets_and_epoch_counts(self):
        data = Dataset([1, 0, 1], [0, 1, 0], [1, 1, 1], n_items=2, n_labels=2,
                       n_epochs=3, weights=[2, 1, 4])
        assert set(vars(data)) == {"_triplets", "epoch_counts", "n_items", "n_labels",
                                   "n_epochs"}
        assert data.compressed() is data.compressed()
        epochs, nodes, labels, weights = data.compressed()
        np.testing.assert_array_equal(weights, [1, 6])
        np.testing.assert_array_equal(data.nodes, [0, 1, 1, 1, 1, 1, 1])
        np.testing.assert_array_equal(data.epoch_counts, [0, 7, 0])
        for array in (*data.compressed(), data.epoch_counts, data.epochs, data.nodes,
                      data.labels):
            assert not array.flags.writeable

    def test_weights_are_checked(self):
        def make(weights):
            return Dataset([0, 1], [0, 0], [0, 0], n_items=2, n_labels=1, n_epochs=1,
                           weights=weights)

        with pytest.raises(ContractError, match="weights must be integers"):
            make([1.0, 2.0])
        with pytest.raises(ContractError, match="weights must be >= 1, got 0"):
            make([1, 0])
        with pytest.raises(ContractError, match="one entry per row"):
            make([1, 2, 3])

    @pytest.mark.parametrize("weights", [[2**62, 2**62], [2**63 - 1, 1],
                                         [2**63 - 1, 2**63 - 1, 2**63 - 1]])
    def test_total_weight_past_int64_is_rejected(self, weights):
        """Checked exactly: 2**62 + 2**62 and 2**63 - 1 are the same float."""
        n = len(weights)
        with pytest.raises(ContractError, match="total weight"):
            Dataset([0] * n, [0] * n, [0] * n, n_items=1, n_labels=1, n_epochs=1,
                    weights=np.array(weights, dtype=np.int64))

    def test_total_weight_of_int64_max_is_counted_exactly(self):
        data = Dataset([0, 0, 0], [0, 1, 0], [0, 0, 0], n_items=1, n_labels=2,
                       n_epochs=1, weights=[2**62, 2**62 - 2, 1])
        assert len(data) == 2**63 - 1
        np.testing.assert_array_equal(data.epoch_counts, [2**63 - 1])
        np.testing.assert_array_equal(data.compressed()[3], [2**62 + 1, 2**62 - 2])

    def test_mismatched_columns_and_bad_extents(self):
        with pytest.raises(ContractError, match="equal length"):
            Dataset([0, 1], [0], [0, 0], n_items=2, n_labels=1, n_epochs=1)
        with pytest.raises(ContractError, match="n_items must be >= 1"):
            Dataset([], [], [], n_items=0, n_labels=1, n_epochs=1)

    @pytest.mark.parametrize("n_items", ["3", None])
    def test_extents_that_are_not_integers_are_contract_errors(self, n_items):
        with pytest.raises(ContractError, match="n_items must be an integer"):
            Dataset([], [], [], n_items=n_items, n_labels=1, n_epochs=1)


def _fitted_report():
    data = random_dataset(2, 4, 3, 60, seed=63)
    config = FitConfig(n_clusters=2, prior=PriorConfig(beta_theta=2.5, beta_p=0.5),
                       max_iterations=6, restarts=1, seed=11)
    return fit(data, config)


class TestModelArchive:
    def test_round_trip_is_bit_exact(self, tmp_path):
        report = _fitted_report()
        archive = ModelArchive.from_fit(
            report, node_keys=["u1", "u2", "u3", "u4"],
            label_keys=["x", "y", "z"], t_min=1000.0, slice_width=3600.0,
        )
        path = tmp_path / "model.npz"
        archive.save(path)
        loaded = ModelArchive.load(path)
        assert np.array_equal(loaded.theta.values, archive.theta.values)
        assert np.array_equal(loaded.p.values, archive.p.values)
        assert np.array_equal(loaded.trace_tail, archive.trace_tail)
        assert loaded.prior == archive.prior
        assert loaded.p_mode == archive.p_mode == "dynamic"
        assert loaded.seed == 11
        assert loaded.node_keys == ["u1", "u2", "u3", "u4"]
        assert loaded.label_keys == ["x", "y", "z"]
        assert loaded.t_min == 1000.0
        assert loaded.slice_width == 3600.0
        assert loaded.converged == report.converged

    @pytest.mark.parametrize("beta", [np.float32(1.5), np.float16(0.5), np.int64(2), 2])
    def test_numpy_scalar_betas_save_and_load(self, tmp_path, beta):
        # the betas are stored as Python floats, which the metadata JSON can hold
        data = random_dataset(2, 4, 3, 60, seed=63)
        config = FitConfig(n_clusters=2, prior=PriorConfig(beta_theta=beta, beta_p=beta),
                           max_iterations=3, restarts=1)
        archive = ModelArchive.from_fit(fit(data, config))
        archive.save(tmp_path / "model.npz")
        loaded = ModelArchive.load(tmp_path / "model.npz")
        assert loaded.prior == archive.prior == PriorConfig(float(beta), float(beta))
        assert type(loaded.prior.beta_theta) is type(loaded.prior.beta_p) is float

    @pytest.mark.parametrize("prior,text", [
        (PriorConfig(), '"beta_theta": 0.0, "beta_p": 0.0'),
        (PriorConfig(np.float64(2.5), np.float64(0.1)), '"beta_theta": 2.5, "beta_p": 0.1'),
    ])
    def test_prior_metadata_is_unchanged(self, tmp_path, prior, text):
        # the bytes that a default prior, or float64 betas, always wrote
        meta, _ = self._saved_meta(tmp_path, ModelArchive.from_fit(
            fit(random_dataset(2, 4, 3, 60, seed=63),
                FitConfig(n_clusters=2, prior=prior, max_iterations=3, restarts=1))))
        assert json.dumps(meta["prior"]) == (
            "{" + text + ', "kernel_exponent": 1, "window": null}')

    def test_default_vocabularies_are_stringified_ids(self):
        archive = ModelArchive.from_fit(_fitted_report())
        assert archive.node_keys == ["0", "1", "2", "3"]
        assert archive.label_keys == ["0", "1", "2"]

    def test_node_lookup(self):
        archive = ModelArchive.from_fit(_fitted_report())
        assert archive.node_id("2") == 2
        assert archive.node_id(2) == 2  # non-string keys are stringified
        with pytest.raises(ContractError, match="unknown node key"):
            archive.node_id("ghost")

    def test_trace_tail_is_truncated(self):
        report = _fitted_report()
        fake = types.SimpleNamespace(
            theta=report.theta, p=report.p, config=report.config,
            trace=[float(v) for v in range(120)], converged=False,
        )
        archive = ModelArchive.from_fit(fake)
        assert archive.trace_tail.size == TRACE_TAIL
        np.testing.assert_array_equal(archive.trace_tail,
                                      np.arange(70.0, 120.0))
        assert archive.converged is False

    def test_foreign_npz_is_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, values=np.ones(3))
        with pytest.raises(ContractError, match="not a model archive"):
            ModelArchive.load(path)

    def test_future_format_version_is_rejected(self, tmp_path):
        import json
        archive = ModelArchive.from_fit(_fitted_report())
        path = tmp_path / "model.npz"
        archive.save(path)
        with np.load(path, allow_pickle=False) as payload:
            meta = json.loads(str(payload["meta"]))
            arrays = {k: payload[k] for k in payload.files if k != "meta"}
        meta["format_version"] = 99
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(ContractError, match="unsupported archive format"):
            ModelArchive.load(path)

    @pytest.fixture()
    def fresh_build(self):
        archive_module._build.cache_clear()
        yield
        archive_module._build.cache_clear()

    @staticmethod
    def _saved_meta(tmp_path, archive):
        path = tmp_path / "model.npz"
        archive.save(path)
        with np.load(path, allow_pickle=False) as payload:
            return json.loads(str(payload["meta"])), path

    def test_records_the_numpy_build_and_the_blas_threads(self, tmp_path, monkeypatch,
                                                          fresh_build):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        config = {"Build Dependencies": {"blas": {"name": "someblas", "version": "1.2"}}}
        monkeypatch.setattr(archive_module.np, "show_config",
                            lambda mode: config if mode == "dicts" else None)
        meta, _ = self._saved_meta(tmp_path, ModelArchive.from_fit(_fitted_report()))
        assert meta["build"] == {
            "numpy": np.__version__,
            "blas": "someblas 1.2",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": "3",
        }

    def test_the_build_is_read_once_per_process(self, tmp_path, monkeypatch, fresh_build):
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        first, _ = self._saved_meta(tmp_path, ModelArchive.from_fit(_fitted_report()))
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        again, _ = self._saved_meta(tmp_path, ModelArchive.from_fit(_fitted_report()))
        assert first["build"]["OMP_NUM_THREADS"] == again["build"]["OMP_NUM_THREADS"] == "2"
        if np.lib.NumpyVersion(np.__version__) >= "1.25.0":  # show_config takes a mode
            assert isinstance(first["build"]["blas"], str)

    def test_numpy_without_config_modes_records_no_blas(self, tmp_path, monkeypatch,
                                                        fresh_build):
        # numpy 1.24's show_config takes no arguments
        monkeypatch.setattr(archive_module.np, "show_config", lambda: None)
        meta, _ = self._saved_meta(tmp_path, ModelArchive.from_fit(_fitted_report()))
        assert meta["build"]["blas"] is None
        assert meta["build"]["numpy"] == np.__version__

    def test_archives_without_the_build_still_load(self, tmp_path):
        archive = ModelArchive.from_fit(_fitted_report())
        meta, path = self._saved_meta(tmp_path, archive)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {k: payload[k] for k in payload.files if k != "meta"}
        del meta["build"]
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)
        loaded = ModelArchive.load(path)
        assert np.array_equal(loaded.theta.values, archive.theta.values)
        assert np.array_equal(loaded.p.values, archive.p.values)
