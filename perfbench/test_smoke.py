"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its unit,
and that broken outputs are counted as failed operations.
"""
import csv
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from sdsbm.cli import main as sdsbm_main  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.workloads(
    readme={"n_epochs": 6, "n_items": 6, "obs_per_epoch": 5},
    log={"n_epochs": 4, "n_items": 12, "n_labels": 5, "obs_per_epoch": 5},
)


def result_line(record, capsys):
    run.report(record, env={}, benchmark=BENCHMARK)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert list(TINY) == [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_named_metric_is_emitted_with_its_unit(name, trace, tmp_path, capsys):
    record = run.measure(TINY[name], seed=1, seconds=0.0, trace=trace, work_dir=tmp_path)
    result = result_line(record, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        key: value["unit"] for key, value in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def drop_last_row(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows[:-1])


@pytest.mark.parametrize("name, corrupt", [
    ("readme-fit", lambda out: truncate(out / "model.npz")),
    ("ingest-fit-1m", lambda out: (out / "model.npz").unlink()),
    ("readme-cv", lambda out: drop_last_row(out / "cv.csv")),
])
def test_corrupted_output_is_a_failed_operation(name, corrupt, tmp_path, capsys):
    record = run.measure(TINY[name], seed=1, seconds=0.0, trace=False,
                         work_dir=tmp_path, after_op=corrupt)
    result = result_line(record, capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_failing_command_is_a_failed_operation(tmp_path, capsys):
    workload = TINY["readme-fit"]
    broken = dataclasses.replace(
        workload, argv=lambda inputs, out: workload.argv(inputs, out) + ["--clusters", "0"])
    record = run.measure(broken, seed=1, seconds=0.0, trace=True, work_dir=tmp_path)
    assert result_line(record, capsys)["failed"] == 2
    assert all(any("exit code 3" in p for p in op["problems"]) for op in record["ops"])


def test_readme_bench_is_sdsbm_synth(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert sdsbm_main(["synth", "--epochs", "6", "--items", "6", "--obs-per-epoch", "5",
                       "--noise", "0.05", "--seed", "0", "--out", str(synth_dir)]) == 0
    inputs = workloads.readme_bench(tmp_path, 0, n_epochs=6, n_items=6, obs_per_epoch=5)
    assert inputs.events.read_bytes() == (synth_dir / "events.csv").read_bytes()


def test_event_log_has_one_line_per_event(tmp_path):
    inputs = workloads.event_log(tmp_path, 5, n_epochs=4, n_items=12, n_labels=5, obs_per_epoch=5)
    assert inputs.lines == inputs.observations == 4 * 12 * 5
    assert len(inputs.events.read_text().splitlines()) == inputs.lines
    assert workloads.event_log(tmp_path, 5, n_epochs=4, n_items=12, n_labels=5,
                               obs_per_epoch=5).digest == inputs.digest
