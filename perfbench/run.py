"""End-to-end and per-layer benchmark of the ``sdsbm`` command.

Run from the repository root:

    python3 perfbench/run.py --workload readme-fit --seed 0 --seconds 30 --trace 0

One run sets up the workload's inputs from ``--seed`` (three times; the median
is ``setup_s``), then calls ``sdsbm.cli.main`` in this process again and again
until ``--seconds`` have passed, and finally checks every call's outputs.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics derived from the
traced ones (see ``tracing.py``).  The last line of standard output is one
JSON object; the full record (environment, inputs, every call, spans) goes to
``.perfbench/results/``.  See ``README.md`` for what each workload and metric
is for.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: BLAS/OpenMP threads; one thread was both faster and steadier than two here
BLAS_THREADS = 1
#: set-ups per run; ``setup_s`` is the import time plus their median
SETUP_REPEATS = 3



@dataclass
class Op:
    """One call of the command and what the checks found."""

    index: int
    traced: bool
    wall: float
    code: int
    out_dir: Path
    problems: list = field(default_factory=list)
    quality: float | None = None


def run_command(main, argv):
    """Exit code of one in-process ``sdsbm`` call; its standard output is dropped."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        return 1


def git_revision(root):
    """Commit of a git checkout at ``root``, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_revision": git_revision(root),
    }


def set_up(workload, seed, work_dir, main):
    """Make the inputs ``SETUP_REPEATS`` times; returns (inputs, seconds, problems).

    One set-up writes the workload's inputs into a fresh directory and warms
    the command up on a tiny README bench with two iterations.
    """
    import workloads as wl

    seconds, digests, problems = [], set(), []
    previous = None
    for repeat in range(SETUP_REPEATS):
        directory = work_dir / f"inputs{repeat}"
        warm_dir = directory / "warm"
        warm_dir.mkdir(parents=True)
        started = time.perf_counter()
        inputs = workload.make_inputs(directory, seed)
        tiny = wl.readme_bench(warm_dir, seed, n_epochs=5, n_items=5, obs_per_epoch=4)
        code = run_command(main, workload.argv(tiny, warm_dir) + ["--max-iter", "2", "--restarts", "1"])
        seconds.append(time.perf_counter() - started)
        if code != 0:
            problems.append(f"warm-up exited with {code}")
        digests.add(inputs.digest)
        if previous is not None:
            shutil.rmtree(previous)
        previous = directory
    if len(digests) != 1:
        problems.append("one seed gave different inputs in different set-ups")
    return inputs, seconds, problems


def measure(workload, seed, seconds, trace, work_dir, after_op=None):
    """Set up, run the command for ``seconds``, check every call; returns the record.

    ``after_op(out_dir)`` runs after each call, outside the timing (the smoke
    test uses it to corrupt outputs).
    """
    import workloads as wl
    from sdsbm.cli import main
    from tracing import Tracer, layer_metrics

    inputs, setup_seconds, setup_problems = set_up(workload, seed, work_dir, main)

    tracer = Tracer()
    ops = []
    started = time.perf_counter()
    while len(ops) < (2 if trace else 1) or time.perf_counter() - started < seconds:
        index = len(ops)
        traced = trace and index % 2 == 1
        out_dir = work_dir / f"op{index}"
        out_dir.mkdir()
        argv = workload.argv(inputs, out_dir)
        if traced:
            tracer.run = index
            with tracer:
                begin = time.perf_counter()
                code = tracer.call("cli", run_command, main, argv)
                wall = time.perf_counter() - begin
        else:
            begin = time.perf_counter()
            code = run_command(main, argv)
            wall = time.perf_counter() - begin
        ops.append(Op(index, traced, wall, code, out_dir))
        if after_op is not None:
            after_op(out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    dataset = wl.ingested(inputs)
    if len(dataset) != inputs.observations:
        setup_problems.append(
            f"ingested {len(dataset)} observations, generated {inputs.observations}")
    unique_triplets = len(dataset.compressed()[0])
    reference = None
    for op in ops:
        op.problems = list(setup_problems)
        if op.code != 0:
            op.problems.append(f"exit code {op.code}")
        if workload.kind == "fit":
            found, op.quality = wl.check_fit(op.out_dir, dataset)
        else:
            found, op.quality = wl.check_cv(op.out_dir)
        op.problems += found
        digest = wl.output_digest(op.out_dir)
        if reference is None:
            reference = digest
        elif digest != reference:
            op.problems.append("outputs differ from the first call's" + (" (traced)" if op.traced else ""))

    def median_wall(traced):
        walls = [op.wall for op in ops if op.traced == traced and not op.problems]
        return statistics.median(walls or [op.wall for op in ops if op.traced == traced])

    qualities = [op.quality for op in ops if not op.problems]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": {"lines": inputs.lines, "observations": inputs.observations,
                   "unique_triplets": unique_triplets, "sha256": inputs.digest},
        "setup_seconds": setup_seconds,
        "ops": [{"index": op.index, "traced": op.traced, "wall_s": op.wall, "code": op.code,
                 "quality_loss": op.quality, "problems": op.problems} for op in ops],
        "end_to_end": {
            "wall_s": median_wall(False),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_seconds),
            "quality_loss": statistics.median(qualities) if qualities else 0.0,
        },
    }
    if trace:
        per_op = [
            layer_metrics(tracer.spans, op.index, lines=inputs.lines,
                          archive_bytes=archive_bytes(op.out_dir))
            for op in ops if op.traced
        ]
        layers = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
        layers["data.unique_triplets"] = unique_triplets
        layers["data.observations"] = len(dataset)
        layers["trace.overhead_s"] = median_wall(True) - median_wall(False)
        wall = median_wall(True)
        evaluation = sum(layers[key] for key in (
            "evaluation.split.s", "evaluation.score_test_set.s",
            "evaluation.metrics.s", "evaluation.cross_validate.self_s"))
        record["per_layer"] = layers
        record["traced_wall_s"] = wall
        record["shares_of_traced_wall"] = {
            "ingest": layers["ingest.s"] / wall,
            "ingest+compressed": (layers["ingest.s"] + layers["data.compressed.s"]) / wall,
            "em.fit": layers["em.fit.s"] / wall,
            "model.log_posterior": layers["model.log_posterior.s"] / wall,
            "evaluation": evaluation / wall,
        }
        record["spans"] = tracer.records()
    return record


def archive_bytes(out_dir):
    path = out_dir / "model.npz"
    return path.stat().st_size if path.is_file() else 0


def report(record, env, benchmark):
    """Print the human-readable summary, then the one-line JSON result.

    ``benchmark`` is the parsed ``BENCHMARK.json``; it names the metrics and units.
    """
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    trace = record["trace"]
    ops = record["ops"]
    failed = sum(1 for op in ops if op["problems"])
    untraced = sum(1 for op in ops if not op["traced"])
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print("environment " + json.dumps(env))
    print("inputs " + json.dumps(record["inputs"]))
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED op {op['index']}: {problem}")
    for name, unit in end_to_end.items():
        note = f" (median of {untraced})" if name == "wall_s" else ""
        print(f"{name} = {record['end_to_end'][name]:.6g} {unit}{note}")
    print(f"failed_share = {failed / len(ops):.6g} ({failed} of {len(ops)} operations)")
    if trace:
        for name, unit in per_layer.items():
            print(f"{name} = {record['per_layer'][name]:.6g} {unit}")
        print(f"traced wall_s = {record['traced_wall_s']:.6g} s")
        for name, share in record["shares_of_traced_wall"].items():
            print(f"share of traced wall: {name} = {share:.3f}")
    chosen = record["per_layer"] if trace else record["end_to_end"]
    units = per_layer if trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)
    root = Path.cwd()
    package = root / "src" / "sdsbm"
    if not (package / "__init__.py").is_file():
        print(f"error: no sdsbm package at {package}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    started = time.perf_counter()
    import workloads as wl
    import_s = time.perf_counter() - started
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in wl.workloads():
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.workloads())}")

    env = environment(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = root / ".perfbench" / f"{tag}-{os.getpid()}"
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(wl.workloads()[args.workload], args.seed, args.seconds,
                         bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["end_to_end"]["setup_s"] += import_s
    record["import_s"] = import_s
    record["environment"] = env
    spans = record.pop("spans", None)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with open(results / f"{tag}.spans.jsonl", "w") as handle:
            handle.writelines(json.dumps(span) + "\n" for span in spans)
    report(record, env, benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
