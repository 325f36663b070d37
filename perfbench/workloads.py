"""Seeded inputs, command lines and output checks of the benchmark workloads.

Each workload runs one ``sdsbm`` subcommand on files generated here from the
workload seed.  The planted parameters are fixed (the README's sinusoidal
pattern, and the broken-line model of acceptance criterion 8); the seed draws
the sampled events, so every seed is a fresh sample of the same problem and
the quality figures stay comparable across seeds.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sdsbm import (
    DEFAULT_BETA_GRID,
    BlockTensor,
    GroundTruth,
    ModelArchive,
    PatternSpec,
    SdsbmError,
    block_matrix,
    generate_memberships,
    ingest,
    log_posterior,
    sample_dataset,
)

CV_FAMILIES = ("sdsbm", "nc", "static")
#: one fold keeps a cv run near 11 s on a 2-core machine; five take about 55 s
CV_FOLDS = 1
#: lines per write when generating the event log, so set-up memory stays well
#: below the memory the command itself needs
WRITE_CHUNK = 100_000


@dataclass(frozen=True)
class Inputs:
    """Files a workload hands to the command, and their sizes."""

    events: Path
    truth: Path | None
    lines: int
    observations: int
    digest: str


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to make its inputs, run it and check it.

    ``make_inputs(directory, seed)`` writes the input files; ``argv(inputs,
    out_dir)`` is the ``sdsbm`` command line; ``kind`` selects the output
    checks ("fit" writes a model archive, "cv" a metrics CSV and JSON).
    """

    name: str
    kind: str
    make_inputs: Callable[[Path, int], Inputs]
    argv: Callable[[Inputs, Path], list]


def _file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def readme_bench(directory, seed, n_epochs=100, n_items=50, obs_per_epoch=10):
    """The README synth bench: sinusoidal pattern (seed 0), noise 0.05.

    Written like ``sdsbm synth`` writes it: one weighted CSV line per unique
    (node, label, epoch) triplet, plus ``truth.npz`` for ``cv --truth``.
    With ``seed=0`` this is byte for byte ``sdsbm synth --seed 0``.
    """
    pattern = PatternSpec(kind="sinusoidal", n_epochs=n_epochs, n_items=n_items, seed=0)
    theta = generate_memberships(pattern)
    block = block_matrix(0.05)
    data = sample_dataset(GroundTruth(theta, block, pattern), obs_per_epoch, seed=seed)
    events = directory / "events.csv"
    epochs, nodes, labels, weights = data.compressed()
    with open(events, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "label", "timestamp", "weight"])
        writer.writerows(zip(nodes, labels, epochs, weights))
    meta = {
        "pattern": {
            "kind": pattern.kind, "n_epochs": pattern.n_epochs,
            "n_items": pattern.n_items, "n_clusters": pattern.n_clusters,
            "cycles": pattern.cycles, "seed": pattern.seed,
        },
        "noise": 0.05,
        "sample_seed": seed,
    }
    truth = directory / "truth.npz"
    np.savez(truth, theta=theta.values, p=block.values, meta=np.array(json.dumps(meta)))
    return Inputs(events, truth, len(weights), len(data), _file_digest(events))


def event_log(directory, seed, n_epochs=50, n_items=500, n_labels=20, obs_per_epoch=40):
    """Unweighted raw event log drawn from the criterion-8 planted model.

    Broken-line memberships (pattern seed 3) and 20-label block rows
    (``default_rng(12)``), K=3.  One line per event, ``u<node>,g<label>,<t>``
    with ``t = epoch + U(0, 1)``, sorted by time; no header.  At the default
    sizes that is exactly 1,000,000 lines.
    """
    pattern = PatternSpec(kind="broken_line", n_epochs=n_epochs, n_items=n_items,
                          n_clusters=3, seed=3)
    rows = np.random.default_rng(12).dirichlet(np.ones(n_labels), size=3)
    truth = GroundTruth(generate_memberships(pattern), BlockTensor(rows[None]), pattern)
    data = sample_dataset(truth, obs_per_epoch, seed=seed)
    stamps = data.epochs + np.random.default_rng([seed, 1]).random(len(data))
    order = np.argsort(stamps, kind="stable")
    nodes, labels, stamps = data.nodes[order], data.labels[order], stamps[order]
    events = directory / "events.csv"
    with open(events, "w") as handle:
        for start in range(0, len(stamps), WRITE_CHUNK):
            chunk = slice(start, start + WRITE_CHUNK)
            handle.write("".join(
                f"u{i},g{o},{t:.6f}\n"
                for i, o, t in zip(nodes[chunk].tolist(), labels[chunk].tolist(),
                                   stamps[chunk].tolist())
            ))
    return Inputs(events, None, len(stamps), len(stamps), _file_digest(events))


def _readme_fit_argv(inputs, out_dir):
    return ["fit", "--data", str(inputs.events), "--slice", "1", "--clusters", "3",
            "--beta-theta", "30", "--beta-p", "30", "--out", str(out_dir / "model.npz")]


def _ingest_fit_argv(inputs, out_dir):
    return ["fit", "--data", str(inputs.events), "--slice", "1", "--clusters", "3",
            "--beta-theta", "1", "--beta-p", "1", "--restarts", "1",
            "--max-iter", "40", "--tol", "1e-15", "--out", str(out_dir / "model.npz")]


def _readme_cv_argv(inputs, out_dir):
    return ["cv", "--data", str(inputs.events), "--slice", "1", "--clusters", "3",
            "--truth", str(inputs.truth), "--folds", str(CV_FOLDS),
            "--models", ",".join(CV_FAMILIES),
            "--beta-grid", ",".join(str(b) for b in DEFAULT_BETA_GRID),
            "--out", str(out_dir / "cv.csv"), "--json-out", str(out_dir / "cv.json")]


def workloads(**sizes):
    """The benchmark workloads by name; ``sizes`` shrink the inputs (smoke test).

    Accepted keys: ``readme`` and ``log``, each a dict of keyword arguments
    for ``readme_bench`` and ``event_log``.
    """
    readme = sizes.get("readme", {})
    log = sizes.get("log", {})

    def make_readme(directory, seed):
        return readme_bench(directory, seed, **readme)

    def make_log(directory, seed):
        return event_log(directory, seed, **log)

    return {
        "readme-fit": Workload("readme-fit", "fit", make_readme, _readme_fit_argv),
        "ingest-fit-1m": Workload("ingest-fit-1m", "fit", make_log, _ingest_fit_argv),
        "readme-cv": Workload("readme-cv", "cv", make_readme, _readme_cv_argv),
    }


def ingested(inputs):
    """The dataset the command sees, read the way ``--slice 1`` reads it."""
    return ingest(inputs.events, slice_width=1.0).dataset


def output_digest(out_dir):
    """Content digest of every output file; npz members are hashed array by array.

    Zip members carry a write timestamp, so archives are compared by their
    arrays (dtype, shape and raw bytes), everything else byte for byte.
    """
    digests = {}
    for path in sorted(out_dir.iterdir()):
        digest = hashlib.sha256()
        if path.suffix == ".npz":
            try:
                with np.load(path, allow_pickle=False) as payload:
                    for key in sorted(payload.files):
                        array = payload[key]
                        digest.update(f"{key}:{array.dtype.str}:{array.shape}".encode())
                        digest.update(np.ascontiguousarray(array).tobytes())
            except (OSError, EOFError, ValueError, zipfile.BadZipFile):
                digest.update(path.read_bytes())
        else:
            digest.update(path.read_bytes())
        digests[path.name] = digest.hexdigest()
    return digests


def check_fit(out_dir, dataset):
    """Problems with a fit's archive, and its negative log-likelihood per observation.

    The archive must load (which re-validates both row-stochastic tensors),
    match the data extents, and give a finite log-likelihood on the data.
    """
    try:
        archive = ModelArchive.load(out_dir / "model.npz")
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, SdsbmError) as err:
        return [f"archive does not load: {type(err).__name__}: {err}"], None
    theta, p = archive.theta.values, archive.p.values
    if theta.shape[:2] != (dataset.n_epochs, dataset.n_items) or p.shape[2] != dataset.n_labels:
        return [f"archive extents {theta.shape}/{p.shape} do not match {dataset!r}"], None
    loglik = log_posterior(archive.theta, archive.p, dataset, prior=None)
    nll = -loglik / len(dataset)
    if not math.isfinite(nll):
        return [f"log-likelihood per observation is {-nll}"], None
    return [], nll


def check_cv(out_dir, n_folds=CV_FOLDS):
    """Problems with a cv run's CSV and JSON, and 1 - mean test ROC-AUC of sdsbm.

    The CSV must hold one row per (family, fold) with finite roc/ap/nce/rmse.
    """
    problems = []
    try:
        with open(out_dir / "cv.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        with open(out_dir / "cv.json") as handle:
            auc = float(json.load(handle)["models"]["sdsbm"]["aggregates"]["roc"]["mean"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"cv output unreadable: {type(err).__name__}: {err}"], None
    keys = sorted((row.get("model"), row.get("fold")) for row in rows)
    expected = sorted((family, str(fold)) for family in CV_FAMILIES for fold in range(n_folds))
    if keys != expected:
        problems.append(f"cv rows {keys} != one per (family, fold) {expected}")
    for row in rows:
        for column in ("roc", "ap", "nce", "rmse"):
            try:
                finite = math.isfinite(float(row.get(column) or "nan"))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"{row.get('model')} fold {row.get('fold')}: {column}={row.get(column)!r}")
    if not 0.0 < auc <= 1.0:
        problems.append(f"sdsbm mean test AUC {auc} outside (0, 1]")
    return problems, (None if problems else 1.0 - auc)
