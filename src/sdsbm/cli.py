"""Command line: generate synthetic data, fit, cross-validate, predict, export flows.

Every subcommand accepts ``--config FILE`` with ``key = value`` lines mirroring
its flags; explicit flags win.  Exit codes: 0 success, 2 usage, 3 contract or
input errors, 4 numeric failures.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .archive import ModelArchive, read_npz
from .em import FitConfig, fit
from .errors import ContractError, DegenerateParameterError, IngestError
from .evaluation import (
    DEFAULT_BETA_GRID,
    FAMILIES,
    SplitPlan,
    cross_validate,
    membership_flows,
    write_results,
)
from .ingest import ingest
from .model import BlockTensor, MembershipTensor, _label_rows
from .prior import PriorConfig
from .synthetic import (
    GroundTruth,
    PatternSpec,
    block_matrix,
    even_schedule,
    generate_memberships,
    sample_dataset,
)

_log = logging.getLogger(__name__)


def load_config(path):
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    pairs = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ContractError(
                    f"{path}:{line_number}: expected 'key = value', got {line!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ContractError(f"{path}:{line_number}: empty key or value")
            pairs.append((key, value))
    return pairs


def _apply_config(argv):
    """Expand --config FILE or --config=FILE into flags placed before the user's own flags."""
    for position, token in enumerate(argv):
        flag, equals, path = token.partition("=")
        if flag == "--config" and (equals or position + 1 < len(argv)):
            path = path if equals else argv[position + 1]
            break
    else:
        return argv  # no config, or argparse will report the missing value
    injected = []
    for key, value in load_config(path):
        injected.extend([f"--{key.replace('_', '-')}", value])
    for anchor, token in enumerate(argv):
        if not token.startswith("-"):
            return argv[:anchor + 1] + injected + argv[anchor + 1:]
    return argv


def _comma_list(convert):
    """argparse type: a comma-separated list of one or more items, each converted."""
    def parse(text):
        items = [item.strip() for item in text.split(",")]
        if not all(items):
            raise argparse.ArgumentTypeError(f"empty item in the list {text!r}")
        try:
            return tuple(convert(item) for item in items)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad item in the list {text!r}") from None
    return parse


def _read_events(args):
    if args.slices is not None:
        return ingest(args.data, n_slices=args.slices, delimiter=args.delimiter)
    width = 1.0 if args.slice is None else args.slice
    return ingest(args.data, slice_width=width, delimiter=args.delimiter)


def _key_ids(keys, kind, extent, source):
    """Integer event-file keys as indices into one axis, of length ``extent``, of a file.

    Distinct keys naming one index, such as "1" and "01", are refused.
    """
    try:
        ids = [int(k) for k in keys]
    except ValueError:
        raise ContractError(
            f"a {source} needs integer {kind} keys in the event file"
        ) from None
    seen = {}
    for key, index in zip(keys, ids):
        if not 0 <= index < extent:
            raise ContractError(
                f"event file uses {kind} id {index}, the {source} has ids 0 to {extent - 1}"
            )
        if seen.setdefault(index, key) != key:
            raise ContractError(
                f"event file {kind} keys {seen[index]!r} and {key!r} are both id {index}"
            )
    return ids


def _load_block_file(path, label_keys):
    """Block tensor from an npz 'p' array, columns reordered to the ingested label ids."""
    arrays = read_npz(path, ("p",), "block file")
    try:
        block = BlockTensor(arrays["p"]).values
    except (TypeError, ValueError) as err:
        raise ContractError(f"{path} is not a block file: {type(err).__name__}: {err}") from None
    columns = _key_ids(label_keys, "label", block.shape[2], "block file")
    return BlockTensor(block[:, :, columns])


def _load_truth(path, node_keys):
    """Planted parameters from a synth run, rows reordered to the ingested node ids."""
    arrays = read_npz(path, ("theta", "p", "meta"), "truth file")
    try:
        theta = MembershipTensor(arrays["theta"]).values
        block = BlockTensor(arrays["p"])
        pattern = PatternSpec(**json.loads(str(arrays["meta"]))["pattern"])
    except (KeyError, TypeError, ValueError) as err:
        raise ContractError(f"{path} is not a truth file: {type(err).__name__}: {err}") from None
    rows = _key_ids(node_keys, "node", theta.shape[1], "truth file")
    return GroundTruth(theta=MembershipTensor(theta[:, rows, :]), p=block, pattern=pattern)


def _fit_config(args, label_keys, betas=(0.0, 0.0)):
    prior = PriorConfig(
        beta_theta=betas[0],
        beta_p=betas[1],
        kernel_exponent=args.kernel_exponent,
        window=args.window,
    )
    fixed = None
    if args.fixed_p is not None:
        fixed = _load_block_file(args.fixed_p, label_keys)
    return FitConfig(
        n_clusters=args.clusters,
        prior=prior,
        p_mode=args.p_mode or ("dynamic" if fixed is None else "fixed"),
        fixed_p=fixed,
        max_iterations=args.max_iter,
        tol=args.tol,
        restarts=args.restarts,
        seed=args.seed,
    )


def _cmd_synth(args):
    pattern = PatternSpec(
        kind=args.pattern,
        n_epochs=args.epochs,
        n_items=args.items,
        cycles=args.cycles,
        seed=args.seed,
    )
    theta = generate_memberships(pattern)
    block = block_matrix(args.noise)
    truth = GroundTruth(theta, block, pattern)
    if args.obs_total is not None:
        schedule = even_schedule(args.obs_total, args.epochs)
    else:
        schedule = np.full(args.epochs, args.obs_per_epoch, dtype=np.int64)
    data = sample_dataset(truth, schedule, seed=args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    events = out_dir / "events.csv"
    epochs, nodes, labels, weights = data.compressed()
    with open(events, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "label", "timestamp", "weight"])
        writer.writerows(zip(nodes, labels, epochs, weights))
    meta = {"pattern": asdict(pattern), "noise": args.noise, "sample_seed": args.seed}
    np.savez(
        out_dir / "truth.npz",
        theta=theta.values,
        p=block.values,
        meta=np.array(json.dumps(meta)),
    )
    print(
        f"wrote {events} ({len(data)} observations, I={data.n_items} "
        f"O={data.n_labels} T={data.n_epochs}) and {out_dir / 'truth.npz'}"
    )
    return 0


def _cmd_fit(args):
    result = _read_events(args)
    config = _fit_config(args, result.label_keys, betas=(args.beta_theta, args.beta_p))
    report = fit(result.dataset, config)
    archive = ModelArchive.from_fit(
        report,
        node_keys=result.node_keys,
        label_keys=result.label_keys,
        t_min=result.t_min,
        slice_width=result.slice_width,
    )
    archive.save(args.out)
    print(
        f"objective={report.objective:.6f} iterations={report.n_iterations} "
        f"sweeps={report.diagnostics['sweeps_total']} converged={report.converged} "
        f"restart={report.best_restart} -> {args.out}"
    )
    return 0


def _cmd_cv(args):
    result = _read_events(args)
    template = _fit_config(args, result.label_keys)
    truth = None
    if args.truth is not None:
        truth = _load_truth(args.truth, result.node_keys)
    plan = SplitPlan(
        n_folds=args.folds,
        train_fraction=args.train_fraction,
        validation_fraction=args.val_fraction,
        seed=args.split_seed,
    )
    results = cross_validate(result.dataset, args.models, args.beta_grid, plan,
                             template=template, truth=truth)
    dataset_name = Path(args.data).stem
    write_results(results, dataset_name, args.out, json_path=args.json_out)
    for outcome in results:
        parts = [
            f"{name}={outcome.mean(name):.4f}+/-{outcome.std_error(name):.4f}"
            for name in sorted(outcome.folds[0].metrics)
        ]
        betas = ",".join(f"{o.beta:g}" for o in outcome.folds)
        print(f"{outcome.family}: {' '.join(parts)} (beta per fold: {betas})")
    print(f"wrote {args.out}")
    return 0


def _cmd_predict(args):
    archive = ModelArchive.load(args.model)
    node = archive.node_id(args.node)
    theta = archive.theta.values
    if not 0 <= args.epoch < theta.shape[0]:
        raise ContractError(
            f"epoch {args.epoch} out of range [0, {theta.shape[0]})"
        )
    rows = _label_rows(theta, archive.p.values, np.array([args.epoch]), np.array([node]))
    for key, probability in zip(archive.label_keys, rows[0]):
        print(f"{key}\t{probability:.10g}")
    return 0


def _cmd_export_flows(args):
    archive = ModelArchive.load(args.model)
    count = 0
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["epoch_from", "epoch_to", "node", "cluster_from", "cluster_to", "mass"]
        )
        for t0, t1, node, k_from, k_to, mass in membership_flows(archive.theta, archive.p):
            writer.writerow([t0, t1, archive.node_keys[node], k_from, k_to, f"{mass:.12g}"])
            count += 1
    print(f"wrote {count} flow rows to {args.out}")
    return 0


def _add_config_option(parser):
    parser.add_argument(
        "--config", default=None,
        help="file of 'key = value' lines mirroring the flags; flags override",
    )


def _add_data_options(parser):
    parser.add_argument("--data", required=True, help="event file: node,label,timestamp[,weight]")
    slicing = parser.add_mutually_exclusive_group()
    slicing.add_argument("--slice", type=float, default=None,
                         help="epoch width in timestamp units (default 1)")
    slicing.add_argument("--slices", type=int, default=None,
                         help="total epoch count (exclusive with --slice)")
    parser.add_argument("--delimiter", default=None,
                        help="field separator (default: comma, else whitespace)")


def _add_engine_options(parser):
    parser.add_argument("--clusters", type=int, required=True, help="number of clusters K")
    parser.add_argument("--kernel-exponent", type=int, default=1)
    parser.add_argument("--window", type=int, default=None,
                        help="ignore epochs farther apart than this")
    blocks = parser.add_mutually_exclusive_group()
    blocks.add_argument("--p-mode", choices=("dynamic", "static"), default=None,
                        help="per-epoch (the default) or single shared block tensor")
    blocks.add_argument("--fixed-p", default=None,
                        help="npz file with a 'p' array; keeps the block tensor fixed")
    parser.add_argument("--max-iter", type=int, default=200)
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="stop a chain once its log-likelihood changes by less "
                             "than this, relative, between two iterations")
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)


def _build_parser():
    # Flags must be spelled in full: a prefix such as --conf would otherwise be
    # taken as --config, which _apply_config only recognizes spelled out.
    parser = argparse.ArgumentParser(
        prog="sdsbm",
        description="Dynamic mixed-membership block models for labeled interaction data.",
        allow_abbrev=False,
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic dataset with planted truth",
                                allow_abbrev=False)
    _add_config_option(synth)
    synth.add_argument("--pattern", choices=("sinusoidal", "broken_line"),
                       default="sinusoidal")
    synth.add_argument("--epochs", type=int, default=200)
    synth.add_argument("--items", type=int, default=100)
    synth.add_argument("--cycles", type=float, default=1.0)
    synth.add_argument("--noise", type=float, default=0.05,
                       help="off-diagonal mass of the cyclic block matrix")
    synth.add_argument("--obs-per-epoch", type=int, default=5,
                       help="observations per item per epoch")
    synth.add_argument("--obs-total", type=int, default=None,
                       help="total observations per item, spread evenly (overrides --obs-per-epoch)")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(handler=_cmd_synth)

    fit_cmd = commands.add_parser("fit", help="fit one model and save an archive",
                                  allow_abbrev=False)
    _add_config_option(fit_cmd)
    _add_data_options(fit_cmd)
    _add_engine_options(fit_cmd)
    fit_cmd.add_argument("--beta-theta", type=float, default=0.0)
    fit_cmd.add_argument("--beta-p", type=float, default=0.0)
    fit_cmd.add_argument("--out", required=True, help="archive path (.npz)")
    fit_cmd.set_defaults(handler=_cmd_fit)

    cv = commands.add_parser("cv", help="cross-validated comparison of model families",
                             allow_abbrev=False)
    _add_config_option(cv)
    _add_data_options(cv)
    _add_engine_options(cv)
    cv.add_argument("--beta-grid", type=_comma_list(float), default=DEFAULT_BETA_GRID,
                    help="comma-separated coupling strengths to select from")
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--train-fraction", type=float, default=0.8)
    cv.add_argument("--val-fraction", type=float, default=0.1)
    cv.add_argument("--split-seed", type=int, default=0)
    cv.add_argument("--models", type=_comma_list(str), default=FAMILIES,
                    help="comma-separated families to evaluate")
    cv.add_argument("--truth", default=None,
                    help="truth.npz from synth; adds membership recovery error")
    cv.add_argument("--out", required=True, help="metrics CSV path")
    cv.add_argument("--json-out", default=None, help="optional JSON mirror")
    cv.set_defaults(handler=_cmd_cv)

    predict = commands.add_parser("predict", help="label distribution for a node at an epoch",
                                  allow_abbrev=False)
    _add_config_option(predict)
    predict.add_argument("--model", required=True)
    predict.add_argument("--node", required=True, help="node key as it appears in the event file")
    predict.add_argument("--epoch", type=int, required=True)
    predict.set_defaults(handler=_cmd_predict)

    flows = commands.add_parser("export-flows", allow_abbrev=False,
                                help="per-node cluster mass transfers between consecutive epochs")
    _add_config_option(flows)
    flows.add_argument("--model", required=True)
    flows.add_argument("--out", required=True, help="flows CSV path")
    flows.set_defaults(handler=_cmd_export_flows)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _apply_config(argv)
    except (ContractError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    parser = _build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.handler(args)
    except (ContractError, IngestError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except DegenerateParameterError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
