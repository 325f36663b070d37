"""End-to-end command-line behavior: files in, files out, exit codes."""
import csv
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdsbm
from sdsbm import BlockTensor, MembershipTensor, ModelArchive, PriorConfig, cli, flow_matrix

from conftest import random_blocks, random_memberships


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


def run_limited(*argv, script=None):
    """The sdsbm command in a child process with 2 GB of address space and one BLAS thread.

    ``script``, if given, is run with ``python -c`` in place of ``-m sdsbm.cli``.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(sdsbm.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    command = ["-m", "sdsbm.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *command, *argv], env=env,
                          capture_output=True, text=True, timeout=300,
                          preexec_fn=_limit_address_space)


def make_events(tmp_path, lines, name="events.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def small_events(tmp_path):
    """Three epochs, four nodes, three labels; enough mass to fit quickly."""
    rng = np.random.default_rng(5)
    lines = []
    for t in range(3):
        for i in range(4):
            for label in rng.integers(0, 3, size=12):
                lines.append(f"n{i},{label},{t}")
    return make_events(tmp_path, lines)


class TestSynth:
    def test_writes_events_and_truth(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code, stdout, _ = run(
            capsys, "synth", "--epochs", "4", "--items", "6",
            "--obs-per-epoch", "8", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        assert "I=6" in stdout and "T=4" in stdout
        with open(out / "events.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["node", "label", "timestamp", "weight"]
        weights = [int(r[3]) for r in rows[1:]]
        assert sum(weights) == 4 * 6 * 8
        payload = np.load(out / "truth.npz")
        assert payload["theta"].shape == (4, 6, 3)
        assert payload["p"].shape[1:] == (3, 3)
        meta = json.loads(str(payload["meta"]))
        # the field order is PatternSpec's, which _load_truth reads back
        assert list(meta["pattern"].items()) == [
            ("kind", "sinusoidal"), ("n_epochs", 4), ("n_items", 6),
            ("n_clusters", 3), ("cycles", 1.0), ("seed", 2),
        ]
        assert meta["noise"] == 0.05

    def test_total_budget_is_spread_evenly(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code, stdout, _ = run(
            capsys, "synth", "--epochs", "5", "--items", "4",
            "--obs-total", "13", "--out", str(out),
        )
        assert code == 0
        assert "(52 observations" in stdout  # 13 per item, 4 items

    def test_cluster_count_is_not_an_option(self, tmp_path):
        # the cyclic block matrix is 3x3, so synth always plants 3 clusters
        with pytest.raises(SystemExit) as info:
            cli.main(["synth", "--clusters", "3", "--out", str(tmp_path / "x")])
        assert info.value.code == 2

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "synth", "--seed", "-1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "seed must be >= 0, got -1" in stderr
        assert not (tmp_path / "x").exists()


class TestFit:
    def test_fit_writes_a_loadable_archive(self, tmp_path, capsys):
        events = small_events(tmp_path)
        out = tmp_path / "model.npz"
        code, stdout, _ = run(
            capsys, "fit", "--data", str(events), "--slice", "1",
            "--clusters", "2", "--beta-theta", "2", "--beta-p", "2",
            "--max-iter", "15", "--restarts", "1", "--out", str(out),
        )
        assert code == 0
        assert "objective=" in stdout and "converged=" in stdout
        archive = ModelArchive.load(out)
        assert archive.theta.values.shape == (3, 4, 2)
        assert archive.p.values.shape == (3, 2, 3)
        assert archive.prior.beta_theta == 2.0
        assert archive.node_keys == ["n0", "n1", "n2", "n3"]
        assert sorted(archive.label_keys) == ["0", "1", "2"]

    def test_repeated_fits_are_identical(self, tmp_path, capsys):
        events = small_events(tmp_path)
        outputs = []
        for name in ("a.npz", "b.npz"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "fit", "--data", str(events), "--slice", "1",
                "--clusters", "2", "--max-iter", "10", "--restarts", "2",
                "--seed", "7", "--out", str(out),
            )
            assert code == 0
            outputs.append(ModelArchive.load(out))
        assert np.array_equal(outputs[0].theta.values, outputs[1].theta.values)
        assert np.array_equal(outputs[0].p.values, outputs[1].p.values)

    def test_fit_line_counts_every_chains_sweeps(self, tmp_path, capsys):
        # no chain settles at this tol: 3 restarts race 40 sweeps, the leader runs all 45
        events = small_events(tmp_path)
        code, stdout, _ = run(
            capsys, "fit", "--data", str(events), "--slice", "1", "--clusters", "2",
            "--max-iter", "45", "--tol", "1e-300", "--restarts", "3",
            "--out", str(tmp_path / "model.npz"),
        )
        assert code == 0
        assert " iterations=45 sweeps=125 converged=False " in stdout

    def test_static_mode_and_slice_count(self, tmp_path, capsys):
        events = small_events(tmp_path)
        out = tmp_path / "static.npz"
        code, _, _ = run(
            capsys, "fit", "--data", str(events), "--slices", "3",
            "--clusters", "2", "--p-mode", "static", "--max-iter", "10",
            "--restarts", "1", "--out", str(out),
        )
        assert code == 0
        archive = ModelArchive.load(out)
        assert archive.p_mode == "static"
        assert archive.p.values.shape == (1, 2, 3)
        assert archive.theta.values.shape[0] == 3

    def test_degenerate_fixed_blocks_exit_4(self, tmp_path, capsys, caplog):
        events = make_events(tmp_path, ["a,0,0", "a,1,0", "b,0,1", "b,1,1"])
        blocks = tmp_path / "blocks.npz"
        np.savez(blocks, p=np.array([[1.0, 0.0], [1.0, 0.0]]))
        code, _, stderr = run(
            capsys, "fit", "--data", str(events), "--slice", "1",
            "--clusters", "2", "--fixed-p", str(blocks),
            "--out", str(tmp_path / "m.npz"),
        )
        assert code == 4
        assert "numeric failure" in stderr
        assert not [record for record in caplog.records if record.name == "sdsbm.em"]

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        events = small_events(tmp_path)
        code, _, stderr = run(
            capsys, "fit", "--data", str(events), "--clusters", "2", "--seed", "-1",
            "--out", str(tmp_path / "m.npz"),
        )
        assert code == 3
        assert "seed must be >= 0, got -1" in stderr

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "fit", "--data", str(tmp_path / "nope.csv"), "--slice", "1",
            "--clusters", "2", "--out", str(tmp_path / "m.npz"),
        )
        assert code == 3
        assert "error:" in stderr

    @pytest.mark.parametrize("config", ["", "slices = 5\n"], ids=["flags", "config"])
    def test_slice_and_slices_together_are_a_usage_error(self, tmp_path, config):
        # neither flag may silently win, whether both are typed or one comes from a file
        path = tmp_path / "it.cfg"
        path.write_text(config)
        argv = ["fit", "--config", str(path), "--data", str(small_events(tmp_path)),
                "--slice", "2", "--clusters", "2", "--out", str(tmp_path / "m.npz")]
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ([] if config else ["--slices", "5"]))
        assert info.value.code == 2
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    @pytest.mark.parametrize("config", [False, True], ids=["flags", "config"])
    def test_p_mode_and_fixed_p_together_are_a_usage_error(self, tmp_path, config, mode):
        # a block file must not silently override the mode, whether both are
        # typed or the mode comes from a file
        path = tmp_path / "it.cfg"
        path.write_text(f"p_mode = {mode}\n" if config else "")
        blocks = tmp_path / "fp.npz"
        np.savez(blocks, p=np.full((2, 3), 1 / 3))
        argv = ["fit", "--config", str(path), "--data", str(small_events(tmp_path)),
                "--fixed-p", str(blocks), "--clusters", "2", "--out", str(tmp_path / "m.npz")]
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ([] if config else ["--p-mode", mode]))
        assert info.value.code == 2
        assert not (tmp_path / "m.npz").exists()

    def test_a_prior_on_shared_blocks_builds_no_coupling(self, tmp_path, capsys):
        # beta_p on the one block slice of a static fit couples nothing, so no
        # (T, T) coupling is built: at 20000 epochs it alone would need 3.2 GB
        bench = tmp_path / "bench"
        assert run(capsys, "synth", "--epochs", "4", "--items", "6", "--obs-per-epoch", "5",
                   "--out", str(bench))[0] == 0
        result = run_limited("fit", "--data", str(bench / "events.csv"), "--slices", "20000",
                             "--clusters", "3", "--p-mode", "static", "--beta-theta", "0",
                             "--beta-p", "1", "--max-iter", "2", "--restarts", "1",
                             "--out", str(tmp_path / "model.npz"))
        assert result.returncode == 0, result.stderr
        assert ModelArchive.load(tmp_path / "model.npz").theta.values.shape == (20000, 6, 3)

    def test_a_fit_on_the_thread_pool_runs_in_limited_address_space(self, tmp_path, capsys):
        # small blocks give ingest and the E-step several blocks each, so both
        # loops run on this thread and a pool thread, whose stack and malloc
        # arena also take address space
        bench = tmp_path / "bench"
        assert run(capsys, "synth", "--epochs", "6", "--items", "8", "--obs-per-epoch", "20",
                   "--out", str(bench))[0] == 0
        script = "\n".join([
            "import importlib, sys, threading",
            "from sdsbm import cli, model, pool",
            "pool._workers = lambda: 2",
            "model.CHUNK = 16",
            "importlib.import_module('sdsbm.ingest').BLOCK = 256",
            "code = cli.main(sys.argv[1:])",
            "assert threading.active_count() == 2, threading.enumerate()",
            "sys.exit(code)",
        ])
        result = run_limited("fit", "--data", str(bench / "events.csv"), "--clusters", "3",
                             "--beta-theta", "1", "--beta-p", "1", "--max-iter", "5",
                             "--restarts", "2", "--out", str(tmp_path / "model.npz"),
                             script=script)
        assert result.returncode == 0, result.stderr
        assert ModelArchive.load(tmp_path / "model.npz").theta.values.shape == (6, 8, 3)

    def test_an_out_path_without_suffix_is_written_as_given(self, tmp_path, capsys):
        out = tmp_path / "model"
        code, stdout, _ = run(
            capsys, "fit", "--data", str(small_events(tmp_path)), "--clusters", "2",
            "--max-iter", "5", "--restarts", "1", "--out", str(out),
        )
        assert code == 0 and stdout.rstrip().endswith(f"-> {out}")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["events.csv", "model"]
        code, stdout, _ = run(capsys, "predict", "--model", str(out), "--node", "n0",
                              "--epoch", "0")
        assert code == 0 and len(stdout.splitlines()) == 3

    def test_unknown_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.main(["fit", "--data", "x", "--clusters", "2",
                      "--out", "y", "--frobnicate"])
        assert info.value.code == 2


class TestConfigFiles:
    @pytest.mark.parametrize("argv", [
        ("fit", "--conf", "it.cfg", "--clusters", "2"),
        ("fit", "--config", "it.cfg", "--clust", "2"),
        ("--verb", "fit", "--clusters", "2"),
    ])
    def test_abbreviated_flags_are_usage_errors(self, tmp_path, argv):
        # a prefix such as --conf must not pass for --config, whose file would go unread
        config = tmp_path / "it.cfg"
        config.write_text("max_iter = 3\nrestarts = 1\n")
        argv = [str(config) if token == "it.cfg" else token for token in argv]
        argv += ["--data", str(small_events(tmp_path)), "--out", str(tmp_path / "m.npz")]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2

    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        events = small_events(tmp_path)
        config = tmp_path / "fit.conf"
        config.write_text(
            "# engine settings\n"
            "beta_theta = 5.0\n"
            "seed = 3\n"
            "max_iter = 8   # keep it quick\n"
        )
        out = tmp_path / "model.npz"
        code, _, _ = run(
            capsys, "fit", "--config", str(config), "--data", str(events),
            "--slice", "1", "--clusters", "2", "--restarts", "1",
            "--seed", "4", "--out", str(out),
        )
        assert code == 0
        archive = ModelArchive.load(out)
        assert archive.prior.beta_theta == 5.0
        assert archive.seed == 4  # explicit flag wins over the config value

    def test_config_given_with_equals_is_read(self, tmp_path, capsys):
        events = small_events(tmp_path)
        config = tmp_path / "it.cfg"
        config.write_text("beta_theta = 5.0\nmax_iter = 3\ntol = 1e-15\nrestarts = 1\n")
        out = tmp_path / "model.npz"
        code, stdout, _ = run(
            capsys, "fit", f"--config={config}", "--data", str(events),
            "--slice", "1", "--clusters", "2", "--out", str(out),
        )
        assert code == 0
        assert "iterations=3 " in stdout
        assert ModelArchive.load(out).prior.beta_theta == 5.0

    def test_malformed_config_exits_3(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("beta_theta 5\n")
        code, _, stderr = run(
            capsys, "fit", "--config", str(config), "--data", "x",
            "--clusters", "2", "--out", "y",
        )
        assert code == 3
        assert "expected 'key = value'" in stderr

    def test_config_line_with_an_empty_value_exits_3(self, tmp_path, capsys):
        config = tmp_path / "empty.conf"
        config.write_text("seed = 1\nmax_iter =\n")
        code, _, stderr = run(
            capsys, "fit", "--config", str(config), "--data", "x",
            "--clusters", "2", "--out", "y",
        )
        assert code == 3
        assert ":2: empty key or value" in stderr

    def test_missing_config_file_exits_3(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "fit", "--config", str(tmp_path / "ghost.conf"),
            "--data", "x", "--clusters", "2", "--out", "y",
        )
        assert code == 3

    def test_load_config_parses_pairs(self, tmp_path):
        config = tmp_path / "ok.conf"
        config.write_text("a = 1\n\n# comment only\nb=two words\n")
        assert cli.load_config(config) == [("a", "1"), ("b", "two words")]


class TestPredict:
    @pytest.fixture()
    def model_path(self, tmp_path, capsys):
        events = small_events(tmp_path)
        out = tmp_path / "model.npz"
        code, _, _ = run(
            capsys, "fit", "--data", str(events), "--slice", "1",
            "--clusters", "2", "--max-iter", "10", "--restarts", "1",
            "--out", str(out),
        )
        assert code == 0
        return out

    def test_distribution_lines(self, model_path, capsys):
        code, stdout, _ = run(
            capsys, "predict", "--model", str(model_path),
            "--node", "n1", "--epoch", "2",
        )
        assert code == 0
        lines = [line.split("\t") for line in stdout.strip().splitlines()]
        archive = ModelArchive.load(model_path)
        assert [key for key, _ in lines] == archive.label_keys
        total = sum(float(v) for _, v in lines)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_a_shared_block_slice_serves_every_epoch(self, tmp_path, capsys):
        out = tmp_path / "static.npz"
        code, _, _ = run(
            capsys, "fit", "--data", str(small_events(tmp_path)), "--slices", "3",
            "--clusters", "2", "--p-mode", "static", "--max-iter", "10",
            "--restarts", "1", "--out", str(out),
        )
        assert code == 0
        archive = ModelArchive.load(out)
        assert archive.p.values.shape[0] == 1 and archive.theta.values.shape[0] == 3
        code, stdout, _ = run(capsys, "predict", "--model", str(out),
                              "--node", "n1", "--epoch", "2")
        assert code == 0
        node = archive.node_id("n1")
        expected = archive.theta.values[2, node] @ archive.p.values[0]
        assert stdout.splitlines() == [
            f"{key}\t{value:.10g}" for key, value in zip(archive.label_keys, expected)
        ]

    def test_unknown_node_exits_3(self, model_path, capsys):
        code, _, stderr = run(
            capsys, "predict", "--model", str(model_path),
            "--node", "ghost", "--epoch", "0",
        )
        assert code == 3
        assert "unknown node key" in stderr

    def test_epoch_out_of_range_exits_3(self, model_path, capsys):
        code, _, stderr = run(
            capsys, "predict", "--model", str(model_path),
            "--node", "n0", "--epoch", "3",
        )
        assert code == 3
        assert "out of range" in stderr


class TestExportFlows:
    def test_flow_rows_match_the_tensors(self, tmp_path, capsys):
        events = small_events(tmp_path)
        model = tmp_path / "model.npz"
        code, _, _ = run(
            capsys, "fit", "--data", str(events), "--slice", "1",
            "--clusters", "2", "--beta-theta", "1", "--max-iter", "10",
            "--restarts", "1", "--out", str(model),
        )
        assert code == 0
        flows_path = tmp_path / "flows.csv"
        code, stdout, _ = run(
            capsys, "export-flows", "--model", str(model), "--out",
            str(flows_path),
        )
        assert code == 0
        with open(flows_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["epoch_from", "epoch_to", "node", "cluster_from",
                           "cluster_to", "mass"]
        assert f"wrote {len(rows) - 1} flow rows" in stdout
        archive = ModelArchive.load(model)
        first = rows[1]
        t0, t1 = int(first[0]), int(first[1])
        node = archive.node_keys.index(first[2])
        expected = flow_matrix(archive.theta.values[t0, node],
                               archive.theta.values[t1, node])
        assert float(first[5]) == pytest.approx(
            expected[int(first[3]), int(first[4])], rel=1e-9
        )
        # every (epoch pair, node) group carries unit mass in total
        mass_by_pair = {}
        for row in rows[1:]:
            key = (row[0], row[2])
            mass_by_pair[key] = mass_by_pair.get(key, 0.0) + float(row[5])
        assert all(total == pytest.approx(1.0, abs=1e-9)
                   for total in mass_by_pair.values())


class TestCrossValidationCommand:
    def test_full_comparison_run(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        code, _, _ = run(
            capsys, "synth", "--epochs", "4", "--items", "9",
            "--obs-per-epoch", "30", "--seed", "1", "--out", str(bench),
        )
        assert code == 0
        csv_out = tmp_path / "results.csv"
        json_out = tmp_path / "results.json"
        code, stdout, _ = run(
            capsys, "cv", "--data", str(bench / "events.csv"), "--slice", "1",
            "--clusters", "3", "--beta-grid", "0,10", "--folds", "2",
            "--models", "sdsbm,nc", "--truth", str(bench / "truth.npz"),
            "--max-iter", "20", "--tol", "1e-4", "--restarts", "1",
            "--out", str(csv_out), "--json-out", str(json_out),
        )
        assert code == 0
        assert "sdsbm:" in stdout and "nc:" in stdout
        with open(csv_out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["model", "dataset", "fold", "beta", "roc", "ap",
                           "nce", "rmse"]
        assert len(rows) == 1 + 2 * 2  # two families, two folds
        models = {row[0] for row in rows[1:]}
        assert models == {"sdsbm", "nc"}
        assert all(row[1] == "events" for row in rows[1:])
        assert all(row[7] != "" for row in rows[1:])  # truth adds recovery error
        nc_rows = [row for row in rows[1:] if row[0] == "nc"]
        assert all(float(row[3]) == 0.0 for row in nc_rows)
        payload = json.loads(json_out.read_text())
        assert set(payload["models"]) == {"sdsbm", "nc"}
        assert len(payload["models"]["sdsbm"]["folds"]) == 2
        # beta = 10 starts from the beta = 0 fit; beta = 0 and nc start cold
        for fold in payload["models"]["sdsbm"]["folds"]:
            assert fold["start_beta"] == (0.0 if fold["beta"] == 10.0 else None)
        assert all(f["start_beta"] is None for f in payload["models"]["nc"]["folds"])

    def test_scarce_sample_is_scored_and_a_longer_truth_rejected(self, tmp_path, capsys):
        # 12 observations per item are spread over all 30 planted epochs, the
        # first and last included, so the event file spans the truth's epochs
        bench, longer = tmp_path / "bench", tmp_path / "longer"
        assert run(capsys, "synth", "--epochs", "30", "--items", "10",
                   "--obs-total", "12", "--out", str(bench))[0] == 0
        assert run(capsys, "synth", "--epochs", "40", "--items", "10",
                   "--obs-total", "12", "--out", str(longer))[0] == 0
        fast = ("--folds", "1", "--beta-grid", "0,10", "--max-iter", "10",
                "--restarts", "1")
        csv_out = tmp_path / "cv.csv"
        code, _, _ = run(
            capsys, "cv", "--data", str(bench / "events.csv"), "--clusters", "3",
            "--truth", str(bench / "truth.npz"), *fast, "--out", str(csv_out),
        )
        assert code == 0
        with open(csv_out) as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(row["rmse"] != "" for row in rows)
        # a truth spanning more epochs than the event file is reported up front
        code, _, stderr = run(
            capsys, "cv", "--data", str(bench / "events.csv"), "--clusters", "3",
            "--truth", str(longer / "truth.npz"), *fast,
            "--out", str(tmp_path / "cv_longer.csv"),
        )
        assert code == 3
        assert "truth memberships have shape (40, 10, 3)" in stderr
        assert "need (30, 10, 3)" in stderr
        assert not (tmp_path / "cv_longer.csv").exists()

    def test_per_epoch_fixed_block_with_the_static_family_exits_3(self, tmp_path, capsys):
        events = small_events(tmp_path)
        blocks = tmp_path / "p3.npz"
        np.savez(blocks, p=random_blocks(3, 2, 3, seed=3))
        common = ("cv", "--data", str(events), "--clusters", "2", "--fixed-p", str(blocks),
                  "--folds", "1", "--beta-grid", "0,1", "--max-iter", "2", "--restarts", "1")
        code, _, stderr = run(capsys, *common, "--out", str(tmp_path / "cv.csv"))
        assert code == 3
        assert "static family fits one epoch, but the fixed block tensor has 3 epochs" in stderr
        assert not (tmp_path / "cv.csv").exists()
        # the per-epoch families can use it
        code, _, _ = run(capsys, *common, "--models", "sdsbm,nc",
                         "--out", str(tmp_path / "cv_dynamic.csv"))
        assert code == 0

    @pytest.mark.parametrize("weight,code", [(5 * 10**8, 0), (10**9, 3)])
    def test_a_heavy_line_is_split_in_bounded_memory(self, tmp_path, weight, code):
        # the split draws per weighted line, so 5*10**8 observations fit in
        # 2 GB; from 10**9 on, the exact draw refuses them with one error line
        events = make_events(tmp_path, [f"a,x,0,{weight}", "b,y,1,3", "a,y,1,2", "b,x,0,4"])
        result = run_limited("cv", "--data", str(events), "--clusters", "2", "--folds", "1",
                             "--beta-grid", "0,1", "--max-iter", "5",
                             "--out", str(tmp_path / "cv.csv"))
        assert result.returncode == code, result.stderr
        if code == 3:
            assert result.stderr.count("\n") == 1 and result.stderr.startswith("error:")
            assert "fewer than 1000000000" in result.stderr
        else:
            assert (tmp_path / "cv.csv").exists()

    def test_negative_split_seed_exits_3(self, tmp_path, capsys):
        events = small_events(tmp_path)
        code, _, stderr = run(
            capsys, "cv", "--data", str(events), "--clusters", "2", "--folds", "1",
            "--split-seed", "-1", "--out", str(tmp_path / "cv.csv"),
        )
        assert code == 3
        assert "seed must be >= 0, got -1" in stderr
        assert not (tmp_path / "cv.csv").exists()

    def test_repeated_family_exits_3(self, tmp_path, capsys):
        events = small_events(tmp_path)
        code, _, stderr = run(
            capsys, "cv", "--data", str(events), "--clusters", "2", "--folds", "1",
            "--max-iter", "2", "--restarts", "1", "--models", "nc,nc",
            "--out", str(tmp_path / "cv.csv"),
        )
        assert code == 3
        assert "('nc', 'nc')" in stderr
        assert not (tmp_path / "cv.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--beta-grid", "1,,2"),
        ("--beta-grid", ""),
        ("--beta-grid", "1,x"),
        ("--models", ","),
        ("--models", "sdsbm,,nc"),
    ])
    def test_bad_comma_list_is_a_usage_error(self, tmp_path, capsys, flag, value):
        events = small_events(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(["cv", "--data", str(events), "--clusters", "2",
                      "--folds", "1", "--max-iter", "2", "--restarts", "1",
                      flag, value, "--out", str(tmp_path / "cv.csv")])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "cv.csv").exists()

    def test_negative_node_key_is_rejected_by_the_truth(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        code, _, _ = run(
            capsys, "synth", "--epochs", "2", "--items", "3",
            "--obs-per-epoch", "4", "--out", str(bench),
        )
        assert code == 0
        events = make_events(tmp_path, ["-1,0,0", "0,1,0", "1,2,1", "2,0,1"])
        code, _, stderr = run(
            capsys, "cv", "--data", str(events), "--slice", "1", "--clusters", "3",
            "--truth", str(bench / "truth.npz"), "--folds", "1",
            "--beta-grid", "0", "--models", "nc", "--max-iter", "2",
            "--restarts", "1", "--out", str(tmp_path / "cv.csv"),
        )
        assert code == 3
        assert "node id -1" in stderr

    def test_node_keys_naming_one_truth_row_are_rejected(self, tmp_path, capsys):
        # "+1" and "1" are two nodes of the event file but one planted row
        bench = tmp_path / "bench"
        code, _, _ = run(
            capsys, "synth", "--epochs", "2", "--items", "3",
            "--obs-per-epoch", "4", "--out", str(bench),
        )
        assert code == 0
        events = make_events(tmp_path, ["+1,0,0", "0,1,0", "1,2,1", "2,0,1"])
        code, _, stderr = run(
            capsys, "cv", "--data", str(events), "--slice", "1", "--clusters", "3",
            "--truth", str(bench / "truth.npz"), "--folds", "1",
            "--beta-grid", "0", "--models", "nc", "--max-iter", "2",
            "--restarts", "1", "--out", str(tmp_path / "cv.csv"),
        )
        assert code == 3
        assert "'+1' and '1'" in stderr
        assert not (tmp_path / "cv.csv").exists()


def _npz_command(flag, events, path, out):
    """A command line that reads ``path`` through ``flag`` before any fitting."""
    if flag == "--model":
        return ["predict", "--model", path, "--node", "n0", "--epoch", "0"]
    if flag == "--fixed-p":
        return ["fit", "--data", events, "--clusters", "2", "--fixed-p", path,
                "--out", out]
    return ["cv", "--data", events, "--clusters", "2", "--truth", path,
            "--folds", "1", "--out", out]


class TestUnreadableNpzInputs:
    @pytest.mark.parametrize("flag", ["--model", "--fixed-p", "--truth"])
    @pytest.mark.parametrize("kind", ["csv", "empty", "npy", "directory"])
    def test_exit_3_naming_the_path(self, tmp_path, capsys, flag, kind):
        events = small_events(tmp_path)
        if kind == "csv":
            path = events
        elif kind == "empty":
            path = tmp_path / "empty.npz"
            path.write_bytes(b"")
        elif kind == "npy":
            path = tmp_path / "bare.npy"
            np.save(path, np.full((2, 3), 1 / 3))
        else:
            path = tmp_path / "folder.npz"
            path.mkdir()
        out = tmp_path / "out"
        code, _, stderr = run(capsys, *_npz_command(flag, str(events), str(path), str(out)))
        assert code == 3
        assert "error:" in stderr and str(path) in stderr
        assert not out.exists()

    def test_truth_without_theta_exits_3(self, tmp_path, capsys):
        events = small_events(tmp_path)
        path = tmp_path / "truth.npz"
        np.savez(path, p=np.eye(3))
        code, _, stderr = run(
            capsys, *_npz_command("--truth", str(events), str(path), str(tmp_path / "o"))
        )
        assert code == 3
        assert "no 'theta' array" in stderr


    @pytest.mark.parametrize("content", ["string p", "meta not json", "meta without pattern"])
    def test_npz_with_wrong_content_exits_3(self, tmp_path, capsys, content):
        events = small_events(tmp_path)
        path = tmp_path / "input.npz"
        theta = np.full((3, 4, 2), 0.5)
        meta = {"pattern": {"kind": "sinusoidal", "n_epochs": 3, "n_items": 4}}
        if content == "string p":
            flag = "--fixed-p"
            np.savez(path, p=np.array([["a", "b"], ["c", "d"]]))
        else:
            flag = "--truth"
            text = "{not json" if content == "meta not json" else json.dumps({"noise": 0.1})
            np.savez(path, theta=theta, p=np.eye(2), meta=np.array(text))
        out = tmp_path / "out"
        code, _, stderr = run(capsys, *_npz_command(flag, str(events), str(path), str(out)))
        assert code == 3
        assert "error:" in stderr and str(path) in stderr
        assert not out.exists()


def _archive_with(path, content):
    """A saved archive (T=4, 3 nodes, K=3, 3 labels) with one part replaced by ``content``."""
    ModelArchive(
        theta=MembershipTensor(random_memberships(4, 3, 3, seed=1)),
        p=BlockTensor(random_blocks(4, 3, 3, seed=2)),
        prior=PriorConfig(), p_mode="dynamic", seed=0,
        node_keys=["n0", "n1", "n2"], label_keys=["a", "b", "c"],
    ).save(path)
    with np.load(path) as payload:
        arrays = dict(payload)
    meta = json.loads(str(arrays["meta"]))
    if content == "meta a list":
        meta = [meta]
    elif content == "meta without prior":
        del meta["prior"]
    elif content == "string theta":
        arrays["theta"] = np.full((4, 3, 3), "x")
    elif content == "p with K=2":
        arrays["p"] = random_blocks(4, 2, 3, seed=3)
    elif content == "p with 2 of 4 epochs":
        arrays["p"] = random_blocks(2, 3, 3, seed=3)
    elif content == "short node_keys":
        meta["node_keys"] = ["n0", "n1"]
    elif content == "short label_keys":
        meta["label_keys"] = ["a"]
    text = "{not json" if content == "meta not json" else json.dumps(meta)
    arrays["meta"] = np.array(text)
    np.savez(path, **arrays)


class TestArchiveContent:
    @pytest.mark.parametrize("command", ["predict", "export-flows"])
    @pytest.mark.parametrize("content", [
        "meta not json", "meta a list", "meta without prior", "string theta",
        "p with K=2", "p with 2 of 4 epochs", "short node_keys", "short label_keys",
    ])
    def test_bad_archive_exits_3_naming_the_path(self, tmp_path, capsys, command, content):
        path = tmp_path / "model.npz"
        _archive_with(path, content)
        out = tmp_path / "flows.csv"
        if command == "predict":
            argv = ["predict", "--model", str(path), "--node", "n0", "--epoch", "0"]
        else:
            argv = ["export-flows", "--model", str(path), "--out", str(out)]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 3
        assert "error:" in stderr and str(path) in stderr
        assert stdout == "" and not out.exists()


class TestBlockFileLoading:
    def test_columns_follow_the_event_file_vocabulary(self, tmp_path):
        path = tmp_path / "blocks.npz"
        block = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        np.savez(path, p=block)
        loaded = cli._load_block_file(path, ["1", "0", "2"])
        assert loaded.values.shape == (1, 2, 3)
        np.testing.assert_array_equal(loaded.values[0], block[:, [1, 0, 2]])

    def test_non_integer_label_keys_are_rejected(self, tmp_path):
        path = tmp_path / "blocks.npz"
        np.savez(path, p=np.full((2, 2), 0.5))
        from sdsbm import ContractError
        with pytest.raises(ContractError, match="integer label keys"):
            cli._load_block_file(path, ["rock", "jazz"])

    def test_fixed_fit_reorders_and_freezes_the_blocks(self, tmp_path, capsys):
        # label "1" appears first, so the loaded tensor must swap columns
        events = make_events(
            tmp_path, ["a,1,0", "a,0,0", "b,1,1", "b,0,1", "a,1,1", "b,0,0"]
        )
        blocks = tmp_path / "blocks.npz"
        original = np.array([[0.8, 0.2], [0.3, 0.7]])
        np.savez(blocks, p=original)
        out = tmp_path / "model.npz"
        code, _, _ = run(
            capsys, "fit", "--data", str(events), "--slice", "1",
            "--clusters", "2", "--fixed-p", str(blocks), "--max-iter", "5",
            "--restarts", "1", "--out", str(out),
        )
        assert code == 0
        archive = ModelArchive.load(out)
        assert archive.p_mode == "fixed"
        np.testing.assert_array_equal(archive.p.values[0], original[:, [1, 0]])

    def test_label_keys_naming_one_column_are_rejected(self, tmp_path, capsys):
        # "1" and "01" are two labels of the event file but one block column
        events = make_events(tmp_path, ["a,1,0", "a,01,0", "b,0,1", "b,1,1"])
        blocks = tmp_path / "blocks.npz"
        np.savez(blocks, p=np.full((2, 3), 1 / 3))
        out = tmp_path / "model.npz"
        code, _, stderr = run(
            capsys, "fit", "--data", str(events), "--slice", "1",
            "--clusters", "2", "--fixed-p", str(blocks), "--max-iter", "5",
            "--restarts", "1", "--out", str(out),
        )
        assert code == 3
        assert "'1' and '01'" in stderr
        assert not out.exists()

    def test_negative_label_key_is_rejected(self, tmp_path, capsys):
        events = make_events(tmp_path, ["a,-1,0", "a,0,0", "b,1,1", "b,0,1"])
        blocks = tmp_path / "blocks.npz"
        np.savez(blocks, p=np.full((2, 3), 1 / 3))
        out = tmp_path / "model.npz"
        code, _, stderr = run(
            capsys, "fit", "--data", str(events), "--slice", "1",
            "--clusters", "2", "--fixed-p", str(blocks), "--max-iter", "5",
            "--restarts", "1", "--out", str(out),
        )
        assert code == 3
        assert "label id -1" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("shape,message", [
        ((2, 3), r"K=2.*K=3"),                 # another cluster count
        ((3, 3, 3), "1 or 2 epochs, got 3"),   # neither one slice nor one per epoch
    ])
    def test_blocks_that_do_not_fit_exit_3(self, tmp_path, capsys, shape, message):
        events = make_events(tmp_path, ["a,0,0", "a,1,0", "b,2,1", "b,0,1"])
        blocks = tmp_path / "blocks.npz"
        np.savez(blocks, p=np.full(shape, 1 / 3))
        out = tmp_path / "model.npz"
        code, _, stderr = run(
            capsys, "fit", "--data", str(events), "--slice", "1",
            "--clusters", "3", "--fixed-p", str(blocks), "--max-iter", "5",
            "--restarts", "1", "--out", str(out),
        )
        assert code == 3
        assert re.search(message, stderr)
        assert not out.exists()


_WITHOUT_SCIPY = """
import sys
before = set(sys.modules)
from sdsbm.cli import main
out = sys.argv[1]
bench, model = out + "/bench", out + "/model.npz"
short = ["--clusters", "3", "--max-iter", "5", "--restarts", "1"]
for argv in (
    ["synth", "--epochs", "4", "--items", "6", "--obs-per-epoch", "5", "--out", bench],
    ["fit", "--data", bench + "/events.csv", *short, "--beta-theta", "1", "--beta-p", "1",
     "--out", model],
    ["cv", "--data", bench + "/events.csv", *short, "--truth", bench + "/truth.npz",
     "--folds", "1", "--beta-grid", "0,1", "--out", out + "/cv.csv"],
    ["export-flows", "--model", model, "--out", out + "/flows.csv"],
):
    assert main(argv) == 0, argv
imported = {name.split(".")[0] for name in set(sys.modules) - before}
# numpy's Cython-compiled extensions register these two shims in sys.modules
shims = {name for name in imported if name == "cython_runtime" or name.startswith("_cython_")}
print(sorted(imported - shims - {"numpy", "sdsbm", *sys.stdlib_module_names}))
"""


def test_commands_run_without_importing_scipy(tmp_path):
    # nothing but numpy and the standard library, so no scipy and no other
    # third-party import time; a fresh interpreter, since this test process
    # has imported scipy.stats
    env = dict(os.environ, PYTHONPATH=str(Path(sdsbm.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    with open(tmp_path / "cv.csv") as handle:
        assert all(row["rmse"] for row in csv.DictReader(handle))  # truth was scored
    assert (tmp_path / "flows.csv").is_file()
