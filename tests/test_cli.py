import argparse
import ast
import contextlib
import ctypes
import errno
import functools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mlnl import cli, datagen, estimator, harness, textio
from mlnl.cli import main
from mlnl.datagen import Dataset, read_dataset, write_dataset
from mlnl.harness import RUN_FILES, parse_config, run_pipeline
from mlnl.model import init_model, save_model
from mlnl.noise import read_matrix


CONFIG = "\n".join([
    "gen.n = 700",
    "gen.d = 10",
    "gen.k = 5",
    "gen.mean_labels = 2.2",
    "gen.feature_noise_sigma = 1.2",
    "gen.correlation_strength = 0.5",
    "noise.eta = 0.3",
    "split.trusted_fraction = 0.15",
    "model.hidden = 12",
    "silver.epochs = 2",
    "gold.epochs = 2",
    "seed = 4",
]) + "\n"

# The staged run, stage by stage, with {run} for its directory.
STAGES = {"gen-data": "gen-data", "inject-noise": "inject-noise --eta 0.3",
          "train-silver": "train-silver", "estimate": "estimate --method galc-slr",
          "train-gold": "train-gold --correction {run}/chat.csv",
          "evaluate": "evaluate --model {run}/gold_model.mlpm --data {run}/test.mlnl"}


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return path


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    """A function that copies the run of STAGES at CONFIG, as it stood after
    the named stage, to `<root>/run` and returns that directory; the stages
    run once."""
    base = tmp_path_factory.mktemp("staged")
    (base / "exp.cfg").write_text(CONFIG)
    for stage, argv in STAGES.items():
        run(["--config", base / "exp.cfg", "--out", base / "run",
             *argv.format(run=base / "run").split()])
        shutil.copytree(base / "run", base / stage)

    def copy(root, stage):
        return Path(shutil.copytree(base / stage, root / "run"))
    return copy


def run(args):
    code = main([str(a) for a in args])
    assert code == 0
    return code


def write_overridden(cfg_file, path, *lines):
    """Write `cfg_file` to `path` with `lines` appended. Each line of
    `cfg_file` that sets a key of `lines` is commented out, since a config
    file sets each key once, so the appended lines keep their numbers."""
    keys = {line.partition("=")[0].strip() for line in lines}
    kept = [f"# {s}" if s.partition("=")[0].strip() in keys else s
            for s in cfg_file.read_text().splitlines()]
    path.write_text("\n".join([*kept, *lines]) + "\n")


def tree(root) -> dict[str, bytes | None]:
    """Every file under `root` with its bytes, and every directory with None."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


class TestStagedWorkflow:
    def test_full_staged_run(self, tmp_path, staged_run, capsys):
        """Each stage adds its own files to the run directory."""
        adds = {"gen-data": ["dataset_full.mlnl", "gold.mlnl", "resolved.cfg",
                             "silver_clean.mlnl", "singles_pool.mlnl", "test.mlnl"],
                "inject-noise": ["empirical_matrix.csv", "flips.csv", "silver_noisy.mlnl",
                                 "true_matrix.csv"],
                "train-silver": ["silver_metrics.csv", "silver_model.mlpm"],
                "estimate": ["chat.csv", "chat_info.txt", "chat_raw.csv", "chat_scaled.csv"],
                "train-gold": ["gold_model.mlpm", "metrics.csv"], "evaluate": ["eval.csv"]}
        names = []
        for stage, new in adds.items():
            out = staged_run(tmp_path / stage, stage)
            names = sorted([*names, *new])
            assert sorted(p.name for p in out.iterdir()) == names, stage
        noisy, clean = (read_dataset(out / f"silver_{tag}.mlnl") for tag in ("noisy", "clean"))
        assert noisy.tag == "noisy"
        np.testing.assert_array_equal(noisy.cardinalities(), clean.cardinalities())
        assert (out / "flips.csv").read_text().startswith("sample,from,to\n")
        assert (out / "metrics.csv").read_text().startswith("epoch,split,map,cf1,of1,loss\n")
        capsys.readouterr()
        run(["--out", out, *STAGES["evaluate"].format(run=out).split()])
        assert "map=" in capsys.readouterr().out

    def test_gen_data_removes_an_earlier_runs_stage_files(self, tmp_path, staged_run, cfg_file,
                                                          capsys):
        """A second gen-data leaves only its own files, so the next stage
        finds no earlier run's noisy split to train on."""
        out = staged_run(tmp_path, "evaluate")
        for name in ("metrics.csv", "flips.csv", "eval.csv"):  # a killed write's leftovers
            (out / f"{name}.partial").write_text("cut short\n")
        run(["--config", cfg_file, "--out", out, "--seed", 9, "gen-data"])
        assert sorted(p.name for p in out.iterdir()) == [
            "dataset_full.mlnl", "gold.mlnl", "resolved.cfg", "silver_clean.mlnl",
            "singles_pool.mlnl", "test.mlnl"]
        capsys.readouterr()
        assert main(["--out", str(out), "train-silver"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "silver_noisy.mlnl" in err
        assert "Traceback" not in err
        assert not (out / "silver_model.mlpm").exists()

    def test_no_step_removes_a_file_it_does_not_own(self, tmp_path, cfg_file):
        """gen-data, every stage and a sweep into one directory remove their
        own files and the `.partial` a killed write of one leaves, but no file
        whose name only begins or ends like one of theirs."""
        out = tmp_path / "run"
        out.mkdir()
        mine = {name: b"mine\n" for name in ("chatter_notes.md", "chat.py", "metrics.csv.bak",
                                              "sweep_notes.svg")}
        for name, data in mine.items():
            (out / name).write_bytes(data)
        for name in (*RUN_FILES, "test.mlnl", "resolved.cfg"):  # a killed write's leftovers
            (out / f"{name}.partial").write_text("cut short\n")
        for argv in (*STAGES.values(), "sweep"):
            run(["--config", cfg_file, "--out", out, *argv.format(run=out).split()])
            assert tree(out).items() >= mine.items(), argv
            assert not list(out.rglob("*.partial")), argv

    def test_inject_noise_removes_every_later_stages_files(self, tmp_path, staged_run, capsys):
        """A second inject-noise leaves gen-data's files and its own, so the
        estimate finds no silver model trained at the earlier noise ratio."""
        out = staged_run(tmp_path, "evaluate")
        run(["--out", out, "inject-noise", "--eta", 0.2])
        assert sorted(p.name for p in out.iterdir()) == [
            "dataset_full.mlnl", "empirical_matrix.csv", "flips.csv", "gold.mlnl",
            "resolved.cfg", "silver_clean.mlnl", "silver_noisy.mlnl", "singles_pool.mlnl",
            "test.mlnl", "true_matrix.csv"]
        capsys.readouterr()
        assert main(["--out", str(out), "estimate", "--method", "galc-slr"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "silver_model.mlpm" in err
        assert "Traceback" not in err
        assert not list(out.glob("chat*"))

    def test_train_silver_removes_the_estimate_and_the_gold_model(self, tmp_path, staged_run,
                                                                  capsys):
        """A silver model trained after an estimate leaves no correction
        matrix estimated from the silver model it replaced."""
        out = staged_run(tmp_path, "train-gold")
        run(["--out", out, "train-silver"])
        assert not [p.name for p in out.iterdir()
                    if p.name.startswith(("chat", "gold_model.mlpm", "metrics.csv"))]
        capsys.readouterr()
        assert main(["--out", str(out), "train-gold", "--correction",
                     str(out / "chat.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "chat.csv" in err
        assert "Traceback" not in err
        assert not (out / "gold_model.mlpm").exists()

    def test_train_gold_baseline_correction_none(self, tmp_path, staged_run, cfg_file):
        out = staged_run(tmp_path, "inject-noise")
        run(["--config", cfg_file, "--out", out, "train-gold", "--correction", "none"])
        assert (out / "gold_model.mlpm").exists()

    def test_estimate_glc_and_true(self, tmp_path, staged_run, cfg_file):
        out = staged_run(tmp_path, "train-silver")
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "glc"])
        assert read_matrix(out / "chat.csv").k == 5
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "true"])
        cm = read_matrix(out / "chat.csv")
        assert cm.kind == "true_row_stochastic"
        assert (out / "chat.csv").read_bytes() == (out / "true_matrix.csv").read_bytes()

    def test_estimate_true_after_glc_leaves_only_chat_csv(self, tmp_path, staged_run, cfg_file):
        out = staged_run(tmp_path, "train-silver")
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "glc"])
        assert sorted(p.name for p in out.glob("chat*")) == [
            "chat.csv", "chat_info.txt", "chat_raw.csv", "chat_scaled.csv"]
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "true"])
        assert [p.name for p in out.glob("chat*")] == ["chat.csv"]

    def test_true_matrix_without_eta_is_copied(self, tmp_path, staged_run, cfg_file, capsys):
        out = staged_run(tmp_path, "inject-noise")
        true_csv = out / "true_matrix.csv"
        lines = true_csv.read_text().splitlines()
        true_csv.write_text("# kind=true_row_stochastic K=5\n" + "\n".join(lines[1:]) + "\n")
        capsys.readouterr()
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "true"])
        assert (out / "chat.csv").read_bytes() == true_csv.read_bytes()
        assert f"true matrix for eta=None -> {out / 'chat.csv'}" in capsys.readouterr().out

    def test_no_final_sigmoid_flag(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        cfg = tmp_path / "raw.cfg"
        cfg.write_text(cfg_file.read_text() + "correction.form = raw\n")
        run(["--config", cfg, "--out", out, "gen-data"])
        run(["--config", cfg, "--out", out, "inject-noise"])
        run(["--config", cfg, "--out", out, "train-silver"])
        run(["--config", cfg, "--out", out, "estimate", "--method", "galc-slr"])
        chat = read_matrix(out / "chat.csv")
        raw = read_matrix(out / "chat_raw.csv")
        np.testing.assert_array_equal(chat.matrix, raw.matrix)

    def test_stages_need_no_config_after_gen_data(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", tmp_path / "made", "gen-data"])
        (tmp_path / "made").rename(out)  # resolved.cfg's out may differ from --out
        run(["--out", out, "inject-noise"])
        run(["--config", cfg_file, "--out", out, "train-silver"])
        given = {name: (out / name).read_bytes()
                 for name in ("silver_model.mlpm", "silver_metrics.csv")}
        run(["--out", out, "train-silver"])
        assert {name: (out / name).read_bytes() for name in given} == given
        run(["--seed", 4, "--out", out, "estimate", "--method", "glc"])


class TestSweepAndPlot:
    def test_sweep_then_replot(self, tmp_path, cfg_file):
        out = tmp_path / "sweep"
        run(["--config", cfg_file, "--out", out, "sweep"])
        assert (out / "summary.csv").exists()
        for svg in ("sweep_map.svg", "sweep_cf1.svg", "sweep_of1.svg",
                    "sweep_memorization.svg"):
            assert (out / svg).exists()
        svgs = {p.name: p.read_bytes() for p in out.glob("*.svg")}
        assert sorted(svgs) == ["sweep_cf1.svg", "sweep_map.svg", "sweep_memorization.svg",
                                "sweep_of1.svg"]
        for name in svgs:
            (out / name).unlink()
        with open(out / "summary.csv", "a") as fh:
            fh.write("\n")  # a blank line is skipped, as every reader skips it
        run(["--out", out, "plot"])
        assert {p.name: p.read_bytes() for p in out.glob("*.svg")} == svgs

    def test_failed_cell_makes_the_sweep_exit_one(self, tmp_path, cfg_file, capsys,
                                                  monkeypatch):
        def fail(model, pool):
            raise ValueError("regulators unavailable")

        monkeypatch.setattr(estimator, "compute_regulators", fail)
        out = tmp_path / "sweep"
        code = main(["--config", str(cfg_file), "--out", str(out), "sweep"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: 1 of 3 sweep cells failed" in err
        assert "Traceback" not in err
        assert (out / "failures.log").read_text() == (
            "eta=0.3 method=galc_slr: pipeline stage 'estimate' failed: "
            "regulators unavailable\n")
        summary = (out / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["none", "true_matrix"]

    def test_plot_draws_each_method_in_eta_order(self, tmp_path):
        out = tmp_path / "sweep"
        rows = [f"{m},{eta},0.{i}5,0.{i}4,0.{i}3," for i, eta in enumerate(("0.6", "0", "0.4"))
                for m in ("none", "galc_slr")]
        out.mkdir()
        (out / "summary.csv").write_text("\n".join(
            ["method,eta,map,cf1,of1,frobenius_to_true", *rows]) + "\n")
        for m in ("none", "galc_slr"):
            (out / f"eta0.6_{m}").mkdir()
            (out / f"eta0.6_{m}" / "metrics.csv").write_text(
                "epoch,split,map,cf1,of1,loss\n1,test,0.3,0.3,0.3,0.9\n")
        run(["--out", out, "plot"])
        for metric in ("map", "cf1", "of1"):
            svg = (out / f"sweep_{metric}.svg").read_text()
            lines = re.findall(r'<polyline points="([^"]*)"', svg)
            assert len(lines) == 2
            for points in lines:
                xs = [float(xy.split(",")[0]) for xy in points.split()]
                assert len(xs) == 3 and xs == sorted(xs) and len(set(xs)) == 3, (metric, xs)

    def test_seed_override_changes_outputs(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["--config", cfg_file, "--out", a, "--seed", 1, "gen-data"])
        run(["--config", cfg_file, "--out", b, "--seed", 2, "gen-data"])
        assert (a / "dataset_full.mlnl").read_bytes() != (b / "dataset_full.mlnl").read_bytes()

    def test_same_seed_reproduces_dataset_bytes(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["--config", cfg_file, "--out", a, "gen-data"])
        run(["--config", cfg_file, "--out", b, "gen-data"])
        assert (a / "dataset_full.mlnl").read_bytes() == (b / "dataset_full.mlnl").read_bytes()


def text(name, content):
    """An edit that writes `content`, text or bytes, to `<root>/<name>`."""
    def edit(root):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return edit


def lines_of(name, change):
    """An edit that replaces the lines of `<root>/<name>` by `change(lines)`."""
    def edit(root):
        (root / name).write_text("\n".join(change((root / name).read_text().splitlines())) + "\n")
    return edit


def config(name, *lines):
    """An edit that writes CONFIG with `lines` (see write_overridden) to `<root>/<name>`."""
    return lambda root: write_overridden(root / "exp.cfg", root / name, *lines)


def checkpoint(name, layers, change=lambda lines: lines):
    """An edit that saves a seeded model of `layers` to `<root>/<name>`, its
    lines replaced by `change(lines)`."""
    def edit(root):
        save_model(init_model(layers, "tanh", 1.0, seed=1), root / name)
        lines_of(name, change)(root)
    return edit


def widened(name, features=0, classes=0):
    """An edit that rewrites the dataset `<root>/<name>` with extra features and classes."""
    def edit(root):
        ds = read_dataset(root / name)
        write_dataset(Dataset(np.pad(ds.features, ((0, 0), (0, features))),
                              np.pad(ds.labels, ((0, 0), (0, classes))), ds.tag), root / name)
    return edit


def both(*edits):
    """An edit that makes each of `edits` in turn."""
    return lambda root: [edit(root) for edit in edits]


def identity(k, extra=""):
    """The text of a K x K identity matrix file, its header ending in `extra`."""
    return f"# kind=true_row_stochastic K={k}{extra}\n" + "".join(
        ",".join("1.0" if i == j else "0.0" for j in range(k)) + "\n" for i in range(k))


def diverging(root):
    """gen-data and inject-noise at a config whose silver training overflows:
    features of scale 1e4 give gradient entries above 1.8, so one SGD step
    with lr = 1e308 overflows parameters to inf."""
    config("diverge.cfg", "silver.optimizer = sgd", "silver.lr = 1e308",
           "silver.batch_size = 100000", "gen.feature_noise_sigma = 1e4")(root)
    for step in ("gen-data", "inject-noise --eta 0.3"):
        run(["--config", root / "diverge.cfg", "--out", root / "run", *step.split()])


SUMMARY = "method,eta,map,cf1,of1,frobenius_to_true\n"


def failing(id, argv, message, stage=None, edit=None, clears=None):
    """A row of FAILURES: `argv` and `message` name the row's root as {root}
    and its run directory as {run} (`<root>/run`), a copy of the staged run
    after `stage` if one is given, which `edit` then changes. `clears` is the
    first of the RUN_FILES that the command may remove once it has checked
    its arguments and read its files; it may remove every later one too."""
    return pytest.param(argv, message, stage, edit, clears, id=id)


EVALUATE = "--out {run} evaluate --model {run}/model.mlpm --data {run}/test.mlnl"
ESTIMATE_TRUE = "--config {root}/exp.cfg --out {run} estimate --method true"
TRAIN_GOLD = "--config {root}/exp.cfg --out {run} train-gold --correction"
FAILURES = [
    failing("bad_config_returns_nonzero", "--config {root}/bad.cfg --out {run} gen-data",
            "{root}/bad.cfg:1: noise.eta value 2.0 outside [0,1)",
            edit=text("bad.cfg", "noise.eta = 2.0\n")),
    failing("repeated_config_key_exits_one", "--config {root}/twice.cfg --out {run} gen-data",
            "{root}/twice.cfg:13: key 'seed' repeats line 12",
            edit=text("twice.cfg", CONFIG + "seed = 5\n")),
    failing("non_finite_config_value_exits_one_without_traceback",
            "--config {root}/nan.cfg --out {run} gen-data",
            "{root}/nan.cfg:13: gen.mean_labels must be in [2,inf), got nan",
            edit=config("nan.cfg", "gen.mean_labels = nan")),
    *(failing(f"seed_outside_u64_exits_one-{seed}",
              f"--config {{root}}/exp.cfg --out {{run}} --seed {seed} gen-data",
              f"seed must be in [0,2**64), got {seed}") for seed in ("-1", "18446744073709551616")),
    failing("unusable_out_exits_one_without_traceback-existing-file",
            "--config {root}/exp.cfg --out {root}/blocker gen-data",
            "[Errno 17] File exists: '{root}/blocker'", edit=text("blocker", "not a directory\n")),
    failing("unusable_out_exits_one_without_traceback-under-a-file",
            "--config {root}/exp.cfg --out {root}/blocker/sub gen-data",
            "[Errno 20] Not a directory: '{root}/blocker/sub'",
            edit=text("blocker", "not a directory\n")),
    failing("true_matrix_of_another_k_exits_one", ESTIMATE_TRUE,
            "{run}/gold.mlnl has 10 features and 5 classes, but {run}/true_matrix.csv has 4 "
            "classes", "inject-noise", text("run/true_matrix.csv", identity(4, " eta=0.0"))),
    *(failing(f"true_matrix_with_an_eta_out_of_range_exits_one-{eta}", ESTIMATE_TRUE,
              f"{{run}}/true_matrix.csv:1: eta must be in [0,1), got {float(eta)!r}",
              "inject-noise", lines_of("run/true_matrix.csv", lambda lines, eta=eta: [
                  f"# kind=true_row_stochastic K=5 eta={eta}", *lines[1:]]))
      for eta in ("nan", "7")),
    failing("missing_file_reported", "--out {root} train-silver",
            "[Errno 2] No such file or directory: '{root}/resolved.cfg'"),
    failing("truncated_checkpoint_exits_one_without_traceback", EVALUATE,
            "{run}/model.mlpm:4: checkpoint ends", "gen-data",
            checkpoint("run/model.mlpm", [10, 12, 5], lambda lines: lines[:3])),
    *(failing(f"non_finite_checkpoint_parameter_exits_one-{value}", EVALUATE,
              "{run}/model.mlpm:2: non-finite parameter", "gen-data",
              checkpoint("run/model.mlpm", [10, 12, 5], lambda lines, value=value: [
                  lines[0], value + " " + lines[1].split(" ", 1)[1], *lines[2:]]))
      for value in ("inf", "nan")),
    failing("non_finite_feature_exits_one_without_traceback", EVALUATE,
            "{run}/test.mlnl:3: features must be finite", "gen-data", both(
                checkpoint("run/model.mlpm", [10, 12, 5]),
                lines_of("run/test.mlnl", lambda lines: [  # its first sample's line
                    *lines[:2], "nan " + lines[2].split(" ", 1)[1], *lines[3:]]))),
    failing("bad_matrix_row_exits_one_without_traceback", TRAIN_GOLD + " {run}/bad.csv",
            "{run}/bad.csv:5: row 3 does not sum to 1", "inject-noise",
            text("run/bad.csv", "# kind=true_row_stochastic K=5\n" + "1.0,0.0,0.0,0.0,0.0\n" * 3
                 + "0.9,0.2,0.0,0.0,0.0\n1.0,0.0,0.0,0.0,0.0\n")),
    failing("correction_without_rows_exits_one", TRAIN_GOLD + " {run}/bare.csv",
            "{run}/bare.csv: no data rows", "inject-noise",
            text("run/bare.csv", "# kind=true_row_stochastic K=5\n")),
    failing("correction_of_another_k_names_its_file", TRAIN_GOLD + " {run}/chat.csv",
            "{run}/gold.mlnl has 10 features and 5 classes, but {run}/chat.csv has 4 classes",
            "inject-noise", text("run/chat.csv", identity(4))),
    *(failing(f"model_and_data_of_other_shapes_are_named-{name}", EVALUATE,
              f"{{run}}/model.mlpm takes {layers[0]} features and {layers[-1]} classes, "
              "but {run}/test.mlnl has 10 and 5", "gen-data", checkpoint("run/model.mlpm", layers))
      for name, layers in (("features", [7, 12, 5]), ("classes", [10, 12, 4]))),
    failing("inputs_of_other_shapes_are_named-gold-classes", TRAIN_GOLD + " none",
            "{run}/gold.mlnl has 10 features and 6 classes, but {run}/silver_noisy.mlnl has 10 "
            "and 5", "inject-noise", widened("run/gold.mlnl", classes=1)),
    failing("inputs_of_other_shapes_are_named-test-features",
            "--config {root}/exp.cfg --out {run} train-silver",
            "{run}/silver_noisy.mlnl has 10 features and 5 classes, but {run}/test.mlnl has 11 "
            "and 5", "inject-noise", widened("run/test.mlnl", features=1)),
    *(failing(f"missing_test_split_exits_one-{argv.split()[0]}",
              f"--config {{root}}/exp.cfg --out {{run}} {argv}",
              "[Errno 2] No such file or directory: '{run}/test.mlnl'", "inject-noise",
              lambda root: (root / "run" / "test.mlnl").unlink())
      for argv in ("train-silver", "train-gold --correction none")),
    *(failing(f"huge_dataset_header-{counts}",
              "--out {run} evaluate --model {root}/model.mlpm --data {root}/huge.mlnl",
              "{root}/huge.mlnl:2: ", edit=both(
                  text("huge.mlnl", f"# tag=clean\nMLNL v1 {counts}\n" + "0.5 1 2 | 0 3\n" * 6),
                  checkpoint("model.mlpm", [3, 4, 4])))
      for counts in ("99999999999999 3 4", "6 99999999999999 4", "6 3 99999999999999")),
    failing("config_too_large_to_allocate_exits_one",
            "--config {root}/huge.cfg --out {run} gen-data", "{root}/huge.cfg:13: gen.n must be "
            "at most", edit=config("huge.cfg", "gen.n = 99999999999999")),
    failing("feature_count_too_large_to_allocate_exits_one",
            "--config {root}/wide.cfg --out {run} gen-data", "{root}/wide.cfg:13: gen.d must be "
            "at most", edit=config("wide.cfg", "gen.d = 99999999999999")),
    *(failing(f"empty_silver_split_exits_one_at_gen_data{suffix}",
              "--config {root}/all-gold.cfg --out {run} gen-data",
              "trusted_fraction 0.999 leaves no silver samples of ", stage,
              config("all-gold.cfg", "split.trusted_fraction = 0.999"))
      for suffix, stage in (("", None), ("-over-a-run", "evaluate"))),
    failing("empty_test_split_exits_one_at_gen_data",
            "--config {root}/no-test.cfg --out {run} gen-data",
            "test_fraction 0.01 leaves no multi-label test samples of 40",
            edit=text("no-test.cfg", "gen.n = 40\ngen.d = 4\ngen.k = 4\ngen.mean_labels = 2.0\n"
                      "data.test_fraction = 0.01\n")),
    failing("empty_training_set_exits_one_without_traceback",
            "--config {root}/exp.cfg --out {run} train-silver",
            "cannot train on an empty dataset", "evaluate",
            text("run/silver_noisy.mlnl", "# tag=noisy\nMLNL v1 0 10 5\n"), "silver_model.mlpm"),
    failing("diverging_training_exits_one", "--config {root}/diverge.cfg --out {run} "
            "train-silver", "non-finite parameters after epoch 1", edit=diverging,
            clears="silver_model.mlpm"),
    *(failing(f"a_setting_that_differs_from_gen_data_is_rejected-{id}", f"{flags} --out {{run}} "
              f"{argv}", f"{given}, but {{run}}/resolved.cfg has {saved}", "inject-noise",
              config("three.cfg", "silver.epochs = 3"))
      for id, flags, argv, given, saved in (
          ("config", "--config {root}/three.cfg", "train-silver",
           "--config gives silver.epochs = 3", "2"),
          ("seed", "--seed 5", "train-gold --correction none", "--seed gives seed = 5", "4"))),
    *(failing(f"inject_noise_rejects_an_eta_before_removing_anything-{eta}",
              f"--out {{run}} inject-noise --eta {eta}",
              f"eta must be in [0,1), got {float(eta)!r}", "evaluate") for eta in ("7", "nan")),
    failing("plot_without_results_exits_one", "--out {run} plot",
            "{run}/summary.csv: no data rows", edit=text("run/summary.csv", SUMMARY)),
    failing("plot_names_the_line_of_a_bad_byte", "--out {run} plot", "{run}/summary.csv:2: ",
            edit=text("run/summary.csv", SUMMARY.encode() + b"none,0.0,0.5,0.5,0.5\xff,\n")),
    *(failing(f"plot_bad_summary-{id}", "--out {run} plot",
              f"{{run}}/summary.csv:{lineno}: {problem}",
              edit=text("run/summary.csv", (SUMMARY if lineno > 1 else "") + rows))
      for id, rows, lineno, problem in (
          ("header", "method,eta,map\nnone,0.0,0.5\n", 1, "expected the header "),
          ("fields", "none,0.0,0.5,0.5,0.5\n", 2, "expected 6 fields, got 5"),
          ("method", "glc,0.0,0.5,0.5,0.5,\n", 2, "method must be one of "),
          ("nan-map", "none,0.0,nan,0.5,0.5,\n", 2, "map must be finite, got nan"),
          ("text-frobenius", "galc_slr,0.0,0.5,0.5,0.5,not-a-number\n", 2,
           "frobenius_to_true must be a number, got 'not-a-number'"),
          ("inf-frobenius", "galc_slr,0.0,0.5,0.5,0.5,inf\n", 2,
           "frobenius_to_true must be finite, got inf"),
          ("text-eta", "none,zero,0.5,0.5,0.5,\n", 2, "eta must be a number, got 'zero'"),
          ("repeated-cell", "none,0.4,0.5,0.5,0.5,\nnone,0.4,0.6,0.6,0.6,\n", 3,
           "method none at eta 0.4 repeats line 2"))),
    *(failing(f"plot_epoch_score-{id}", "--out {run} plot",
              f"{{run}}/eta0.3_none/metrics.csv:3: {problem}", edit=both(
                  text("run/summary.csv",
                       SUMMARY + "none,0.0,0.5,0.5,0.5,\nnone,0.3,0.4,0.4,0.4,\n"),
                  text("run/eta0.3_none/metrics.csv",
                       f"epoch,split,map,cf1,of1,loss\n1,test,0.3,0.3,0.3,0.9\n{row}\n")))
      for id, row, problem in (
          ("inf-map", "2,test,inf,0.4,0.4,0.8", "map must be finite, got inf"),
          ("text-epoch", "one,test,0.4,0.4,0.4,0.8", "epoch must be an integer, got 'one'"),
          ("repeated-epoch", "1,test,0.4,0.4,0.4,0.8", "expected epoch 2, got 1"))),
]


class TestErrors:
    @pytest.mark.parametrize("argv, message, stage, edit, clears", FAILURES)
    def test_exits_one(self, tmp_path, staged_run, capsys, argv, message, stage, edit, clears):
        """The command exits 1 with one `error: ` line that holds `message`
        and no traceback, and the row's tree is as it was, less its own
        files: none for a command that fails on its arguments or on a file it
        reads, else exactly the RUN_FILES from `clears` on that it held."""
        (tmp_path / "exp.cfg").write_text(CONFIG)
        if stage:
            staged_run(tmp_path, stage)
        if edit:
            edit(tmp_path)
        before = tree(tmp_path)
        capsys.readouterr()
        fill = functools.partial(str.format, root=tmp_path, run=tmp_path / "run")
        with np.errstate(over="ignore"):  # the overflow of diverging_training_exits_one
            code = main(fill(argv).split())
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err
        assert fill(message) in err and "Traceback" not in err
        mine = set() if clears is None else {f"run/{name}" for name in
                                            RUN_FILES[RUN_FILES.index(clears):]}
        assert tree(tmp_path) == {name: data for name, data in before.items() if name not in mine}

    def test_a_memory_error_exits_one(self, tmp_path, cfg_file, capsys, monkeypatch):
        """No row of FAILURES reaches main as a MemoryError; one raised in a
        stage still exits 1 with one error line."""
        def too_large(cfg):
            raise MemoryError("Unable to allocate 1.78 PiB for an array")

        monkeypatch.setattr(datagen, "generate", too_large)
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "run"), "gen-data"]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 1.78 PiB for an array\n"


class TestBlasThreads:
    """The CLI runs every subcommand with one OpenBLAS thread and restores
    the caller's count after it, as a sweep at two threads gets the same bytes."""

    @pytest.fixture()
    def lib(self):
        """numpy's bundled OpenBLAS, set to two threads for the test."""
        libs = (ctypes.CDLL(str(p)) for p in
                (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
        lib = next((lib for lib in libs if hasattr(lib, "scipy_openblas_set_num_threads64_")),
                   None)
        if lib is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        yield lib
        lib.scipy_openblas_set_num_threads64_(before)

    def test_a_sweep_runs_on_one_thread_with_the_bytes_of_two(self, tmp_path, cfg_file, lib,
                                                               monkeypatch):
        seen, run_sweep = [], harness.run_sweep

        def sweep(*args):
            seen.append(lib.scipy_openblas_get_num_threads64_())
            return run_sweep(*args)

        monkeypatch.setattr(harness, "run_sweep", sweep)
        trees = []
        for where, threads in (("two", contextlib.nullcontext), ("one", textio.one_blas_thread)):
            monkeypatch.setattr(textio, "one_blas_thread", threads)
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)  # `--out sw`, so resolved.cfg reads the same
            assert main(["--config", str(cfg_file), "--out", "sw", "sweep"]) == 0
            trees.append(tree(tmp_path / where))
        assert seen == [2, 1] and lib.scipy_openblas_get_num_threads64_() == 2
        assert trees[0] == trees[1]

    def test_a_failed_subcommand_restores_the_count(self, tmp_path, lib):
        assert main(["--out", str(tmp_path), "train-silver"]) == 1  # no resolved.cfg
        assert lib.scipy_openblas_get_num_threads64_() == 2

    def test_a_forked_worker_runs_on_one_thread(self, lib, monkeypatch):
        monkeypatch.setattr(textio, "_usable_cpus", lambda: 2)
        with textio.one_blas_thread():
            counts = list(textio.ordered_map(
                lambda i: (lib.scipy_openblas_get_num_threads64_(), os.getpid()), range(2)))
        assert [count for count, _ in counts] == [1, 1]
        assert os.getpid() not in {pid for _, pid in counts}


def out_of_space_after_one(lines, path):
    """Yield the first of `lines`, then run out of disk writing to `path`."""
    lines = iter(lines)
    yield next(lines)
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


class TestInterruptedWrites:
    """A write that stops early leaves no file behind: when the k-th
    textio.write_lines call runs out of disk after one line, the subcommand
    exits 1 naming that file, no `*.partial` is left, and every file present
    holds the bytes of a clean run, also over an earlier gen-data at another
    seed. Each dataset is one chunk, so every line is produced in this process."""

    STEPS = (["gen-data"], ["inject-noise", "--eta", "0.3"])

    def fail_write(self, monkeypatch) -> SimpleNamespace:
        """Patch textio.write_lines to append each path it is given to
        `writes.calls` and to run out of disk after one line in the call of
        index `writes.failing` (-1 fails none); returns `writes`."""
        writes = SimpleNamespace(calls=[], failing=-1)
        real = textio.write_lines

        def write_lines(path, lines):
            writes.calls.append(path)
            if len(writes.calls) == writes.failing + 1:
                lines = out_of_space_after_one(lines, path)
            real(path, lines)

        monkeypatch.setattr(textio, "write_lines", write_lines)
        return writes

    def staged(self, cfg, where, capsys, monkeypatch, steps=STEPS) -> tuple[list[int], str]:
        """Run `steps` up to the first that fails, with `--out run` in the
        directory `where`, so resolved.cfg reads the same in every run; their
        exit codes and stderr."""
        where.mkdir(exist_ok=True)
        monkeypatch.chdir(where)
        capsys.readouterr()
        codes = []
        for step in steps:
            codes.append(main(["--config", str(cfg), "--out", "run", *step]))
            if codes[-1]:
                break
        return codes, capsys.readouterr().err

    def test_every_write_lands_whole_or_not_at_all(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("gen.n = 120\ngen.d = 4\ngen.k = 4\ngen.mean_labels = 2.0\nseed = 3\n")
        writes = self.fail_write(monkeypatch)
        codes, _ = self.staged(cfg, tmp_path / "clean", capsys, monkeypatch)
        assert codes == [0, 0]
        clean = {p.name: p.read_bytes() for p in (tmp_path / "clean" / "run").iterdir()}
        count = len(writes.calls)
        assert count >= 10

        for failing in range(count):
            writes.failing = -1
            assert self.staged(cfg, tmp_path / f"fail{failing}", capsys, monkeypatch,
                               [["--seed", "8", "gen-data"]])[0] == [0]
            writes.calls.clear()
            writes.failing = failing
            codes, err = self.staged(cfg, tmp_path / f"fail{failing}", capsys, monkeypatch)
            out = tmp_path / f"fail{failing}" / "run"
            assert codes[-1] == 1 and set(codes[:-1]) <= {0}, failing
            assert f"error: [Errno {errno.ENOSPC}]" in err and str(writes.calls[-1]) in err
            assert "Traceback" not in err
            assert not list(out.glob("*.partial"))
            assert {p.name: p.read_bytes() for p in out.iterdir()} == {
                name: clean[name] for name in {p.name for p in out.iterdir()}}

    def test_every_write_of_a_sweep_lands_whole_or_not_at_all(self, tmp_path, capsys,
                                                              monkeypatch):
        """The same over a tiny sweep, whose cells fail alone: the failed
        write's path is on stderr or, for a cell's write, in failures.log.
        Only failures.log, summary.csv and the plots drawn from it may differ
        from a clean run's, and summary.csv holds the clean rows of exactly
        the cells that failures.log does not name."""
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("gen.n = 120\ngen.d = 4\ngen.k = 4\ngen.mean_labels = 2.0\n"
                       "noise.eta = 0.3\nsilver.epochs = 1\ngold.epochs = 1\nseed = 3\n")
        writes = self.fail_write(monkeypatch)

        def sweep(where) -> tuple[int, str, dict]:
            where.mkdir()
            monkeypatch.chdir(where)  # `--out run`, so resolved.cfg reads the same
            capsys.readouterr()
            code = main(["--config", str(cfg), "--out", "run", "sweep"])
            files = {p.relative_to(where / "run").as_posix(): p.read_bytes()
                     for p in (where / "run").rglob("*") if p.is_file()}
            return code, capsys.readouterr().err, files

        code, _, clean = sweep(tmp_path / "clean")
        assert code == 0
        header, *rows = clean["summary.csv"].decode().splitlines()
        assert len(rows) == 3
        count = len(writes.calls)
        assert count >= 20

        for failing in range(count):
            writes.calls.clear()
            writes.failing = failing
            code, err, files = sweep(tmp_path / f"fail{failing}")
            log = files.get("failures.log", b"").decode()
            assert code == 1, failing
            assert str(writes.calls[failing]) in err + log, failing
            assert "Traceback" not in err
            assert not [name for name in files if name.endswith(".partial")]
            kept = {name: data for name, data in files.items()
                    if name not in ("failures.log", "summary.csv")
                    and not name.startswith("sweep_")}
            assert kept == {name: clean.get(name) for name in kept}, failing
            if "summary.csv" in files:
                assert files["summary.csv"].decode().splitlines() == [header, *(
                    row for row in rows if f" method={row.split(',')[0]}: " not in log)]


class TestAblateCommand:
    def test_limit_axis(self, tmp_path, cfg_file):
        out = tmp_path / "ab"
        cfg = cfg_file.read_text() + "ablation.eta = 0.3\n"
        cfg_path = tmp_path / "ab.cfg"
        cfg_path.write_text(cfg)
        run(["--config", cfg_path, "--out", out, "ablate", "--axis", "limit"])
        assert (out / "ablation_limit.svg").exists()

    def test_failed_cells_make_the_ablation_exit_one(self, tmp_path, cfg_file, capsys,
                                                     monkeypatch):
        def fail(model, pool):
            raise ValueError("regulators unavailable")

        monkeypatch.setattr(estimator, "compute_regulators", fail)
        out = tmp_path / "ab"
        code = main(["--config", str(cfg_file), "--out", str(out), "ablate", "--axis", "limit"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: 3 of 3 ablation cells failed; see {out / 'failures.log'}" in err
        assert "Traceback" not in err
        assert (out / "failures.log").read_text().splitlines() == [
            f"{label} method=galc_slr: pipeline stage 'estimate' failed: regulators unavailable"
            for label in ("L10", "L50", "unlimited")]
        assert (out / "ablation_limit.csv").read_text() == "label,method,eta,map,cf1,of1\n"
        assert not (out / "ablation_limit.svg").exists()


class TestCliMatchesHarness:
    """The staged subcommands and `run_pipeline` are one pipeline: the same
    config and seed give the same bytes whichever way it is run."""

    SHARED = ("silver_model.mlpm", "silver_metrics.csv", "true_matrix.csv",
              "gold_model.mlpm", "metrics.csv")

    def staged(self, out, cfg_file, method, correction):
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise", "--eta", 0.3])
        run(["--config", cfg_file, "--out", out, "train-silver"])
        if correction != "none":
            run(["--config", cfg_file, "--out", out, "estimate",
                 "--method", method.replace("_", "-")])
            correction = out / "chat.csv"
        run(["--config", cfg_file, "--out", out, "train-gold", "--correction", correction])

    def same_bytes(self, tmp_path, cfg_file, method, correction):
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        self.staged(cli_out, cfg_file, method, correction)
        run_pipeline(parse_config(cfg_file), 0.3, lib_out, method=method)
        names = self.SHARED
        if method != "none":
            names += ("chat.csv", "chat_raw.csv", "chat_scaled.csv", "chat_info.txt")
        assert sorted(p.name for p in lib_out.glob("chat*")) == \
            sorted(n for n in names if n.startswith("chat"))
        for name in names:
            assert (cli_out / name).read_bytes() == (lib_out / name).read_bytes(), name

    @pytest.mark.parametrize("method, correction", [("galc_slr", "chat.csv"),
                                                    ("glc", "chat.csv"),
                                                    ("none", "none")])
    def test_same_bytes(self, tmp_path, cfg_file, method, correction):
        self.same_bytes(tmp_path, cfg_file, method, correction)

    def test_same_bytes_with_the_silver_estimation_set(self, tmp_path, cfg_file):
        cfg = tmp_path / "silver.cfg"
        cfg.write_text(cfg_file.read_text() + "estimator.estimation_set = silver\n")
        self.same_bytes(tmp_path, cfg, "galc_slr", "chat.csv")

    def test_true_matrix_uses_the_injected_eta(self, tmp_path, cfg_file):
        # inject-noise --eta 0.4 overrides noise.eta = 0.3; estimate --method
        # true must then correct with the 0.4 matrix that inject-noise wrote
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        run(["--config", cfg_file, "--out", cli_out, "gen-data"])
        run(["--config", cfg_file, "--out", cli_out, "inject-noise", "--eta", 0.4])
        run(["--config", cfg_file, "--out", cli_out, "train-silver"])
        run(["--config", cfg_file, "--out", cli_out, "estimate", "--method", "true"])
        run(["--config", cfg_file, "--out", cli_out, "train-gold",
             "--correction", cli_out / "chat.csv"])
        assert (cli_out / "chat.csv").read_bytes() == (cli_out / "true_matrix.csv").read_bytes()
        run_pipeline(parse_config(cfg_file), 0.4, lib_out, method="true_matrix")
        for name in self.SHARED + ("chat.csv",):
            assert (cli_out / name).read_bytes() == (lib_out / name).read_bytes(), name


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand of cli.build_parser(), by name."""
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mlnl"


def package_trees() -> dict[str, ast.Module]:
    """The parsed source of each module of the package, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


@functools.cache
def package_reads() -> set[str]:
    """Every name that the package loads, imports or reads as an attribute."""
    return {node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else node.name
            for _, node in scoped_nodes()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, (ast.Attribute, ast.alias))}


@functools.cache
def scoped_nodes() -> list[tuple[str, ast.AST]]:
    """(scope, node) for every node of the package, in source order. A
    scope is the module's name and those of the functions and classes that
    enclose the node, as in `harness._run_grid`; a def is in its own."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else scope
            found.append((inner, child))
            visit(child, inner)

    for name, tree in package_trees().items():
        visit(tree, name)
    return found


def scopes_where(predicate) -> list[str]:
    """The scope of each node of the package that `predicate` holds for."""
    return [scope for scope, node in scoped_nodes() if predicate(node)]


def module(scope: str) -> str:
    return scope.partition(".")[0]


def called(node) -> str | None:
    """The name that a Call node calls: `f` for f(...) and for x.f(...)."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def private_names() -> list[str]:
    """`module.name` of each private function, class or constant that a
    module of the package defines at its top level."""
    found = []
    for module, tree in package_trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}.{name}" for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return found


class TestTooling:
    """Entry points start: a broken import fails here, not for a user."""

    def help_exits_zero(self, argv):
        src = str(PACKAGE.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, *argv], cwd=PACKAGE.parents[1], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage:" in done.stdout

    @pytest.mark.parametrize("argv", [["-m", "mlnl", "--help"]])
    def test_help_exits_zero(self, argv):
        self.help_exits_zero(argv)

    @pytest.mark.parametrize("command", sorted(subcommands()))
    def test_subcommand_help_exits_zero(self, command):
        self.help_exits_zero(["-m", "mlnl", command, "--help"])

    def test_estimate_takes_only_method(self):
        options = [s for a in subcommands()["estimate"]._actions for s in a.option_strings]
        assert sorted(options) == ["--help", "--method", "-h"]

    def test_every_subcommand_has_one_handler(self):
        handlers = {name: p.get_default("run") for name, p in subcommands().items()}
        assert {name: getattr(run, "__name__", None) for name, run in handlers.items()} == {
            name: "_cmd_" + name.replace("-", "_") for name in handlers}

    def test_one_grid_loop_runs_every_grid(self):
        """In harness.py only _run_grid names run_pipeline and failures.log,
        so sweeps and ablations cannot grow a second grid loop with its own
        rules for data preparation and failed cells."""
        def in_harness(predicate) -> set[str]:
            return {scope for scope in scopes_where(predicate) if module(scope) == "harness"}

        assert in_harness(lambda n: isinstance(n, ast.Name) and n.id == "run_pipeline") == \
            in_harness(lambda n: isinstance(n, ast.Constant) and n.value == "failures.log") == \
            {"harness._run_grid"}

    def test_only_clear_files_and_write_lines_remove_files(self):
        """Only harness.clear_files and textio.write_lines, which removes its
        own `<path>.partial`, remove files: every stage, gen-data, a failed
        run_pipeline and a grid clear what an earlier run left through one
        rule, so no output step grows its own list of files."""
        removers = ("unlink", "remove", "rmdir", "rmtree")
        assert sorted(set(scopes_where(lambda n: called(n) in removers))) == [
            "harness.clear_files", "textio.write_lines"]

    def test_only_textio_starts_processes(self):
        """Only textio.ordered_map runs work in other processes or threads, so
        any parallel stage reuses it rather than a second pool."""
        starters = ("multiprocessing", "concurrent.futures", "threading", "subprocess", "os.fork")

        def names(node) -> list[str]:
            if isinstance(node, ast.Import):
                return [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                return [f"{node.module}.{a.name}" for a in node.names]
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                return [f"{getattr(node.value, 'id', '')}.fork"]
            return []

        assert [f"{module(scope)}.py:{name}" for scope, node in scoped_nodes()
                for name in names(node)
                if any(f"{name}.".startswith(f"{s}.") for s in starters)] == [
            "textio.py:multiprocessing"]

    def test_only_textio_writes_files(self):
        """Every file the package writes goes through textio.write_lines, so
        all of them are UTF-8 with \\n line ends on every platform."""
        def writes(node) -> bool:
            if called(node) in ("write_text", "write_bytes"):
                return True
            if called(node) != "open":
                return False
            # open(path, mode) or <path>.open(mode); a mode that is not a
            # read-only literal counts as writing
            positional = node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        positional[0] if positional else ast.Constant("r"))
            return not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))

        assert [f"{module(scope)}.py:{node.lineno}" for scope, node in scoped_nodes()
                if module(scope) != "textio" and writes(node)] == []

    def test_only_textio_renames_files(self):
        """Only textio.write_lines moves a file onto another name: a file the
        package writes lands whole, through its one `<path>.partial` rename."""
        moves = ("replace", "rename", "renames")

        def renames(node) -> list[str]:
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                return [node.attr] if node.attr in moves else []
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                return [a.name for a in node.names if a.name in moves]
            return []

        assert [f"{module(scope)}.py:os.{name}" for scope, node in scoped_nodes()
                for name in renames(node)] == ["textio.py:os.replace"]

    def test_no_module_splits_lines_its_own_way(self):
        """No module calls .splitlines(): textio.numbered_lines, where a line
        is what \\n ends, is the one line rule of every reader."""
        assert scopes_where(lambda n: called(n) == "splitlines") == []

    def test_no_module_imports_a_name_it_never_uses(self):
        """Every name a module imports is read somewhere in it. cli.train is
        the one exception: perfbench's tracer checks that binding."""
        used = {(module(scope), node.id) for scope, node in scoped_nodes()
                if isinstance(node, ast.Name)}
        assert [f"{module(scope)}.{name}" for scope, node in scoped_nodes()
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                if (module(scope), name) not in used] == ["cli.train"]

    def test_only_the_digest_imports_hashlib(self):
        """numerics.digest is the package's one content hash: the trajectory
        memo's keys and the grid's groups both go through it."""
        def imports_hashlib(node) -> bool:
            if isinstance(node, ast.Import):
                return any(a.name.split(".")[0] == "hashlib" for a in node.names)
            return isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "hashlib"

        assert scopes_where(imports_hashlib) == ["numerics.digest"]

    def test_only_recorded_stores_into_a_trajectory_memo(self):
        """Only model._recorded stores into a trajectory memo (`memo` or a
        SplitArtifacts' `trajectories`), after a loop's last epoch, so "a
        batch loop that raises stores nothing" holds for `train` and
        `fill_memo` alike."""
        def named_memo(node) -> bool:
            return getattr(node, "id", getattr(node, "attr", None)) in ("memo", "trajectories")

        def stores(node) -> bool:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                return any(isinstance(n, ast.Subscript) and named_memo(n.value)
                           for t in targets for n in ast.walk(t))
            return called(node) in ("update", "setdefault") and \
                isinstance(node.func, ast.Attribute) and named_memo(node.func.value)

        assert scopes_where(stores) == ["model._recorded"]

    def test_one_function_reads_a_loss_mode(self):
        """Only model._loss_inputs asks whether a loss mode is a
        CorrectedMode, so `train`, `gradient_check` and the objective take
        a mode's silver rows and matrix from one reader."""
        assert scopes_where(lambda n: called(n) == "isinstance" and any(
            getattr(m, "id", getattr(m, "attr", None)) == "CorrectedMode"
            for m in ast.walk(n.args[-1]))) == ["model._loss_inputs"]

    @pytest.mark.parametrize("name", private_names())
    def test_every_private_name_is_read(self, name):
        """A private module-level name that nothing in the package reads is
        dead code: delete it rather than keep it in step."""
        assert name.split(".")[1] in package_reads()

    def test_configs_are_checked_where_built(self):
        """Building a config object runs its validate(), so the package calls
        validate() only there, in GenConfig's override, and in
        harness.run_dir, which every entry point that takes an
        ExperimentConfig runs before it writes a file, since that config
        stays mutable."""
        assert sorted(scopes_where(lambda n: called(n) == "validate")) == [
            "datagen.GenConfig.validate", "harness.run_dir", "numerics.Settings.__post_init__"]
