import argparse
import ast
import errno
import functools
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mlnl import cli, estimator, textio
from mlnl.cli import main
from mlnl.datagen import Dataset, read_dataset, write_dataset
from mlnl.harness import parse_config, run_pipeline
from mlnl.model import init_model, save_model
from mlnl.noise import read_matrix


@pytest.fixture()
def cfg_file(tmp_path):
    text = "\n".join([
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
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


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


class TestStagedWorkflow:
    def test_full_staged_run(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        for name in ("dataset_full.mlnl", "test.mlnl", "gold.mlnl",
                     "silver_clean.mlnl", "singles_pool.mlnl", "resolved.cfg"):
            assert (out / name).exists()

        run(["--config", cfg_file, "--out", out, "inject-noise", "--eta", 0.3])
        noisy = read_dataset(out / "silver_noisy.mlnl")
        clean = read_dataset(out / "silver_clean.mlnl")
        assert noisy.tag == "noisy"
        np.testing.assert_array_equal(noisy.cardinalities(), clean.cardinalities())
        assert (out / "true_matrix.csv").exists()
        assert (out / "empirical_matrix.csv").exists()
        assert (out / "flips.csv").read_text().startswith("sample,from,to")

        run(["--config", cfg_file, "--out", out, "train-silver"])
        assert (out / "silver_model.mlpm").exists()
        assert (out / "silver_metrics.csv").exists()

        run(["--config", cfg_file, "--out", out, "estimate", "--method", "galc-slr"])
        assert (out / "chat.csv").exists()
        assert (out / "chat_raw.csv").exists()
        assert (out / "chat_scaled.csv").exists()
        assert (out / "chat_info.txt").exists()

        run(["--config", cfg_file, "--out", out, "train-gold",
             "--correction", out / "chat.csv"])
        assert (out / "gold_model.mlpm").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,map,cf1,of1,loss"

        run(["--config", cfg_file, "--out", out, "evaluate",
             "--model", out / "gold_model.mlpm", "--data", out / "test.mlnl"])
        msg = capsys.readouterr().out
        assert "map=" in msg
        assert (out / "eval.csv").exists()

    def test_gen_data_removes_an_earlier_runs_stage_files(self, tmp_path, cfg_file, capsys):
        """A second gen-data leaves only its own files, so the next stage
        finds no earlier run's noisy split to train on."""
        out = tmp_path / "run"
        for argv in (["gen-data"], ["inject-noise"], ["train-silver"],
                     ["estimate", "--method", "galc-slr"], ["train-gold", "--correction",
                                                            out / "chat.csv"],
                     ["evaluate", "--model", out / "gold_model.mlpm", "--data",
                      out / "test.mlnl"]):
            run(["--config", cfg_file, "--out", out, "--seed", 3, *argv])
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

    def test_inject_noise_removes_every_later_stages_files(self, tmp_path, cfg_file, capsys):
        """A second inject-noise leaves gen-data's files and its own, so the
        estimate finds no silver model trained at the earlier noise ratio."""
        out = tmp_path / "run"
        for argv in (["gen-data"], ["inject-noise"], ["train-silver"],
                     ["estimate", "--method", "galc-slr"],
                     ["train-gold", "--correction", out / "chat.csv"],
                     ["evaluate", "--model", out / "gold_model.mlpm", "--data",
                      out / "test.mlnl"]):
            run(["--config", cfg_file, "--out", out, *argv])
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

    def test_train_silver_removes_the_estimate_and_the_gold_model(self, tmp_path, cfg_file,
                                                                  capsys):
        """A silver model trained after an estimate leaves no correction
        matrix estimated from the silver model it replaced."""
        out = tmp_path / "run"
        for argv in (["gen-data"], ["inject-noise"], ["train-silver"],
                     ["estimate", "--method", "galc-slr"],
                     ["train-gold", "--correction", out / "chat.csv"], ["train-silver"]):
            run(["--config", cfg_file, "--out", out, *argv])
        assert not [p.name for p in out.iterdir()
                    if p.name.startswith(("chat", "gold_model.mlpm", "metrics.csv"))]
        capsys.readouterr()
        assert main(["--out", str(out), "train-gold", "--correction",
                     str(out / "chat.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "chat.csv" in err
        assert "Traceback" not in err
        assert not (out / "gold_model.mlpm").exists()

    def test_train_gold_baseline_correction_none(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise"])
        run(["--config", cfg_file, "--out", out, "train-gold", "--correction", "none"])
        assert (out / "gold_model.mlpm").exists()

    def test_estimate_glc_and_true(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise"])
        run(["--config", cfg_file, "--out", out, "train-silver"])
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "glc"])
        assert read_matrix(out / "chat.csv").k == 5
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "true"])
        cm = read_matrix(out / "chat.csv")
        assert cm.kind == "true_row_stochastic"
        assert (out / "chat.csv").read_bytes() == (out / "true_matrix.csv").read_bytes()

    def test_estimate_true_after_glc_leaves_only_chat_csv(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        for argv in (["gen-data"], ["inject-noise"], ["train-silver"],
                     ["estimate", "--method", "glc"]):
            run(["--config", cfg_file, "--out", out, *argv])
        assert sorted(p.name for p in out.glob("chat*")) == [
            "chat.csv", "chat_info.txt", "chat_raw.csv", "chat_scaled.csv"]
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "true"])
        assert [p.name for p in out.glob("chat*")] == ["chat.csv"]

    def test_true_matrix_without_eta_is_copied(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise"])
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

    @pytest.mark.parametrize("flags, command, given, saved, model", [
        (["--config", "three.cfg"], ["train-silver"], "--config gives silver.epochs = 3", "2",
         "silver_model.mlpm"),
        (["--seed", "5"], ["train-gold", "--correction", "none"], "--seed gives seed = 5", "4",
         "gold_model.mlpm")], ids=["config", "seed"])
    def test_a_setting_that_differs_from_gen_data_is_rejected(
            self, tmp_path, cfg_file, capsys, monkeypatch, flags, command, given, saved, model):
        monkeypatch.chdir(tmp_path)
        run(["--config", cfg_file, "--out", "run", "gen-data"])
        run(["--config", cfg_file, "--out", "run", "inject-noise"])
        write_overridden(cfg_file, tmp_path / "three.cfg", "silver.epochs = 3")
        capsys.readouterr()
        assert main([*flags, "--out", "run", *command]) == 1
        resolved = Path("run", "resolved.cfg")
        assert capsys.readouterr().err == f"error: {given}, but {resolved} has {saved}\n"
        assert not Path("run", model).exists()


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

    def test_plot_without_results_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "summary.csv").write_text("method,eta,map,cf1,of1,frobenius_to_true\n")
        assert main(["--out", str(out), "plot"]) == 1
        err = capsys.readouterr().err
        assert f"{out / 'summary.csv'}: no data rows" in err
        assert "Traceback" not in err
        assert list(out.glob("*.svg")) == []

    def test_plot_names_the_line_of_a_bad_byte(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "summary.csv").write_bytes(b"method,eta,map,cf1,of1,frobenius_to_true\n"
                                          b"none,0.0,0.5,0.5,0.5\xff,\n")
        assert main(["--out", str(out), "plot"]) == 1
        err = capsys.readouterr().err
        assert f"error: {out / 'summary.csv'}:2: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, lineno, problem", [
        ("method,eta,map\nnone,0.0,0.5\n", 1, "expected the header "),
        ("none,0.0,0.5,0.5,0.5\n", 2, "expected 6 fields, got 5"),
        ("glc,0.0,0.5,0.5,0.5,\n", 2, "method must be one of "),
        ("none,0.0,nan,0.5,0.5,\n", 2, "map must be finite, got nan"),
        ("galc_slr,0.0,0.5,0.5,0.5,not-a-number\n", 2,
         "frobenius_to_true must be a number, got 'not-a-number'"),
        ("galc_slr,0.0,0.5,0.5,0.5,inf\n", 2, "frobenius_to_true must be finite, got inf"),
        ("none,zero,0.5,0.5,0.5,\n", 2, "eta must be a number, got 'zero'"),
        ("none,0.4,0.5,0.5,0.5,\nnone,0.4,0.6,0.6,0.6,\n", 3,
         "method none at eta 0.4 repeats line 2"),
    ], ids=["header", "fields", "method", "nan-map", "text-frobenius", "inf-frobenius",
            "text-eta", "repeated-cell"])
    def test_plot_names_the_line_of_a_bad_summary(self, tmp_path, capsys, text, lineno,
                                                  problem):
        out = tmp_path / "sweep"
        out.mkdir()
        if lineno > 1:
            text = "method,eta,map,cf1,of1,frobenius_to_true\n" + text
        (out / "summary.csv").write_text(text)
        assert main(["--out", str(out), "plot"]) == 1
        err = capsys.readouterr().err
        assert f"error: {out / 'summary.csv'}:{lineno}: {problem}" in err
        assert "Traceback" not in err
        assert list(out.glob("*.svg")) == []

    @pytest.mark.parametrize("row, problem", [
        ("2,test,inf,0.4,0.4,0.8", "map must be finite, got inf"),
        ("one,test,0.4,0.4,0.4,0.8", "epoch must be an integer, got 'one'"),
        ("1,test,0.4,0.4,0.4,0.8", "expected epoch 2, got 1"),
    ], ids=["inf-map", "text-epoch", "repeated-epoch"])
    def test_plot_names_the_line_of_a_non_finite_epoch_score(self, tmp_path, capsys, row,
                                                             problem):
        out = tmp_path / "sweep"
        (out / "eta0.3_none").mkdir(parents=True)
        (out / "summary.csv").write_text("method,eta,map,cf1,of1,frobenius_to_true\n"
                                         "none,0.0,0.5,0.5,0.5,\nnone,0.3,0.4,0.4,0.4,\n")
        metrics = out / "eta0.3_none" / "metrics.csv"
        metrics.write_text(f"epoch,split,map,cf1,of1,loss\n1,test,0.3,0.3,0.3,0.9\n{row}\n")
        assert main(["--out", str(out), "plot"]) == 1
        err = capsys.readouterr().err
        assert f"error: {metrics}:3: {problem}" in err
        assert "Traceback" not in err
        assert list(out.glob("*.svg")) == []

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


class TestErrors:
    def test_bad_config_returns_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("noise.eta = 2.0\n")
        assert main(["--config", str(bad), "gen-data"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_config_key_exits_one(self, tmp_path, cfg_file, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(cfg_file.read_text() + "seed = 5\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "gen-data"]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:13: key 'seed' repeats line 12" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_non_finite_config_value_exits_one_without_traceback(self, tmp_path, cfg_file,
                                                                  capsys):
        cfg = tmp_path / "nan.cfg"
        write_overridden(cfg_file, cfg, "gen.mean_labels = nan")
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "gen-data"]) == 1
        err = capsys.readouterr().err
        assert "nan.cfg:13: gen.mean_labels must be in [2,inf), got nan" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_u64_exits_one(self, tmp_path, cfg_file, capsys, seed):
        out = tmp_path / "run"
        assert main(["--config", str(cfg_file), "--out", str(out), "--seed", seed,
                     "gen-data"]) == 1
        err = capsys.readouterr().err
        assert f"error: seed must be in [0,2**64), got {seed}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
    def test_unusable_out_exits_one_without_traceback(self, tmp_path, cfg_file, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker if where == "existing-file" else blocker / "sub"
        code = main(["--config", str(cfg_file), "--out", str(out), "gen-data"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "exp.cfg"]

    def test_true_matrix_of_another_k_exits_one(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise"])
        true_csv = out / "true_matrix.csv"
        true_csv.write_text("# kind=true_row_stochastic K=4 eta=0.0\n" + "".join(
            ",".join("1.0" if i == j else "0.0" for j in range(4)) + "\n" for i in range(4)))
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "estimate", "--method", "true"])
        err = capsys.readouterr().err
        assert code == 1
        assert (f"error: {out / 'gold.mlnl'} has 10 features and 5 classes, "
                f"but {true_csv} has 4 classes") in err
        assert "Traceback" not in err
        assert not (out / "chat.csv").exists()

    @pytest.mark.parametrize("eta", ["nan", "7"])
    def test_true_matrix_with_an_eta_out_of_range_exits_one(self, tmp_path, cfg_file, capsys,
                                                            eta):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise"])
        true_csv = out / "true_matrix.csv"
        lines = true_csv.read_text().splitlines()
        true_csv.write_text(f"# kind=true_row_stochastic K=5 eta={eta}\n" + "\n".join(lines[1:])
                            + "\n")
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "estimate", "--method", "true"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {true_csv}:1: eta must be in [0,1), got {float(eta)!r}" in err
        assert "Traceback" not in err
        assert not (out / "chat.csv").exists()

    def test_missing_file_reported(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "train-silver"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_one_without_traceback(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        ckpt = out / "model.mlpm"
        save_model(init_model([10, 12, 5], "tanh", 1.0, seed=1), ckpt)
        ckpt.write_text("\n".join(ckpt.read_text().splitlines()[:3]) + "\n")
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "evaluate",
                     "--model", str(ckpt), "--data", str(out / "test.mlnl")])
        err = capsys.readouterr().err
        assert code == 1
        assert "model.mlpm:4: checkpoint ends" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_checkpoint_parameter_exits_one(self, tmp_path, cfg_file, capsys, value):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        ckpt = out / "model.mlpm"
        save_model(init_model([10, 12, 5], "tanh", 1.0, seed=1), ckpt)
        lines = ckpt.read_text().splitlines()
        lines[1] = value + " " + lines[1].split(" ", 1)[1]
        ckpt.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "evaluate",
                     "--model", str(ckpt), "--data", str(out / "test.mlnl")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {ckpt}:2: non-finite parameter" in err
        assert "Traceback" not in err
        assert not (out / "eval.csv").exists()

    def test_non_finite_feature_exits_one_without_traceback(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        data = out / "test.mlnl"
        lines = data.read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if "|" in ln)
        lines[row] = "nan " + lines[row].split(" ", 1)[1]
        data.write_text("\n".join(lines) + "\n")
        ckpt = out / "model.mlpm"
        save_model(init_model([10, 12, 5], "tanh", 1.0, seed=1), ckpt)
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "evaluate",
                     "--model", str(ckpt), "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"test.mlnl:{row + 1}: features must be finite" in err
        assert "Traceback" not in err

    def test_bad_matrix_row_exits_one_without_traceback(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise", "--eta", 0.3])
        bad = out / "bad.csv"
        rows = ["1.0,0.0,0.0,0.0,0.0"] * 5
        rows[3] = "0.9,0.2,0.0,0.0,0.0"
        bad.write_text("# kind=true_row_stochastic K=5\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "train-gold",
                     "--correction", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad.csv:5: row 3 does not sum to 1" in err
        assert "Traceback" not in err

    def test_correction_without_rows_exits_one(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise", "--eta", 0.3])
        bare = out / "bare.csv"
        bare.write_text("# kind=true_row_stochastic K=5\n")
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "train-gold",
                     "--correction", str(bare)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{bare}: no data rows" in err
        assert "Traceback" not in err

    def test_correction_of_another_k_names_its_file(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise", "--eta", 0.3])
        chat = out / "chat.csv"
        chat.write_text("# kind=true_row_stochastic K=4\n" + "".join(
            ",".join("1.0" if i == j else "0.0" for j in range(4)) + "\n" for i in range(4)))
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "train-gold",
                     "--correction", str(chat)])
        err = capsys.readouterr().err
        assert code == 1
        assert (f"error: {out / 'gold.mlnl'} has 10 features and 5 classes, "
                f"but {chat} has 4 classes") in err
        assert "Traceback" not in err
        assert not (out / "gold_model.mlpm").exists()

    @pytest.mark.parametrize("layers", [[7, 12, 5], [10, 12, 4]], ids=["features", "classes"])
    def test_model_and_data_of_other_shapes_are_named(self, tmp_path, cfg_file, capsys,
                                                      layers):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        ckpt, data = out / "model.mlpm", out / "test.mlnl"
        save_model(init_model(layers, "tanh", 1.0, seed=1), ckpt)
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "evaluate",
                     "--model", str(ckpt), "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 1
        assert (f"error: {ckpt} takes {layers[0]} features and {layers[-1]} classes, "
                f"but {data} has 10 and 5") in err
        assert "Traceback" not in err
        assert not (out / "eval.csv").exists()

    @staticmethod
    def widen(path, features=0, classes=0):
        """Rewrite the dataset file `path` with extra features and classes."""
        ds = read_dataset(path)
        write_dataset(Dataset(np.pad(ds.features, ((0, 0), (0, features))),
                              np.pad(ds.labels, ((0, 0), (0, classes))), ds.tag), path)

    @pytest.mark.parametrize("command, widened, extra, named", [
        (["train-gold", "--correction", "none"], "gold.mlnl", {"classes": 1},
         ("gold.mlnl", "10 features and 6 classes", "silver_noisy.mlnl", "10 and 5")),
        (["train-silver"], "test.mlnl", {"features": 1},
         ("silver_noisy.mlnl", "10 features and 5 classes", "test.mlnl", "11 and 5")),
    ], ids=["gold-classes", "test-features"])
    def test_inputs_of_other_shapes_are_named(self, tmp_path, cfg_file, capsys, command,
                                              widened, extra, named):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise", "--eta", 0.3])
        self.widen(out / widened, **extra)
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), *command])
        err = capsys.readouterr().err
        assert code == 1
        first, first_shape, second, second_shape = named
        assert (f"error: {out / first} has {first_shape}, "
                f"but {out / second} has {second_shape}") in err
        assert "Traceback" not in err
        assert not list(out.glob("*.mlpm"))

    @pytest.mark.parametrize("command", [["train-silver"], ["train-gold", "--correction", "none"]],
                             ids=["train-silver", "train-gold"])
    def test_missing_test_split_exits_one(self, tmp_path, cfg_file, capsys, command):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise", "--eta", 0.3])
        (out / "test.mlnl").unlink()
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), *command])
        err = capsys.readouterr().err
        assert code == 1
        assert str(out / "test.mlnl") in err
        assert "Traceback" not in err
        assert not list(out.glob("*.mlpm"))

    @pytest.mark.parametrize("counts", ["99999999999999 3 4", "6 99999999999999 4",
                                        "6 3 99999999999999"])
    def test_huge_dataset_header_exits_one_without_traceback(self, tmp_path, cfg_file, capsys,
                                                            counts):
        data = tmp_path / "huge.mlnl"
        data.write_text(f"# tag=clean\nMLNL v1 {counts}\n" + "0.5 1 2 | 0 3\n" * 6)
        ckpt = tmp_path / "model.mlpm"
        save_model(init_model([3, 4, 4], "tanh", 1.0, seed=1), ckpt)
        code = main(["--config", str(cfg_file), "--out", str(tmp_path / "run"), "evaluate",
                     "--model", str(ckpt), "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {data}:2: " in err
        assert "Traceback" not in err

    def test_config_too_large_to_allocate_exits_one(self, tmp_path, cfg_file, capsys):
        cfg = tmp_path / "huge.cfg"
        write_overridden(cfg_file, cfg, "gen.n = 99999999999999")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "gen-data"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg}:13: gen.n must be at most")
        assert "Traceback" not in err

    def test_empty_silver_split_exits_one_at_gen_data(self, tmp_path, cfg_file, capsys):
        # a trusted fraction this close to 1 would leave the silver split empty
        out = tmp_path / "run"
        cfg = tmp_path / "all-gold.cfg"
        write_overridden(cfg_file, cfg, "split.trusted_fraction = 0.999")
        code = main(["--config", str(cfg), "--out", str(out), "gen-data"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: trusted_fraction 0.999 leaves no silver samples of ")
        assert "Traceback" not in err
        assert not (out / "silver_clean.mlnl").exists()
        # nor does it touch the files of an earlier gen-data, which a later
        # inject-noise would read beside its resolved.cfg
        run(["--config", cfg_file, "--out", out, "gen-data"])
        before = {p: p.read_bytes() for p in out.rglob("*")}
        assert main(["--config", str(cfg), "--out", str(out), "gen-data"]) == 1
        assert {p: p.read_bytes() for p in out.rglob("*")} == before

    def test_empty_test_split_exits_one_at_gen_data(self, tmp_path, capsys):
        # 1% of 40 samples rounds to a test split of none
        out = tmp_path / "run"
        cfg = tmp_path / "no-test.cfg"
        cfg.write_text("gen.n = 40\ngen.d = 4\ngen.k = 4\ngen.mean_labels = 2.0\n"
                       "data.test_fraction = 0.01\n")
        code = main(["--config", str(cfg), "--out", str(out), "gen-data"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: test_fraction 0.01 leaves no multi-label test samples "
                              "of 40")
        assert "Traceback" not in err
        assert not list(out.glob("*.mlnl"))

    def test_empty_training_set_exits_one_without_traceback(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        (out / "silver_noisy.mlnl").write_text("# tag=noisy\nMLNL v1 0 10 5\n")
        capsys.readouterr()
        code = main(["--config", str(cfg_file), "--out", str(out), "train-silver"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: cannot train on an empty dataset" in err
        assert "Traceback" not in err
        assert not (out / "silver_model.mlpm").exists()

    def test_diverging_training_exits_one(self, tmp_path, cfg_file, capsys):
        # features of scale 1e4 give gradient entries above 1.8, so one SGD
        # step with lr = 1e308 overflows parameters to inf
        out = tmp_path / "run"
        cfg = tmp_path / "diverge.cfg"
        write_overridden(cfg_file, cfg, "silver.optimizer = sgd", "silver.lr = 1e308",
                         "silver.batch_size = 100000", "gen.feature_noise_sigma = 1e4")
        run(["--config", cfg, "--out", out, "gen-data"])
        run(["--config", cfg, "--out", out, "inject-noise", "--eta", 0.3])
        capsys.readouterr()
        with np.errstate(over="ignore"):
            code = main(["--config", str(cfg), "--out", str(out), "train-silver"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: non-finite parameters after epoch 1" in err
        assert "Traceback" not in err
        assert not (out / "silver_model.mlpm").exists()


def out_of_space_after_one(lines, path):
    """Yield the first of `lines`, then run out of disk writing to `path`."""
    lines = iter(lines)
    yield next(lines)
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


class TestInterruptedWrites:
    """A write that stops early leaves no file behind: when the k-th
    textio.write_lines call runs out of disk after one line, the subcommand
    exits 1 naming that file, no `*.partial` is left, and every file present
    holds the bytes of a clean run. Each dataset is one chunk, so every line
    is produced in this process."""

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

    def staged(self, cfg, where, capsys, monkeypatch) -> tuple[list[int], str]:
        """Run STEPS up to the first that fails, with `--out run` in the new
        directory `where`, so resolved.cfg reads the same in every run; their
        exit codes and stderr."""
        where.mkdir()
        monkeypatch.chdir(where)
        capsys.readouterr()
        codes = []
        for step in self.STEPS:
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
