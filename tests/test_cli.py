import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlnl import cli, estimator
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
    ], ids=["header", "fields", "method"])
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

    def test_non_finite_config_value_exits_one_without_traceback(self, tmp_path, cfg_file,
                                                                  capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(cfg_file.read_text() + "gen.mean_labels = nan\n")
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
        assert f"error: {true_csv} has K=4, but {out / 'gold.mlnl'} has 5 classes" in err
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
        assert f"error: {chat}: correction matrix K=4 does not match the data's K=5" in err
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
        cfg.write_text(cfg_file.read_text() + "gen.n = 99999999999999\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "gen-data"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg}:13: gen.n must be at most")
        assert "Traceback" not in err

    def test_empty_silver_split_exits_one_at_gen_data(self, tmp_path, cfg_file, capsys):
        # a trusted fraction this close to 1 would leave the silver split empty
        out = tmp_path / "run"
        cfg = tmp_path / "all-gold.cfg"
        cfg.write_text(cfg_file.read_text() + "split.trusted_fraction = 0.999\n")
        code = main(["--config", str(cfg), "--out", str(out), "gen-data"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: trusted_fraction 0.999 leaves no silver samples of ")
        assert "Traceback" not in err
        assert not (out / "silver_clean.mlnl").exists()

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
        cfg.write_text(cfg_file.read_text() + "silver.optimizer = sgd\nsilver.lr = 1e308\n"
                       "silver.batch_size = 100000\ngen.feature_noise_sigma = 1e4\n")
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


class TestAblateCommand:
    def test_limit_axis(self, tmp_path, cfg_file):
        out = tmp_path / "ab"
        cfg = cfg_file.read_text() + "ablation.eta = 0.3\n"
        cfg_path = tmp_path / "ab.cfg"
        cfg_path.write_text(cfg)
        run(["--config", cfg_path, "--out", out, "ablate", "--axis", "limit"])
        assert (out / "ablation_limit.svg").exists()


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


class TestTooling:
    """Entry points start: a broken import fails here, not for a user."""

    ROOT = Path(__file__).resolve().parent.parent

    def help_exits_zero(self, argv):
        src = str(self.ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, *argv], cwd=self.ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage:" in done.stdout

    @pytest.mark.parametrize("argv", [["-m", "mlnl", "--help"]])
    def test_help_exits_zero(self, argv):
        self.help_exits_zero(argv)

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_subcommand_help_exits_zero(self, command):
        self.help_exits_zero(["-m", "mlnl", command, "--help"])

    @staticmethod
    def subparsers():
        parser = cli.build_parser()
        (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return subcommands.choices

    def test_estimate_takes_only_method(self):
        options = [s for a in self.subparsers()["estimate"]._actions for s in a.option_strings]
        assert sorted(options) == ["--help", "--method", "-h"]

    def test_every_subcommand_has_one_handler(self):
        assert sorted(self.subparsers()) == sorted(cli._HANDLERS)

    def test_only_textio_writes_files(self):
        """Every file the package writes goes through textio.write_lines, so
        all of them are UTF-8 with \\n line ends on every platform."""
        writers = []
        for path in sorted((self.ROOT / "src" / "mlnl").glob("*.py")):
            if path.name == "textio.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                # open(path, mode) or <path>.open(mode); a mode that is not a
                # read-only literal counts as writing
                positional = node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            positional[0] if positional else ast.Constant("r"))
                reads = isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")
                if name in ("write_text", "write_bytes") or (name == "open" and not reads):
                    writers.append(f"{path.name}:{node.lineno}")
        assert writers == []

    def test_no_module_imports_a_name_it_never_uses(self):
        """Every name a module imports is read somewhere in it. cli.train is
        the one exception: perfbench's tracer checks that binding."""
        unused = []
        for path in sorted((self.ROOT / "src" / "mlnl").glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                        getattr(node, "module", None) != "__future__":
                    unused += [f"{path.stem}.{name}" for name in
                               ((a.asname or a.name).split(".")[0] for a in node.names)
                               if name not in used]
        assert unused == ["cli.train"]

    def test_configs_are_checked_where_built(self):
        """Building a config object runs its validate(), so the package calls
        validate() only there, in GenConfig's override, and in
        harness.run_dir, which every entry point that takes an
        ExperimentConfig runs first, since that config stays mutable."""
        def validate_calls(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    yield from validate_calls(child, f"{scope}.{child.name}")
                    continue
                if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "validate":
                    yield scope
                yield from validate_calls(child, scope)

        found = [scope for path in sorted((self.ROOT / "src" / "mlnl").glob("*.py"))
                 for scope in validate_calls(ast.parse(path.read_text(encoding="utf-8")),
                                             path.stem)]
        assert sorted(found) == ["datagen.GenConfig.validate", "harness.run_dir",
                                 "numerics.Settings.__post_init__"]
