import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlnl import estimator
from mlnl.cli import main
from mlnl.datagen import read_dataset
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
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "true",
             "--eta", 0.3])
        cm = read_matrix(out / "chat.csv")
        assert cm.kind == "true_row_stochastic"

    def test_no_final_sigmoid_flag(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise"])
        run(["--config", cfg_file, "--out", out, "train-silver"])
        run(["--config", cfg_file, "--out", out, "estimate", "--method", "galc-slr",
             "--no-final-sigmoid"])
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
        (out / "sweep_map.svg").unlink()
        run(["--config", cfg_file, "--out", out, "plot"])
        assert (out / "sweep_map.svg").exists()

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

    def staged(self, out, cfg_file, correction):
        run(["--config", cfg_file, "--out", out, "gen-data"])
        run(["--config", cfg_file, "--out", out, "inject-noise", "--eta", 0.3])
        run(["--config", cfg_file, "--out", out, "train-silver"])
        if correction != "none":
            run(["--config", cfg_file, "--out", out, "estimate", "--method", "galc-slr"])
            correction = out / "chat.csv"
        run(["--config", cfg_file, "--out", out, "train-gold", "--correction", correction])

    @pytest.mark.parametrize("method, correction", [("galc_slr", "chat.csv"),
                                                    ("none", "none")])
    def test_same_bytes(self, tmp_path, cfg_file, method, correction):
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        self.staged(cli_out, cfg_file, correction)
        run_pipeline(parse_config(cfg_file), 0.3, lib_out, method=method)
        names = self.SHARED
        if method == "galc_slr":
            names += ("chat.csv", "chat_raw.csv", "chat_scaled.csv")
        assert sorted(p.name for p in lib_out.glob("chat*.csv")) == \
            sorted(n for n in names if n.startswith("chat"))
        for name in names:
            assert (cli_out / name).read_bytes() == (lib_out / name).read_bytes(), name


class TestTooling:
    """Entry points start: a broken import fails here, not for a user."""

    ROOT = Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize("argv", [["-m", "mlnl", "--help"],
                                      ["scripts/calibrate_estimators.py", "--help"]])
    def test_help_exits_zero(self, argv):
        src = str(self.ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, *argv], cwd=self.ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage:" in done.stdout
