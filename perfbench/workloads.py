"""The benchmark's three closed-loop workloads.

Each workload is one caller in one process: an iteration starts only after
the previous one has finished. ``execute`` is the timed (and, in a traced
run, traced) region; ``verify`` checks invariants afterwards, untimed. Every
output lands under ``OUT`` in the current directory, so file digests do not
depend on where the benchmark runs. NOTES.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mlnl import cli, datagen, harness, model, noise
from mlnl.harness import ExperimentConfig
from mlnl.numerics import RandomStream

OUT = Path("runs")


@dataclass
class Op:
    """One operation: a sweep cell, a CLI subcommand or a data stage."""

    name: str
    seconds: float | None = None  # None until the operation completes
    ok: bool = False


@dataclass
class Iteration:
    ops: dict[str, Op]
    wall_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, op_names, problem: str) -> None:
        for name in op_names:
            self.ops[name].ok = False
        self.problems.append(problem)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(root: Path) -> dict[str, str]:
    return {p.as_posix(): sha256_bytes(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def _timed(it: Iteration, name: str, fn):
    t0 = perf_counter()
    result = fn()
    it.ops[name] = Op(name, perf_counter() - t0, True)
    return result


class SweepDefault:
    """``harness.run_sweep`` on the default grid: 4 eta x 3 methods."""

    name = "sweep-default"
    warmup = False  # one iteration fills a run; its cold start is a fixed share

    def config(self, seed: int) -> ExperimentConfig:
        return dataclasses.replace(ExperimentConfig(), seed=seed)

    def op_names(self, cfg) -> list[str]:
        return [f"eta{eta!r}_{m}" for eta in cfg.etas for m in harness.SWEEP_METHODS]

    def owners(self, cfg, key: str) -> list[str]:
        parts = key.split("/")
        cells = self.op_names(cfg)
        return [parts[1]] if len(parts) > 2 and parts[1] in cells else cells

    def execute(self, cfg, it: Iteration):
        records = harness.run_sweep(cfg, OUT)
        for r in records:
            name = f"eta{r.eta!r}_{r.method}"
            it.ops[name] = Op(name, r.wall_seconds, True)
        return records

    def verify(self, cfg, it: Iteration, records) -> None:
        log = OUT / "failures.log"
        if log.exists():
            # run_sweep skips a failed cell, so it already has no record
            it.problems += log.read_text(encoding="utf-8").splitlines()
        maps = {(r.method, r.eta): r.final.map for r in records}
        top = max(cfg.etas)
        if ("galc_slr", top) in maps and ("none", top) in maps:
            it.quality["final_map"] = maps["galc_slr", top]
            it.quality["robust_gap_map"] = maps["galc_slr", top] - maps["none", top]
        if ("galc_slr", 0.4) in maps:
            it.quality["galc_slr_map_eta0.4"] = maps["galc_slr", 0.4]

    def replay(self, cfg) -> dict[str, str]:
        """Digests of the highest-eta GALC-SLR cell run again on its own,
        keyed as in the sweep's own output."""
        cell = f"eta{max(cfg.etas)!r}_galc_slr"
        scratch = Path("replay")
        harness.run_pipeline(cfg, max(cfg.etas), scratch, method="galc_slr",
                             data=harness.prepare_data(cfg))
        digests = {f"{(OUT / cell).as_posix()}/{k[len('replay/'):]}": v
                   for k, v in file_digests(scratch).items()}
        shutil.rmtree(scratch)
        return digests

    def expected_calls(self, cfg) -> dict[str, int]:
        methods = harness.SWEEP_METHODS
        cells = len(cfg.etas) * len(methods)
        plain_gold = len(cfg.etas) * methods.count("none")
        galc = len(cfg.etas) * methods.count("galc_slr")
        evals = cells * (cfg.silver.epochs + cfg.gold.epochs)
        return {
            "harness.prepare_data": 1, "datagen.generate": 1,
            "harness.run_pipeline": cells, "noise.inject": cells,
            "model.train_plain": cells + plain_gold,
            "model.train_corrected": cells - plain_gold,
            "metrics.evaluate": evals, "model.forward": evals + 2 * galc,
            "estimator.regulators": galc, "estimator.estimate": galc,
            "model.checkpoint_io": 2 * cells, "harness.write_metrics_csv": 2 * cells,
            "svgplot.emit_plot": 4,
        }


class DataLarge:
    """Generation, injection and text IO at 30000 x K=20; no training."""

    name = "data-large"
    warmup = True
    eta = 0.6
    stages = ("prepare", "inject", "empirical", "write", "read")
    files = {"full.mlnl": "write", "silver_noisy.mlnl": "write",
             "flips": "inject", "empirical_matrix": "empirical"}

    def config(self, seed: int) -> ExperimentConfig:
        cfg = dataclasses.replace(ExperimentConfig(), seed=seed)
        cfg.gen = dataclasses.replace(cfg.gen, n=30000, k=20, mean_labels_per_sample=4.0,
                                      correlation_strength=1.0)
        return cfg

    def op_names(self, cfg) -> list[str]:
        return list(self.stages)

    def owners(self, cfg, key: str) -> list[str]:
        owner = self.files.get(key.split("/")[-1])
        return [owner] if owner else self.op_names(cfg)

    def execute(self, cfg, it: Iteration):
        OUT.mkdir()
        spec = noise.NoiseSpec(self.eta, seed=RandomStream(cfg.seed).derive_seed("noise"),
                               mode=cfg.noise_mode)
        data = _timed(it, "prepare", lambda: harness.prepare_data(cfg))
        noisy, log = _timed(it, "inject", lambda: noise.inject(data.silver_clean, spec))
        emp, _ = _timed(it, "empirical",
                        lambda: noise.empirical_matrix(data.silver_clean, noisy))

        def write():
            datagen.write_dataset(data.full, OUT / "full.mlnl")
            datagen.write_dataset(noisy, OUT / "silver_noisy.mlnl")

        def read():
            return (datagen.read_dataset(OUT / "full.mlnl"),
                    datagen.read_dataset(OUT / "silver_noisy.mlnl"))

        _timed(it, "write", write)
        full_back, noisy_back = _timed(it, "read", read)
        return data, noisy, log, emp, full_back, noisy_back

    def verify(self, cfg, it: Iteration, state) -> None:
        data, noisy, log, emp, full_back, noisy_back = state
        clean = data.silver_clean
        it.digests["mem/flips"] = sha256_bytes(np.asarray(log.flips, dtype=np.int64).tobytes())
        it.digests["mem/empirical_matrix"] = sha256_bytes(emp.matrix.tobytes())
        _check_injection(it, ["inject"], clean, noisy, len(log), self.eta)
        if not (datagen.datasets_equal(full_back, data.full)
                and datagen.datasets_equal(noisy_back, noisy)):
            it.fail(["read"], "dataset round trip changed the data")

    def expected_calls(self, cfg) -> dict[str, int]:
        return {"harness.prepare_data": 1, "datagen.generate": 1, "noise.inject": 1,
                "noise.empirical_matrix": 1, "datagen.write_dataset": 2,
                "datagen.read_dataset": 2, "model.train_plain": 0,
                "model.train_corrected": 0, "metrics.evaluate": 0, "model.forward": 0}


class StagedCli:
    """The six staged subcommands through ``mlnl.cli.main``, eta=0.4, GALC-SLR."""

    name = "staged-cli"
    warmup = True
    eta = 0.4
    files = {
        "gen-data": ("dataset_full.mlnl", "test.mlnl", "gold.mlnl", "silver_clean.mlnl",
                     "singles_pool.mlnl", "resolved.cfg"),
        "inject-noise": ("silver_noisy.mlnl", "true_matrix.csv", "empirical_matrix.csv",
                         "flips.csv"),
        "train-silver": ("silver_model.mlpm", "silver_metrics.csv"),
        "estimate": ("chat.csv", "chat_raw.csv", "chat_scaled.csv", "chat_info.txt"),
        "train-gold": ("gold_model.mlpm", "metrics.csv"),
        "evaluate": ("eval.csv",),
    }

    def config(self, seed: int) -> ExperimentConfig:
        return dataclasses.replace(ExperimentConfig(), seed=seed)

    def commands(self) -> dict[str, list[str]]:
        return {
            "gen-data": ["gen-data"],
            "inject-noise": ["inject-noise", "--eta", repr(self.eta)],
            "train-silver": ["train-silver"],
            "estimate": ["estimate", "--method", "galc-slr"],
            "train-gold": ["train-gold", "--correction", str(OUT / "chat.csv")],
            "evaluate": ["evaluate", "--model", str(OUT / "gold_model.mlpm"),
                         "--data", str(OUT / "test.mlnl")],
        }

    def op_names(self, cfg) -> list[str]:
        return list(self.commands())

    def owners(self, cfg, key: str) -> list[str]:
        base = key.split("/")[-1]
        owner = [op for op, names in self.files.items() if base in names]
        return owner or self.op_names(cfg)

    def execute(self, cfg, it: Iteration):
        messages = io.StringIO()
        for op, argv in self.commands().items():
            with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
                t0 = perf_counter()
                rc = cli.main(["--seed", str(cfg.seed), "--out", str(OUT), *argv])
                it.ops[op] = Op(op, perf_counter() - t0, rc == 0)
        return messages.getvalue()

    def verify(self, cfg, it: Iteration, messages: str) -> None:
        if not all(op.ok for op in it.ops.values()):
            it.problems.append("a subcommand exited non-zero: " + messages.strip())
            return
        clean = datagen.read_dataset(OUT / "silver_clean.mlnl")
        noisy = datagen.read_dataset(OUT / "silver_noisy.mlnl")
        flips = len((OUT / "flips.csv").read_text(encoding="utf-8").splitlines()) - 1
        _check_injection(it, ["inject-noise"], clean, noisy, flips, self.eta)

        datagen.write_dataset(noisy, "roundtrip.mlnl")
        if not datagen.datasets_equal(datagen.read_dataset("roundtrip.mlnl"), noisy):
            it.fail(["inject-noise"], "dataset round trip changed silver_noisy.mlnl")
        for ckpt, op in (("silver_model.mlpm", "train-silver"), ("gold_model.mlpm", "train-gold")):
            model.save_model(model.load_model(OUT / ckpt), "roundtrip.mlpm")
            if Path("roundtrip.mlpm").read_bytes() != (OUT / ckpt).read_bytes():
                it.fail([op], f"checkpoint round trip changed {ckpt}")
        for tmp in ("roundtrip.mlnl", "roundtrip.mlpm"):
            Path(tmp).unlink()
        header, row = (OUT / "eval.csv").read_text(encoding="utf-8").splitlines()[:2]
        it.quality["final_map"] = float(dict(zip(header.split(","), row.split(",")))["map"])

    def expected_calls(self, cfg) -> dict[str, int]:
        evals = cfg.silver.epochs + cfg.gold.epochs + 1
        calls = {f"cli.{op}": 1 for op in self.commands()}
        calls.update({
            "harness.prepare_data": 1, "datagen.generate": 1, "noise.inject": 1,
            "noise.empirical_matrix": 1, "model.train_plain": 1, "model.train_corrected": 1,
            "metrics.evaluate": evals, "model.forward": evals + 2,
            "estimator.regulators": 1, "estimator.estimate": 1,
            "datagen.write_dataset": 6, "datagen.read_dataset": 9,
            "model.checkpoint_io": 4, "harness.write_metrics_csv": 2,
        })
        return calls


def _check_injection(it: Iteration, ops, clean, noisy, flips: int, eta: float) -> None:
    """Exact-count injection conserves each sample's label count and flips
    round(eta * positives) label instances."""
    if not np.array_equal(clean.cardinalities(), noisy.cardinalities()):
        it.fail(ops, "inject changed a sample's label count")
    expected = int(round(eta * int(clean.labels.sum())))
    if flips != expected:
        it.fail(ops, f"inject made {flips} flips, expected round(eta*positives) = {expected}")


WORKLOADS = {w.name: w for w in (SweepDefault(), DataLarge(), StagedCli())}
