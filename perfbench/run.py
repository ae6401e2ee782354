"""mlnl benchmark: one workload, one closed loop, one result line.

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 15 --trace 0

Run from the repository root. The program is imported from ``src/``; all
outputs go to ``.perfbench_work/`` and are removed afterwards, apart from the
span dumps of traced runs under ``.perfbench_work/traces/``. The last line of
stdout is the result: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, taken from one traced iteration
after an untraced loop. ``--pin`` rewrites the seed-0 digests instead (see
NOTES.md). Exits non-zero without a result if the program is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden_seed0.json"

# One BLAS thread: the training matrices are tiny, spare threads only spin,
# and a fixed count keeps timings and output bytes independent of nproc.
# Set before numpy is first imported, and inherited by the setup interpreters.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [str(SRC), str(HERE)]
try:
    import numpy as np
    import tracer as tracing
    from workloads import OUT, WORKLOADS, Iteration, Op, file_digests
except ImportError as e:  # a checkout without the program's sources
    sys.exit(f"error: cannot import mlnl from {SRC}: {e}")

GOLDEN_SEED = 0
HELD_OUT_SEED = 7
SETUP_REPEATS = 7
SETUP_CODE = ("import mlnl; from mlnl.harness import ExperimentConfig; "
              "ExperimentConfig().validate()")

# BENCHMARK.json's end_to_end metrics, as (name, unit).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("data_samples_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("ok_ops_frac", "frac"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help=f"run one seed-{GOLDEN_SEED} iteration and rewrite its golden digests")
    return p.parse_args(argv)


# ---------------------------------------------------------------- environment

def blas_threads() -> int | None:
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git,
        "src_sha256": src.hexdigest(), "seed": seed,
        "golden_seed": GOLDEN_SEED, "held_out_seed": HELD_OUT_SEED,
    }


def measure_setup() -> list[float]:
    """Fresh-interpreter import plus config build and validate, timed from outside."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


# ------------------------------------------------------------------ iterations

def run_iteration(wl, cfg, tracer: tracing.Tracer | None = None) -> Iteration:
    """One iteration in a fresh output directory; digests and checks included."""
    shutil.rmtree(OUT, ignore_errors=True)
    it = Iteration(ops={name: Op(name) for name in wl.op_names(cfg)})
    undo = tracing.install(tracer) if tracer is not None else []
    state, raised = None, False
    t0 = perf_counter()
    root = tracer.open(tracing.ROOT) if tracer is not None else None
    try:
        state = wl.execute(cfg, it)
    except Exception as e:  # the raising operation and those after it stay failed
        raised = True
        it.problems.append(f"{type(e).__name__}: {e}")
    if tracer is not None:
        tracer.close(root)
        tracing.uninstall(undo)
    it.wall_s = perf_counter() - t0
    if not raised:
        wl.verify(cfg, it, state)
    it.digests.update(file_digests(OUT))
    shutil.rmtree(OUT, ignore_errors=True)
    return it


def compare(wl, cfg, it: Iteration, reference: dict[str, str], label: str) -> None:
    for key in sorted(set(reference) | set(it.digests)):
        if reference.get(key) != it.digests.get(key):
            it.fail(wl.owners(cfg, key), f"{label}: {key} differs")


def closed_loop(wl, cfg, seconds: float, golden: dict | None) -> tuple[list, list]:
    """An untimed warm-up iteration if the workload has one, then timed
    iterations until another would overrun `seconds` (at least one).
    Every iteration is checked against the pinned digests and the first one."""
    iterations: list[Iteration] = []

    def iterate():
        it = run_iteration(wl, cfg)
        if golden is not None:
            compare(wl, cfg, it, golden, f"seed-{GOLDEN_SEED} digest")
        if iterations:
            compare(wl, cfg, it, iterations[0].digests, "determinism")
        iterations.append(it)

    if wl.warmup:
        iterate()
    warm = len(iterations)
    start = perf_counter()
    while True:
        iterate()
        typical = statistics.median(it.wall_s for it in iterations[warm:])
        if perf_counter() - start + typical > seconds:
            return iterations[:warm], iterations[warm:]


def check_replay(wl, cfg, first: Iteration) -> None:
    """Determinism when a single iteration ran: part of it again, compared."""
    for key, digest in sorted(wl.replay(cfg).items()):
        if first.digests.get(key) != digest:
            first.fail(wl.owners(cfg, key), f"determinism (replay): {key} differs")


# --------------------------------------------------------------------- metrics

def end_to_end(cfg, timed: list[Iteration], ops: list[Op], setup: list[float]):
    """Timings from the timed iterations; the success share over every operation run.
    Returns {name: (value, unit)} and {name: sample count}."""
    walls = [it.wall_s for it in timed]
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "data_samples_per_s": cfg.gen.n / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": sum(op.ok for op in ops) / len(ops),
    }
    samples = {"setup_s": len(setup), "wall_s": len(walls), "data_samples_per_s": len(walls),
               "peak_rss_mb": 1, "ok_ops_frac": len(ops)}
    return {name: (values[name], unit) for name, unit in END_TO_END}, samples


def per_layer(tracer: tracing.Tracer, traced_wall: float, untraced_wall: float):
    """Per-layer metrics of one traced iteration, layer by layer: {name: (value, unit)}."""
    calls, self_s, counts = tracer.calls(), tracer.self_times(), tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def span(name, *extra):
        busy = self_s.get(name, 0.0)
        if "calls" in extra:
            m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (busy, "s")
        if "bytes" in extra:
            m[f"{name}.bytes"] = (counts[f"{name}.bytes"], "B")
        if "rate" in extra:
            m[f"{name}.samples_per_s"] = (counts[f"{name}.samples"] / busy if busy else 0.0, "1/s")

    for key in ("scalar_draws", "block_draws", "block_values"):
        m[f"numerics.{key}"] = (counts[f"numerics.{key}"], "count")
    span("datagen.generate", "calls")
    span("datagen.split")
    span("datagen.write_dataset", "bytes")
    span("datagen.read_dataset", "bytes")
    span("noise.inject", "calls")
    flips, draws = counts["noise.inject.flips"], counts["noise.inject.randint_below"]
    m["noise.inject.flips"] = (flips, "count")
    m["noise.target_accept_ratio"] = (flips / draws if draws else 0.0, "ratio")
    span("noise.empirical_matrix")
    span("noise.matrix_io")
    span("model.train_plain", "calls", "rate")
    span("model.train_corrected", "calls", "rate")
    span("model.forward", "calls")
    span("model.checkpoint_io", "bytes")
    span("metrics.evaluate", "calls")
    span("estimator.regulators")
    span("estimator.estimate")
    m["estimator.fallback_classes"] = (counts["estimator.fallback_classes"], "count")
    span("harness.prepare_data", "calls")
    span("harness.run_pipeline")
    span("harness.write_metrics_csv")
    span("svgplot.emit_plot")
    for command in tracing.CLI_COMMANDS:
        span(f"cli.{command}")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.unattributed_s"] = (self_s.get(tracing.ROOT, 0.0), "s")
    return m


def check_trace(wl, cfg, tracer: tracing.Tracer, traced: Iteration) -> None:
    """Binding sites: span counts equal the config-derived counts.
    Attribution: self times plus the unattributed time sum to the traced wall."""
    calls = tracer.calls()
    for name, expected in wl.expected_calls(cfg).items():
        if calls[name] != expected:
            traced.problems.append(f"binding sites: {calls[name]} {name} spans, "
                                   f"config implies {expected}")
    total = sum(tracer.self_times().values())
    if abs(total - traced.wall_s) > 1e-3:
        traced.problems.append(f"attribution: self times sum to {total!r} s, "
                               f"traced wall is {traced.wall_s!r} s")


# ------------------------------------------------------------------------ main

def pin(wl, cfg) -> None:
    it = run_iteration(wl, cfg)
    if it.problems or not all(op.ok for op in it.ops.values()):
        sys.exit(f"not pinning {wl.name}: {it.problems}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if wl.name == "staged-cli":
        sweep_map = golden["sweep-default"]["quality"]["galc_slr_map_eta0.4"]
        if it.quality["final_map"] != sweep_map:
            sys.exit(f"staged-cli eval.csv mAP {it.quality['final_map']!r} differs from "
                     f"the sweep's GALC-SLR eta=0.4 mAP {sweep_map!r}")
    golden[wl.name] = {"digests": it.digests, "quality": it.quality}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(it.digests)} digests for {wl.name}")


def op_seconds(iterations: list[Iteration]) -> dict[str, float]:
    """Median time of each operation (sweep cell, subcommand or stage) that completed."""
    times: dict[str, list[float]] = {}
    for it in iterations:
        for op in it.ops.values():
            if op.seconds is not None:
                times.setdefault(op.name, []).append(op.seconds)
    return {name: statistics.median(t) for name, t in times.items()}


def measure(args, wl, cfg):
    """Runs the workload; returns (metrics, sample counts, timed and all iterations)."""
    golden = None
    if args.seed == GOLDEN_SEED:
        golden = json.loads(GOLDEN.read_text())[wl.name]["digests"]
    setup = measure_setup() if args.trace == 0 else []
    warmup, timed = closed_loop(wl, cfg, args.seconds, golden)
    if args.trace == 0:
        if not warmup and len(timed) == 1:
            check_replay(wl, cfg, timed[0])
        ops = [op for it in warmup + timed for op in it.ops.values()]
        metrics, samples = end_to_end(cfg, timed, ops, setup)
        return metrics, samples, timed, warmup + timed

    tracer = tracing.Tracer()
    traced = run_iteration(wl, cfg, tracer)
    compare(wl, cfg, traced, timed[0].digests, "traced vs untraced")
    check_trace(wl, cfg, tracer, traced)
    metrics = per_layer(tracer, traced.wall_s, statistics.median(it.wall_s for it in timed))
    traces = WORK / "traces"
    traces.mkdir(exist_ok=True)
    (traces / f"{wl.name}-seed{args.seed}.json").write_text(json.dumps(
        {"env": environment(args.seed), "counts": dict(tracer.counts),
         "spans": tracer.dump()}) + "\n")
    return metrics, {name: 1 for name in metrics}, timed, warmup + timed + [traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.pin and args.seed != GOLDEN_SEED:
        sys.exit(f"error: digests are pinned at seed {GOLDEN_SEED}")
    cfg = wl.config(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    os.chdir(workdir)  # outputs are written relative to here, so digests are path-free
    try:
        if args.pin:
            pin(wl, cfg)
            return 0
        metrics, samples, timed, ran = measure(args, wl, cfg)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for it in ran for op in it.ops.values()]
    problems = [p for it in ran for p in it.problems]
    failed = sum(not op.ok for op in ops)
    print(f"{wl.name} seed={args.seed} trace={args.trace} iterations={len(ran)} timed={len(timed)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r:>24} {unit:6s} n={samples[name]}")
    print(json.dumps({"env": environment(args.seed), "op_s": op_seconds(timed),
                      "quality": ran[0].quality, "problems": problems}))
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
