"""Span tracer that wraps mlnl's public functions from outside the package.

Nothing under ``src/`` is changed. ``install`` replaces each traced function
at every place it is bound: ``harness`` and ``cli`` import ``train``,
``save_model`` and friends by name (``from .model import train``), so
replacing only ``mlnl.model.train`` would miss their calls. Every module
attribute that *is* the original function object is swapped, and
``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, child_time]``; spans nest because the
program is single-threaded, so a span's self time is its duration minus the
durations of its direct children. The root span is the workload iteration;
its self time is the time no traced layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter
from time import perf_counter

ROOT = "workload"

CLI_COMMANDS = ("gen-data", "inject-noise", "train-silver", "estimate",
                "train-gold", "evaluate")


def _train_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs["loss_mode"]
    return "model.train_plain" if isinstance(mode, str) else "model.train_corrected"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or []
    for token in argv:
        if token in CLI_COMMANDS:
            return f"cli.{token}"
    return "cli.other"


# (module, function) -> span name; a callable picks the name from the arguments.
SPANS = {
    ("datagen", "generate"): "datagen.generate",
    ("datagen", "strip_single_label"): "datagen.split",
    ("datagen", "split_gold_silver"): "datagen.split",
    ("datagen", "build_single_label_pool"): "datagen.split",
    ("datagen", "write_dataset"): "datagen.write_dataset",
    ("datagen", "read_dataset"): "datagen.read_dataset",
    ("noise", "inject"): "noise.inject",
    ("noise", "empirical_matrix"): "noise.empirical_matrix",
    ("noise", "write_matrix"): "noise.matrix_io",
    ("noise", "read_matrix"): "noise.matrix_io",
    ("model", "train"): _train_name,
    ("model", "forward"): "model.forward",
    ("model", "save_model"): "model.checkpoint_io",
    ("model", "load_model"): "model.checkpoint_io",
    ("metrics", "evaluate"): "metrics.evaluate",
    ("estimator", "compute_regulators"): "estimator.regulators",
    ("estimator", "estimate_galc_slr"): "estimator.estimate",
    ("estimator", "estimate_glc"): "estimator.estimate",
    ("harness", "prepare_data"): "harness.prepare_data",
    ("harness", "run_pipeline"): "harness.run_pipeline",
    ("harness", "write_metrics_csv"): "harness.write_metrics_csv",
    ("svgplot", "emit_plot"): "svgplot.emit_plot",
    ("cli", "main"): _cli_name,
}

# Spans whose file (the last positional argument) is counted in "<span>.bytes".
_FILE_SPANS = ("datagen.write_dataset", "datagen.read_dataset", "model.checkpoint_io")


class Tracer:
    """Spans and counters of one traced iteration, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, child in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child)
        return out

    def dump(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p, _ in self.spans]


def _span_wrapper(tracer: Tracer, fn, namer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = namer(args, kwargs) if callable(namer) else namer
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if name in _FILE_SPANS:
            path = kwargs["path"] if "path" in kwargs else args[-1]
            tracer.counts[f"{name}.bytes"] += os.path.getsize(path)
        if name == "noise.inject":
            tracer.counts["noise.inject.flips"] += len(result[1])
        elif name == "estimator.estimate":
            tracer.counts["estimator.fallback_classes"] += len(result.fallback_classes)
        elif name.startswith("model.train_"):
            model_cfg = args[3] if len(args) > 3 else kwargs["cfg"]
            data = args[1] if len(args) > 1 else kwargs["data"]
            tracer.counts[f"{name}.samples"] += model_cfg.epochs * data.n
        return result
    return wrapper


def _draw_wrappers(tracer: Tracer, stream_cls):
    next_u64 = stream_cls.next_u64
    u64_block = stream_cls.u64_block
    randint_below = stream_cls.randint_below
    counts = tracer.counts

    def counted_next_u64(self):
        counts["numerics.scalar_draws"] += 1
        return next_u64(self)

    def counted_u64_block(self, n):
        counts["numerics.block_draws"] += 1
        counts["numerics.block_values"] += n
        return u64_block(self, n)

    def counted_randint_below(self, n):
        if tracer.current() == "noise.inject":
            counts["noise.inject.randint_below"] += 1
        return randint_below(self, n)

    return {"next_u64": counted_next_u64, "u64_block": counted_u64_block,
            "randint_below": counted_randint_below}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every binding site of the traced functions; returns the undo list."""
    from mlnl import numerics

    for mod_name in {mod_name for mod_name, _ in SPANS}:
        importlib.import_module(f"mlnl.{mod_name}")
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "mlnl" or name.startswith("mlnl."))]
    undo: list[tuple[object, str, object]] = []
    for (mod_name, fn_name), namer in SPANS.items():
        original = getattr(importlib.import_module(f"mlnl.{mod_name}"), fn_name)
        wrapper = _span_wrapper(tracer, original, namer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    stream_cls = numerics.RandomStream
    for attr, wrapper in _draw_wrappers(tracer, stream_cls).items():
        undo.append((stream_cls, attr, getattr(stream_cls, attr)))
        setattr(stream_cls, attr, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
