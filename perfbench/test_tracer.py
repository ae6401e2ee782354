"""Self-test of the tracer on a tiny sweep (a few seconds):

    python3 -m pytest perfbench/test_tracer.py
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import tracer as tracing  # noqa: E402
from mlnl import cli, harness, model  # noqa: E402
from workloads import OUT, Iteration, Op, SweepDefault  # noqa: E402


def tiny_sweep_config():
    cfg = SweepDefault().config(0)
    cfg.gen = dataclasses.replace(cfg.gen, n=800)
    cfg.etas = (0.0, 0.4)
    cfg.silver = dataclasses.replace(cfg.silver, epochs=2)
    cfg.gold = dataclasses.replace(cfg.gold, epochs=3)
    return cfg


def test_every_binding_site_is_wrapped_and_restored():
    original = model.train
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        # harness and cli hold their own references from `from .model import train`
        for mod in (model, harness, cli):
            assert mod.train is not original
    finally:
        tracing.uninstall(undo)
    for mod in (model, harness, cli):
        assert mod.train is original


def test_span_counts_match_config_and_self_times_sum_to_wall(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl, cfg = SweepDefault(), tiny_sweep_config()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        root = tracer.open(tracing.ROOT)
        wl.execute(cfg, Iteration(ops={n: Op(n) for n in wl.op_names(cfg)}))
        tracer.close(root)
    finally:
        tracing.uninstall(undo)
    assert (tmp_path / OUT / "summary.csv").exists()

    calls = tracer.calls()
    for name, expected in wl.expected_calls(cfg).items():
        assert calls[name] == expected, name
    assert tracer.counts["numerics.scalar_draws"] > 0
    start, end = tracer.spans[0][1:3]
    assert sum(tracer.self_times().values()) == pytest.approx(end - start, abs=1e-9)
