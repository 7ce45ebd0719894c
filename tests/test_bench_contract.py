"""The names the benchmark under bench/ imports or wraps still exist: the
microbenchmark module imports cleanly, and a traced CLI op records the
spans of every layer the per-layer metrics read."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    return module


def test_micro_imports():
    assert callable(load_bench_module("micro").main)


def test_traced_simulate(tmp_path):
    cfg = {
        "seed": 0,
        "grid": {"dim": 3, "n": 16, "half_width": 8.0},
        "solver": {"dt": 1e-2, "t_end": 0.1, "record_every": 5},
        "data": {
            "u0": {"family": "gaussian", "amplitude": 0.3, "width": 1.0},
            "v0": {"family": "gaussian", "amplitude": 0.2, "width": 1.0},
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), "--spans", str(spans_path),
         "--", "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "runs")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    names = {span[0] for span in spans}
    for name in ("dynamics.evolve", "dynamics.record", "observables.energy", "spectral.fft"):
        assert name in names

    # the work of the fused stepper: 4 FFTs a step, plus 4 for the initial
    # half-shift and 2 to recover each of the 2 later records' true state
    metrics = load_bench_module("tracer").layer_metrics(spans)
    assert metrics["dynamics.steps"] == 10
    assert metrics["dynamics.step.fft_calls"] == pytest.approx(4.8)
    assert metrics["dynamics.record.fft_calls"] == pytest.approx(14 / 3)
