"""The names the benchmark under bench/ imports or wraps still exist: the
microbenchmark module imports cleanly, and a traced CLI op records the
spans of every layer the per-layer metrics read."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_micro_imports():
    spec = importlib.util.spec_from_file_location("bench_micro", ROOT / "bench" / "micro.py")
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)  # main() runs only under __main__
    assert callable(micro.main)


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
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    for name in ("dynamics.evolve", "dynamics.record", "observables.energy", "spectral.fft"):
        assert name in names
