"""The names the benchmark under bench/ imports or wraps still exist: the
microbenchmark module imports cleanly, every workload's config passes the
CLI's key tables, and traced CLI ops record the spans of every layer the
per-layer metrics read and do the exact work those metrics count."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nls2lab import cli, spectral

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    return module


def test_micro_imports():
    assert callable(load_bench_module("micro").main)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["evolve64", "threshold24", "elliptic64"])
def test_workload_configs_pass_the_schema(workload, seed, tmp_path, monkeypatch):
    # a schema stricter than the bench would only show as ok_ratio 0 there
    cfg = load_bench_module("workloads").make_config(workload, seed)
    calls = []
    for name in cli._TASKS:
        monkeypatch.setitem(cli._TASKS, name, lambda *args: calls.append(args) or {})
    run_dir = cli.run(cfg, tmp_path)
    assert run_dir.name == f"{cfg['task']['name']}-{cli.config_hash(cfg)}"
    assert len(calls) == 1


def traced_spans(task, cfg, tmp_path):
    """The spans of one CLI op run under bench/tracer.py."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), "--spans", str(spans_path),
         "--", task, "--config", str(cfg_path), "--out", str(tmp_path / "runs")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(spans_path.read_text())["spans"]


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
    spans = traced_spans("simulate", cfg, tmp_path)
    names = {span[0] for span in spans}
    for name in ("dynamics.evolve", "dynamics.record", "observables.energy", "spectral.fft"):
        assert name in names

    # the work of the fused stepper: 4 FFTs a step, plus 4 for the initial
    # half-shift and 2 to recover each of the 2 later records' true state
    metrics = load_bench_module("tracer").layer_metrics(spans)
    assert metrics["dynamics.steps"] == 10
    assert metrics["dynamics.step.fft_calls"] == pytest.approx(4.8)
    assert metrics["dynamics.record.fft_calls"] == pytest.approx(14 / 3)


def test_traced_bounds_solves_one_angle(tmp_path):
    # a real well: W(theta) = -6 cos(theta) e^{-r^2/2}, so after theta = 0 no
    # other angle's min W reaches below the e_tilde found there
    cfg = {
        "seed": 0,
        "grid": {"dim": 3, "n": 16, "half_width": 8.0},
        "data": {"v0": {"family": "gaussian", "amplitude": 3.0, "width": 1.0}},
        "task": {"n_angles": 4, "c_list": [1.0]},
    }
    spans = traced_spans("bounds", cfg, tmp_path)
    metrics = load_bench_module("tracer").layer_metrics(spans)
    assert metrics["criterion.eigen.calls"] == 1
    assert metrics["criterion.eigen.useful_ratio"] == 1.0

    # one norm for the eigenvalue witness and one for the large-data profile
    assert metrics["spectral.fh_half_norm.calls"] == 2

    # the first norm builds the grid's weight: one transform per slab of fine
    # x-planes, then axis 0, the center's Laplacian and the inverse; the
    # later norms on that grid are weighted sums with no transform
    m = 3 * cfg["grid"]["n"]
    planes = max(1, spectral._SLAB_POINTS // m ** 2)
    norms = [i for i, span in enumerate(spans) if span[0] == "spectral.fh_half_norm"]
    ffts = [sum(span[0] == "spectral.fft" and span[3] == i for span in spans) for i in norms]
    assert ffts == [3 + math.ceil(m / planes)] + [0] * (len(norms) - 1)
