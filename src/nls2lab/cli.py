"""Command-line entry points and the run-configuration schema.

A run is described by one JSON config file:

    {
      "seed": 0,
      "grid": {"dim": 3, "n": 48, "half_width": 10.0},
      "solver": {"dt": 1e-3, "t_end": 1.0, "dealias": true,
                 "record_every": 20,
                 "blowup_linf_factor": 1e3, "blowup_hs_factor": 1e3},
      "data": {"u0": {...descriptor}, "v0": {...descriptor}},
      "task": {"name": "simulate", ...task parameters}
    }

Data descriptors (field "family"):
    zero
    gaussian                amplitude, width, center, phase, boost
    ground_state_component  omega, which ("Q1"|"Q2"), scale
    file                    path

Tasks: simulate, groundstate, eigen, bounds, threshold, symmetry-check.
Artifacts land in <out>/<task>-<config-hash>/ ; rerunning an identical
config is a no-op once summary.json exists.  All floats are serialized at
full round-trip precision and no timestamps are written, so identical
configs produce byte-identical summaries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import dynamics, groundstate, observables, threshold
from .criterion import (
    BoundReport,
    energy_sign_bound,
    eigenvalue_bound,
    large_data_bound,
    lowest_eigenpair,
    scan_theta,
)
from .errors import NoNegativeEigenvalueError
from .spectral import Field, Grid, make_grid, read_field, write_field
from .symmetry import check_equivariance


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]


@lru_cache(maxsize=4)
def _ground_state_cached(grid: Grid, omega: float):
    return groundstate.solve_ground_state(grid, omega)


def build_data(desc: dict, grid: Grid, role: str = "u") -> Field:
    """Construct a field from a family descriptor.  The boost phase of a
    v-component field is doubled, matching the pair transform."""
    family = desc.get("family")
    if family == "zero":
        return Field(grid, np.zeros(grid.shape, dtype=np.complex128))
    if family == "gaussian":
        amp = float(desc.get("amplitude", 1.0))
        width = float(desc.get("width", 1.0))
        center = np.asarray(desc.get("center", [0.0] * grid.dim), dtype=float)
        phase = float(desc.get("phase", 0.0))
        boost = np.asarray(desc.get("boost", [0.0] * grid.dim), dtype=float)
        r2 = sum((a - c) ** 2 for a, c in zip(grid.axes, center))
        vals = amp * np.exp(1j * phase) * np.exp(-r2 / (2.0 * width ** 2))
        if np.any(boost != 0.0):
            mult = 2.0 if role == "v" else 1.0
            xdot = sum(a * c for a, c in zip(grid.axes, boost))
            vals = vals * np.exp(1j * mult * xdot)
        return Field(grid, vals)
    if family == "ground_state_component":
        gs = _ground_state_cached(grid, float(desc.get("omega", 1.0)))
        which = desc.get("which", "Q2")
        base = {"Q1": gs.Q1, "Q2": gs.Q2}[which]
        return Field(grid, float(desc.get("scale", 1.0)) * base.values)
    if family == "file":
        f = read_field(desc["path"])
        if f.grid != grid:
            raise ValueError(f"field file {desc['path']} has a mismatched grid")
        return f
    raise ValueError(f"unknown data family {family!r}")


# solver block keys and their types; absent keys take SolverConfig's defaults
_SOLVER_KEYS = {
    "dt": float,
    "t_end": float,
    "dealias": bool,
    "record_every": int,
    "blowup_linf_factor": float,
    "blowup_hs_factor": float,
}


def _solver_config(block: dict) -> dynamics.SolverConfig:
    return dynamics.SolverConfig(
        **{k: cast(block[k]) for k, cast in _SOLVER_KEYS.items() if k in block}
    )


def _write_summary(run_dir: Path, payload: dict):
    """Write summary.json atomically: it marks the run as finished, so a
    payload that fails to serialize must leave no file behind."""
    tmp = run_dir / "summary.json.tmp"
    tmp.write_text(canonical_json(payload))
    os.replace(tmp, run_dir / "summary.json")


def _task_simulate(config, grid, run_dir):
    u0 = build_data(config["data"]["u0"], grid, "u")
    v0 = build_data(config["data"]["v0"], grid, "v")
    state = dynamics.State(u0, v0, 0.0)
    cfg = _solver_config(config["solver"])
    final, series, outcome = dynamics.evolve(state, cfg)
    series.to_csv(run_dir / "series.csv")
    series.to_json(run_dir / "series.json")
    dynamics.write_state(run_dir / "final_state.nls2", final)
    return {
        "outcome": {"kind": outcome.kind, "t": outcome.t},
        "final_report": observables.report_all(final),
        "heuristic_note": "any scattering interpretation of finite-time "
        "diagnostics is heuristic",
    }


def _task_groundstate(config, grid, run_dir):
    task = config["task"]
    gs = groundstate.solve_ground_state(
        grid,
        float(task.get("omega", 1.0)),
        tol=float(task.get("tol", 1e-11)),
        max_iter=int(task.get("max_iter", 500)),
    )
    write_field(run_dir / "q1.nls2", gs.Q1)
    write_field(run_dir / "q2.nls2", gs.Q2)
    rep = observables.energy(dynamics.State(gs.Q1, gs.Q2, 0.0))
    meta = {
        "omega": gs.omega,
        "residual1": gs.residual1,
        "residual2": gs.residual2,
        "iterations": gs.iterations,
        "mass": rep.mass,
        "energy": rep.energy,
    }
    with open(run_dir / "groundstate.json", "w") as fh:
        fh.write(canonical_json(meta))
    return meta


def _task_eigen(config, grid, run_dir):
    task = config["task"]
    v0 = build_data(config["data"]["v0"], grid, "v")
    tol = float(task.get("tol", 1e-10))
    theta = task.get("theta", "scan")
    if theta == "scan":
        res = scan_theta(v0, int(task.get("n_angles", 16)), tol=tol)
    else:
        res = lowest_eigenpair(v0, float(theta), tol=tol)
    write_field(run_dir / "phi.nls2", res.phi)
    return {
        "e_tilde": res.e_tilde,
        "theta": res.theta,
        "residual": res.residual,
        "iterations": res.iterations,
    }


def _task_bounds(config, grid, run_dir):
    task = config["task"]
    v0 = build_data(config["data"]["v0"], grid, "v")
    reports = []

    eig_witness = None
    try:
        res = scan_theta(v0, int(task.get("n_angles", 16)))
        rep = eigenvalue_bound(v0, res)
        eig_witness = rep.witness_fields
        reports.append(rep)
    except NoNegativeEigenvalueError as exc:
        reports.append(BoundReport("Eigenvalue", None, {"reason": str(exc)}))

    if "u0" in config.get("data", {}):
        u0 = build_data(config["data"]["u0"], grid, "u")
    elif eig_witness is not None:
        u0 = eig_witness[0]
    else:
        u0 = None
    if u0 is not None:
        reports.append(energy_sign_bound(u0, v0))

    c_list = task.get("c_list", [1.0, 2.0, 4.0, 8.0, 16.0])
    reports.extend(large_data_bound(v0, [float(c) for c in c_list]))

    return {"reports": [r.to_dict() for r in reports]}


def _task_threshold(config, grid, run_dir):
    task = config["task"]
    v0 = build_data(config["data"]["v0"], grid, "v")
    shape = build_data(task["shape"], grid, "u")
    cfg = _solver_config(config["solver"])
    classifier = threshold.ClassifierConfig(**task.get("classifier", {}))
    est = threshold.bisect_threshold(
        v0,
        shape,
        float(task["a_lo"]),
        float(task["a_hi"]),
        cfg,
        max_bisections=int(task.get("max_bisections", 8)),
        classifier=classifier,
    )
    result = {
        **est.to_dict(),
        "v0_descriptor": config["data"]["v0"],
        "shape_descriptor": task["shape"],
    }
    with open(run_dir / "threshold.json", "w") as fh:
        fh.write(canonical_json(result))
    return result


def _task_symmetry(config, grid, run_dir):
    task = config["task"]
    u0 = build_data(config["data"]["u0"], grid, "u")
    v0 = build_data(config["data"]["v0"], grid, "v")
    cfg = _solver_config(config["solver"])
    xi = np.asarray(task["xi"], dtype=float)
    disc = check_equivariance((u0, v0), xi, float(task["t_final"]), cfg)
    return {"xi": list(map(float, xi)), "t_final": task["t_final"], "discrepancy": disc}


_TASKS = {
    "simulate": _task_simulate,
    "groundstate": _task_groundstate,
    "eigen": _task_eigen,
    "bounds": _task_bounds,
    "threshold": _task_threshold,
    "symmetry-check": _task_symmetry,
}


def run(config: dict, out_dir) -> Path:
    """Execute the configured task; returns the run directory."""
    name = config["task"]["name"]
    if name not in _TASKS:
        raise ValueError(f"unknown task {name!r}")
    h = config_hash(config)
    run_dir = Path(out_dir) / f"{name}-{h}"
    if (run_dir / "summary.json").exists():
        return run_dir  # identical config already ran; never overwrite
    run_dir.mkdir(parents=True, exist_ok=True)
    gblock = config["grid"]
    grid = make_grid(int(gblock["dim"]), int(gblock["n"]), float(gblock["half_width"]))
    result = _TASKS[name](config, grid, run_dir)
    _write_summary(run_dir, {"config_hash": h, "task": name, "result": result})
    return run_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nls2lab",
        description="Numerical laboratory for the coupled quadratic "
        "Schrodinger system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _TASKS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
        config.setdefault("task", {})["name"] = args.command
        run_dir = run(config, args.out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(canonical_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    print(canonical_json({"run_dir": str(run_dir)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
