"""Command-line entry points and the run-configuration schema.

A run is one JSON config with the blocks seed, grid, solver, data ({"u0":
descriptor, "v0": descriptor}) and task ({"name": ..., parameters}).  Every
block, data family and task has one key table below; a key its table does
not name, or a required key absent, is an error, raised before the run
directory is made or any solve starts; the input blocks a task reads
(_TASK_INPUTS) are required keys.  An absent key takes the default of the
function the block goes to, so each default is written once.  README "Command line" lists every key.

Tasks: simulate, groundstate, eigen, bounds, threshold, symmetry-check.
Artifacts land in <out>/<task>-<config-hash>/, which appears only once the
task has finished; rerunning an identical config is a no-op once
summary.json exists.  All floats are serialized at full round-trip
precision and no timestamps are written, so identical configs produce
byte-identical summaries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import criterion, dynamics, groundstate, observables, threshold
from .spectral import Field, Grid, make_grid, read_field, write_field, zeros
from .symmetry import check_equivariance


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]


class _Required(partial):
    """A key table entry the block must hold: _Required(cast) casts like cast."""


def _block(where: str, table: dict):
    """The cast of one config block: the keys present, each cast by `table`.
    A key the table does not name, or a _Required key absent, is an error."""

    def cast(block: dict) -> dict:
        unknown = sorted(set(block) - set(table))
        if unknown:
            allowed = ", ".join(sorted(table)) or "none"
            raise ValueError(f"unknown key {unknown} in {where}; allowed: {allowed}")
        missing = sorted(k for k, c in table.items()
                         if isinstance(c, _Required) and k not in block)
        if missing:
            raise ValueError(f"missing key {missing} in {where}")
        return {k: table[k](v) for k, v in block.items()}

    return cast


def _floats(values) -> list:
    return [float(x) for x in values]


def _which(which: str) -> str:
    if which not in ("Q1", "Q2"):
        raise ValueError(f"which must be 'Q1' or 'Q2', got {which!r}")
    return which


def _ground_state(grid: Grid, omega: float = 1.0, **solve_keys):
    """Cached by value: a default omega and an explicit 1.0 share one solve."""
    return _solved_ground_state(grid, omega, *sorted(solve_keys.items()))


@lru_cache(maxsize=4)
def _solved_ground_state(grid: Grid, omega: float, *solve_items):
    return groundstate.solve_ground_state(grid, omega, **dict(solve_items))


def _gaussian(grid, role, amplitude=1.0, width=1.0, center=None, phase=0.0, boost=None):
    center, boost = (np.zeros(grid.dim) if v is None else np.asarray(v)
                     for v in (center, boost))
    if center.shape != (grid.dim,) or boost.shape != (grid.dim,):
        raise ValueError(f"center and boost need {grid.dim} components on this grid")
    r2 = sum((a - c) ** 2 for a, c in zip(grid.axes, center))
    vals = amplitude * np.exp(1j * phase) * np.exp(-r2 / (2.0 * width ** 2))
    if np.any(boost != 0.0):
        xdot = sum(a * c for a, c in zip(grid.axes, boost))
        vals = vals * np.exp(1j * (2.0 if role == "v" else 1.0) * xdot)
    return Field(grid, vals)


def _ground_state_component(grid, role, which="Q2", scale=1.0, **omega):
    """`omega`, when given, goes on to _ground_state, which holds its default."""
    return Field(grid, scale * getattr(_ground_state(grid, **omega), which).values)


def _file(grid, role, path):
    f = read_field(path)
    if f.grid != grid:
        raise ValueError(f"field file {path} has a mismatched grid")
    return Field(grid, f.values)


# data family: (builder, key table); the builder's signature holds the defaults
_FAMILIES = {
    "zero": (lambda grid, role: zeros(grid), {}),
    "gaussian": (_gaussian, {"amplitude": float, "width": float, "center": _floats,
                             "phase": float, "boost": _floats}),
    "ground_state_component": (_ground_state_component,
                               {"omega": float, "which": _which, "scale": float}),
    "file": (_file, {"path": _Required(str)}),
}


def _descriptor(desc: dict) -> dict:
    family = desc.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown data family {family!r}")
    table = {"family": str, **_FAMILIES[family][1]}
    return _block(f"{family} descriptor", table)(desc)


def build_data(desc: dict, grid: Grid, role: str = "u") -> Field:
    """Construct a field from a family descriptor.  The boost phase of a
    v-component field is doubled, matching the pair transform."""
    keys = _descriptor(desc)
    return _FAMILIES[keys.pop("family")][0](grid, role, **keys)


# each task's keys besides "name"; the task passes them on to its library call
_TASK_KEYS = {
    "simulate": {},
    "groundstate": {"omega": float, "tol": float, "max_iter": int},
    "eigen": {"theta": lambda t: t if t == "scan" else float(t), "n_angles": int,
              "tol": float},
    "bounds": {"n_angles": int, "c_list": _floats},
    "threshold": {"shape": _Required(_descriptor), "a_lo": _Required(float),
                  "a_hi": _Required(float), "max_bisections": int},
    "symmetry-check": {"xi": _Required(_floats), "t_final": _Required(float)},
}


def _task(block: dict) -> dict:
    name = block.get("name")
    if name not in _TASK_KEYS:
        raise ValueError(f"unknown task {name!r}")
    table = _TASK_KEYS[name]
    if name == "eigen" and block.get("theta", "scan") != "scan":
        table = {k: c for k, c in table.items() if k != "n_angles"}  # no scan
    keys = _block(f"task {name!r}", {"name": str, **table})(block)
    del keys["name"]
    return keys


# the input blocks each task reads: "solver", and "u0"/"v0" inside "data"
_TASK_INPUTS = {
    "simulate": ("solver", "u0", "v0"),
    "groundstate": (),
    "eigen": ("v0",),
    "bounds": ("v0",),
    "threshold": ("solver", "v0"),
    "symmetry-check": ("solver", "u0", "v0"),
}

_GRID = _block("grid", {"dim": _Required(int), "n": _Required(int),
                        "half_width": _Required(float)})
_SOLVER = _block("solver", {"dt": _Required(float), "t_end": _Required(float),
                            "dealias": bool, "record_every": int,
                            "blowup_linf_factor": float, "blowup_hs_factor": float})


def _config(name):
    """The cast of the whole config of task `name`, in which the input
    blocks the task reads are required.  The checked task block holds only
    the task's parameters."""
    inputs = _TASK_INPUTS.get(name, ())

    def need(key, cast):
        return _Required(cast) if key in inputs else cast

    data = _block("data", {k: need(k, _descriptor) for k in ("u0", "v0")})
    return _block("config", {
        "seed": int,
        "grid": _Required(_GRID),
        "solver": need("solver", lambda b: dynamics.SolverConfig(**_SOLVER(b))),
        "data": _Required(data) if {"u0", "v0"} & set(inputs) else data,
        "task": _Required(_task),
    })


def _task_simulate(config, grid, run_dir):
    u0 = build_data(config["data"]["u0"], grid, "u")
    v0 = build_data(config["data"]["v0"], grid, "v")
    final, series, outcome = dynamics.evolve(dynamics.State(u0, v0, 0.0),
                                             config["solver"])
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
    gs = _ground_state(grid, **config["task"])
    write_field(run_dir / "q1.nls2", gs.Q1)
    write_field(run_dir / "q2.nls2", gs.Q2)
    rep = observables.energy(dynamics.State(gs.Q1, gs.Q2, 0.0))
    meta = {"omega": gs.omega, "residual1": gs.residual1, "residual2": gs.residual2,
            "iterations": gs.iterations, "discarded": gs.discarded,
            "mass": rep.mass, "energy": rep.energy}
    (run_dir / "groundstate.json").write_text(canonical_json(meta))
    return meta


def _task_eigen(config, grid, run_dir):
    keys = dict(config["task"])
    theta = keys.pop("theta", "scan")
    v0 = build_data(config["data"]["v0"], grid, "v")
    if theta == "scan":
        res = criterion.scan_theta(v0, **keys)
    else:
        res = criterion.lowest_eigenpair(v0, theta, **keys)
    write_field(run_dir / "phi.nls2", res.phi)
    return {k: getattr(res, k) for k in ("e_tilde", "theta", "residual", "iterations")}


def _task_bounds(config, grid, run_dir):
    keys = dict(config["task"])
    c_list = keys.pop("c_list", [1.0, 2.0, 4.0, 8.0, 16.0])
    v0 = build_data(config["data"]["v0"], grid, "v")
    reports = [criterion.eigenvalue_report(v0, **keys)]
    if "u0" in config["data"]:
        u0 = build_data(config["data"]["u0"], grid, "u")
        reports.append(criterion.energy_sign_bound(u0, v0))
    reports.extend(criterion.large_data_bound(v0, c_list))
    return {"reports": [r.to_dict() for r in reports]}


def _task_threshold(config, grid, run_dir):
    keys = dict(config["task"])
    shape = keys.pop("shape")
    est = threshold.bisect_threshold(
        build_data(config["data"]["v0"], grid, "v"),
        build_data(shape, grid, "u"),
        cfg=config["solver"],
        **keys,
    )
    result = {**est.to_dict(), "v0_descriptor": config["data"]["v0"],
              "shape_descriptor": shape}
    (run_dir / "threshold.json").write_text(canonical_json(result))
    return result


def _task_symmetry(config, grid, run_dir):
    task = config["task"]
    u0 = build_data(config["data"]["u0"], grid, "u")
    v0 = build_data(config["data"]["v0"], grid, "v")
    disc = check_equivariance((u0, v0), task["xi"], task["t_final"],
                              config["solver"])
    return {"xi": task["xi"], "t_final": task["t_final"], "discrepancy": disc}


_TASKS = {"simulate": _task_simulate, "groundstate": _task_groundstate,
          "eigen": _task_eigen, "bounds": _task_bounds, "threshold": _task_threshold,
          "symmetry-check": _task_symmetry}


def run(config: dict, out_dir) -> Path:
    """Execute the configured task; returns the run directory.  The task is
    handed the checked config, after every block and the grid pass, and a
    hidden work directory that becomes the run directory once summary.json
    is written in it; a task that raises leaves nothing behind."""
    name = config.get("task", {}).get("name")
    checked = _config(name)(config)
    grid = make_grid(**checked["grid"])
    h = config_hash(config)
    out = Path(out_dir)
    run_dir = out / f"{name}-{h}"
    if (run_dir / "summary.json").exists():
        return run_dir  # identical config already ran; never overwrite
    out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{name}-{h}.", dir=out))
    try:
        result = _TASKS[name](checked, grid, work)
        payload = canonical_json({"config_hash": h, "task": name, "result": result})
        (work / "summary.json").write_text(payload)
        if run_dir.exists():  # no summary.json: an incomplete run
            shutil.rmtree(run_dir)
        work.rename(run_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
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
