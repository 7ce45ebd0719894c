"""The benchmark's workloads: why each exists, its seeded config, and the
correctness gate applied to the artifacts of every op.

Seed 0 gives the nominal config of each workload.  Other seeds draw the
physics parameters uniformly from the narrow ranges in ``RANGES``; the grid,
step count, record count and bisection count never depend on the seed, so
every seed does the same amount of solver work.  Every range end was checked
against the gate below.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WHY = {
    "evolve64": (
        "simulate, 64^3, 150 Strang steps, 4 records: the step kernel (large "
        "FFTs, RK4 temporaries beyond L3) is ~80% of the op"
    ),
    "threshold24": (
        "threshold, 24^3, 6 probes x 400 steps, 10x denser records: "
        "in-cache FFTs where per-call and threading overhead dominate, plus "
        "a ground state, a CG theta scan and the classifier"
    ),
    "elliptic64": (
        "bounds, 64^3, ground state plus a 4-angle CG eigen scan and no "
        "time stepping: the no-change control for every stepper change"
    ),
}

# parameter: (nominal at seed 0, low, high)
RANGES = {
    "evolve64": {"u_amplitude": (0.8, 0.72, 0.88), "v_amplitude": (0.6, 0.54, 0.66)},
    "threshold24": {"omega": (2.0, 1.9, 2.1), "shape_width": (1.0, 0.95, 1.05)},
    "elliptic64": {"omega": (1.0, 0.9, 1.1)},
}

# grid size per workload, for set-up timing and working-set facts
GRID = {"evolve64": (64, 10.0), "threshold24": (24, 8.0), "elliptic64": (64, 24.0)}

# layers that must record calls on each workload (wrapper coverage guard)
REQUIRED_SPANS = {
    "evolve64": (
        "cli.main", "cli.build_data", "cli.io", "spectral.fft",
        "spectral.fh_half_norm", "spectral.x_norm", "spectral.sobolev_seminorm",
        "dynamics.evolve", "dynamics.record", "observables.energy",
        "observables.report_all",
    ),
    "threshold24": (
        "cli.main", "cli.build_data", "spectral.fft", "spectral.fh_half_norm",
        "spectral.x_norm", "spectral.sobolev_seminorm", "dynamics.evolve",
        "dynamics.record", "observables.energy", "groundstate.solve",
        "criterion.eigen", "criterion.cg", "criterion.bounds",
        "threshold.probe", "threshold.classify",
    ),
    "elliptic64": (
        "cli.main", "cli.build_data", "spectral.fft", "spectral.fh_half_norm",
        "spectral.sobolev_seminorm", "observables.energy", "groundstate.solve",
        "criterion.eigen", "criterion.cg", "criterion.bounds",
    ),
}


def params(name: str, seed: int) -> dict:
    ranges = RANGES[name]
    if seed == 0:
        return {k: nominal for k, (nominal, _, _) in ranges.items()}
    rng = random.Random(f"{name}:{seed}")
    return {k: rng.uniform(lo, hi) for k, (_, lo, hi) in ranges.items()}


def make_config(name: str, seed: int) -> dict:
    p = params(name, seed)
    n, half_width = GRID[name]
    grid = {"dim": 3, "n": n, "half_width": half_width}
    if name == "evolve64":
        return {
            "seed": seed,
            "grid": grid,
            "solver": {"dt": 1e-3, "t_end": 0.15, "dealias": True,
                       "record_every": 50, "blowup_linf_factor": 1e3,
                       "blowup_hs_factor": 1e3},
            "data": {
                "u0": {"family": "gaussian", "amplitude": p["u_amplitude"], "width": 1.0},
                "v0": {"family": "gaussian", "amplitude": p["v_amplitude"], "width": 1.0},
            },
            "task": {"name": "simulate"},
        }
    if name == "threshold24":
        return {
            "seed": seed,
            "grid": grid,
            "solver": {"dt": 5e-3, "t_end": 2.0, "dealias": True, "record_every": 10},
            "data": {"v0": {"family": "ground_state_component",
                            "omega": p["omega"], "which": "Q2"}},
            "task": {
                "name": "threshold",
                "shape": {"family": "gaussian", "amplitude": 1.0,
                          "width": p["shape_width"]},
                "a_lo": 0.0,
                "a_hi": 1.0,
                "max_bisections": 4,
            },
        }
    if name == "elliptic64":
        return {
            "seed": seed,
            "grid": grid,
            "data": {"v0": {"family": "ground_state_component",
                            "omega": p["omega"], "which": "Q2"}},
            "task": {"name": "bounds", "n_angles": 4},
        }
    raise KeyError(name)


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_op(config: dict, run_dir: Path) -> int:
    """Check one op's artifacts against closed forms and invariants; return
    the op's step count (Strang steps, or theta-angle eigen solves for the
    bounds task, which takes no time steps).  Raises CheckFailed."""
    result = _load(run_dir / "summary.json")["result"]
    task = config["task"]
    if task["name"] == "simulate":
        dt = config["solver"]["dt"]
        outcome = result["outcome"]
        _require(outcome["kind"] == "completed", f"outcome {outcome['kind']}")
        steps = round(outcome["t"] / dt)
        _require(steps == round(config["solver"]["t_end"] / dt), f"{steps} steps")
        series = _load(run_dir / "series.json")
        m, e = series["mass"], series["energy"]
        mass_drift = abs(m[-1] - m[0]) / m[0]
        energy_drift = abs(e[-1] - e[0]) / abs(e[0])
        _require(mass_drift < 1e-8, f"mass drift {mass_drift:.3e}")
        _require(energy_drift < 1e-6, f"energy drift {energy_drift:.3e}")
        return steps
    if task["name"] == "threshold":
        dt, t_end = config["solver"]["dt"], config["solver"]["t_end"]
        runs = result["runs"]
        _require(len(runs) == 2 + task["max_bisections"], f"{len(runs)} probes")
        _require(runs[0]["amplitude"] == task["a_lo"] and runs[0]["verdict"] == "Scatters",
                 "a_lo probe does not scatter")
        _require(runs[1]["amplitude"] == task["a_hi"] and runs[1]["verdict"] == "NonScatter",
                 "a_hi probe scatters")
        fired = [b for b in result["analytic_bounds"]
                 if b["kind"] == "Eigenvalue" and b["bound_value"] is not None]
        _require(bool(fired), "eigenvalue bound did not fire")
        bound = fired[0]["bound_value"]
        _require(result["ell_lower"] <= 1.05 * bound,
                 f"ell_lower {result['ell_lower']} above 1.05 * bound {bound}")
        steps = 0
        for r in runs:
            ev = r["evidence"]
            t = ev["t_blowup"] if ev.get("blowup") else t_end
            steps += round(t / dt)
        return steps
    if task["name"] == "bounds":
        omega = config["data"]["v0"]["omega"]
        reports = result["reports"]
        eig = [r for r in reports if r["kind"] == "Eigenvalue"]
        _require(len(eig) == 1 and eig[0]["bound_value"] is not None,
                 "eigenvalue bound did not fire")
        # Q1 is an exact eigenfunction of -Delta - 2 Q2 with eigenvalue -omega
        e_tilde = eig[0]["witness"]["e_tilde"]
        _require(abs(e_tilde + omega) < 1e-6, f"e_tilde {e_tilde} != -omega {-omega}")
        large = [r for r in reports if r["kind"] == "LargeData"]
        _require(bool(large) and all(r["bound_value"] is not None for r in large),
                 "a LargeData report did not fire")
        return task["n_angles"]
    raise CheckFailed(f"no check for task {task['name']!r}")
