"""Strang-split pseudo-spectral time stepping for the coupled system

    i u_t + Delta u   = -2 v conj(u)
    i v_t + Delta v/2 = -u^2

with blowup detection and space-time diagnostic recording.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteFieldError
from .observables import X_SPEC_U, X_SPEC_V, ConservedReport
from .observables import energy as energy_report
from .spectral import (
    Field,
    Grid,
    _read_header,
    _read_values,
    _write_header,
    KIND_STATE,
    fftn,
    ifftn,
    lp_norm,
    weighted_lp_norm,
    x_norm,
)

# space-time diagnostic exponents: L_t^{3/2} of the L_x^{9/2} norm for the
# S-type accumulator, L_t^6 of the X^{1/2,18/7} norm (observables.X_SPEC_U,
# X_SPEC_V) for the W-type accumulator (the Lorentz second index of the
# underlying norms is dropped; finite runs cannot see it).
S_SPACE_R = 4.5
S_TIME_Q = 1.5
W_TIME_Q = 6.0


@dataclass
class State:
    """The simulation pair (u, v) at time t.  u and v share one Grid."""

    u: Field
    v: Field
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid is not self.v.grid and self.u.grid != self.v.grid:
            raise ValueError("u and v must share a grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.t)


@dataclass
class SolverConfig:
    """Time-stepping settings.  The blowup limits are relative: evolve stops
    once the sup-norm or the H^1 size passes factor * (its initial value);
    an infinite factor disables that check."""

    dt: float
    t_end: float
    dealias: bool = True
    record_every: int = 10
    blowup_linf_factor: float = 1e3
    blowup_hs_factor: float = 1e3

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class Outcome:
    kind: str  # "completed" | "blowup"
    t: float

    @property
    def blew_up(self) -> bool:
        return self.kind == "blowup"


@dataclass
class DiagnosticSeries:
    """Time-indexed record of conserved quantities, norms, and running
    space-time accumulators (trapezoid rule on the sampled sequence), kept
    as one list per name in COLUMNS; ``series[name]`` reads a column."""

    COLUMNS = (
        "t",
        "mass",
        "energy",
        "interaction",
        "linf",
        "s_accum_u",
        "s_accum_v",
        "w_accum_u",
        "w_accum_v",
    )

    columns: dict = field(
        default_factory=lambda: {c: [] for c in DiagnosticSeries.COLUMNS}
    )
    _integrands: dict = field(default_factory=dict, repr=False)

    def __getitem__(self, name: str) -> list:
        return self.columns[name]

    def append(self, state: State) -> ConservedReport:
        """Record one state; returns its conserved-quantity report."""
        rep = energy_report(state)
        t = state.t
        su = lp_norm(state.u, S_SPACE_R)
        sv = lp_norm(state.v, S_SPACE_R)
        if t == 0.0:
            wu = weighted_lp_norm(state.u, X_SPEC_U.s, X_SPEC_U.r)
            wv = weighted_lp_norm(state.v, X_SPEC_V.s, X_SPEC_V.r)
        else:
            wu = x_norm(state.u, t, X_SPEC_U)
            wv = x_norm(state.v, t, X_SPEC_V)
        cur = {
            "s_accum_u": su ** S_TIME_Q,
            "s_accum_v": sv ** S_TIME_Q,
            "w_accum_u": wu ** W_TIME_Q,
            "w_accum_v": wv ** W_TIME_Q,
        }

        cols = self.columns
        for key, value in cur.items():
            acc = cols[key]
            if not cols["t"]:
                acc.append(0.0)
            else:
                dt = t - cols["t"][-1]
                acc.append(acc[-1] + 0.5 * (self._integrands[key] + value) * dt)
        self._integrands = cur

        cols["t"].append(t)
        cols["mass"].append(rep.mass)
        cols["energy"].append(rep.energy)
        cols["interaction"].append(rep.interaction)
        cols["linf"].append(
            max(float(np.abs(state.u.values).max()), float(np.abs(state.v.values).max()))
        )
        return rep

    def final_w_proxy(self, component: str) -> float:
        accum = self.columns[f"w_accum_{component}"]
        return accum[-1] ** (1.0 / W_TIME_Q) if accum else 0.0

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.COLUMNS)
            for row in zip(*(self.columns[c] for c in self.COLUMNS)):
                w.writerow([repr(float(x)) for x in row])

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.columns, fh, sort_keys=True)


def _phase(grid: Grid, a: float, dt: float) -> np.ndarray:
    """The free-flow Fourier multiplier exp(-i a |k|^2 dt)."""
    return np.exp(-1j * a * grid.k2 * dt)


def _apply_multiplier(mult: np.ndarray, values: np.ndarray) -> np.ndarray:
    return ifftn(mult * fftn(values))


def linear_step(f: Field, dt: float, a: float) -> Field:
    """Free half of the flow: Fourier multiplier exp(-i a |k|^2 dt).

    a = 1 for the u-component, 1/2 for the v-component; exactly unitary."""
    if a not in (1.0, 0.5):
        raise ValueError(f"dispersion coefficient must be 1 or 1/2, got {a}")
    return Field(f.grid, _apply_multiplier(_phase(f.grid, a, dt), f.values))


def _nl_rhs(u: np.ndarray, v: np.ndarray):
    return 2j * v * np.conj(u), 1j * u * u


def _rk4_nonlinear(u, v, dt):
    k1u, k1v = _nl_rhs(u, v)
    k2u, k2v = _nl_rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
    k3u, k3v = _nl_rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
    k4u, k4v = _nl_rhs(u + dt * k3u, v + dt * k3v)
    un = u + (dt / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
    vn = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return un, vn


def nonlinear_substep(state: State, dt: float) -> State:
    """Pointwise RK4 integration of du/dt = 2i v conj(u), dv/dt = i u^2.

    The substep ODE conserves |u|^2 + 2|v|^2 at every grid point; RK4 drifts
    it by O(dt^5) per step.  The time field is not advanced here (splitting
    bookkeeping lives in strang_step)."""
    un, vn = _rk4_nonlinear(state.u.values, state.v.values, dt)
    if not (np.all(np.isfinite(un)) and np.all(np.isfinite(vn))):
        raise NonFiniteFieldError("nonlinear substep produced non-finite values")
    return State(Field(state.grid, un), Field(state.grid, vn), state.t)


class _StepKernel:
    """Precomputed multipliers for repeated Strang steps on one grid."""

    def __init__(self, grid: Grid, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        half = cfg.dt / 2.0
        self.phase_u = _phase(grid, 1.0, half)
        self.phase_v = _phase(grid, 0.5, half)
        if cfg.dealias:
            mask = grid.dealias_mask
            self.post_u = self.phase_u * mask
            self.post_v = self.phase_v * mask
        else:
            self.post_u = self.phase_u
            self.post_v = self.phase_v

    def step(self, u: np.ndarray, v: np.ndarray):
        u = _apply_multiplier(self.phase_u, u)
        v = _apply_multiplier(self.phase_v, v)
        u, v = _rk4_nonlinear(u, v, self.cfg.dt)
        u = _apply_multiplier(self.post_u, u)
        v = _apply_multiplier(self.post_v, v)
        return u, v


def strang_step(state: State, cfg: SolverConfig) -> State:
    """One Strang step: half linear, full nonlinear substep, half linear,
    with the 2/3-rule mask applied after the nonlinear evaluation."""
    kern = _StepKernel(state.grid, cfg)
    u, v = kern.step(state.u.values, state.v.values)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NonFiniteFieldError("strang step produced non-finite values")
    return State(Field(state.grid, u), Field(state.grid, v), state.t + cfg.dt)


def blowup_limits(linf0: float, hs0: float, cfg: SolverConfig) -> tuple:
    """Absolute (sup-norm, H^1) blowup thresholds of a run whose initial
    record has sup-norm `linf0` and H^1 size `hs0`: the config's factors
    times those sizes, floored at 1e-12 so zero data still gets a finite
    limit."""
    return (
        cfg.blowup_linf_factor * max(linf0, 1e-12),
        cfg.blowup_hs_factor * max(hs0, 1e-12),
    )


def evolve(state: State, cfg: SolverConfig):
    """March the state to t_end, recording diagnostics every record_every
    steps.  Returns (final_state, DiagnosticSeries, Outcome); crossing a
    blowup threshold (see blowup_limits) is an early Completed-with-Blowup
    outcome, not an error.  The initial sizes and the per-record H^1 check
    come from the diagnostic records.
    """
    series = DiagnosticSeries()
    rep = series.append(state)
    prev_linf = series["linf"][-1]
    blowup_linf, blowup_hs = blowup_limits(prev_linf, rep.h1_size, cfg)
    nsteps = int(round((cfg.t_end - state.t) / cfg.dt))
    kern = _StepKernel(state.grid, cfg)
    u = state.u.values.copy()
    v = state.v.values.copy()
    t = state.t

    for istep in range(1, nsteps + 1):
        un, vn = kern.step(u, v)
        tn = state.t + istep * cfg.dt
        if not (np.all(np.isfinite(un)) and np.all(np.isfinite(vn))):
            # mid-collapse overflow: the previous step was already most of
            # the way to the threshold, so report blowup there
            if prev_linf >= 0.5 * blowup_linf:
                out = State(Field(state.grid, u), Field(state.grid, v), t)
                series.append(out)
                return out, series, Outcome("blowup", t)
            raise NonFiniteFieldError(
                f"non-finite values at t={tn:.6g} without threshold crossing "
                "(dt too large?)"
            )
        u, v, t = un, vn, tn
        cur_linf = max(float(np.abs(u).max()), float(np.abs(v).max()))
        crossed = cur_linf > blowup_linf
        record = istep % cfg.record_every == 0 or istep == nsteps or crossed
        if record:
            out = State(Field(state.grid, u), Field(state.grid, v), t)
            rep = series.append(out)
            if crossed or rep.h1_size > blowup_hs:
                return out, series, Outcome("blowup", t)
        prev_linf = cur_linf

    out = State(Field(state.grid, u), Field(state.grid, v), t)
    return out, series, Outcome("completed", t)


def write_state(path, state: State):
    with open(path, "wb") as fh:
        _write_header(fh, KIND_STATE, state.grid, t=state.t)
        np.ascontiguousarray(state.u.values).astype("<c16").tofile(fh)
        np.ascontiguousarray(state.v.values).astype("<c16").tofile(fh)


def read_state(path) -> State:
    with open(path, "rb") as fh:
        kind, grid, t = _read_header(fh)
        if kind != KIND_STATE:
            raise ValueError(f"expected a state file, got kind {kind}")
        u = _read_values(fh, grid)
        v = _read_values(fh, grid)
    return State(Field(grid, u), Field(grid, v), t)
