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
    KIND_STATE,
    fftn,
    ifftn,
    lp_norm,
    read_nls2,
    write_nls2,
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
        for name in ("blowup_linf_factor", "blowup_hs_factor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


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
        wu = x_norm(state.u, t, X_SPEC_U)
        wv = x_norm(state.v, t, X_SPEC_V)
        # float64 powers: a huge finite record overflows to inf, not an error
        with np.errstate(over="ignore"):
            cur = {
                "s_accum_u": float(np.float64(su) ** S_TIME_Q),
                "s_accum_v": float(np.float64(sv) ** S_TIME_Q),
                "w_accum_u": float(np.float64(wu) ** W_TIME_Q),
                "w_accum_v": float(np.float64(wv) ** W_TIME_Q),
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


@np.errstate(over="ignore", invalid="ignore")  # callers check finiteness
def _rk4(u: np.ndarray, v: np.ndarray, dt: float, bufs) -> tuple:
    """One RK4 step of du/dt = 2i v conj(u), dv/dt = i u^2 from (u, v),
    computed in the six same-shape complex arrays `bufs` without allocating.
    u and v are only read; the result is held in bufs[0] and bufs[1]."""
    out_u, out_v, yu, yv, ku, kv = bufs

    def rhs(xu, xv):  # k = (2i xv conj(xu), i xu^2)
        np.multiply(np.conjugate(xu, out=ku), xv, out=ku)
        np.multiply(ku, 2j, out=ku)
        np.multiply(np.multiply(xu, xu, out=kv), 1j, out=kv)

    def stage(c):  # y = (u, v) + c k
        np.add(np.multiply(ku, c, out=yu), u, out=yu)
        np.add(np.multiply(kv, c, out=yv), v, out=yv)

    def add(w):  # out += w k, summed in the order k1 + 2 k2 + 2 k3 + k4
        for out, k in ((out_u, ku), (out_v, kv)):
            if w != 1.0:
                k *= w
            out += k

    rhs(u, v)
    np.copyto(out_u, ku)
    np.copyto(out_v, kv)
    stage(0.5 * dt)
    rhs(yu, yv)
    stage(0.5 * dt)
    add(2.0)
    rhs(yu, yv)
    stage(dt)
    add(2.0)
    rhs(yu, yv)
    add(1.0)
    for out, x in ((out_u, u), (out_v, v)):
        out *= dt / 6.0
        out += x
    return out_u, out_v


def _all_finite(arrays, flags: np.ndarray) -> bool:
    return all(np.isfinite(a, out=flags).all() for a in arrays)


def nonlinear_substep(state: State, dt: float) -> State:
    """Pointwise RK4 integration of du/dt = 2i v conj(u), dv/dt = i u^2.

    The substep ODE conserves |u|^2 + 2|v|^2 at every grid point; RK4 drifts
    it by O(dt^5) per step.  The time field is not advanced here (splitting
    bookkeeping lives in strang_step)."""
    shape = state.grid.shape
    bufs = [np.empty(shape, dtype=np.complex128) for _ in range(6)]
    un, vn = _rk4(state.u.values, state.v.values, dt, bufs)
    if not _all_finite((un, vn), np.empty(shape, dtype=bool)):
        raise NonFiniteFieldError("nonlinear substep produced non-finite values")
    return State(Field(state.grid, un), Field(state.grid, vn), state.t)


def strang_step(state: State, cfg: SolverConfig) -> State:
    """One Strang step: half linear, full nonlinear substep, half linear,
    with the 2/3-rule mask applied after the nonlinear evaluation."""
    grid = state.grid
    half = cfg.dt / 2.0
    mid = State(linear_step(state.u, half, 1.0), linear_step(state.v, half, 0.5), state.t)
    mid = nonlinear_substep(mid, cfg.dt)
    mask = grid.dealias_mask if cfg.dealias else 1.0
    u = _apply_multiplier(_phase(grid, 1.0, half) * mask, mid.u.values)
    v = _apply_multiplier(_phase(grid, 0.5, half) * mask, mid.v.values)
    return State(Field(grid, u), Field(grid, v), state.t + cfg.dt)


class _StepKernel:
    """Fused Strang stepping of one evolve call in the half-shifted frame.

    The iterate is the true state advanced by a further linear half-step,
    i.e. the input of the next nonlinear substep, so the two linear
    half-steps that meet between substeps are applied as one multiplier
    exp(-i a |k|^2 dt) (times the 2/3-rule mask): 4 FFTs per step.  Every
    array is allocated once, here; the FFTs run in place."""

    COEFFS = (1.0, 0.5)  # dispersion coefficients a of u and v

    def __init__(self, grid: Grid, cfg: SolverConfig, u0: np.ndarray, v0: np.ndarray):
        self.grid = grid
        self.dt = cfg.dt
        mask = grid.dealias_mask if cfg.dealias else 1.0
        self.full = [_phase(grid, a, cfg.dt) * mask for a in self.COEFFS]
        self.half = [_phase(grid, a, cfg.dt / 2.0) * mask for a in self.COEFFS]
        self.iterate = [
            _apply_multiplier(_phase(grid, a, cfg.dt / 2.0), f)
            for a, f in zip(self.COEFFS, (u0, v0))
        ]
        self.bufs = [np.empty(grid.shape, dtype=np.complex128) for _ in range(6)]
        self.spectra = self.bufs[:2]
        self.modulus = np.empty(grid.shape)
        self.flags = np.empty(grid.shape, dtype=bool)

    def step(self) -> bool:
        """Advance the iterate by one step.  Returns False, leaving the
        iterate as it was, when the nonlinear substep overflows."""
        out = _rk4(*self.iterate, self.dt, self.bufs)
        if not _all_finite(out, self.flags):
            return False
        self.spectra = [fftn(w, overwrite=True) for w in out]
        self.iterate = [
            ifftn(np.multiply(w, m, out=it), overwrite=True)
            for w, m, it in zip(self.spectra, self.full, self.iterate)
        ]
        return True

    def true_values(self) -> list:
        """The true (u, v) after the last step, recovered from its kept
        post-substep spectra by the masked half-step; they live in two of
        the kernel's buffers until the next step."""
        return [
            ifftn(np.multiply(w, m, out=y), overwrite=True)
            for w, m, y in zip(self.spectra, self.half, self.bufs[2:4])
        ]

    def undo_half_step(self) -> list:
        """The true (u, v) before the pending substep: the iterate with its
        linear half-step undone (the conjugate phase, as |phase| = 1)."""
        return [
            _apply_multiplier(_phase(self.grid, a, -self.dt / 2.0), it)
            for a, it in zip(self.COEFFS, self.iterate)
        ]

    def linf(self, arrays) -> float:
        return max(float(np.abs(a, out=self.modulus).max()) for a in arrays)


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
    outcome, not an error.  The initial sizes and the per-record sup-norm
    and H^1 checks come from the diagnostic records.  (t_end - t)/dt must be
    a whole number of steps, and not negative.  The input state is neither
    modified nor shared with the returned one.

    The steps are fused (see _StepKernel): the loop carries the state half
    a linear step ahead, so a step costs 4 FFTs, and the true state is
    recovered (2 FFTs) only for a record, a blowup candidate and the final
    state.  The sup-norm of the shifted iterate is checked every step, but
    a crossing only makes the step a candidate: blowup is decided on the
    true state's sup-norm.  As each record also checks its own sup-norm, a
    true state above the limit is flagged at the next record at the latest.
    A substep that overflows is caught before its FFTs; the previous true
    state is then recovered by undoing the half-step of the retained iterate.
    """
    ratio = (cfg.t_end - state.t) / cfg.dt
    nsteps = round(ratio)
    if nsteps < 0:
        raise ValueError(f"t_end {cfg.t_end!r} is before the state's t {state.t!r}")
    if abs(ratio - nsteps) > 1e-9 * max(abs(ratio), 1.0):
        raise ValueError(
            f"(t_end - t)/dt = {ratio!r} is not a whole number of steps"
        )
    grid = state.grid
    series = DiagnosticSeries()
    rep = series.append(state)
    blowup_linf, blowup_hs = blowup_limits(series["linf"][-1], rep.h1_size, cfg)
    kern = _StepKernel(grid, cfg, state.u.values, state.v.values)
    out = None

    for istep in range(1, nsteps + 1):
        t = state.t + istep * cfg.dt
        if not kern.step():
            # mid-collapse overflow: the previous step was already most of
            # the way to the threshold, so report blowup there
            prev = kern.undo_half_step()
            if kern.linf(prev) >= 0.5 * blowup_linf:
                out = State(Field(grid, prev[0]), Field(grid, prev[1]), t - cfg.dt)
                series.append(out)
                return out, series, Outcome("blowup", out.t)
            raise NonFiniteFieldError(
                f"non-finite values at t={t:.6g} without threshold crossing "
                "(dt too large?)"
            )
        true = None
        crossed = False
        if kern.linf(kern.iterate) > blowup_linf:  # a candidate only
            true = kern.true_values()
            crossed = kern.linf(true) > blowup_linf
        if crossed or istep % cfg.record_every == 0 or istep == nsteps:
            u, v = true if true is not None else kern.true_values()
            out = State(Field(grid, u), Field(grid, v), t)
            rep = series.append(out)
            if series["linf"][-1] > blowup_linf or rep.h1_size > blowup_hs:
                return out, series, Outcome("blowup", t)

    if out is None:  # no steps taken
        out = state.copy()
    return out, series, Outcome("completed", out.t)


def write_state(path, state: State):
    write_nls2(path, KIND_STATE, state.grid, [state.u.values, state.v.values], t=state.t)


def read_state(path) -> State:
    grid, (u, v), t = read_nls2(path, KIND_STATE)
    return State(Field(grid, u), Field(grid, v), t)
