"""Scaling and Galilean transforms, and solver-equivariance checks.

The dilation of a sampled pair is exact for dyadic factors: the scaled field
lambda^2 f(lambda x) sampled on the grid with half-width L/lambda and the
same point count reuses the original samples with no interpolation.  Boosts
are exact unit-modulus phase multipliers for frequencies on the dual lattice.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dynamics import SolverConfig, State, evolve
from .spectral import Field, Grid, fftn, ifftn, make_grid


def _is_dyadic(x: float) -> bool:
    if x <= 0:
        return False
    m = math.log2(x)
    return abs(m - round(m)) < 1e-12


def _lattice_check(grid: Grid, xi: np.ndarray):
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.dim,):
        raise ValueError(f"xi must have {grid.dim} components")
    dk = np.pi / grid.half_width
    j = xi / dk
    if np.max(np.abs(j - np.rint(j))) > 1e-9:
        raise ValueError(f"xi {xi} is not on the dual lattice (spacing {dk:.6g})")
    return xi


def scale_data(pair, lam: float):
    """The critical rescaling (lambda^2 f(lambda x), lambda^2 g(lambda x)).

    For sampled fields lambda must be a power of two; the result lives on
    the nested grid with half-width L/lambda (same n), where the resampling
    is exact.  Rescaling onto the original grid would wrap the outer box
    through the periodic boundary, so it is deliberately not offered."""
    f, g = pair
    if not _is_dyadic(lam):
        raise ValueError(f"lambda must be a power of two for sampled data, got {lam}")
    grid = f.grid
    new = make_grid(grid.dim, grid.n, grid.half_width / lam)
    return (
        Field(new, lam ** 2 * f.values),
        Field(new, lam ** 2 * g.values),
    )


def galilean_boost(pair, xi):
    """(exp(i x.xi) u, exp(2i x.xi) v) for a dual-lattice frequency xi.

    The v-component carries the doubled phase, matching the quadratic
    nonlinearity; any lattice xi keeps both phases periodic."""
    f, g = pair
    grid = f.grid
    xi = _lattice_check(grid, xi)
    xdot = sum(a * c for a, c in zip(grid.axes, xi))
    ph = np.exp(1j * xdot)
    return Field(grid, ph * f.values), Field(grid, ph * ph * g.values)


def spectral_translate(f: Field, shift) -> Field:
    """Exact periodic translation f(x - shift) via a Fourier phase."""
    grid = f.grid
    shift = np.asarray(shift, dtype=float)
    kdot = sum(a * c for a, c in zip(grid.kaxes, shift))
    return Field(grid, ifftn(np.exp(-1j * kdot) * fftn(f.values)))


def boost_evolved_state(state: State, xi, t: float) -> State:
    """Push a plain evolution through the boost identity at time t:
    (u, v) -> (e^{-it|xi|^2 + ix.xi} u(x - 2t xi), doubled phases for v)."""
    grid = state.grid
    xi = _lattice_check(grid, np.asarray(xi, dtype=float))
    xi2 = float(np.dot(xi, xi))
    shift = 2.0 * t * xi
    u_sh = spectral_translate(state.u, shift)
    v_sh = spectral_translate(state.v, shift)
    xdot = sum(a * c for a, c in zip(grid.axes, xi))
    ph_u = np.exp(1j * (-t * xi2 + xdot))
    ph_v = np.exp(2j * (-t * xi2 + xdot))
    return State(Field(grid, ph_u * u_sh.values), Field(grid, ph_v * v_sh.values), t)


def check_equivariance(data, xi, t_final: float, cfg: SolverConfig) -> float:
    """Relative L^2 distance at t_final between evolving boosted data and
    boosting (plus drifting) the evolved plain data.  Zero for the exact
    flow; for the discrete solver the residual measures how far splitting
    and dealiasing break Galilean covariance."""
    u0, v0 = data
    cfg = replace(cfg, t_end=t_final, record_every=max(1, int(round(t_final / cfg.dt))))
    boosted = galilean_boost((u0, v0), xi)
    sA, _, outA = evolve(State(boosted[0], boosted[1], 0.0), cfg)
    sB, _, outB = evolve(State(u0.copy(), v0.copy(), 0.0), cfg)
    if outA.blew_up or outB.blew_up:
        raise RuntimeError("equivariance check hit a blowup; reduce the data")
    expected = boost_evolved_state(sB, xi, sA.t)
    num = np.sqrt(
        np.sum(np.abs(sA.u.values - expected.u.values) ** 2)
        + np.sum(np.abs(sA.v.values - expected.v.values) ** 2)
    )
    den = np.sqrt(
        np.sum(np.abs(sA.u.values) ** 2) + np.sum(np.abs(sA.v.values) ** 2)
    )
    return float(num / den) if den > 0 else 0.0
