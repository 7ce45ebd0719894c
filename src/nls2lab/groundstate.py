"""Ground-state solver for the coupled elliptic system

    -Delta Q1 + omega Q1     = 2 Q1 Q2
    -Delta Q2 / 2 + 2w Q2    = Q1^2

by spectral renormalization: fixed-point iteration in Fourier space with
per-equation amplitude renormalization.  The renormalization exponents are
chosen so that the two homogeneous amplitude directions (c1 Q1, c2 Q2) are
annihilated in a single update, which removes the growth/collapse mode of
the plain quadratic fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCollapseError, NoConvergenceError
from .spectral import Field, Grid, fftn, ifftn


@dataclass
class GroundState:
    Q1: Field
    Q2: Field
    omega: float
    residual1: float
    residual2: float
    iterations: int
    residual_history: list = field(default_factory=list, repr=False)


def _recenter(arr: np.ndarray, center_index) -> np.ndarray:
    peak = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)
    shift = tuple(c - p for c, p in zip(center_index, peak))
    if any(shift):
        arr = np.roll(arr, shift, axis=tuple(range(arr.ndim)))
    return arr


def solve_ground_state(
    grid: Grid, omega: float, tol: float = 1e-11, max_iter: int = 500
) -> GroundState:
    """Positive radial solution pair on the given grid.

    The box must contain the exponential tails: exp(-sqrt(omega) L) should
    be well below the target residual scale."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    dvol = grid.dvol
    mult1 = grid.k2 + omega
    mult2 = 0.5 * grid.k2 + 2.0 * omega

    # initial iterate: Gaussian pair with width 1/sqrt(omega), amplitudes
    # pre-balanced by the L^2 pairings of the two equations
    g = np.exp(-0.5 * omega * grid.r2)
    ghat = fftn(g)
    a_pair1 = float(np.real(np.sum(mult1 * np.abs(ghat) ** 2)) * dvol)
    a_pair2 = float(np.real(np.sum(mult2 * np.abs(ghat) ** 2)) * dvol)
    b_cubic = float(np.sum(g ** 3) * dvol)
    a2 = a_pair1 / (2.0 * b_cubic)
    a1 = np.sqrt(a2 * a_pair2 / b_cubic)
    q1 = a1 * g
    q2 = a2 * g

    history = []
    res1 = res2 = np.inf
    for it in range(1, max_iter + 1):
        n1 = 2.0 * q1 * q2
        n2 = q1 * q1
        q1hat, q2hat = fftn(q1), fftn(q2)
        n1hat, n2hat = fftn(n1), fftn(n2)

        res1 = float(np.sqrt(np.sum(np.abs(mult1 * q1hat - n1hat) ** 2) * dvol))
        res2 = float(np.sqrt(np.sum(np.abs(mult2 * q2hat - n2hat) ** 2) * dvol))
        history.append((res1, res2))
        if res1 < tol and res2 < tol:
            _check_monotone_tail(history, grid, q1, q2)
            return GroundState(
                Q1=Field(grid, q1),
                Q2=Field(grid, q2),
                omega=omega,
                residual1=res1,
                residual2=res2,
                iterations=it,
                residual_history=history,
            )

        pair1 = float(np.real(np.sum(mult1 * q1hat * np.conj(q1hat))) * dvol)
        pair2 = float(np.real(np.sum(mult2 * q2hat * np.conj(q2hat))) * dvol)
        inner1 = float(np.real(np.sum(n1hat * np.conj(q1hat))) * dvol)
        inner2 = float(np.real(np.sum(n2hat * np.conj(q2hat))) * dvol)
        if inner1 <= 0 or inner2 <= 0:
            raise NoConvergenceError(
                f"renormalization pairing lost positivity at iteration {it}",
                best=(Field(grid, q1), Field(grid, q2)),
            )
        s1 = pair1 / inner1
        s2 = pair2 / inner2

        p1 = np.real(ifftn(n1hat / mult1))
        p2 = np.real(ifftn(n2hat / mult2))
        q1 = s1 ** 1.5 * np.sqrt(s2) * p1
        q2 = s1 * s2 * p2
        q1 = _recenter(q1, grid.center_index)
        q2 = _recenter(q2, grid.center_index)

        norm1 = np.sqrt(np.sum(q1 ** 2) * dvol)
        if norm1 < 1e-12:
            raise DegenerateCollapseError(
                f"iterate collapsed to zero at iteration {it}"
            )

    raise NoConvergenceError(
        f"residuals ({res1:.3e}, {res2:.3e}) above tol {tol} after {max_iter} iterations",
        best=(Field(grid, q1), Field(grid, q2)),
    )


def _check_monotone_tail(history, grid, q1, q2):
    tail = history[-10:]
    for (a1, a2), (b1, b2) in zip(tail, tail[1:]):
        if b1 > a1 * 1.05 or b2 > a2 * 1.05:
            raise NoConvergenceError(
                "residuals not monotonically decreasing near convergence",
                best=(Field(grid, q1), Field(grid, q2)),
            )


def ground_state_family(gs: GroundState, c1: float, c2: float):
    """The pair (c1 Q1, c2 Q2) used to probe the scattering classifier."""
    return (
        Field(gs.Q1.grid, c1 * gs.Q1.values),
        Field(gs.Q2.grid, c2 * gs.Q2.values),
    )


def radial_shell_means(f: Field, nbins: int = 24):
    """Mean of Re f over radial shells; used for positivity/monotonicity
    checks of ground-state profiles."""
    r = f.grid.r.ravel()
    vals = np.real(f.values).ravel()
    edges = np.linspace(0.0, f.grid.half_width, nbins + 1)
    idx = np.digitize(r, edges) - 1
    means = np.full(nbins, np.nan)
    for b in range(nbins):
        sel = idx == b
        if np.any(sel):
            means[b] = vals[sel].mean()
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, means
