"""Ground-state solver for the coupled elliptic system

    -Delta Q1 + omega Q1     = 2 Q1 Q2
    -Delta Q2 / 2 + 2w Q2    = Q1^2

by spectral renormalization: fixed-point iteration in Fourier space with
per-equation amplitude renormalization.  The renormalization exponents are
chosen so that the two homogeneous amplitude directions (c1 Q1, c2 Q2) are
annihilated in a single update, which removes the growth/collapse mode of
the plain quadratic fixed point.

The solution is even in every axis, so the iteration runs on the grid's
even octant (spectral.Octant), with the DCT-I in place of the FFT, and the
pair is mirrored onto the full grid once, at the end.  Evenness is exact:
the start is an even Gaussian, and the update T keeps a pair even (products
of even fields are even, and the multipliers depend on k only through
k_j^2).  The even subspace has no translation mode, since the translates'
generators d_j Q are odd, so no iterate can drift off the center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCollapseError, NoConvergenceError
from .spectral import Field, Grid, Octant


@dataclass
class GroundState:
    Q1: Field
    Q2: Field
    omega: float
    residual1: float
    residual2: float
    # evaluations of the update T (6 DCTs each)
    iterations: int
    # (res1, res2) of every iterate, the last one included
    residual_history: list = field(default_factory=list, repr=False)


def _initial_pair(octant: Octant, omega: float):
    """Gaussian pair with width 1/sqrt(omega), amplitudes pre-balanced by
    the L^2 pairings of the two equations."""
    dvol = octant.grid.dvol
    g = np.exp(-0.5 * omega * octant.r2)
    power = octant.dct(g) ** 2
    a_pair1 = octant.sum((octant.k2 + omega) * power) * dvol
    a_pair2 = octant.sum((0.5 * octant.k2 + 2.0 * omega) * power) * dvol
    b_cubic = octant.sum(g ** 3) * dvol
    a2 = a_pair1 / (2.0 * b_cubic)
    a1 = np.sqrt(a2 * a_pair2 / b_cubic)
    return a1 * g, a2 * g


def _mirrored(octant: Octant, q1, q2):
    return tuple(Field(octant.grid, octant.mirror(q.astype(np.complex128))) for q in (q1, q2))


def solve_ground_state(
    grid: Grid, omega: float, tol: float = 1e-11, max_iter: int = 500
) -> GroundState:
    """Positive radial solution pair on the given grid, by the plain
    renormalized iteration on the even octant.

    `max_iter` bounds the evaluations of the update.  The box must contain
    the exponential tails: exp(-sqrt(omega) L) should be well below the
    target residual scale."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    octant = grid.octant
    dvol = grid.dvol
    mult1 = octant.k2 + omega
    mult2 = 0.5 * octant.k2 + 2.0 * omega
    q1, q2 = _initial_pair(octant, omega)
    history = []
    res1 = res2 = np.inf
    for it in range(1, max_iter + 1):
        q1hat, q2hat = octant.dct(q1), octant.dct(q2)
        n1hat = octant.dct(2.0 * q1 * q2, overwrite=True)
        n2hat = octant.dct(q1 * q1, overwrite=True)
        res1 = float(np.sqrt(octant.sum((mult1 * q1hat - n1hat) ** 2) * dvol))
        res2 = float(np.sqrt(octant.sum((mult2 * q2hat - n2hat) ** 2) * dvol))
        history.append((res1, res2))
        if res1 < tol and res2 < tol:
            break

        inner1 = octant.sum(n1hat * q1hat)
        inner2 = octant.sum(n2hat * q2hat)
        if inner1 <= 0 or inner2 <= 0:
            raise NoConvergenceError(
                f"renormalization pairing lost positivity at iteration {it}",
                best=_mirrored(octant, q1, q2),
            )
        s1 = octant.sum(mult1 * q1hat ** 2) / inner1
        s2 = octant.sum(mult2 * q2hat ** 2) / inner2
        n1hat /= mult1
        n2hat /= mult2
        q1 = s1 ** 1.5 * np.sqrt(s2) * octant.idct(n1hat, overwrite=True)
        q2 = s1 * s2 * octant.idct(n2hat, overwrite=True)

        if np.sqrt(octant.sum(q1 ** 2) * dvol) < 1e-12:
            raise DegenerateCollapseError(
                f"iterate collapsed to zero at iteration {it}"
            )
    else:
        # the best pair is the update of the last iterate, whose residuals
        # are reported
        raise NoConvergenceError(
            f"residuals ({res1:.3e}, {res2:.3e}) above tol {tol} after "
            f"{max_iter} evaluations",
            best=_mirrored(octant, q1, q2),
        )
    Q1, Q2 = _mirrored(octant, q1, q2)
    _check_monotone_tail(history, grid, Q1.values, Q2.values)
    return GroundState(
        Q1=Q1,
        Q2=Q2,
        omega=omega,
        residual1=res1,
        residual2=res2,
        iterations=it,
        residual_history=history,
    )


def _check_monotone_tail(history, grid, q1, q2):
    """Reject a solve whose residuals rose by more than 5% from one iterate
    to the next among the last 10."""
    tail = history[-10:]
    for (a1, a2), (b1, b2) in zip(tail, tail[1:]):
        if b1 > a1 * 1.05 or b2 > a2 * 1.05:
            raise NoConvergenceError(
                "residuals not monotonically decreasing near convergence",
                best=(Field(grid, q1), Field(grid, q2)),
            )
