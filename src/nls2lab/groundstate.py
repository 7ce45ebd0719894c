"""Ground-state solver for the coupled elliptic system

    -Delta Q1 + omega Q1     = 2 Q1 Q2
    -Delta Q2 / 2 + 2w Q2    = Q1^2

by spectral renormalization: fixed-point iteration in Fourier space with
per-equation amplitude renormalization.  The renormalization exponents are
chosen so that the two homogeneous amplitude directions (c1 Q1, c2 Q2) are
annihilated in a single update, which removes the growth/collapse mode of
the plain quadratic fixed point.

The renormalized update T converges only linearly, so its iterates are
Anderson-mixed (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): the next trial
is the affine combination of the last few images T(x_j) whose combination
of residuals T(x_j) - x_j is smallest.  A mixed trial whose residual rises
is discarded; the history is then cleared and the plain step T is taken
from the last accepted iterate.  Where the mixed residuals still rise near
convergence, the plain iteration is run from the start instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCollapseError, NoConvergenceError
from .spectral import Field, Grid, fftn, ifftn

# difference columns the mixing combines: the last _DEPTH + 1 accepted
# iterates
_DEPTH = 5
# a residual component that grows by more than this factor from one
# iterate to the next has risen: the convergence tail must not, and a mixed
# trial that does is discarded
_RISE = 1.05
# points per slab (whole planes along axis 0) of the sums and combinations
# that need temporaries: keeps those small and in cache
_SLAB_POINTS = 1 << 12


@dataclass
class GroundState:
    Q1: Field
    Q2: Field
    omega: float
    residual1: float
    residual2: float
    # evaluations of the update T (6 FFTs each), discarded trials included
    iterations: int
    # mixed trials discarded because a residual rose
    discarded: int
    # (res1, res2) of every iterate the solver stepped from, the last one
    # included, in the mixed and then any plain iteration
    residual_history: list = field(default_factory=list, repr=False)


def _recenter(arr: np.ndarray, center_index) -> np.ndarray:
    peak = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)
    shift = tuple(c - p for c, p in zip(center_index, peak))
    if any(shift):
        arr = np.roll(arr, shift, axis=tuple(range(arr.ndim)))
    return arr


def _slabs(shape):
    planes = max(1, _SLAB_POINTS // int(np.prod(shape[1:])))
    return [slice(i, i + planes) for i in range(0, shape[0], planes)]


def _rose(before, after) -> bool:
    return any(b > a * _RISE for a, b in zip(before, after))


def _tail_rises(history) -> bool:
    tail = history[-10:]
    return any(_rose(a, b) for a, b in zip(tail, tail[1:]))


def _pair_dot(f, g) -> float:
    """Inner product of two pairs in which the mixing minimizes residuals.
    The residual of equation i is about |L_i f_i|, and the mass terms of
    L_1 and L_2 are omega and 2 omega, so the second component weighs
    (2 omega / omega)^2 = 4 times the first."""
    return float(np.vdot(f[0], g[0]) + 4.0 * np.vdot(f[1], g[1]))


def _initial_pair(grid: Grid, omega: float):
    """Gaussian pair with width 1/sqrt(omega), amplitudes pre-balanced by
    the L^2 pairings of the two equations."""
    dvol = grid.dvol
    g = np.exp(-0.5 * omega * grid.r2)
    power = np.abs(fftn(g)) ** 2
    a_pair1 = float(np.sum((grid.k2 + omega) * power) * dvol)
    a_pair2 = float(np.sum((0.5 * grid.k2 + 2.0 * omega) * power) * dvol)
    b_cubic = float(np.sum(g ** 3) * dvol)
    a2 = a_pair1 / (2.0 * b_cubic)
    a1 = np.sqrt(a2 * a_pair2 / b_cubic)
    return a1 * g, a2 * g


def _equation(grid: Grid, a: float, c: float, q, out, spectra):
    """One equation L q = n with L = a(-Delta) + c, the nonlinearity n
    already written into spectra[1]: its residual |L q - n|, the pairing
    <L q, q> and the inner product <n, q>, with the unscaled image L^{-1} n
    written into `out`.  3 FFTs, in place in the two complex buffers."""
    qhat, nhat = spectra
    qhat[...] = q
    qhat = fftn(qhat, overwrite=True)
    nhat = fftn(nhat, overwrite=True)
    res = pair = inner = 0.0
    for sl in _slabs(grid.shape):
        mult = a * grid.k2[sl] + c
        qs, ns = qhat[sl], nhat[sl]
        r = mult * qs
        pair += np.vdot(qs, r).real
        r -= ns
        res += np.vdot(r, r).real
        inner += np.vdot(qs, ns).real
        ns /= mult
    out[...] = ifftn(nhat, overwrite=True).real
    dvol = grid.dvol
    return float(np.sqrt(res * dvol)), pair * dvol, inner * dvol


def _evaluate(grid: Grid, omega: float, q1, q2, image):
    """T at (q1, q2): each equation's (residual, pairing, inner product),
    with the unscaled images written into `image`.  The two complex
    spectra live only for the evaluation."""
    spectra = [np.empty(grid.shape, dtype=np.complex128) for _ in range(2)]
    np.multiply(q1, q2, out=spectra[1])
    spectra[1] *= 2.0
    first = _equation(grid, 1.0, omega, q1, image[0], spectra)
    np.multiply(q1, q1, out=spectra[1])
    return first, _equation(grid, 0.5, 2.0 * omega, q2, image[1], spectra)


class _Anderson:
    """Anderson mixing of depth `depth` on pairs of real arrays; depth 0 is
    the plain iteration x <- T(x).

    Holds the iterate x, the image g = T(x) of the last accepted iterate
    and up to `depth` difference columns (G_j, F_j) of consecutive accepted
    images g and residuals f = g - x, oldest first, with the Gram matrix of
    the F_j.  The next trial is x = g - sum_j gamma_j G_j, where gamma
    minimizes |f - sum_j gamma_j F_j|.  A trial's image is written into the
    column that accepting it fills, the oldest one once the history is
    full, so the history needs no array beyond its columns."""

    def __init__(self, x, depth):
        self.x = x
        self.depth = depth
        self.g = [np.empty_like(a) for a in x]
        self.columns = []
        self.gram = np.zeros((0, 0))
        # (image of x, residual of the last accepted iterate) once g is valid
        self.pending = None

    def target(self):
        """The pair that T's image of x is written into."""
        return self.g if self.pending is None else self.pending[0]

    def accept(self, image) -> bool:
        """Take x and its image (the target, perhaps rebound) as the newest
        accepted iterate and write the next trial into x.  Returns whether
        the trial mixes any column in."""
        if self.depth == 0:
            # the old iterate's arrays take the next image
            self.x, self.g = image, self.x
            return False
        if self.pending is None:
            self.g = image
        else:
            self._push(image)
        # x becomes the newest residual f, which the pending column keeps
        f = self.x
        for fk, gk in zip(f, self.g):
            np.subtract(gk, fk, out=fk)
        gamma = np.zeros(0)
        if self.columns:
            rhs = [_pair_dot(fj, f) for _, fj in self.columns]
            gamma = np.linalg.lstsq(self.gram, rhs, rcond=None)[0]
        if len(self.columns) == self.depth:
            # the oldest column holds the next image and the trial once the
            # trial no longer needs its G
            target, self.x = self.columns[0]
        else:
            target, self.x = ([np.empty_like(a) for a in f] for _ in range(2))
        for k, xk in enumerate(self.x):
            for sl in _slabs(xk.shape):
                xk[sl] = self.g[k][sl] - sum(c * gj[k][sl] for c, (gj, _) in zip(gamma, self.columns))
        if len(self.columns) == self.depth:
            del self.columns[0]
            self.gram = self.gram[1:, 1:]
        self.pending = (target, f)
        return gamma.size > 0

    def _push(self, image):
        """Append the column (g_old - g_new, f_old - f_new), built in the
        pending pair, and keep the new image as g."""
        f_old = self.pending[1]
        for g_old, g_new, fk, xk in zip(self.g, image, f_old, self.x):
            fk -= g_new
            fk += xk
            np.subtract(g_old, g_new, out=g_old)
        self.columns.append((self.g, f_old))
        self.g = image
        row = [_pair_dot(f_old, f) for _, f in self.columns]
        gram = np.empty((len(row), len(row)))
        gram[:-1, :-1] = self.gram
        gram[-1, :] = gram[:, -1] = row
        self.gram = gram

    def restart(self):
        """Step back to the newest image and forget every column."""
        self.x, self.g = self.g, self.x
        self.columns = []
        self.gram = np.zeros((0, 0))
        self.pending = None


def _iterate(grid: Grid, omega: float, tol: float, max_iter: int, depth: int, done: int = 0):
    """Fixed-point iteration from the Gaussian pair, mixed at the given
    depth, after `done` evaluations of an earlier iteration.  Returns the
    pair whose residuals fell below tol, the evaluation count with `done`
    included, the residual history and the number of discarded trials."""
    mixer = _Anderson(list(_initial_pair(grid, omega)), depth)
    history = []
    discarded = 0
    mixed = False
    for it in range(done + 1, max_iter + 1):
        q1, q2 = mixer.x
        image = mixer.target()
        (res1, pair1, inner1), (res2, pair2, inner2) = _evaluate(grid, omega, q1, q2, image)
        if mixed and _rose(history[-1], (res1, res2)):
            discarded += 1
            mixer.restart()
            mixed = False
            continue
        history.append((res1, res2))
        if res1 < tol and res2 < tol:
            return mixer.x, it, history, discarded

        if inner1 <= 0 or inner2 <= 0:
            raise NoConvergenceError(
                f"renormalization pairing lost positivity at iteration {it}",
                best=(Field(grid, q1), Field(grid, q2)),
            )
        s1 = pair1 / inner1
        s2 = pair2 / inner2
        image[0] *= s1 ** 1.5 * np.sqrt(s2)
        image[1] *= s1 * s2
        image = [_recenter(a, grid.center_index) for a in image]

        norm1 = np.sqrt(np.vdot(image[0], image[0]) * grid.dvol)
        if norm1 < 1e-12:
            raise DegenerateCollapseError(
                f"iterate collapsed to zero at iteration {it}"
            )
        mixed = mixer.accept(image)

    # the best pair is the successor of the last accepted iterate, whose
    # residuals are reported
    res1, res2 = history[-1] if history else (np.inf, np.inf)
    raise NoConvergenceError(
        f"residuals ({res1:.3e}, {res2:.3e}) of the last accepted iterate above "
        f"tol {tol} after {max_iter} evaluations",
        best=(Field(grid, mixer.x[0]), Field(grid, mixer.x[1])),
    )


def solve_ground_state(
    grid: Grid, omega: float, tol: float = 1e-11, max_iter: int = 500
) -> GroundState:
    """Positive radial solution pair on the given grid.

    `max_iter` bounds the evaluations of the update, discarded trials
    included.  The box must contain the exponential tails:
    exp(-sqrt(omega) L) should be well below the target residual scale."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    pair, iterations, history, discarded = _iterate(grid, omega, tol, max_iter, _DEPTH)
    if _tail_rises(history) and iterations < max_iter:
        # On a grid that under-resolves the profile (omega dx^2 above about
        # 1.3), the plain step after a discarded trial can move residual
        # from one equation to the other so late that the rise is among the
        # last 10 iterates.  The plain iteration converges there with a
        # decreasing tail.
        pair, iterations, plain_history, _ = _iterate(grid, omega, tol, max_iter, 0, iterations)
        history += plain_history
        _check_monotone_tail(plain_history, grid, *pair)
    else:
        _check_monotone_tail(history, grid, *pair)
    q1, q2 = pair
    res1, res2 = history[-1]
    return GroundState(
        Q1=Field(grid, q1),
        Q2=Field(grid, q2),
        omega=omega,
        residual1=res1,
        residual2=res2,
        iterations=iterations,
        discarded=discarded,
        residual_history=history,
    )


def _check_monotone_tail(history, grid, q1, q2):
    if _tail_rises(history):
        raise NoConvergenceError(
            "residuals not monotonically decreasing near convergence",
            best=(Field(grid, q1), Field(grid, q2)),
        )
