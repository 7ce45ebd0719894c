"""Ground-state solver: residuals, profile structure, the independent
radial finite-difference and plain-iteration oracles, the closed-form
identities of the answer, the convergence-tail check, the memory of the
octant iteration and its independence of the BLAS thread count."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import ground_state_family, radial_shell_means
from oracles import plain_ground_state, radial_ground_state_fd
from nls2lab.dynamics import SolverConfig, State, evolve
from nls2lab.errors import NoConvergenceError
from nls2lab.groundstate import _check_monotone_tail, solve_ground_state
from nls2lab.observables import energy
from nls2lab.spectral import lp_norm, make_grid

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_residuals_and_positivity(gs24):
    assert gs24.residual1 < 1e-10
    assert gs24.residual2 < 1e-10
    # positivity up to the coarse-grid truncation ripple (24^3 is the
    # dynamics grid; the 64^3 oracle comparison below is much tighter)
    q1 = np.real(gs24.Q1.values)
    q2 = np.real(gs24.Q2.values)
    assert q1.min() > -1e-3 * q1.max()
    assert q2.min() > -1e-3 * q2.max()
    # imaginary parts are identically zero by construction
    assert np.max(np.abs(np.imag(gs24.Q1.values))) == 0.0


def test_radial_monotone_profile(gs24):
    centers, means = radial_shell_means(gs24.Q1, nbins=12)
    good = ~np.isnan(means)
    m = means[good]
    assert all(b <= a * 1.01 + 1e-12 for a, b in zip(m, m[1:]))


def test_peak_at_center(gs24):
    idx = np.unravel_index(np.argmax(np.abs(gs24.Q1.values)), gs24.Q1.grid.shape)
    assert idx == gs24.Q1.grid.center_index


def test_matches_radial_fd_oracle():
    """Independent check: radial FD Newton solve vs the spectral profile
    along a coordinate axis (agreement at the FD truncation level)."""
    r, q1r, q2r = radial_ground_state_fd(1.0, R=14.0, N=2800)
    g = make_grid(3, 64, 12.0)
    gs = solve_ground_state(g, 1.0, tol=1e-11)
    c = g.n // 2
    ax = g.x[c:]
    for spectral, radial in ((gs.Q1, q1r), (gs.Q2, q2r)):
        axis_vals = np.real(spectral.values[c:, c, c])
        oracle = np.interp(ax, r, radial)
        rel = np.max(np.abs(axis_vals - oracle)) / axis_vals.max()
        assert rel < 2e-4


def test_standing_wave_under_evolution(gs24):
    """(Q1, Q2) evolves as (e^{i w t} Q1, e^{2 i w t} Q2): moduli frozen.

    Dealias off: the 2/3 mask would keep shaving the profile's own spectral
    tail at this resolution, which damps the standing wave."""
    s = State(gs24.Q1.copy(), gs24.Q2.copy(), 0.0)
    fin, _, out = evolve(s, SolverConfig(dt=2e-3, t_end=0.3, dealias=False))
    assert out.kind == "completed"
    drift = np.max(np.abs(np.abs(fin.u.values) - np.abs(gs24.Q1.values)))
    assert drift / np.abs(gs24.Q1.values).max() < 1e-5
    # and the phases rotate at omega (resp. 2 omega)
    phase = np.angle(
        fin.u.values[gs24.Q1.grid.center_index]
        / gs24.Q1.values[gs24.Q1.grid.center_index]
    )
    assert phase == pytest.approx(gs24.omega * 0.3, abs=1e-4)


def test_omega_validation():
    g = make_grid(3, 16, 8.0)
    with pytest.raises(ValueError):
        solve_ground_state(g, -1.0)


def test_family_scaling(gs24):
    u, v = ground_state_family(gs24, 2.0, 0.5)
    assert lp_norm(u, 2.0) == pytest.approx(2.0 * lp_norm(gs24.Q1, 2.0), rel=1e-12)
    assert lp_norm(v, 2.0) == pytest.approx(0.5 * lp_norm(gs24.Q2, 2.0), rel=1e-12)


def closed_form_terms(gs):
    """K = |grad Q1|^2 + |grad Q2|^2 / 2, M = |Q1|^2 + 2 |Q2|^2 and
    N = int Q1^2 Q2 of a solve, from one energy report."""
    rep = energy(State(gs.Q1, gs.Q2, 0.0))
    return rep.kinetic_u + rep.kinetic_v, rep.mass, rep.interaction / 2.0


@pytest.mark.parametrize("n, omega", [(16, 1.5), (24, 2.0), (32, 2.0)])
def test_nehari_identity(n, omega):
    """Pairing each equation with its own component and adding gives
    K + omega M = 3N.  The discrete pair misses it by <r1, Q1> + <r2, Q2>,
    r_i the residual of equation i, so by Cauchy-Schwarz by at most
    tol (|Q1| + |Q2|): 2e-13 to 4e-13 of 3N here, where 6e-16 is measured.
    The identity is the discrete one, so it holds on the under-resolved
    16^3 grid too.  64 ulp of the terms cover the round-off of the sums."""
    tol = 1e-11
    gs = solve_ground_state(make_grid(3, n, 8.0), omega, tol=tol)
    k, m, nn = closed_form_terms(gs)
    bound = tol * (lp_norm(gs.Q1, 2.0) + lp_norm(gs.Q2, 2.0))
    bound += 64 * np.finfo(float).eps * (k + omega * m + 3.0 * nn)
    assert abs(k + omega * m - 3.0 * nn) <= bound


def test_pohozaev_defect_falls_with_resolution():
    """The dilation Q(lambda x) gives K = 3N/2 in the continuum only; on
    the grid the defect K/(3N/2) - 1 measures how far the discrete profile
    is from the continuum one.  At L = 8, omega = 2 it reads 1.5e-2 at 32^3
    and 8.4e-5 at 48^3, a fall of 180x; the test asks for 10x."""
    defects = []
    for n in (32, 48):
        k, _, nn = closed_form_terms(solve_ground_state(make_grid(3, n, 8.0), 2.0))
        defects.append(abs(k / (1.5 * nn) - 1.0))
    assert defects[1] <= defects[0] / 10.0


def oracle_gap(gs, q1, q2):
    """L^2 distance of a solve's pair from the oracle's pair."""
    g = gs.Q1.grid
    return np.sqrt((np.sum((gs.Q1.values.real - q1) ** 2)
                    + np.sum((gs.Q2.values.real - q2) ** 2)) * g.dvol)


@pytest.mark.parametrize("omega", [1.0, 2.0])
def test_octant_solve_matches_plain_iteration(omega):
    """The octant solve and the full-grid plain renormalization loop are
    the same iteration in two bases, so they take the same number of
    evaluations and stop at the same iterate up to round-off (gaps of
    7e-15 here).  Each stops with residuals below tol, so each lies within
    C tol of the fixed point in L^2, C the norm of the inverse linearized
    operator; the bound 10 tol holds for any two solves that stop there."""
    tol = 1e-11
    g = make_grid(3, 24, 8.0)
    gs = solve_ground_state(g, omega, tol=tol)
    q1, q2, plain_iterations = plain_ground_state(g, omega, tol=tol)
    assert oracle_gap(gs, q1, q2) < 10 * tol
    assert gs.iterations == plain_iterations
    assert gs.iterations == len(gs.residual_history)


@pytest.mark.parametrize("omega", [1.9, 2.1])
def test_converges_at_the_ends_of_the_threshold_range(omega):
    g = make_grid(3, 24, 8.0)
    gs = solve_ground_state(g, omega)
    assert max(gs.residual1, gs.residual2) < 1e-11
    assert gs.iterations == plain_ground_state(g, omega)[2]


@pytest.mark.parametrize("omega, tol", [(1.3, 1e-11), (1.5, 1e-9), (2.0, 1e-9)])
def test_under_resolved_grid_converges_as_the_plain_loop(omega, tol):
    """At 16^3, half-width 8 (dx = 1) the profile's width 1/sqrt(omega) is
    below a grid step.  The octant solve still converges with the plain
    loop, in as many evaluations, and its tail passes the monotone check."""
    g = make_grid(3, 16, 8.0)
    gs = solve_ground_state(g, omega, tol=tol)
    q1, q2, plain_iterations = plain_ground_state(g, omega, tol=tol)
    assert oracle_gap(gs, q1, q2) < 10 * tol
    assert max(gs.residual1, gs.residual2) < tol
    assert gs.iterations == plain_iterations
    assert gs.iterations == len(gs.residual_history)


def test_no_convergence_reports_the_last_accepted_iterate():
    """The message gives the residuals of the last evaluated iterate."""
    g = make_grid(3, 24, 8.0)
    with pytest.raises(NoConvergenceError, match="after 5 evaluations") as err:
        solve_ground_state(g, 1.0, max_iter=5)
    history = solve_ground_state(g, 1.0).residual_history
    reported = err.value.args[0].split("(")[1].split(")")[0]
    assert reported in {f"{a:.3e}, {b:.3e}" for a, b in history}


def test_memory_of_the_octant_solve():
    """The solve's numpy peak stays within the design's count of arrays:
    the two complex output fields (4 real fields), and 10 real octant
    arrays of (n/2 + 1)^3 points: the iterate pair, its four spectra and
    the two multipliers, which live to the end, plus the complex copy of
    one component that is mirrored onto the grid.  Mirroring by advanced
    indexing buffers 8192 entries of each of the three index arrays
    (192 KiB at any grid size); 64 KiB more covers the small objects."""
    g = make_grid(3, 32, 10.0)
    g.octant  # the grid's cached arrays are not the solver's
    unit = g.npoints * np.dtype(np.float64).itemsize
    octant_unit = g.octant.weight.nbytes
    tracemalloc.start()
    try:
        solve_ground_state(g, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * unit + 10 * octant_unit + 256 * 1024


def test_solution_does_not_depend_on_the_blas_thread_count(tmp_path):
    """The solve's sums are numpy's pairwise np.sum and its transforms are
    pocketfft's, so no reduction goes through BLAS: the pair is the same
    bytes under any OpenBLAS thread count."""
    script = (
        "import hashlib; from nls2lab.groundstate import solve_ground_state; "
        "from nls2lab.spectral import make_grid; "
        "gs = solve_ground_state(make_grid(3, 24, 8.0), 2.0); "
        "print(hashlib.sha256(gs.Q1.values.tobytes() + gs.Q2.values.tobytes()).hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


class TestMonotoneTail:
    grid = make_grid(3, 8, 4.0)
    q = np.zeros(grid.shape)

    def check(self, history):
        _check_monotone_tail(history, self.grid, self.q, self.q)

    def test_flat_tail_passes(self):
        self.check([(1.0, 1.0)] * 12)

    def test_rise_of_five_percent_passes(self):
        self.check([(1.0, 1.0)] * 5 + [(1.05, 1.05)] * 5)

    @pytest.mark.parametrize("component", [0, 1])
    def test_rise_in_either_component_fires(self, component):
        risen = [1.0, 1.0]
        risen[component] = 1.06
        history = [(1.0, 1.0)] * 9 + [tuple(risen)] + [(0.5, 0.5)] * 2
        with pytest.raises(NoConvergenceError, match="monoton"):
            self.check(history)

    def test_rise_into_the_first_tail_entry_is_ignored(self):
        # the tail is the last 10 entries; the rise is from entry 1 to 2
        self.check([(1.0, 1.0)] * 2 + [(2.0, 2.0)] * 10)

    def test_rise_inside_the_tail_fires(self):
        with pytest.raises(NoConvergenceError):
            self.check([(1.0, 1.0)] * 3 + [(2.0, 2.0)] * 9)
