"""Ground-state solver: residuals, profile structure, the independent
radial finite-difference and plain-iteration oracles, the convergence-tail
check and the memory of the mixed iteration."""

import tracemalloc

import numpy as np
import pytest

from conftest import ground_state_family, radial_shell_means
from oracles import plain_ground_state, radial_ground_state_fd
from nls2lab.dynamics import SolverConfig, State, evolve
from nls2lab.errors import NoConvergenceError
from nls2lab.groundstate import _check_monotone_tail, solve_ground_state
from nls2lab.spectral import lp_norm, make_grid


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


@pytest.mark.parametrize("omega", [1.0, 2.0])
def test_mixed_matches_plain_iteration(omega):
    """The mixed solve and the plain renormalization loop reach the same
    fixed point.  Each stops with residuals below tol, so each lies within
    C tol of the fixed point in L^2, C the norm of the inverse linearized
    operator; the measured gaps (7.3e-12 at omega = 1, 3.8e-12 at 2) put C
    near 1 here.  The bound 10 tol leaves a margin of 5 on 2 tol."""
    tol = 1e-11
    g = make_grid(3, 24, 8.0)
    gs = solve_ground_state(g, omega, tol=tol)
    q1, q2, _ = plain_ground_state(g, omega, tol=tol)
    gap = np.sqrt((np.sum((gs.Q1.values.real - q1) ** 2)
                   + np.sum((gs.Q2.values.real - q2) ** 2)) * g.dvol)
    assert gap < 10 * tol
    # the plain loop takes 88 and 114 evaluations here: a solve that fell
    # back to plain iteration would not stay below 30
    assert gs.iterations <= 30
    assert gs.iterations == len(gs.residual_history) + gs.discarded


@pytest.mark.parametrize("omega", [1.9, 2.1])
def test_converges_at_the_ends_of_the_threshold_range(omega):
    gs = solve_ground_state(make_grid(3, 24, 8.0), omega)
    assert max(gs.residual1, gs.residual2) < 1e-11
    assert gs.iterations <= 30


@pytest.mark.parametrize("omega, tol", [(1.3, 1e-11), (1.5, 1e-9), (2.0, 1e-9)])
def test_under_resolved_grid_converges_as_the_plain_loop(omega, tol):
    """At 16^3, half-width 8 (dx = 1) the profile's width 1/sqrt(omega) is
    below a grid step.  There the mixed iteration's residuals rise inside
    the last 10 iterates, and the solve falls back to the plain loop, whose
    count of evaluations it adds to its own."""
    g = make_grid(3, 16, 8.0)
    gs = solve_ground_state(g, omega, tol=tol)
    q1, q2, plain_iterations = plain_ground_state(g, omega, tol=tol)
    gap = np.sqrt((np.sum((gs.Q1.values.real - q1) ** 2)
                   + np.sum((gs.Q2.values.real - q2) ** 2)) * g.dvol)
    assert gap < 10 * tol
    assert max(gs.residual1, gs.residual2) < tol
    assert gs.iterations > plain_iterations
    assert gs.iterations == len(gs.residual_history) + gs.discarded


def test_no_convergence_reports_the_last_accepted_iterate():
    """The fifth evaluation here is a discarded trial: the message gives
    the residuals of an accepted iterate, not the trial's."""
    g = make_grid(3, 24, 8.0)
    with pytest.raises(NoConvergenceError, match="after 5 evaluations") as err:
        solve_ground_state(g, 1.0, max_iter=5)
    history = solve_ground_state(g, 1.0).residual_history
    reported = err.value.args[0].split("(")[1].split(")")[0]
    assert reported in {f"{a:.3e}, {b:.3e}" for a, b in history}


def test_memory_of_the_mixed_solve():
    """The solve's numpy peak stays within the design's count of real
    fields: 20 for the depth-5 history (a pair of difference arrays per
    column, each a pair of fields), 2 for the iterate, 2 for its image and
    4 for the two complex spectra.  Temporaries add at most one more: the
    slab-by-slab sums take less than a field while the spectra live, and
    _recenter's |q| (a field) is taken after they are freed.  Half a field
    more covers the small objects."""
    g = make_grid(3, 32, 10.0)
    g.k2, g.r2  # the grid's cached arrays are not the solver's
    unit = g.npoints * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        solve_ground_state(g, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (28 + 1 + 0.5) * unit


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
