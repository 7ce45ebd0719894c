"""Ground-state solver: residuals, profile structure, and the independent
radial finite-difference oracle."""

import numpy as np
import pytest

from conftest import ground_state_family, radial_shell_means
from oracles import radial_ground_state_fd
from nls2lab.dynamics import SolverConfig, State, evolve
from nls2lab.groundstate import solve_ground_state
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
