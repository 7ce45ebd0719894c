import numpy as np
import pytest

from nls2lab.spectral import Field, make_grid
from nls2lab.groundstate import solve_ground_state


def gaussian(grid, amp=1.0, width=1.0, phase=0.0):
    vals = amp * np.exp(1j * phase) * np.exp(-grid.r2 / (2.0 * width ** 2))
    return Field(grid, vals)


def ground_state_family(gs, c1, c2):
    """The pair (c1 Q1, c2 Q2) used to probe the scattering classifier."""
    return Field(gs.Q1.grid, c1 * gs.Q1.values), Field(gs.Q2.grid, c2 * gs.Q2.values)


def radial_shell_means(f, nbins=24):
    """Mean of Re f over radial shells, for the positivity and monotonicity
    checks of ground-state profiles."""
    r = np.sqrt(f.grid.r2).ravel()
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


@pytest.fixture(scope="session")
def grid24():
    return make_grid(3, 24, 10.0)


@pytest.fixture(scope="session")
def gs24(grid24):
    """Ground state at omega=1 on the 24^3 dynamics grid (shared; slow-ish)."""
    return solve_ground_state(grid24, 1.0, tol=1e-10)


@pytest.fixture(scope="session")
def gs24_w2():
    """Ground state at omega=2 on a 24^3/L=8 grid: narrow enough that its
    free dispersal is visible inside a t_end=2 window (threshold tests)."""
    return solve_ground_state(make_grid(3, 24, 8.0), 2.0, tol=1e-10)
