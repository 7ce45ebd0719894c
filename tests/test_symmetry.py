"""Scaling and Galilean transforms, and the discrete boost identity."""

import numpy as np
import pytest

from conftest import gaussian
from nls2lab.dynamics import SolverConfig, State, linear_step
from nls2lab.observables import energy, mass
from nls2lab.spectral import Field, fh_half_norm, make_grid
from nls2lab.symmetry import (
    boost_evolved_state,
    check_equivariance,
    galilean_boost,
    scale_data,
    spectral_translate,
)


class TestScaleData:
    def test_nested_grid_and_values(self):
        g = make_grid(3, 24, 8.0)
        u, v = gaussian(g, 0.7), gaussian(g, 0.5)
        su, sv = scale_data((u, v), 2.0)
        assert su.grid.half_width == pytest.approx(4.0)
        assert su.grid.n == g.n
        assert np.array_equal(su.values, 4.0 * u.values)
        assert np.array_equal(sv.values, 4.0 * v.values)

    def test_mass_energy_fh_scaling(self):
        g = make_grid(3, 64, 8.0)
        u, v = gaussian(g, 0.9), gaussian(g, 0.7)
        s = State(u, v, 0.0)
        su, sv = scale_data((u, v), 2.0)
        ss = State(su, sv, 0.0)
        assert mass(ss) / mass(s) == pytest.approx(2.0, abs=1e-9)
        assert energy(ss).energy / energy(s).energy == pytest.approx(8.0, abs=1e-9)
        assert fh_half_norm(su) / fh_half_norm(u) == pytest.approx(1.0, abs=1e-7)

    def test_rejects_non_dyadic(self):
        g = make_grid(2, 16, 4.0)
        with pytest.raises(ValueError):
            scale_data((gaussian(g), gaussian(g)), 3.0)

    def test_inverse_scaling(self):
        g = make_grid(3, 16, 4.0)
        pair = (gaussian(g, 0.4), gaussian(g, 0.3))
        down = scale_data(scale_data(pair, 2.0), 0.5)
        assert down[0].grid == g
        assert np.allclose(down[0].values, pair[0].values, atol=1e-15)


class TestBoost:
    def test_lattice_validation(self):
        g = make_grid(3, 16, 4.0)  # dual spacing pi/4
        with pytest.raises(ValueError, match="dual lattice"):
            galilean_boost((gaussian(g), gaussian(g)), np.array([1.0, 0.0, 0.0]))
        galilean_boost(
            (gaussian(g), gaussian(g)), np.array([np.pi / 4.0, 0.0, 0.0])
        )

    def test_moduli_and_mass_preserved(self):
        g = make_grid(3, 16, np.pi)
        u, v = gaussian(g, 0.8), gaussian(g, 0.6)
        bu, bv = galilean_boost((u, v), np.array([2.0, 0.0, 0.0]))
        assert np.allclose(np.abs(bu.values), np.abs(u.values))
        m0 = mass(State(u, v, 0.0))
        assert mass(State(bu, bv, 0.0)) == pytest.approx(m0, rel=1e-13)

    def test_v_phase_doubled(self):
        g = make_grid(1, 16, np.pi)
        one = Field(g, np.ones(g.shape))
        bu, bv = galilean_boost((one, one), np.array([1.0]))
        assert np.allclose(bv.values, bu.values ** 2)

    def test_kinetic_shift(self):
        # boosting by xi shifts the u spectrum by xi; for data with zero mean
        # momentum the kinetic term grows by exactly |xi|^2 ||u||^2.  The
        # narrow width keeps the lattice asymmetry at x = -L negligible.
        g = make_grid(3, 24, np.pi)
        u, v = gaussian(g, 0.5, 0.6), gaussian(g, 0.5, 0.6)
        bu, _ = galilean_boost((u, v), np.array([3.0, 0.0, 0.0]))
        k0 = energy(State(u, v, 0.0)).kinetic_u
        k1 = energy(State(bu, v, 0.0)).kinetic_u
        l2sq = np.sum(np.abs(u.values) ** 2) * g.dvol
        assert k1 - k0 == pytest.approx(9.0 * l2sq, rel=1e-8)


class TestTranslate:
    def test_matches_roll_on_lattice_shift(self):
        rng = np.random.default_rng(5)
        g = make_grid(2, 16, 2.0)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        out = spectral_translate(f, [g.dx * 3, 0.0])
        rolled = np.roll(f.values, 3, axis=0)
        assert np.max(np.abs(out.values - rolled)) < 1e-12


class TestBoostIdentity:
    def test_exact_for_linear_flow(self):
        # e^{itD}(boost f) = phases * (e^{itD} f)(x - 2 t xi), discretely
        # exact when the data is resolved (no content near the band edge)
        g = make_grid(3, 48, 2.0 * np.pi)
        u0, v0 = gaussian(g, 0.8, 0.8), gaussian(g, 0.6, 0.8)
        xi = np.array([1.0, 0.0, 0.0])
        t = 0.37
        bu, bv = galilean_boost((u0, v0), xi)
        lhs = State(linear_step(bu, t, 1.0), linear_step(bv, t, 0.5), t)
        plain = State(linear_step(u0, t, 1.0), linear_step(v0, t, 0.5), t)
        rhs = boost_evolved_state(plain, xi, t)
        assert np.max(np.abs(lhs.u.values - rhs.u.values)) < 1e-12
        assert np.max(np.abs(lhs.v.values - rhs.v.values)) < 1e-12

    def test_boost_evolved_at_t0_is_plain_boost(self):
        g = make_grid(3, 16, np.pi)
        u0, v0 = gaussian(g, 0.5), gaussian(g, 0.5)
        xi = np.array([0.0, 2.0, 0.0])
        bu, bv = galilean_boost((u0, v0), xi)
        out = boost_evolved_state(State(u0, v0, 0.0), xi, 0.0)
        assert np.max(np.abs(out.u.values - bu.values)) < 1e-13
        assert np.max(np.abs(out.v.values - bv.values)) < 1e-13


class TestDeformation:
    def test_apply_composes(self):
        # dilation first, then a boost on the dilated grid's dual lattice
        g = make_grid(3, 16, 4.0)
        pair = (gaussian(g, 0.4), gaussian(g, 0.3))
        du, dv = galilean_boost(scale_data(pair, 2.0), [np.pi / 2.0, 0.0, 0.0])
        assert du.grid.half_width == pytest.approx(2.0)
        # modulus unchanged by the boost, scaled by h^2 by the dilation
        assert np.allclose(np.abs(du.values), 4.0 * np.abs(pair[0].values))


def test_check_equivariance_small():
    g = make_grid(3, 32, 1.5 * np.pi)  # dual lattice spacing 2/3
    u0, v0 = gaussian(g, 0.3, 0.8), gaussian(g, 0.2, 0.8)
    cfg = SolverConfig(dt=5e-3, t_end=0.25, dealias=False)
    disc = check_equivariance((u0, v0), np.array([2.0 / 3.0, 0.0, 0.0]), 0.25, cfg)
    assert disc < 1e-7
