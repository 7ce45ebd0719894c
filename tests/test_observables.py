"""Mass, energy, and the aggregate report."""

import numpy as np
import pytest

from conftest import gaussian
from nls2lab.dynamics import SolverConfig, State, evolve, linear_step
from nls2lab.observables import X_SPEC_U, energy, interaction_term, mass, report_all
from nls2lab.spectral import Field, make_grid, sobolev_seminorm, x_norm, zeros


def test_mass_gaussian_closed_form():
    g = make_grid(3, 48, 8.0)
    u = gaussian(g, amp=1.0, width=1.0)
    v = gaussian(g, amp=0.5, width=1.0)
    s = State(u, v, 0.0)
    # int exp(-|x|^2) = pi^(3/2); mass = (1 + 2*0.25) * pi^(3/2)
    assert mass(s) == pytest.approx(1.5 * np.pi ** 1.5, rel=1e-12)


def test_energy_gaussian_closed_form():
    g = make_grid(3, 48, 8.0)
    u = gaussian(g, amp=1.0, width=1.0)
    v = gaussian(g, amp=1.0, width=1.0)
    rep = energy(State(u, v, 0.0))
    # ||grad e^{-|x|^2/2}||^2 = (3/2) pi^(3/2); interaction 2 int e^{-3|x|^2/2}
    kin = 1.5 * np.pi ** 1.5
    inter = 2.0 * (2.0 * np.pi / 3.0) ** 1.5
    assert rep.kinetic_u == pytest.approx(kin, rel=1e-10)
    assert rep.kinetic_v == pytest.approx(0.5 * kin, rel=1e-10)
    assert rep.interaction == pytest.approx(inter, rel=1e-10)
    assert rep.energy == pytest.approx(1.5 * kin - inter, rel=1e-9)


def test_interaction_phase_sensitivity():
    # u^2 conj(v) picks up the relative phase e^{i(2a-b)}
    g = make_grid(3, 32, 8.0)
    base = interaction_term(State(gaussian(g), gaussian(g), 0.0))
    rot = interaction_term(
        State(gaussian(g, phase=0.3), gaussian(g, phase=0.6), 0.0)
    )
    assert rot == pytest.approx(base, rel=1e-12)
    anti = interaction_term(State(gaussian(g), gaussian(g, phase=np.pi), 0.0))
    assert anti == pytest.approx(-base, rel=1e-12)


def test_linear_flow_conserves_mass_and_kinetic_but_not_interaction():
    g = make_grid(3, 32, 10.0)
    s0 = State(gaussian(g, 0.8), gaussian(g, 0.6), 0.0)
    r0 = energy(s0)
    t = 0.5
    s1 = State(linear_step(s0.u, t, 1.0), linear_step(s0.v, t, 0.5), t)
    r1 = energy(s1)
    assert r1.mass == pytest.approx(r0.mass, rel=1e-12)
    assert r1.kinetic_u == pytest.approx(r0.kinetic_u, rel=1e-12)
    assert r1.kinetic_v == pytest.approx(r0.kinetic_v, rel=1e-12)
    assert abs(r1.interaction - r0.interaction) > 1e-3


def test_nonlinear_flow_conserves_energy():
    g = make_grid(3, 24, 8.0)
    s = State(gaussian(g, 0.5), gaussian(g, 0.4), 0.0)
    e0 = energy(s).energy
    fin, _, _ = evolve(s, SolverConfig(dt=1e-3, t_end=0.2, dealias=False))
    assert energy(fin).energy == pytest.approx(e0, rel=1e-6)


def test_h1_size_is_the_gradient_norm_sum():
    rng = np.random.default_rng(5)
    g = make_grid(3, 16, 5.0)
    u, v = (
        Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        for _ in range(2)
    )
    # read back from the kinetic terms without rounding
    assert energy(State(u, v, 0.0)).h1_size == (
        sobolev_seminorm(u, 1.0) + sobolev_seminorm(v, 1.0)
    )


def test_report_all_keys():
    g = make_grid(3, 16, 5.0)
    rep0 = report_all(State(gaussian(g), gaussian(g), 0.0))
    # the t -> 0 limit of the X norm
    assert rep0["x_norm_u"] == x_norm(gaussian(g), 0.0, X_SPEC_U)
    rep1 = report_all(State(gaussian(g), gaussian(g), 0.5))
    for key in ("mass", "energy", "fh_half_u", "linf_v", "x_norm_u", "x_norm_v"):
        assert key in rep1


def test_zero_data():
    g = make_grid(3, 16, 5.0)
    s = State(zeros(g), zeros(g), 0.0)
    assert mass(s) == 0.0
    assert energy(s).energy == 0.0
