"""Acceptance suite: one test (one pass/fail line under pytest -v) per
criterion, with pinned tolerances.  Grids are desk scale; the heavier cases
take tens of seconds each."""

import numpy as np
import pytest

from conftest import gaussian, ground_state_family
from oracles import dense_lowest_eigenpair
from nls2lab.criterion import (
    eigenvalue_bound,
    large_data_bound,
    large_data_profile,
    lowest_eigenpair,
)
from nls2lab.dynamics import SolverConfig, State, evolve, nonlinear_substep
from nls2lab.groundstate import solve_ground_state
from nls2lab.observables import energy, mass
from nls2lab.spectral import Field, fh_half_norm, make_grid, zeros
from nls2lab.symmetry import check_equivariance, scale_data
from nls2lab.threshold import (
    NONSCATTER,
    SCATTERS,
    UNDECIDED,
    bisect_threshold,
    run_and_classify,
    scan_L_curve,
)


def _line(num, name, detail):
    print(f"criterion {num:02d} [{name}]: {detail}")


def test_01_conservation():
    g = make_grid(3, 48, 10.0)
    s = State(gaussian(g, 0.8), gaussian(g, 0.6), 0.0)
    m0, e0 = mass(s), energy(s).energy
    fin, series, out = evolve(s, SolverConfig(dt=1e-3, t_end=1.0, record_every=100))
    assert out.kind == "completed"
    dm = abs(mass(fin) - m0) / m0
    de = abs(energy(fin).energy - e0) / abs(e0)
    _line(1, "conservation", f"mass drift {dm:.3e} (<1e-8), energy drift {de:.3e} (<1e-6)")
    assert dm < 1e-8
    assert de < 1e-6


def test_02_splitting_order():
    g = make_grid(3, 24, 8.0)
    u0, v0 = gaussian(g, 1.0), gaussian(g, 0.8)

    def final(dt):
        cfg = SolverConfig(dt=dt, t_end=0.5, dealias=False, record_every=10 ** 9)
        fin, _, _ = evolve(State(u0.copy(), v0.copy(), 0.0), cfg)
        return fin

    ref = final(0.005 / 16)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        f = final(dt)
        errs.append(
            np.sqrt(
                np.sum(
                    np.abs(f.u.values - ref.u.values) ** 2
                    + np.abs(f.v.values - ref.v.values) ** 2
                )
                * g.dvol
            )
        )
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    _line(2, "splitting order", f"halving ratios {r1:.2f}, {r2:.2f} (in [3.5, 4.5])")
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5


def test_03_substep_invariant():
    rng = np.random.default_rng(11)
    g = make_grid(3, 24, 6.0)
    u = Field(g, 0.5 * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)))
    v = Field(g, 0.5 * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)))
    inv0 = np.abs(u.values) ** 2 + 2.0 * np.abs(v.values) ** 2
    out = nonlinear_substep(State(u, v, 0.0), 1e-3)
    inv1 = np.abs(out.u.values) ** 2 + 2.0 * np.abs(out.v.values) ** 2
    drift = np.max(np.abs(inv1 - inv0))
    _line(3, "substep invariant", f"max |u|^2+2|v|^2 drift {drift:.3e} (<1e-12)")
    assert drift < 1e-12


def test_04_scaling_laws():
    g = make_grid(3, 64, 8.0)
    u, v = gaussian(g, 0.9), gaussian(g, 0.7)
    su, sv = scale_data((u, v), 2.0)
    mr = mass(State(su, sv, 0.0)) / mass(State(u, v, 0.0))
    er = energy(State(su, sv, 0.0)).energy / energy(State(u, v, 0.0)).energy
    fr = fh_half_norm(su) / fh_half_norm(u)
    _line(4, "scaling laws", f"mass {mr:.9f} (2), energy {er:.9f} (8), weighted {fr:.9f} (1)")
    assert mr == pytest.approx(2.0, abs=1e-6)
    assert er == pytest.approx(8.0, abs=1e-6)
    assert fr == pytest.approx(1.0, abs=1e-6)


def test_05_galilean_equivariance():
    g = make_grid(3, 48, 2.0 * np.pi)
    u0, v0 = gaussian(g, 0.8), gaussian(g, 0.6)
    cfg = SolverConfig(dt=2e-3, t_end=0.5, dealias=False)
    disc = check_equivariance((u0, v0), np.array([1.0, 0.0, 0.0]), 0.5, cfg)
    _line(5, "Galilean equivariance", f"relative L2 discrepancy {disc:.3e} (<1e-6)")
    assert disc < 1e-6


def test_06_ground_state():
    gs1 = solve_ground_state(make_grid(3, 64, 24.0), 1.0, tol=1e-11)
    assert gs1.residual1 < 1e-10
    assert gs1.residual2 < 1e-10
    gs4 = solve_ground_state(make_grid(3, 64, 12.0), 4.0, tol=1e-11)
    s1, s2 = scale_data((gs1.Q1, gs1.Q2), 2.0)
    d1 = np.sqrt(
        np.sum(np.abs(s1.values - gs4.Q1.values) ** 2)
        / np.sum(np.abs(gs4.Q1.values) ** 2)
    )
    d2 = np.sqrt(
        np.sum(np.abs(s2.values - gs4.Q2.values) ** 2)
        / np.sum(np.abs(gs4.Q2.values) ** 2)
    )
    _line(
        6,
        "ground state",
        f"residuals {gs1.residual1:.2e}/{gs1.residual2:.2e} (<1e-10), "
        f"omega-scaling mismatch {max(d1, d2):.2e} (<1e-8)",
    )
    assert d1 < 1e-8
    assert d2 < 1e-8


def test_07_eigen_oracle():
    g = make_grid(3, 16, 8.0)
    v0 = gaussian(g, 3.0)
    res = lowest_eigenpair(v0, 0.0, tol=1e-10)
    ev_dense, _ = dense_lowest_eigenpair(g, -2.0 * np.real(v0.values))
    diff = abs(res.e_tilde - ev_dense)

    gl = make_grid(3, 32, 8.0)
    vl = gaussian(gl, 3.0)
    rl = lowest_eigenpair(vl, 0.0, tol=1e-10)
    _, vs = scale_data((vl, vl), 2.0)
    rs = lowest_eigenpair(vs, 0.0, tol=1e-10)
    law = abs(rs.e_tilde - 4.0 * rl.e_tilde)
    _line(
        7,
        "eigen oracle",
        f"dense mismatch {diff:.3e} (<1e-6), lambda^2 law residual {law:.3e} (<1e-6)",
    )
    assert diff < 1e-6
    assert law < 1e-6


def test_08_zero_energy_witness():
    g = make_grid(3, 48, 12.0)
    v0 = gaussian(g, 3.0)
    res = lowest_eigenpair(v0, 0.0, tol=1e-10)
    rep = eigenvalue_bound(v0, res)
    u0, _ = rep.witness_fields
    erep = energy(State(u0, v0, 0.0))
    kin = erep.kinetic_u + erep.kinetic_v
    rel_e = abs(erep.energy) / kin

    _, vs = scale_data((v0, v0), 2.0)
    rs = lowest_eigenpair(vs, 0.0, tol=1e-10)
    reps = eigenvalue_bound(vs, rs)
    inv = abs(reps.bound_value - rep.bound_value) / rep.bound_value
    _line(
        8,
        "zero-energy witness",
        f"|E|/kinetic {rel_e:.3e} (<1e-8), bound scaling drift {inv:.3e} (<1e-8)",
    )
    assert rel_e < 1e-8
    assert inv < 1e-8


def test_09_large_data_construction():
    rng = np.random.default_rng(13)
    g = make_grid(3, 12, 2.0)
    vr = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    ur = large_data_profile(vr)
    ident = np.max(np.abs(ur.values ** 2 * np.conj(vr.values) - np.abs(vr.values) ** 3))

    g2 = make_grid(3, 32, 8.0)
    v0 = gaussian(g2, 1.0)
    c0 = None
    for c in (1.0, 2.0, 4.0, 8.0):
        rep = large_data_bound(v0, [c])[0]
        if rep.fired:
            c0 = c
            break
    assert c0 is not None, "no finite amplification with negative energy found"
    reps = large_data_bound(v0, [c0, 2 * c0, 4 * c0, 8 * c0])
    assert all(r.fired for r in reps)
    vals = [r.bound_value / np.sqrt(r.witness["c"]) for r in reps]
    spread = max(vals) - min(vals)
    _line(
        9,
        "large data",
        f"pointwise identity {ident:.3e} (<1e-12), c0 {c0}, "
        f"c^-1/2-normalized bound spread {spread:.3e} (<1e-10)",
    )
    assert ident < 1e-12
    assert spread < 1e-10 * vals[0]


def test_10_criterion_soundness(gs24, grid24):
    results = []

    # nonpositive-energy runs: must classify NonScatter
    cfg_long = SolverConfig(dt=5e-3, t_end=4.0, record_every=20)
    for c in (1.0, 1.3):
        u0, v0 = ground_state_family(gs24, c, c)
        assert energy(State(u0, v0, 0.0)).energy <= 0.0
        verdict, _, _ = run_and_classify(u0, v0, cfg_long)
        results.append((f"E<=0 (x{c})", verdict))
        assert verdict.verdict == NONSCATTER, f"E<=0 run x{c} -> {verdict.verdict}"

    # 1% of the small-data scale: must classify Scatters
    cfg_short = SolverConfig(dt=5e-3, t_end=2.0, record_every=10)
    u0 = gaussian(grid24, 0.01, 1.0)
    v0 = Field(grid24, 0.008 * np.exp(-grid24.r2))
    verdict, _, _ = run_and_classify(u0, v0, cfg_short)
    results.append(("1% pair", verdict))
    assert verdict.verdict == SCATTERS, f"tiny pair -> {verdict.verdict}"

    verdict, _, _ = run_and_classify(zeros(grid24), v0, cfg_short)
    results.append(("(0, v0)", verdict))
    assert verdict.verdict == SCATTERS, f"(0, v0) -> {verdict.verdict}"

    verdict, _, _ = run_and_classify(zeros(grid24), zeros(grid24), cfg_short)
    results.append(("zero data", verdict))
    assert verdict.verdict == SCATTERS

    # per-component agreement on every decided run
    for name, v in results:
        if UNDECIDED not in (v.verdict_u, v.verdict_v):
            assert v.verdict_u == v.verdict_v, f"{name}: split verdict"
    _line(10, "criterion soundness", "; ".join(f"{n}: {v.verdict}" for n, v in results))


def test_11_threshold_consistency(gs24_w2):
    v0 = gs24_w2.Q2
    g = v0.grid
    shape = gaussian(g, 1.0)
    cfg = SolverConfig(dt=5e-3, t_end=2.0, record_every=10)
    est = bisect_threshold(v0, shape, 0.0, 1.0, cfg, max_bisections=4)
    fired = [b for b in est.analytic_bounds if b.kind == "Eigenvalue" and b.fired]
    assert fired, "eigenvalue criterion did not fire for v0 = Q2"
    bound = fired[0].bound_value
    assert est.ell_lower <= bound * 1.05

    lc = scan_L_curve(v0, [shape], [0.0, 0.25, 0.5, 1.0, 2.0], cfg)
    finite = [x for x in lc.L_values if np.isfinite(x)]
    assert all(b >= a - 1e-9 for a, b in zip(finite, finite[1:])), "L-curve decreasing"
    unsat = [ell for ell, sat in zip(lc.ell_values, lc.saturated) if not sat]
    if unsat:
        assert unsat[0] >= est.ell_lower
    _line(
        11,
        "threshold consistency",
        f"bracket [{est.ell_lower:.4g}, {est.ell_upper:.4g}], "
        f"eigen bound {bound:.4g}, L-curve {['%.3g' % x for x in lc.L_values]}",
    )
