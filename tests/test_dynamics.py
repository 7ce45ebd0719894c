"""Time stepping: linear flow exactness, substep invariants, splitting
order, blowup handling, diagnostics recording, and state files."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import gaussian
from oracles import free_gaussian
from nls2lab.errors import NonFiniteFieldError
from nls2lab.dynamics import (
    DiagnosticSeries,
    SolverConfig,
    State,
    _StepKernel,
    evolve,
    linear_step,
    nonlinear_substep,
    read_state,
    strang_step,
    write_state,
)
from nls2lab.observables import mass
from nls2lab.spectral import (
    Field,
    NormSpec,
    lp_norm,
    make_grid,
    sobolev_seminorm,
    x_norm,
    zeros,
)


class TestLinearStep:
    def test_unitary(self):
        rng = np.random.default_rng(2)
        g = make_grid(3, 16, 3.0)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        out = linear_step(f, 0.3, 1.0)
        assert lp_norm(out, 2.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-13)

    def test_plane_wave_phase(self):
        g = make_grid(1, 32, np.pi)
        k0, t = 4.0, 0.21
        f = Field(g, np.exp(1j * k0 * g.x))
        for a in (1.0, 0.5):
            out = linear_step(f, t, a)
            expected = np.exp(-1j * a * k0 ** 2 * t) * f.values
            assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_free_gaussian_closed_form(self):
        g = make_grid(3, 48, 12.0)
        t = 0.8
        u = linear_step(gaussian(g, width=1.0), t, 1.0)  # exp(-|x|^2/2): a=1/2
        exact = free_gaussian(0.5, t, g.r2, dispersion=1.0)
        # limited by periodic images of the spreading Gaussian, not the solver
        assert np.max(np.abs(u.values - exact)) < 1e-8
        v = linear_step(gaussian(g, width=1.0), t, 0.5)
        exact_v = free_gaussian(0.5, t, g.r2, dispersion=0.5)
        assert np.max(np.abs(v.values - exact_v)) < 1e-8

    @pytest.mark.parametrize("a,m", [(1.0, 0.5), (0.5, 1.0)], ids=["u", "v"])
    def test_x_norm_continuous_at_t0(self, a, m):
        # pseudo-conformal identity: J = x + (it/m) grad commutes with the free
        # flow e^{it Delta/(2m)}, so the X norm of a free solution is constant
        # in t, and x_norm at t = 0 must be its t -> 0 limit.  Measured 1.0013
        # (u) and 1.0014 (v) at t = 0.5; the plain |x|^(1/2) norm at t = 0
        # would make the u ratio sqrt(2).
        g = make_grid(3, 48, 12.0)
        f = gaussian(g, width=1.0)
        spec = NormSpec(s=0.5, r=2.0, m=m)
        ratio = x_norm(linear_step(f, 0.5, a), 0.5, spec) / x_norm(f, 0.0, spec)
        assert ratio == pytest.approx(1.0, abs=1e-2)

    def test_rejects_other_coefficients(self):
        g = make_grid(1, 16, 1.0)
        with pytest.raises(ValueError):
            linear_step(zeros(g), 0.1, 0.25)


class TestNonlinearSubstep:
    def test_pointwise_invariant(self):
        rng = np.random.default_rng(3)
        g = make_grid(3, 16, 4.0)
        u = Field(g, 0.5 * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)))
        v = Field(g, 0.5 * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)))
        s0 = State(u, v, 0.0)
        inv0 = np.abs(u.values) ** 2 + 2.0 * np.abs(v.values) ** 2
        s1 = nonlinear_substep(s0, 1e-3)
        inv1 = np.abs(s1.u.values) ** 2 + 2.0 * np.abs(s1.v.values) ** 2
        assert np.max(np.abs(inv1 - inv0)) < 1e-12

    def test_fourth_order_self_convergence(self):
        rng = np.random.default_rng(4)
        g = make_grid(1, 16, 2.0)
        u = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        v = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))

        def advance(dt, nsteps):
            s = State(u.copy(), v.copy(), 0.0)
            for _ in range(nsteps):
                s = nonlinear_substep(s, dt)
            return s

        ref = advance(0.4 / 256, 256)
        errs = []
        for nsteps in (4, 8, 16):
            s = advance(0.4 / nsteps, nsteps)
            errs.append(np.max(np.abs(s.u.values - ref.u.values)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


class TestEvolve:
    def test_strang_matches_evolve_one_step(self):
        g = make_grid(3, 16, 5.0)
        s = State(gaussian(g, 0.5), gaussian(g, 0.4), 0.0)
        cfg = SolverConfig(dt=1e-2, t_end=1e-2)
        one = strang_step(s, cfg)
        fin, _, _ = evolve(s.copy(), cfg)
        assert np.max(np.abs(one.u.values - fin.u.values)) < 1e-14
        assert fin.t == pytest.approx(1e-2)

    def test_mass_conserved_moderate_run(self):
        # dealias off: the 2/3 mask at this marginal resolution would shave
        # real spectral content (~1e-5 of the mass); both substeps are then
        # mass-preserving up to RK4 roundoff
        g = make_grid(3, 24, 8.0)
        s = State(gaussian(g, 0.5), gaussian(g, 0.4), 0.0)
        m0 = mass(s)
        fin, series, out = evolve(s, SolverConfig(dt=2e-3, t_end=0.2, dealias=False))
        assert out.kind == "completed"
        assert abs(mass(fin) - m0) / m0 < 1e-9

    def test_record_cadence_and_series_columns(self):
        g = make_grid(3, 16, 6.0)
        s = State(gaussian(g, 0.1), gaussian(g, 0.1), 0.0)
        _, series, _ = evolve(s, SolverConfig(dt=1e-2, t_end=0.1, record_every=5))
        # t=0, t=0.05, t=0.1
        assert series["t"] == pytest.approx([0.0, 0.05, 0.1])
        assert len(series["mass"]) == len(series["t"])
        assert len(DiagnosticSeries.COLUMNS) == 9

    def test_series_csv_json(self, tmp_path):
        g = make_grid(3, 16, 6.0)
        s = State(gaussian(g, 0.1), gaussian(g, 0.1), 0.0)
        _, series, _ = evolve(s, SolverConfig(dt=1e-2, t_end=0.05, record_every=5))
        series.to_csv(tmp_path / "s.csv")
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == ",".join(DiagnosticSeries.COLUMNS)
        series.to_json(tmp_path / "s.json")
        import json

        d = json.loads((tmp_path / "s.json").read_text())
        assert d["t"] == series["t"]

    def test_accumulators_nondecreasing(self):
        g = make_grid(3, 16, 6.0)
        s = State(gaussian(g, 0.2), gaussian(g, 0.2), 0.0)
        _, series, _ = evolve(s, SolverConfig(dt=5e-3, t_end=0.5, record_every=10))
        for acc in (series["s_accum_u"], series["w_accum_v"]):
            assert all(b >= a for a, b in zip(acc, acc[1:]))

    def test_blowup_detection(self):
        g = make_grid(3, 16, 6.0)
        # big data, low threshold (2 x the initial sup-norm 6): must exit
        # early with a blowup outcome
        s = State(gaussian(g, 6.0), gaussian(g, 6.0), 0.0)
        cfg = SolverConfig(dt=2e-3, t_end=5.0, blowup_linf_factor=2.0, record_every=5)
        fin, series, out = evolve(s, cfg)
        assert out.blew_up
        assert out.t < 5.0
        assert series["t"][-1] == pytest.approx(out.t)

    def test_h1_blowup_detection(self):
        g = make_grid(3, 16, 6.0)
        s = State(gaussian(g, 6.0), gaussian(g, 6.0), 0.0)
        cfg = SolverConfig(
            dt=2e-3, t_end=5.0, record_every=5,
            blowup_linf_factor=np.inf, blowup_hs_factor=1.5,
        )
        fin, series, out = evolve(s, cfg)
        assert out.blew_up
        assert out.t == pytest.approx(0.3)
        assert len(series["t"]) == 31

        def h1(state):
            return sobolev_seminorm(state.u, 1.0) + sobolev_seminorm(state.v, 1.0)

        # the same run without the H^1 limit, stopped one record earlier
        quiet = replace(cfg, t_end=out.t - cfg.record_every * cfg.dt, blowup_hs_factor=np.inf)
        prev, _, _ = evolve(s, quiet)
        assert h1(fin) > 1.5 * h1(s)
        assert h1(prev) <= 1.5 * h1(s)

    def test_record_sup_norm_checked(self):
        # tiny free-flow data that refocuses at the record time T = 1: the
        # shifted iterate sits half a step off the focus at every step, so
        # its sup-norm stays below a limit that the true state at T passes
        g = make_grid(3, 16, 6.0)
        dt, nfocus = 0.1, 10
        focus = Field(g, 1e-4 * np.exp(-g.r2 / 2.0))
        u0 = linear_step(focus, -nfocus * dt, 1.0)

        def sup(t):
            return lp_norm(linear_step(u0, t, 1.0), np.inf)

        shifted = max(sup((k + 0.5) * dt) for k in range(2 * nfocus + 1))
        assert shifted < 0.995 * sup(nfocus * dt)
        limit = 0.5 * (shifted + sup(nfocus * dt))
        cfg = SolverConfig(
            dt=dt, t_end=2 * nfocus * dt, record_every=nfocus // 2, dealias=False,
            blowup_linf_factor=limit / lp_norm(u0, np.inf), blowup_hs_factor=np.inf,
        )
        _, series, out = evolve(State(u0, zeros(g), 0.0), cfg)
        assert out.blew_up
        assert out.t == pytest.approx(nfocus * dt)
        assert series["t"] == pytest.approx([0.0, 0.5, 1.0])
        assert series["linf"][-1] > limit

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_without_threshold_raises(self):
        g = make_grid(3, 16, 6.0)
        # huge dt makes RK4 overflow without any blowup threshold configured
        s = State(gaussian(g, 30.0), gaussian(g, 30.0), 0.0)
        cfg = SolverConfig(
            dt=10.0, t_end=100.0, blowup_linf_factor=np.inf, blowup_hs_factor=np.inf
        )
        with pytest.raises(NonFiniteFieldError):
            evolve(s, cfg)

    def test_huge_finite_record_is_a_blowup(self):
        # the crossing record at t = 0.2 has sup-norm ~1.7e54: its W-type
        # integrand overflows float64, which must not turn into an error
        g = make_grid(3, 16, 6.0)
        s = State(gaussian(g, 20.0), gaussian(g, 20.0), 0.0)
        cfg = SolverConfig(dt=0.1, t_end=1.0, blowup_linf_factor=1e5)
        _, series, out = evolve(s, cfg)
        assert out.blew_up
        assert out.t == pytest.approx(0.2)
        assert series["linf"][-1] > 1e50
        assert np.isinf(series["w_accum_u"][-1])

    def test_fractional_step_count_rejected(self):
        g = make_grid(3, 16, 6.0)
        s = State(gaussian(g, 0.1), gaussian(g, 0.1), 0.0)
        with pytest.raises(ValueError, match="whole number"):
            evolve(s, SolverConfig(dt=3e-2, t_end=0.1))

    def test_t_end_before_t_rejected(self):
        g = make_grid(3, 16, 6.0)
        s = State(gaussian(g, 0.1), gaussian(g, 0.1), 0.5)
        for t_end in (-0.5, 0.4):
            with pytest.raises(ValueError, match="before the state's t"):
                evolve(s, SolverConfig(dt=1e-2, t_end=t_end))
        fin, series, out = evolve(s, SolverConfig(dt=1e-2, t_end=0.5))
        assert out.kind == "completed" and fin.t == 0.5 and series["t"] == [0.5]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(TypeError):
            SolverConfig(dt=0.1, t_end=1.0, substep_integrator="Euler")
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_end=1.0, record_every=0)
        for name in ("blowup_linf_factor", "blowup_hs_factor"):
            for bad in (0.0, -1.0, np.nan):
                with pytest.raises(ValueError, match=name):
                    SolverConfig(dt=0.1, t_end=1.0, **{name: bad})
            SolverConfig(dt=0.1, t_end=1.0, **{name: np.inf})


def unfused_strang(state, dt, dealias):
    """Reference Strang step from the primitives, one FFT round trip per
    linear half-step and per mask application."""
    half = dt / 2.0
    s = State(linear_step(state.u, half, 1.0), linear_step(state.v, half, 0.5), state.t)
    s = nonlinear_substep(s, dt)
    u, v = linear_step(s.u, half, 1.0), linear_step(s.v, half, 0.5)
    if dealias:
        mask = state.grid.dealias_mask
        u, v = (Field(f.grid, np.fft.ifftn(mask * np.fft.fftn(f.values))) for f in (u, v))
    return State(u, v, state.t + dt)


def close(a, b, rtol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


class TestFusedKernel:
    """evolve's fused, half-shifted stepping against the unfused Strang
    reference: 16^3, 25 steps."""

    NSTEPS = 25

    def data(self):
        g = make_grid(3, 16, 6.0)
        return State(gaussian(g, 1.0), gaussian(g, 0.8, phase=0.3), 0.0)

    def reference(self, cfg):
        """Unfused states at steps 0..NSTEPS and the series recorded every
        record_every steps."""
        states = [self.data()]
        for _ in range(self.NSTEPS):
            states.append(unfused_strang(states[-1], cfg.dt, cfg.dealias))
        series = DiagnosticSeries()
        for st in states[:: cfg.record_every]:
            series.append(st)
        return states, series

    @pytest.mark.parametrize("dealias", [True, False])
    def test_evolve_matches_unfused_reference(self, dealias):
        cfg = SolverConfig(dt=1e-2, t_end=0.25, record_every=5, dealias=dealias)
        states, ref = self.reference(cfg)
        fin, series, out = evolve(self.data(), cfg)
        assert out.kind == "completed"
        assert fin.t == pytest.approx(states[-1].t)
        assert close(fin.u.values, states[-1].u.values)
        assert close(fin.v.values, states[-1].v.values)
        assert len(series["t"]) == 6
        for name in DiagnosticSeries.COLUMNS:
            assert close(series[name], ref[name]), name

    @pytest.mark.parametrize("dealias", [True, False])
    def test_half_step_undo(self, dealias):
        cfg = SolverConfig(dt=1e-2, t_end=0.25, dealias=dealias)
        states, _ = self.reference(cfg)
        s0 = self.data()
        kern = _StepKernel(s0.grid, cfg, s0.u.values, s0.v.values)
        for k in range(self.NSTEPS):
            u, v = kern.undo_half_step()
            assert close(u, states[k].u.values) and close(v, states[k].v.values), k
            assert kern.step()
            u, v = kern.true_values()
            assert close(u, states[k + 1].u.values) and close(v, states[k + 1].v.values), k

    def overflow_case(self):
        """Amplitude 30 with dt = 10: the first step is finite (sup-norm
        ~1e22) and the second overflows inside RK4.  A limit of 1.5x the
        first step's sup-norm makes that step the blowup state.  Returns the
        data, the config and the unfused first step."""
        g = make_grid(3, 16, 6.0)
        s = State(gaussian(g, 30.0), gaussian(g, 30.0), 0.0)
        first = unfused_strang(s, 10.0, True)
        linf1 = max(lp_norm(first.u, np.inf), lp_norm(first.v, np.inf))
        cfg = SolverConfig(
            dt=10.0, t_end=100.0, blowup_linf_factor=1.5 * linf1 / 30.0,
            blowup_hs_factor=np.inf,
        )
        return s, cfg, first

    @pytest.mark.filterwarnings("error")
    def test_overflow_returns_the_previous_step(self):
        # the blowup state is recovered by undoing the half-step of the
        # retained iterate
        s, cfg, first = self.overflow_case()
        fin, series, out = evolve(s, cfg)
        assert out.blew_up
        assert out.t == fin.t == 10.0
        assert series["t"] == [0.0, 10.0]
        assert close(fin.u.values, first.u.values) and close(fin.v.values, first.v.values)

    @pytest.mark.parametrize("overflow", [False, True], ids=["completed", "overflow"])
    def test_input_state_untouched(self, overflow):
        # callers hand their fields to evolve without copying them
        if overflow:
            s, cfg, _ = self.overflow_case()
        else:
            s, cfg = self.data(), SolverConfig(dt=1e-2, t_end=0.05)
        before = s.copy()
        fin, _, out = evolve(s, cfg)
        assert out.blew_up == overflow
        for f, f0, f1 in ((s.u, before.u, fin.u), (s.v, before.v, fin.v)):
            assert np.array_equal(f.values, f0.values)
            assert not np.shares_memory(f.values, f1.values)


class TestStateIO:
    def test_roundtrip(self, tmp_path):
        g = make_grid(3, 16, 3.0)
        s = State(gaussian(g, 0.3), gaussian(g, 0.2, phase=0.5), 1.25)
        p = tmp_path / "state.nls2"
        write_state(p, s)
        back = read_state(p)
        assert back.t == 1.25
        assert np.array_equal(back.u.values, s.u.values)
        assert np.array_equal(back.v.values, s.v.values)

    def test_field_state_kind_mismatch(self, tmp_path):
        from nls2lab.spectral import write_field, zeros

        g = make_grid(2, 16, 1.0)
        p = tmp_path / "f.nls2"
        write_field(p, zeros(g))
        with pytest.raises(ValueError, match="kind"):
            read_state(p)
