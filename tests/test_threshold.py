"""Scattering classifier, amplitude bisection, and the L-curve scan."""

import numpy as np
import pytest

from conftest import gaussian
from nls2lab.dynamics import DiagnosticSeries, Outcome, SolverConfig, blowup_limits
from nls2lab.errors import BracketInvalidError
from nls2lab.spectral import Field, fh_half_norm, make_grid, zeros
from nls2lab.threshold import (
    NONSCATTER,
    SCATTERS,
    UNDECIDED,
    ClassifierConfig,
    classify_run,
    normalize_shape,
    run_and_classify,
    scan_L_curve,
)


def synthetic_series(times, increments):
    """DiagnosticSeries with all four accumulators built from the given
    per-sample integrand values (trapezoid accumulation)."""
    s = DiagnosticSeries()
    acc = 0.0
    accs = [0.0]
    for i in range(1, len(times)):
        acc += 0.5 * (increments[i - 1] + increments[i]) * (times[i] - times[i - 1])
        accs.append(acc)
    n = len(times)
    s.columns.update(t=list(times), mass=[1.0] * n, energy=[1.0] * n,
                     interaction=[0.0] * n, linf=[1.0] * n)
    for name in ("s_accum_u", "s_accum_v", "w_accum_u", "w_accum_v"):
        s.columns[name] = list(accs)
    return s


class TestClassifyRun:
    times = np.linspace(0.0, 4.0, 41)

    def test_geometric_decay_scatters(self):
        integrand = np.exp(-2.0 * self.times)  # ratio e^-2 = 0.14 < 0.5
        v = classify_run(
            synthetic_series(self.times, integrand), Outcome("completed", 4.0)
        )
        assert v.verdict == SCATTERS
        assert v.verdict_u == v.verdict_v == SCATTERS
        assert v.heuristic

    def test_plateau_nonscatter(self):
        integrand = np.ones_like(self.times)  # ratio 1, tail fraction 1/2
        v = classify_run(
            synthetic_series(self.times, integrand), Outcome("completed", 4.0)
        )
        assert v.verdict == NONSCATTER

    def test_intermediate_undecided(self):
        integrand = np.exp(-0.5 * self.times)  # ratio 0.61 in (0.5, 0.9)
        v = classify_run(
            synthetic_series(self.times, integrand), Outcome("completed", 4.0)
        )
        assert v.verdict == UNDECIDED

    def test_growth_with_tiny_tail_not_nonscatter(self):
        # growing ratio but the tail is below the plateau floor
        integrand = 1e-6 * np.exp(0.5 * (self.times - 4.0))
        base = np.exp(-3.0 * self.times)
        s = synthetic_series(self.times, base)
        # tail contributions dominated by the early mass: tail_fraction tiny
        s.columns["s_accum_u"] = [1.0 + 1e-9 * t for t in self.times]
        v = classify_run(s, Outcome("completed", 4.0))
        assert v.verdict_u != NONSCATTER

    def test_blowup_is_nonscatter(self):
        s = synthetic_series(self.times, np.ones_like(self.times))
        v = classify_run(s, Outcome("blowup", 1.7))
        assert v.verdict == NONSCATTER
        assert v.evidence["blowup"] and v.evidence["t_blowup"] == 1.7

    def test_zero_accumulators_scatter(self):
        s = synthetic_series(self.times, np.zeros_like(self.times))
        v = classify_run(s, Outcome("completed", 4.0))
        assert v.verdict == SCATTERS

    def test_mixed_components(self):
        s = synthetic_series(self.times, np.exp(-2.0 * self.times))
        # make the v component plateau
        flat = synthetic_series(self.times, np.ones_like(self.times))
        s.columns["s_accum_v"] = flat["s_accum_v"]
        s.columns["w_accum_v"] = flat["w_accum_v"]
        v = classify_run(s, Outcome("completed", 4.0))
        assert v.verdict_u == SCATTERS
        assert v.verdict_v == NONSCATTER
        assert v.verdict == NONSCATTER  # Scatters needs both components

    def test_tunable_constants(self):
        integrand = np.exp(-0.5 * self.times)  # ratio 0.61
        loose = ClassifierConfig(r_scatter=0.7)
        v = classify_run(
            synthetic_series(self.times, integrand),
            Outcome("completed", 4.0),
            loose,
        )
        assert v.verdict == SCATTERS


class TestRunAndClassify:
    def test_tiny_data_scatters(self, grid24):
        u0 = gaussian(grid24, 0.01, 1.0)
        v0 = Field(grid24, 0.008 * np.exp(-grid24.r2))  # matched clocks
        cfg = SolverConfig(dt=5e-3, t_end=2.0, record_every=10)
        v, _, out = run_and_classify(u0, v0, cfg)
        assert out.kind == "completed"
        assert v.verdict == SCATTERS

    def test_standing_wave_nonscatter(self, gs24):
        cfg = SolverConfig(dt=5e-3, t_end=4.0, record_every=20)
        v, _, out = run_and_classify(gs24.Q1, gs24.Q2, cfg)
        assert v.verdict == NONSCATTER

    def test_default_blowup_fill_in(self, grid24):
        from nls2lab.dynamics import State

        s = State(gaussian(grid24, 2.0), gaussian(grid24, 1.5), 0.0)
        series = DiagnosticSeries()
        rep = series.append(s)
        linf_limit, hs_limit = blowup_limits(
            series["linf"][-1], rep.h1_size, SolverConfig(dt=1e-2, t_end=1.0)
        )
        assert np.isfinite(linf_limit)
        assert linf_limit == pytest.approx(2e3, rel=1e-6)
        assert np.isfinite(hs_limit)


class TestNormalizeShape:
    def test_unit_weighted_norm(self, grid24):
        s = normalize_shape(gaussian(grid24, 3.7))
        assert fh_half_norm(s) == pytest.approx(1.0, rel=1e-10)

    def test_zero_shape_rejected(self, grid24):
        with pytest.raises(ValueError):
            normalize_shape(zeros(grid24))


class TestBisect:
    def test_invalid_endpoints(self, gs24_w2):
        from nls2lab.threshold import bisect_threshold

        g = gs24_w2.Q2.grid
        shape = gaussian(g, 1.0)
        cfg = SolverConfig(dt=5e-3, t_end=2.0, record_every=10)
        with pytest.raises(BracketInvalidError):
            bisect_threshold(gs24_w2.Q2, shape, 1.0, 0.5, cfg)
        # a_lo that traps (NonScatter) invalidates the lower endpoint
        with pytest.raises(BracketInvalidError, match="did not scatter"):
            bisect_threshold(gs24_w2.Q2, shape, 1.0, 2.0, cfg, max_bisections=0)

    def test_undecided_upper_endpoint_named(self, monkeypatch):
        import nls2lab.threshold as threshold

        def stub(u0, v0, cfg, classifier=None):
            verdict = SCATTERS if not np.any(u0.values) else UNDECIDED
            return threshold.RunVerdict(verdict, verdict, verdict), None, None

        monkeypatch.setattr(threshold, "run_and_classify", stub)
        g = make_grid(3, 16, 6.0)
        cfg = SolverConfig(dt=1e-2, t_end=0.1)
        with pytest.raises(BracketInvalidError, match="verdict Undecided") as err:
            threshold.bisect_threshold(zeros(g), gaussian(g, 1.0), 0.0, 1.0, cfg)
        assert "still scatters" not in str(err.value)


class TestLCurve:
    def test_monotone_for_q2_potential(self, gs24_w2):
        v0 = gs24_w2.Q2
        g = v0.grid
        shape = gaussian(g, 1.0)
        cfg = SolverConfig(dt=5e-3, t_end=2.0, record_every=10)
        lc = scan_L_curve(v0, [shape], [0.0, 0.5, 2.0], cfg)
        assert lc.saturated == [True, True, True]
        assert lc.L_values[0] < lc.L_values[1] < lc.L_values[2]
