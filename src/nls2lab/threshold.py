"""Empirical scattering-threshold estimation: run classification, amplitude
bisection along a fixed data shape, and the L-curve scan.

Any finite-time verdict is heuristic: scattering is an infinite-time
statement, and these classifiers only read the tail behavior of space-time
norm accumulators over the simulated window.  Every verdict-producing object
carries a ``heuristic`` marker for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criterion import eigenvalue_bound, scan_theta
from .dynamics import DiagnosticSeries, Outcome, SolverConfig, State, evolve
from .errors import BracketInvalidError, NoNegativeEigenvalueError
from .spectral import Field, fh_half_norm

SCATTERS = "Scatters"
NONSCATTER = "NonScatter"
UNDECIDED = "Undecided"


@dataclass
class ClassifierConfig:
    """Tail-decay classifier constants (all tunable; the defaults come from
    the splitting-order convergence study, not from any analytic source)."""

    r_scatter: float = 0.5  # per-unit-time increment decay ratio below which
    # an accumulator counts as saturating
    r_grow: float = 0.9  # ratio above which it counts as plateau/growth
    plateau_floor: float = 0.01  # minimum tail fraction for a NonScatter call
    zero_level: float = 1e-28  # accumulators below this are identically zero


@dataclass
class RunVerdict:
    verdict: str
    verdict_u: str
    verdict_v: str
    evidence: dict = field(default_factory=dict)
    heuristic: bool = True

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "verdict_u": self.verdict_u,
            "verdict_v": self.verdict_v,
            "evidence": self.evidence,
            "heuristic": self.heuristic,
        }


@dataclass
class ThresholdEstimate:
    ell_lower: float
    ell_upper: float
    runs: list
    analytic_bounds: list
    flagged: bool = False

    def to_dict(self) -> dict:
        return {
            "ell_lower": self.ell_lower,
            "ell_upper": self.ell_upper,
            "runs": [
                {"amplitude": a, **verdict.to_dict()} for a, verdict in self.runs
            ],
            "analytic_bounds": [b.to_dict() for b in self.analytic_bounds],
            "flagged": self.flagged,
        }


@dataclass
class LCurve:
    ell_values: list
    L_values: list
    saturated: list  # False where some run in the family blew up

    def to_dict(self) -> dict:
        return {
            "ell_values": self.ell_values,
            "L_values": self.L_values,
            "saturated": self.saturated,
        }


def _accumulator_verdict(times, accum, cfg: ClassifierConfig):
    total = accum[-1]
    if total < cfg.zero_level:
        return SCATTERS, {"rate": None, "tail_fraction": 0.0}
    t0, t1 = times[0], times[-1]
    tmid = 0.5 * (t0 + t1)
    idx = [i for i, t in enumerate(times) if t >= tmid]
    if len(idx) < 3:
        return UNDECIDED, {"rate": None, "tail_fraction": None}
    i_mid = idx[0]
    tail_fraction = (accum[-1] - accum[i_mid]) / total

    ts, ds = [], []
    for i in idx[:-1]:
        dt = times[i + 1] - times[i]
        d = (accum[i + 1] - accum[i]) / dt
        if d > 0:
            ts.append(0.5 * (times[i] + times[i + 1]))
            ds.append(d)
    if len(ds) < 3:
        # increments already died out inside the window
        return SCATTERS, {"rate": 0.0, "tail_fraction": tail_fraction}
    slope = np.polyfit(ts, np.log(ds), 1)[0]
    ratio = float(np.exp(slope))
    ev = {"rate": ratio, "tail_fraction": tail_fraction}
    if ratio <= cfg.r_scatter:
        return SCATTERS, ev
    if tail_fraction > cfg.plateau_floor and ratio >= cfg.r_grow:
        return NONSCATTER, ev
    return UNDECIDED, ev


def _combine(verdicts):
    if any(v == NONSCATTER for v in verdicts):
        return NONSCATTER
    if all(v == SCATTERS for v in verdicts):
        return SCATTERS
    return UNDECIDED


def classify_run(
    series: DiagnosticSeries, outcome: Outcome, cfg: ClassifierConfig | None = None
) -> RunVerdict:
    """Heuristic scattering verdict for one completed (or blown-up) run.

    Blowup is NonScatter outright.  Otherwise each space-time accumulator's
    last-half increments are fitted for a per-unit-time decay ratio;
    saturating accumulators vote Scatters, plateau/growth votes NonScatter,
    and anything in between stays Undecided."""
    cfg = cfg or ClassifierConfig()
    if outcome.blew_up:
        ev = {"blowup": True, "t_blowup": outcome.t}
        return RunVerdict(NONSCATTER, NONSCATTER, NONSCATTER, ev)
    t = series["t"]
    vu_s, ev_su = _accumulator_verdict(t, series["s_accum_u"], cfg)
    vu_w, ev_wu = _accumulator_verdict(t, series["w_accum_u"], cfg)
    vv_s, ev_sv = _accumulator_verdict(t, series["s_accum_v"], cfg)
    vv_w, ev_wv = _accumulator_verdict(t, series["w_accum_v"], cfg)
    verdict_u = _combine([vu_s, vu_w])
    verdict_v = _combine([vv_s, vv_w])
    if verdict_u == SCATTERS and verdict_v == SCATTERS:
        verdict = SCATTERS
    elif NONSCATTER in (verdict_u, verdict_v):
        verdict = NONSCATTER
    else:
        verdict = UNDECIDED
    evidence = {
        "blowup": False,
        "s_u": ev_su,
        "w_u": ev_wu,
        "s_v": ev_sv,
        "w_v": ev_wv,
        "final_linf": series["linf"][-1],
        "final_w_proxy_u": series.final_w_proxy("u"),
        "final_w_proxy_v": series.final_w_proxy("v"),
    }
    return RunVerdict(verdict, verdict_u, verdict_v, evidence)


def run_and_classify(
    u0: Field,
    v0: Field,
    cfg: SolverConfig,
    classifier: ClassifierConfig | None = None,
):
    final, series, outcome = evolve(State(u0.copy(), v0.copy(), 0.0), cfg)
    verdict = classify_run(series, outcome, classifier)
    return verdict, series, outcome


def normalize_shape(shape: Field) -> Field:
    """Rescale so fh_half_norm(shape) = 1; amplitudes then equal the
    weighted-norm size of the u-data."""
    nrm = fh_half_norm(shape)
    if nrm == 0.0:
        raise ValueError("shape has zero weighted norm")
    return Field(shape.grid, shape.values / nrm)


def _attach_bounds(v0: Field):
    try:
        res = scan_theta(v0)
        return [eigenvalue_bound(v0, res)]
    except NoNegativeEigenvalueError:
        return []


def bisect_threshold(
    v0: Field,
    shape: Field,
    a_lo: float,
    a_hi: float,
    cfg: SolverConfig,
    max_bisections: int = 8,
    classifier: ClassifierConfig | None = None,
) -> ThresholdEstimate:
    """Bisection on the amplitude along a fixed shape direction.

    This estimates a one-dimensional slice of the threshold: the true
    infimum runs over all shapes.  Undecided verdicts never tighten the
    bracket; they push the probe toward the upper end and flag the result."""
    shape = normalize_shape(shape)
    if not 0 <= a_lo < a_hi:
        raise BracketInvalidError(f"need 0 <= a_lo < a_hi, got {a_lo}, {a_hi}")

    runs = []

    def probe(a):
        u0 = Field(shape.grid, a * shape.values)
        verdict, _, _ = run_and_classify(u0, v0, cfg, classifier)
        runs.append((float(a), verdict))
        return verdict.verdict

    v = probe(a_lo)
    if v != SCATTERS:
        raise BracketInvalidError(f"lower endpoint {a_lo} did not scatter (verdict {v})")
    v = probe(a_hi)
    if v != NONSCATTER:
        what = "still scatters" if v == SCATTERS else "is undecided"
        raise BracketInvalidError(f"upper endpoint {a_hi} {what} (verdict {v})")

    lo, hi = a_lo, a_hi
    flagged = False
    mid = 0.5 * (lo + hi)
    for _ in range(max_bisections):
        v = probe(mid)
        if v == SCATTERS:
            lo = mid
            mid = 0.5 * (lo + hi)
        elif v == NONSCATTER:
            hi = mid
            mid = 0.5 * (lo + hi)
        else:
            flagged = True
            mid = 0.5 * (mid + hi)
            if hi - mid < 1e-3 * hi:
                break

    return ThresholdEstimate(
        ell_lower=lo,
        ell_upper=hi,
        runs=runs,
        analytic_bounds=_attach_bounds(v0),
        flagged=flagged,
    )


def scan_L_curve(
    v0: Field,
    shapes,
    ell_grid,
    cfg: SolverConfig,
) -> LCurve:
    """For each amplitude, the largest final W-type proxy norm over the
    shape family (completed runs only); blowups clear the saturated flag,
    standing in for an infinite supremum."""
    shapes = [normalize_shape(s) for s in shapes]
    L_values, saturated = [], []
    for ell in ell_grid:
        ok, blew = [], False
        for shape in shapes:
            u0 = Field(shape.grid, ell * shape.values)
            _, series, outcome = evolve(State(u0, v0.copy(), 0.0), cfg)
            if outcome.blew_up:
                blew = True
            else:
                ok.append(series.final_w_proxy("u") + series.final_w_proxy("v"))
        L_values.append(max(ok) if ok else float("nan"))
        saturated.append(not blew)
    return LCurve(list(map(float, ell_grid)), L_values, saturated)
