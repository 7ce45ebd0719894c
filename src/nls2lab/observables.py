"""Conserved and monitored functionals of a State."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    NormSpec,
    fh_half_norm,
    lp_norm,
    sobolev_seminorm,
    x_norm,
)

# the time-dependent X^{1/2, 18/7} norm of each component: the quadratic
# phase mass is 1/2 for u and 1 for v
X_SPEC_U = NormSpec(s=0.5, r=18.0 / 7.0, m=0.5)
X_SPEC_V = NormSpec(s=0.5, r=18.0 / 7.0, m=1.0)


@dataclass
class ConservedReport:
    mass: float
    energy: float
    kinetic_u: float
    kinetic_v: float
    interaction: float

    @property
    def h1_size(self) -> float:
        """||grad u|| + ||grad v||, read back from the kinetic terms."""
        return float(np.sqrt(self.kinetic_u) + np.sqrt(2.0 * self.kinetic_v))


def mass(state) -> float:
    """Quadrature of |u|^2 + 2|v|^2."""
    g = np.abs(state.u.values) ** 2 + 2.0 * np.abs(state.v.values) ** 2
    return float(np.sum(g) * state.grid.dvol)


def interaction_term(state) -> float:
    """2 Re int u^2 conj(v)."""
    u, v = state.u.values, state.v.values
    val = 2.0 * np.real(np.sum(u * u * np.conj(v))) * state.grid.dvol
    return float(val)


def energy(state) -> ConservedReport:
    """E = ||grad u||^2 + ||grad v||^2 / 2 - 2 Re int u^2 conj(v)."""
    ku = sobolev_seminorm(state.u, 1.0) ** 2
    kv = 0.5 * sobolev_seminorm(state.v, 1.0) ** 2
    inter = interaction_term(state)
    return ConservedReport(
        mass=mass(state),
        energy=ku + kv - inter,
        kinetic_u=ku,
        kinetic_v=kv,
        interaction=inter,
    )


def report_all(state) -> dict:
    """Aggregate report: conserved quantities plus the norm set used by the
    diagnostics (weighted norms, sup norm, time-dependent norms at t)."""
    rep = energy(state)
    return {
        "t": state.t,
        "mass": rep.mass,
        "energy": rep.energy,
        "kinetic_u": rep.kinetic_u,
        "kinetic_v": rep.kinetic_v,
        "interaction": rep.interaction,
        "fh_half_u": fh_half_norm(state.u),
        "fh_half_v": fh_half_norm(state.v),
        "linf_u": lp_norm(state.u, np.inf),
        "linf_v": lp_norm(state.v, np.inf),
        "x_norm_u": x_norm(state.u, state.t, X_SPEC_U),
        "x_norm_v": x_norm(state.v, state.t, X_SPEC_V),
    }
