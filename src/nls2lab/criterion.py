"""Analytic non-scattering machinery: the energy-sign test, the negative
eigenvalue criterion for -Delta - 2 Re(e^{i theta} v0), and the large-data
construction, each with its explicit threshold bound and witness data."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .errors import NoConvergenceError, NoNegativeEigenvalueError
from .dynamics import State
from .observables import energy as energy_report
from .spectral import Field, fftn, fh_half_norm, ifftn, lp_norm, sobolev_seminorm


@dataclass
class EigenResult:
    e_tilde: float
    phi: Field  # real eigenfunction, L^2-normalized
    theta: float
    residual: float
    iterations: int


@dataclass
class BoundReport:
    kind: str  # "EnergySign" | "Eigenvalue" | "LargeData"
    bound_value: float | None
    witness: dict
    witness_fields: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def fired(self) -> bool:
        return self.bound_value is not None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bound_value": self.bound_value,
            "witness": self.witness,
        }


# relative tolerances of the checks made before a bound is reported: the
# witness energy of eigenvalue_bound and large_data_bound's square-root identity
_WITNESS_ENERGY_TOL = 1e-8
_SQRT_IDENTITY_TOL = 1e-10
# outer iterations of lowest_eigenpair's inverse iteration
_EIGEN_MAX_ITER = 60


def _l2(values: np.ndarray, dvol: float) -> float:
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * dvol))


def _potential(v0: Field, theta: float) -> np.ndarray:
    """W = -2 Re(e^{i theta} v0), the potential of H(theta) = -Delta + W."""
    return -2.0 * np.real(np.exp(1j * theta) * v0.values)


def lowest_eigenpair(v0: Field, theta: float, tol: float = 1e-10) -> EigenResult:
    """Lowest eigenpair of H = -Delta - 2 Re(e^{i theta} v0).

    Inverse-shifted iteration: repeatedly solve (H - sigma) w = phi with CG,
    preconditioned by the exact inverse of (-Delta - sigma); sigma is kept
    below the current Rayleigh quotient so the shifted operator stays
    positive definite.  Raises NoNegativeEigenvalueError when the converged
    eigenvalue is >= -tol (the potential is too shallow)."""
    grid = v0.grid
    dvol = grid.dvol
    W = _potential(v0, theta)
    wmin = float(W.min())
    if wmin >= 0.0:
        raise NoNegativeEigenvalueError(
            "potential is nonnegative; spectrum of H is contained in [0, inf)"
        )
    k2 = grid.k2

    def apply_h(w):
        w = w.reshape(grid.shape)
        out = np.real(ifftn(k2 * fftn(w))) + W * w
        return out.ravel()

    npts = grid.npoints

    # start below the bottom of the spectrum: H >= min(W)
    sigma = wmin - 0.1 * max(1.0, abs(wmin))
    x0 = np.unravel_index(np.argmin(W), grid.shape)
    r2 = sum((a - grid.x[i]) ** 2 for a, i in zip(grid.axes, x0))
    phi = np.exp(-r2).ravel()
    phi /= _l2(phi, dvol)

    for it in range(1, _EIGEN_MAX_ITER + 1):
        shift = sigma

        def matvec(w, s=shift):
            return apply_h(w) - s * w

        def precond(w, s=shift):
            w = w.reshape(grid.shape)
            return np.real(ifftn(fftn(w) / (k2 - s))).ravel()

        A = LinearOperator((npts, npts), matvec=matvec, dtype=float)
        M = LinearOperator((npts, npts), matvec=precond, dtype=float)
        w, info = cg(A, phi, x0=phi, rtol=1e-12, atol=0.0, maxiter=400, M=M)
        if info != 0:
            raise NoConvergenceError(
                f"inner CG solve failed (info {info}) in outer iteration {it}"
            )
        nw = _l2(w, dvol)
        if nw == 0.0:
            raise NoConvergenceError("inverse iteration produced a zero vector")
        phi = w / nw
        hphi = apply_h(phi)
        rho = float(np.dot(phi, hphi) * dvol)
        resid = _l2(hphi - rho * phi, dvol)
        if resid < tol:
            break
        # Rayleigh quotient sits above the true eigenvalue by at most
        # O(resid^2 / gap); stepping 2*resid below it keeps sigma safe
        if resid < 0.5 * abs(rho - sigma):
            sigma = rho - 2.0 * resid
    else:
        raise NoConvergenceError(
            f"eigen residual {resid:.3e} above tol {tol} "
            f"after {_EIGEN_MAX_ITER} iterations"
        )

    # phase fix: real, positive at its maximum modulus
    peak = np.argmax(np.abs(phi))
    if phi[peak] < 0:
        phi = -phi
    result = EigenResult(
        e_tilde=rho,
        phi=Field(grid, phi.reshape(grid.shape)),
        theta=theta,
        residual=resid,
        iterations=it,
    )
    if rho >= -tol:
        raise NoNegativeEigenvalueError(
            f"lowest eigenvalue {rho:.3e} is not negative", result=result
        )
    return result


def scan_theta(v0: Field, n_angles: int = 16, tol: float = 1e-10):
    """Scan theta over a uniform angle grid, keep the minimizing eigenpair.

    An angle with min W >= the best e_tilde so far is skipped unsolved: k^2 >= 0
    on the torus, so H >= min W there and the angle cannot win.  Returns the
    best EigenResult, or raises NoNegativeEigenvalueError if no angle
    produces a negative eigenvalue."""
    best = None
    for theta in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
        if best is not None and _potential(v0, float(theta)).min() >= best.e_tilde:
            continue
        try:
            res = lowest_eigenpair(v0, float(theta), tol=tol)
        except NoNegativeEigenvalueError:
            continue
        if best is None or res.e_tilde < best.e_tilde:
            best = res
    if best is None:
        raise NoNegativeEigenvalueError(
            "no angle in the scan produces a negative eigenvalue"
        )
    return best


def eigenvalue_bound(v0: Field, res: EigenResult) -> BoundReport:
    """Threshold bound from a negative eigenpair, with its zero-energy
    witness u0 = c e^{-i theta/2} phi.

    bound = ||phi||_{FH^1/2} ||grad v0||_{L2} / (sqrt(2|e|) ||phi||_{L2});
    the witness amplitude c makes E[u0, v0] vanish exactly, which is checked
    against the observables module before reporting."""
    if res.e_tilde >= 0:
        raise ValueError("eigenvalue_bound requires a negative eigenvalue")
    phi = res.phi
    grad_v0 = sobolev_seminorm(v0, 1.0)
    phi_l2 = lp_norm(phi, 2.0)
    phi_fh = fh_half_norm(phi)
    root = np.sqrt(2.0 * abs(res.e_tilde))
    bound = phi_fh * grad_v0 / (root * phi_l2)
    c = grad_v0 / (root * phi_l2)
    u0 = Field(phi.grid, c * np.exp(-0.5j * res.theta) * phi.values)
    rep = energy_report(State(u0, v0, 0.0))
    kinetic_scale = rep.kinetic_u + rep.kinetic_v
    if abs(rep.energy) > _WITNESS_ENERGY_TOL * kinetic_scale:
        raise RuntimeError(
            f"witness energy {rep.energy:.3e} not zero at scale {kinetic_scale:.3e}"
        )
    return BoundReport(
        kind="Eigenvalue",
        bound_value=float(bound),
        witness={
            "construction": "c * exp(-i theta/2) * phi",
            "c": float(c),
            "theta": res.theta,
            "e_tilde": res.e_tilde,
            "witness_energy": rep.energy,
        },
        witness_fields=(u0, v0),
    )


def eigenvalue_report(v0: Field, n_angles: int = 16) -> BoundReport:
    """The Eigenvalue report of a theta scan: the fired eigenvalue_bound, or
    an unfired report with the reason when no angle has a negative eigenvalue."""
    try:
        return eigenvalue_bound(v0, scan_theta(v0, n_angles))
    except NoNegativeEigenvalueError as exc:
        return BoundReport("Eigenvalue", None, {"reason": str(exc)})


def energy_sign_bound(u0: Field, v0: Field) -> BoundReport:
    """Nonpositive energy forces non-scattering; the u0 weighted norm is
    then an upper bound for the threshold."""
    if lp_norm(u0, 2.0) == 0.0 and lp_norm(v0, 2.0) == 0.0:
        raise ValueError("energy_sign_bound requires nontrivial data")
    rep = energy_report(State(u0, v0, 0.0))
    fired = rep.energy <= 0.0
    return BoundReport(
        kind="EnergySign",
        bound_value=float(fh_half_norm(u0)) if fired else None,
        witness={"energy": rep.energy},
        witness_fields=(u0, v0) if fired else None,
    )


def large_data_profile(v0: Field) -> Field:
    """u0 = v0^{1/2} |v0|^{1/2} with the principal square root, so that
    u0^2 conj(v0) = |v0|^3 pointwise."""
    vals = v0.values
    return Field(v0.grid, np.sqrt(vals) * np.sqrt(np.abs(vals)))


def large_data_bound(v0: Field, c_list) -> list:
    """Energy scan of the amplified family (c^{1/2} d u0, c v0).

    d = ||grad v0|| / ||v0||_{L3}^{3/2} balances the kinetic and interaction
    terms; for c past a finite threshold the energy turns negative and the
    family stops scattering, with bound c^{1/2} ||d u0||_{FH^{1/2}}.  The
    reports keep c and d, not the amplified fields, so the scan holds one
    pair at a time."""
    if lp_norm(v0, 2.0) == 0.0:
        raise ValueError("large_data_bound requires v0 != 0")
    u0 = large_data_profile(v0)
    grid = v0.grid
    v0_l3 = lp_norm(v0, 3.0)
    v3 = v0_l3 ** 3
    inter = float(np.real(np.sum(u0.values ** 2 * np.conj(v0.values))) * grid.dvol)
    if abs(inter - v3) > _SQRT_IDENTITY_TOL * max(v3, 1.0):
        raise RuntimeError(
            f"square-root identity violated: {inter:.12e} vs {v3:.12e}"
        )
    d = sobolev_seminorm(v0, 1.0) / v0_l3 ** 1.5
    du0_fh = fh_half_norm(Field(grid, d * u0.values))

    reports = []
    for c in c_list:
        if c <= 0:
            raise ValueError(f"amplification c must be positive, got {c}")
        uc = Field(grid, np.sqrt(c) * d * u0.values)
        vc = Field(grid, c * v0.values)
        rep = energy_report(State(uc, vc, 0.0))
        fired = rep.energy < 0.0
        reports.append(
            BoundReport(
                kind="LargeData",
                bound_value=float(np.sqrt(c) * du0_fh) if fired else None,
                witness={"c": float(c), "d": float(d), "energy": rep.energy},
            )
        )
    return reports
