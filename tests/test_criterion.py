"""Eigenvalue criterion, energy-sign test, and the large-data construction."""

import numpy as np
import pytest

from conftest import gaussian
from oracles import dense_lowest_eigenpair
from nls2lab import criterion
from nls2lab.criterion import (
    energy_sign_bound,
    eigenvalue_bound,
    large_data_bound,
    large_data_profile,
    lowest_eigenpair,
    scan_theta,
)
from nls2lab.errors import NoConvergenceError, NoNegativeEigenvalueError
from nls2lab.dynamics import State
from nls2lab.observables import energy
from nls2lab.spectral import Field, make_grid, zeros


class TestLowestEigenpair:
    def test_against_dense_oracle(self):
        g = make_grid(3, 16, 8.0)
        v0 = gaussian(g, 3.0)
        res = lowest_eigenpair(v0, 0.0, tol=1e-10)
        ev, _ = dense_lowest_eigenpair(g, -2.0 * np.real(v0.values))
        assert res.e_tilde == pytest.approx(ev, abs=1e-8)
        assert res.residual < 1e-10

    def test_harmonic_content(self):
        # eigenfunction is L2-normalized, real, positive at its peak
        g = make_grid(3, 24, 8.0)
        res = lowest_eigenpair(gaussian(g, 3.0), 0.0, tol=1e-9)
        l2 = np.sqrt(np.sum(res.phi.values.real ** 2) * g.dvol)
        assert l2 == pytest.approx(1.0, rel=1e-10)
        assert res.phi.values.real.max() > 0

    def test_positive_potential_rejected(self):
        g = make_grid(3, 16, 6.0)
        with pytest.raises(NoNegativeEigenvalueError):
            lowest_eigenpair(gaussian(g, -1.0), 0.0)  # W = +2 e^{-r^2/2} >= 0

    def test_shallow_well_rejected_with_result(self):
        g = make_grid(3, 16, 6.0)
        # 3D well below the binding threshold: no bound state.  On the
        # finite box the near-constant mode still sees the (negative) mean
        # of W, so the tolerance must sit above that O(volume^-1) artifact.
        try:
            lowest_eigenpair(gaussian(g, 0.02), 0.0, tol=1e-3)
        except NoNegativeEigenvalueError as exc:
            assert exc.result is None or exc.result.e_tilde >= -1e-3
        else:
            pytest.fail("expected NoNegativeEigenvalueError")

    def test_inner_cg_failure_raises(self, monkeypatch):
        def failing_cg(A, b, **kwargs):
            return kwargs["x0"], 1  # info > 0: maxiter reached

        monkeypatch.setattr(criterion, "cg", failing_cg)
        g = make_grid(3, 16, 8.0)
        with pytest.raises(NoConvergenceError, match="outer iteration 1"):
            lowest_eigenpair(gaussian(g, 3.0), 0.0)

    def test_theta_rotates_potential(self):
        g = make_grid(3, 16, 6.0)
        v0 = Field(g, 1j * 3.0 * np.exp(-g.r2 / 2.0))  # purely imaginary
        # theta = -pi/2 rotates it onto the real axis: same as the real well
        res = lowest_eigenpair(v0, -np.pi / 2.0, tol=1e-9)
        ref = lowest_eigenpair(gaussian(g, 3.0), 0.0, tol=1e-9)
        assert res.e_tilde == pytest.approx(ref.e_tilde, abs=1e-8)


class TestScanTheta:
    def test_picks_best_angle(self):
        g = make_grid(3, 16, 6.0)
        v0 = Field(g, np.exp(0.9j) * 3.0 * np.exp(-g.r2 / 2.0))
        best = scan_theta(v0, n_angles=16, tol=1e-9)
        ref = lowest_eigenpair(gaussian(g, 3.0), 0.0, tol=1e-9)
        # 16 angles cannot hit -0.9 exactly; the minimum is close but above
        assert ref.e_tilde - 0.1 < best.e_tilde < 0.0

    def test_no_angle_fires(self):
        g = make_grid(3, 16, 6.0)
        with pytest.raises(NoNegativeEigenvalueError):
            scan_theta(gaussian(g, 0.02), n_angles=8, tol=1e-3)


class TestEigenvalueBound:
    def test_witness_energy_zero(self):
        g = make_grid(3, 32, 8.0)
        v0 = gaussian(g, 3.0)
        res = lowest_eigenpair(v0, 0.0, tol=1e-10)
        rep = eigenvalue_bound(v0, res)
        assert rep.kind == "Eigenvalue"
        assert rep.fired
        u0, _ = rep.witness_fields
        erep = energy(State(u0, v0, 0.0))
        kin = erep.kinetic_u + erep.kinetic_v
        assert abs(erep.energy) < 1e-10 * kin

    def test_ground_state_eigenvalue_is_minus_omega(self, gs24):
        # (-Delta - 2 Q2) Q1 = -omega Q1: Q1 is an exact eigenfunction
        res = lowest_eigenpair(gs24.Q2, 0.0, tol=1e-8)
        assert res.e_tilde == pytest.approx(-gs24.omega, abs=1e-6)


class TestEnergySign:
    def test_fires_iff_energy_nonpositive(self, gs24):
        rep = energy_sign_bound(gs24.Q1, gs24.Q2)  # ground state has E < 0
        assert rep.fired
        assert rep.bound_value > 0
        g = gs24.Q1.grid
        tiny = energy_sign_bound(gaussian(g, 0.01), gaussian(g, 0.01))
        assert not tiny.fired
        assert tiny.bound_value is None

    def test_rejects_trivial_data(self):
        g = make_grid(3, 16, 4.0)
        with pytest.raises(ValueError):
            energy_sign_bound(zeros(g), zeros(g))


class TestLargeData:
    def test_pointwise_identity_random(self):
        rng = np.random.default_rng(7)
        g = make_grid(3, 12, 2.0)
        v0 = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        u0 = large_data_profile(v0)
        lhs = u0.values ** 2 * np.conj(v0.values)
        rhs = np.abs(v0.values) ** 3
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_energy_turns_negative_and_bound_scales(self):
        g = make_grid(3, 32, 8.0)
        v0 = gaussian(g, 1.0)
        reps = large_data_bound(v0, [1.0, 2.0, 4.0, 8.0])
        assert not reps[0].fired and reps[1].fired
        fired = [r for r in reps if r.fired]
        ratios = [r.bound_value / np.sqrt(r.witness["c"]) for r in fired]
        assert max(ratios) - min(ratios) < 1e-10 * ratios[0]

    def test_rejects_bad_input(self):
        g = make_grid(3, 16, 4.0)
        with pytest.raises(ValueError):
            large_data_bound(zeros(g), [1.0])
        with pytest.raises(ValueError):
            large_data_bound(gaussian(g), [-1.0])
