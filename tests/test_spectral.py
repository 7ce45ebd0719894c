"""Grid conventions, norms, and the binary field format."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from conftest import gaussian
from oracles import dense_fh_half_norm, radial_weighted_l2
from nls2lab import spectral
from nls2lab.dynamics import State, read_state, write_state
from nls2lab.errors import NonFiniteFieldError
from nls2lab.spectral import (
    Field,
    NormSpec,
    boundary_mass_fraction,
    fftn,
    fh_half_norm,
    ifftn,
    lp_norm,
    make_grid,
    read_field,
    sobolev_seminorm,
    write_field,
    x_norm,
    zeros,
)


# every transform scipy.fft offers; fh_half_norm may call only fftn/ifftn
SCIPY_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2",
    "irfft2", "rfftn", "irfftn", "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)


def boosted_gaussian(grid):
    """An off-centre Gaussian with a plane-wave boost: no symmetry of the
    lattice maps it to itself."""
    center = (0.7, -0.4, 0.3)[: grid.dim]
    boost = (0.5, -0.3, 0.2)[: grid.dim]
    r2 = sum((a - c) ** 2 for a, c in zip(grid.axes, center))
    phase = sum(a * b for a, b in zip(grid.axes, boost))
    return Field(grid, 1.3 * np.exp(-r2 / 2.0 + 1j * phase))


class TestGrid:
    def test_lattice_conventions(self):
        g = make_grid(1, 16, 4.0)
        assert g.dx == pytest.approx(0.5)
        assert g.x[0] == pytest.approx(-4.0)
        assert g.x[g.n // 2] == pytest.approx(0.0)  # origin on the lattice
        assert g.x[-1] == pytest.approx(4.0 - g.dx)  # right endpoint excluded
        # dual lattice spacing pi/L, FFT ordering
        assert g.k[1] == pytest.approx(np.pi / 4.0)
        assert g.k[-1] == pytest.approx(-np.pi / 4.0)

    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 48, 64, 96])
    def test_accepted_sizes(self, n):
        make_grid(3, n, 1.0)

    @pytest.mark.parametrize("n", [7, 10, 18, 20, 36, 40, 9])
    def test_rejected_sizes(self, n):
        with pytest.raises(ValueError):
            make_grid(3, n, 1.0)

    def test_rejected_dim_and_width(self):
        with pytest.raises(ValueError):
            make_grid(4, 16, 1.0)
        with pytest.raises(ValueError):
            make_grid(3, 16, 0.0)

    def test_dealias_mask_cutoff(self):
        g = make_grid(1, 24, np.pi)
        j = np.rint(g.k / (np.pi / g.half_width)).astype(int)
        kept = g.dealias_mask.astype(bool)
        assert np.array_equal(kept, np.abs(j) <= 8)

    def test_field_shape_check(self):
        g = make_grid(2, 16, 1.0)
        with pytest.raises(ValueError):
            Field(g, np.zeros((16,)))

    def test_check_finite(self):
        g = make_grid(1, 16, 1.0)
        f = zeros(g)
        f.values[3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            f.check_finite()


class TestNorms:
    def test_parseval(self):
        rng = np.random.default_rng(0)
        g = make_grid(3, 16, 2.0)
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        f = Field(g, vals)
        fhat = fftn(f.values)
        assert np.sum(np.abs(fhat) ** 2) == pytest.approx(
            np.sum(np.abs(vals) ** 2), rel=1e-13
        )
        back = ifftn(fhat)
        assert np.max(np.abs(back - vals)) < 1e-12

    def test_l2_gaussian_closed_form(self):
        g = make_grid(3, 48, 8.0)
        f = gaussian(g, amp=1.3, width=1.0)
        # int exp(-|x|^2) = pi^(3/2)
        assert lp_norm(f, 2.0) == pytest.approx(1.3 * np.pi ** 0.75, rel=1e-12)

    def test_lp_inf_and_validation(self):
        g = make_grid(2, 16, 3.0)
        f = gaussian(g, amp=2.0)
        assert lp_norm(f, np.inf) == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_sobolev_seminorm_plane_wave(self):
        g = make_grid(1, 32, np.pi)
        k0 = 3.0  # on the dual lattice (spacing 1)
        f = Field(g, np.exp(1j * k0 * g.x))
        l2 = lp_norm(f, 2.0)
        assert sobolev_seminorm(f, 1.0) == pytest.approx(k0 * l2, rel=1e-12)
        assert sobolev_seminorm(f, 0.5) == pytest.approx(
            np.sqrt(k0) * l2, rel=1e-12
        )

    def test_fh_half_gaussian_vs_radial_quadrature(self):
        g = make_grid(3, 64, 8.0)
        f = gaussian(g, amp=0.9, width=1.0)
        oracle = radial_weighted_l2(lambda r: 0.9 * np.exp(-r ** 2 / 2.0))
        assert fh_half_norm(f) == pytest.approx(oracle, rel=1e-7)

    def test_fh_half_beats_plain_quadrature(self):
        g = make_grid(3, 64, 8.0)
        f = gaussian(g)
        oracle = radial_weighted_l2(lambda r: np.exp(-r ** 2 / 2.0))
        err_corrected = abs(fh_half_norm(f) - oracle) / oracle
        err_plain = abs(x_norm(f, 0.0, NormSpec(0.5, 2.0, 1.0)) - oracle) / oracle
        assert err_corrected < 1e-6 < err_plain

    def test_fh_half_zero_field(self):
        g = make_grid(3, 16, 4.0)
        assert fh_half_norm(zeros(g)) == 0.0

    @pytest.mark.parametrize("one_plane", [False, True], ids=["default-slabs", "one-plane-slabs"])
    @pytest.mark.parametrize("dim,n", [(1, 32), (1, 48), (2, 16), (2, 24), (3, 16), (3, 24)])
    def test_fh_half_matches_dense_oracle(self, dim, n, one_plane, monkeypatch):
        # 24^3 takes two slabs, the second one short
        if one_plane:
            monkeypatch.setattr(spectral, "_SLAB_POINTS", 1)
        f = boosted_gaussian(make_grid(dim, n, 6.0))
        assert fh_half_norm(f) == pytest.approx(dense_fh_half_norm(f), rel=1e-14)

    def test_fh_half_memory_below_one_fine_array(self):
        # a fresh grid: the first norm on it builds the weight
        n = 48
        f = boosted_gaussian(make_grid(3, n, 6.0))
        fine_array_bytes = (3 * n) ** 3 * 16  # 45.6 MiB of complex128
        tracemalloc.start()
        try:
            fh_half_norm(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fine_array_bytes

    def test_fh_half_transforms_are_partial(self, monkeypatch):
        n = 48
        calls = []

        def spy(name, transform):
            def spied(x, *args, **kwargs):
                calls.append((name, np.asarray(x).size))
                return transform(x, *args, **kwargs)
            return spied

        for name in SCIPY_TRANSFORMS:
            monkeypatch.setattr(scipy.fft, name, spy(name, getattr(scipy.fft, name)))
        fh_half_norm(boosted_gaussian(make_grid(3, n, 6.0)))
        assert {name for name, _ in calls} == {"fftn", "ifftn"}
        assert max(size for _, size in calls) < (3 * n) ** 3
        # the weight build on the fresh grid: one transform per slab of fine
        # x-planes, axis 0 on the coarse-band partial, the center's Laplacian
        # and the inverse transform
        planes = spectral._SLAB_POINTS // (3 * n) ** 2
        assert len(calls) == 3 + math.ceil(3 * n / planes)

    def test_fh_half_weight_built_once_per_grid(self, monkeypatch):
        g = make_grid(3, 16, 6.0)
        f = boosted_gaussian(g)
        first = fh_half_norm(f)
        calls = []
        for name in SCIPY_TRANSFORMS:
            monkeypatch.setattr(scipy.fft, name, lambda *a, name=name, **k: calls.append(name))
        assert fh_half_norm(Field(g, 2.0 * f.values)) == pytest.approx(2.0 * first, rel=1e-15)
        assert calls == []

    def test_x_norm_t0_limit_and_s0_reduces_to_lp(self):
        g = make_grid(3, 24, 6.0)
        f = gaussian(g)
        spec = NormSpec(s=0.5, r=18.0 / 7.0, m=0.5)
        # at t = 0 the m^s-scaled |x|^s-weighted norm, the t -> 0 limit
        r = 18.0 / 7.0
        ref = (np.sum((np.sqrt(g.r2) ** 0.5 * np.abs(f.values)) ** r) * g.dvol) ** (1.0 / r)
        assert x_norm(f, 0.0, spec) == pytest.approx(0.5 ** 0.5 * ref, rel=1e-15)
        spec0 = NormSpec(s=0.0, r=3.0, m=1.0)
        # with s=0 the quadratic phase is unimodular: plain L^r norm
        assert x_norm(f, 0.7, spec0) == pytest.approx(lp_norm(f, 3.0), rel=1e-12)

    def test_normspec_validation(self):
        with pytest.raises(ValueError):
            NormSpec(s=0.5, r=2.0, m=0.7)
        with pytest.raises(ValueError):
            NormSpec(s=-1.0, r=2.0, m=0.5)

    def test_boundary_mass_fraction(self):
        g = make_grid(3, 32, 10.0)
        assert boundary_mass_fraction(gaussian(g)) < 1e-10
        wide = gaussian(g, width=8.0)
        assert boundary_mass_fraction(wide) > 1e-3


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = make_grid(3, 16, 2.5)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        p = tmp_path / "f.nls2"
        write_field(p, f)
        back = read_field(p)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.nls2"
        p.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            read_field(p)

    def test_truncated(self, tmp_path):
        g = make_grid(2, 16, 1.0)
        f = zeros(g)
        p = tmp_path / "f.nls2"
        write_field(p, f)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            read_field(p)

    @pytest.mark.parametrize(
        "case", ["state-as-field", "state-cut-in-v", "version-2", "header-cut", "state-cut-in-t"]
    )
    def test_reader_rejects(self, case, tmp_path):
        g = make_grid(2, 16, 1.0)
        p = tmp_path / "s.nls2"
        write_state(p, State(zeros(g), zeros(g), 0.5))
        data = p.read_bytes()
        if case == "state-as-field":
            read, match = read_field, "kind"
        elif case == "state-cut-in-v":
            # header, all of u, half of v
            p.write_bytes(data[: len(data) - g.npoints * 8])
            read, match = read_state, "truncated"
        elif case == "header-cut":
            # magic and version only
            p.write_bytes(data[:8])
            read, match = read_field, "truncated"
        elif case == "state-cut-in-t":
            # magic, the 24-byte header and half of t
            p.write_bytes(data[:32])
            read, match = read_state, "truncated"
        else:
            p.write_bytes(data[:4] + (2).to_bytes(4, "little") + data[8:])
            read, match = read_state, "version"
        with pytest.raises(ValueError, match=match):
            read(p)
