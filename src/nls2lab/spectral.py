"""Periodic spectral grid, FFT conventions, quadrature, and norms.

Conventions used everywhere in this package:

* the physical box is [-L, L)^dim with n points per axis, x_j = -L + j*dx,
  dx = 2L/n; the point x = 0 is always on the lattice (n is even);
* wavenumbers are k_j = (pi/L) * j with j in standard FFT ordering;
* the FFT is unitary (``norm="ortho"``): sum |f|^2 = sum |fhat|^2, so the
  discrete Parseval identity reads  lp_norm(f, 2)^2 = sum |fhat|^2 * dx^dim.

All quadrature is the rectangle rule with weight dx^dim, which is spectrally
accurate for smooth fields that decay inside the box.  The |x|^(1/2)-weighted
norm gets a cusp correction (see :func:`fh_half_norm`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from scipy import fft as sfft

from .errors import NonFiniteFieldError

_FFT_WORKERS = -1
# arrays smaller than this are transformed on one thread: in cache, handing
# work to a second thread costs more than the split saves, and that cost
# varies with the load on the host
_FFT_THREADED_MIN_SIZE = 32 ** 3
# fine-lattice points per slab of the 3x refinement that builds fh_half_norm's
# weight: bounds the memory of the build (4 MiB per complex slab)
_SLAB_POINTS = 1 << 18

# closed forms of int |x| exp(-|x|^2) dx and int |x|^3 exp(-|x|^2) dx on R^d
_WEIGHT_GAUSS_1 = {1: 1.0, 2: np.pi ** 1.5 / 2.0, 3: 2.0 * np.pi}
_WEIGHT_GAUSS_3 = {1: 1.0, 2: 3.0 * np.pi ** 1.5 / 4.0, 3: 4.0 * np.pi}


def _is_fft_friendly(n: int) -> bool:
    # powers of two, optionally times 3 (keeps the 2/3-rule cutoff n//3 exact)
    while n % 2 == 0:
        n //= 2
    return n in (1, 3)


def _open_mesh(coords: np.ndarray, dim: int) -> tuple:
    """Sparse (open) ij-mesh of one axis vector: dim arrays that broadcast
    to the full grid, so sums and products over them need no dense copies."""
    return tuple(np.meshgrid(*([coords] * dim), indexing="ij", sparse=True))


@dataclass(frozen=True)
class Grid:
    """Immutable, hashable periodic grid; share freely between threads."""

    dim: int
    n: int
    half_width: float

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n ** self.dim

    @property
    def dvol(self) -> float:
        return self.dx ** self.dim

    @cached_property
    def x(self) -> np.ndarray:
        """Axis coordinates x_j = -L + j*dx (length n)."""
        return -self.half_width + self.dx * np.arange(self.n)

    @cached_property
    def k(self) -> np.ndarray:
        """Axis wavenumbers (pi/L)*j in FFT ordering (length n)."""
        return 2.0 * np.pi * sfft.fftfreq(self.n, d=self.dx)

    @cached_property
    def axes(self) -> tuple:
        """Open mesh of the coordinates x, one broadcastable array per axis."""
        return _open_mesh(self.x, self.dim)

    @cached_property
    def kaxes(self) -> tuple:
        """Open mesh of the wavenumbers k, one broadcastable array per axis."""
        return _open_mesh(self.k, self.dim)

    @cached_property
    def r2(self) -> np.ndarray:
        """|x|^2 measured from the box center, full mesh."""
        return sum(a ** 2 for a in self.axes)

    @cached_property
    def k2(self) -> np.ndarray:
        return sum(a ** 2 for a in self.kaxes)

    @cached_property
    def kmag(self) -> np.ndarray:
        return np.sqrt(self.k2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep integer modes |j| <= n//3."""
        j = np.rint(sfft.fftfreq(self.n) * self.n).astype(int)
        keep = (np.abs(j) <= self.n // 3).astype(float)
        return reduce(np.multiply, _open_mesh(keep, self.dim))

    @cached_property
    def center_index(self) -> tuple:
        return (self.n // 2,) * self.dim

    @cached_property
    def fh_half_weight(self) -> np.ndarray:
        """Quadrature weight of fh_half_norm: its square is sum q |f|^2."""
        return _fh_half_weight(self)


def make_grid(dim: int, n: int, half_width: float) -> Grid:
    """Build a periodic grid on [-L, L)^dim.

    n must be even, >= 8, and of the form 2^a or 3*2^a so that FFT radices
    stay simple and the 2/3-rule cutoff n//3 is exact.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
    if n < 8 or n % 2 != 0 or not _is_fft_friendly(n):
        raise ValueError(f"n must be >= 8 and of the form 2^a or 3*2^a, got {n}")
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    return Grid(dim=dim, n=int(n), half_width=float(half_width))


@dataclass
class Field:
    """Complex scalar sampled on a Grid.  Treat as a value type."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def check_finite(self) -> "Field":
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteFieldError("field contains NaN/Inf entries")
        return self


@dataclass
class NormSpec:
    """Parameters of the time-dependent weighted norm.

    m is the mass parameter of the quadratic phase: 1/2 for the u-component,
    1 for the v-component.
    """

    s: float
    r: float
    m: float

    def __post_init__(self):
        if self.r < 1 or self.s < 0:
            raise ValueError(f"invalid NormSpec {self}")
        if self.m not in (0.5, 1.0):
            raise ValueError(f"m must be 1/2 or 1, got {self.m}")


def zeros(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.shape, dtype=np.complex128))


def _workers(values: np.ndarray) -> int:
    return _FFT_WORKERS if values.size >= _FFT_THREADED_MIN_SIZE else 1


def fftn(values: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Unitary n-D FFT.  With overwrite, `values` may be reused for the
    result; use the returned array."""
    return sfft.fftn(values, norm="ortho", workers=_workers(values), overwrite_x=overwrite)


def ifftn(values: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Inverse of fftn, with the same overwrite contract."""
    return sfft.ifftn(values, norm="ortho", workers=_workers(values), overwrite_x=overwrite)


def lp_norm(f: Field, r: float) -> float:
    """(sum |f|^r dx^dim)^(1/r); max modulus for r = inf."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    f.check_finite()
    a = np.abs(f.values)
    if np.isinf(r):
        return float(a.max()) if a.size else 0.0
    return float((np.sum(a ** r) * f.grid.dvol) ** (1.0 / r))


def _fh_half_weight(grid: Grid) -> np.ndarray:
    """The weight q with fh_half_norm(f)^2 = sum q |f|^2.

    The cusp-corrected rule is linear in g = |f|^2: interpolate g spectrally
    onto a 3x finer lattice (zero-padded spectrum, Nyquist mode on the
    negative side), subtract the Gaussians (alpha + beta |x|^2) e^{-|x|^2/sig^2}
    whose alpha and beta match the value and Laplacian of g at the center,
    sum |x| times the smooth remainder there, and add back the Gaussians'
    weighted integrals in closed form.  q is the adjoint of those steps: the
    fine-lattice |x| transformed and restricted to the coarse band, plus the
    center terms that alpha and beta contribute.  The forward transform runs
    over axes 1..d-1 on slabs of at most _SLAB_POINTS fine points and over
    axis 0 last, so in 3D the fine lattice is never built.
    """
    d, n, p = grid.dim, grid.n, 3
    m = p * n
    dxf = grid.dx / p
    xf = -grid.half_width + dxf * np.arange(m)
    # subtraction width: keep the correction Gaussian inside the box
    sig = min(1.0, grid.half_width / 6.0)
    band = np.r_[0:n // 2, m - n // 2:m]
    inner_band = (slice(None),) + np.ix_(*[band] * (d - 1))
    planes = max(1, _SLAB_POINTS // m ** (d - 1))
    partial = np.empty((m,) + (n,) * (d - 1), dtype=np.complex128)
    gauss_1 = gauss_3 = 0.0  # fine-lattice sums of r e^{-r^2/sig^2}, r^3 e^{-r^2/sig^2}
    for i in range(0, m, planes):
        mesh = np.meshgrid(xf[i:i + planes], *([xf] * (d - 1)), indexing="ij", sparse=True)
        r2f = sum(a ** 2 for a in mesh)
        rf = np.sqrt(r2f)
        h = rf * np.exp(-r2f / sig ** 2)
        gauss_1 += float(np.sum(h))
        gauss_3 += float(np.sum(h * r2f))
        if d > 1:
            rf = sfft.fftn(rf, axes=tuple(range(1, d)), workers=_workers(rf))[inner_band]
        partial[i:i + planes] = rf
    spec = sfft.fftn(partial, axes=(0,), workers=_workers(partial), overwrite_x=True)[band]
    spec *= dxf ** d
    a = sig ** (d + 1) * _WEIGHT_GAUSS_1[d] - dxf ** d * gauss_1
    b = sig ** (d + 3) * _WEIGHT_GAUSS_3[d] - dxf ** d * gauss_3
    center = np.zeros(grid.shape)
    center[grid.center_index] = 1.0
    spec -= b / (2.0 * d) * grid.k2 * sfft.fftn(center, workers=_workers(center))
    q = np.real(sfft.ifftn(spec, workers=_workers(spec)))
    q[grid.center_index] += a + b / sig ** 2
    if not np.all(q > 0):
        raise ValueError(f"fh_half_norm quadrature weight is not positive on {grid}")
    return q


def fh_half_norm(f: Field) -> float:
    """|| |x|^(1/2) f ||_{L^2} with a cusp-corrected quadrature.

    The integrand |x| |f|^2 has a conical point at the box center which caps
    the plain rectangle rule at ~1e-3 relative accuracy on desk-scale grids.
    The corrected rule (see _fh_half_weight) is linear in |f|^2, so the norm
    is one weighted sum against the grid's weight, built on first use.
    """
    return float(np.sqrt(np.sum(f.grid.fh_half_weight * np.abs(f.values) ** 2)))


def sobolev_seminorm(f: Field, s: float) -> float:
    """|| |nabla|^s f ||_{L^2} via the spectral multiplier |k|^s."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    fhat = fftn(f.values)
    if s == 0:
        w = np.abs(fhat)
    else:
        w = f.grid.kmag ** s * np.abs(fhat)
    return float(np.sqrt(np.sum(w ** 2) * f.grid.dvol))


def quadratic_phase(grid: Grid, m: float, t: float) -> np.ndarray:
    """exp(i m |x|^2 / (2t)) on the mesh (t != 0), built as the product of
    one factor per axis."""
    if t == 0:
        raise ValueError("quadratic phase is undefined at t = 0")
    c = 1j * m / (2.0 * t)
    return reduce(np.multiply, (np.exp(c * a ** 2) for a in grid.axes))


def x_norm(f: Field, t: float, spec: NormSpec) -> float:
    """|t|^s || |nabla|^s ( exp(-i m |x|^2/(2t)) f ) ||_{L^r}.

    At t = 0 it returns the t -> 0 limit m^s || |x|^s f ||_{L^r}: the
    operator |t|^s |nabla|^s e^{-i m |x|^2/(2t)} tends to |m x|^s.  The
    limit is the plain rectangle rule, without fh_half_norm's cusp correction.
    """
    if t == 0:
        grid = f.grid
        weighted = Field(grid, np.sqrt(grid.r2) ** spec.s * np.abs(f.values))
        return spec.m ** spec.s * lp_norm(weighted, spec.r)
    g = quadratic_phase(f.grid, -spec.m, t) * f.values
    if spec.s > 0:
        ghat = fftn(g)
        g = ifftn(f.grid.kmag ** spec.s * ghat)
    out = Field(f.grid, np.abs(t) ** spec.s * g)
    return lp_norm(out, spec.r)


def boundary_mass_fraction(f: Field) -> float:
    """Fraction of sum |f|^2 carried within 10% of the box boundary.

    The torus truncation of free space is only trustworthy when this is
    tiny (< 1e-10 for the conservation runs)."""
    g = np.abs(f.values) ** 2
    total = g.sum()
    if total == 0.0:
        return 0.0
    grid = f.grid
    edge = reduce(np.maximum, (np.abs(a) for a in grid.axes))
    near = edge >= 0.9 * grid.half_width
    return float(g[near].sum() / total)


# ---------------------------------------------------------------------------
# binary field format
#
# header: magic "NLS2" | version u32 | kind u32 (1 field, 2 state)
#         | dim u32 | n u32 | half_width f64 | [t f64 when kind == 2]
# payload: n^dim complex128 little-endian, row-major, per field
# ---------------------------------------------------------------------------

_MAGIC = b"NLS2"
_VERSION = 1
KIND_FIELD = 1
KIND_STATE = 2
# kind: (name in error messages, number of arrays in the payload)
_KINDS = {KIND_FIELD: ("field", 1), KIND_STATE: ("state", 2)}


def write_nls2(path, kind: int, grid: Grid, arrays, t: float | None = None):
    """Write the arrays of one field (kind 1) or of a state at time t (kind 2)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIId", _VERSION, kind, grid.dim, grid.n, grid.half_width))
        if kind == KIND_STATE:
            fh.write(struct.pack("<d", float(t)))
        for a in arrays:
            np.ascontiguousarray(a).astype("<c16").tofile(fh)


def _unpack(fh, fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) < size:
        raise ValueError("truncated field file")
    return struct.unpack(fmt, raw)


def read_nls2(path, kind: int) -> tuple:
    """(grid, arrays, t) of a file of the given kind; t is None for a field."""
    name, count = _KINDS[kind]
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        version, got, dim, n, half_width = _unpack(fh, "<IIIId")
        if version != _VERSION:
            raise ValueError(f"unsupported field-format version {version}")
        if got != kind:
            raise ValueError(f"expected a {name} file, got kind {got}")
        t = _unpack(fh, "<d")[0] if kind == KIND_STATE else None
        grid = make_grid(dim, n, half_width)
        arrays = [np.fromfile(fh, dtype="<c16", count=grid.npoints) for _ in range(count)]
    if any(a.size != grid.npoints for a in arrays):
        raise ValueError("truncated field file")
    return grid, [a.reshape(grid.shape) for a in arrays], t


def write_field(path, f: Field):
    write_nls2(path, KIND_FIELD, f.grid, [f.values])


def read_field(path) -> Field:
    grid, (values,), _ = read_nls2(path, KIND_FIELD)
    return Field(grid, values)
