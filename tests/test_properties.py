"""Property tests: Parseval for the unitary FFT, unitarity of the free
flow, the homogeneity of the weighted norm, the NLS2 file round trip, a
config hash that ignores key order, the scaling laws of `scale_data` and
the group laws of the Galilean boost.  Grids stay at 16^3 or below and the
example counts small, so the file runs in seconds."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nls2lab import cli
from nls2lab.dynamics import State, linear_step, read_state, write_state
from nls2lab.observables import energy, mass
from nls2lab.spectral import Field, fftn, fh_half_norm, make_grid, read_field, write_field
from nls2lab.symmetry import boost_evolved_state, galilean_boost, scale_data

FEW = settings(max_examples=25, deadline=None)

complex_arrays = hnp.arrays(
    np.complex128,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=16),
    elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@FEW
@given(complex_arrays)
def test_fftn_parseval(values):
    energy = np.sum(np.abs(values) ** 2)
    assert np.sum(np.abs(fftn(values)) ** 2) == pytest.approx(energy, rel=1e-12, abs=1e-300)


@FEW
@given(
    dim=st.integers(1, 3),
    n=st.sampled_from([8, 12, 16]),
    half_width=st.floats(0.5, 20.0),
    dt=st.floats(-10.0, 10.0, allow_nan=False),
    a=st.sampled_from([1.0, 0.5]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_linear_step_unitary(dim, n, half_width, dt, a, seed):
    g = make_grid(dim, n, half_width)
    rng = np.random.default_rng(seed)
    f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    out = linear_step(f, dt, a)
    norm = np.linalg.norm(f.values)
    assert np.linalg.norm(out.values) == pytest.approx(norm, rel=1e-12)
    # the inverse step undoes it
    back = linear_step(out, -dt, a).values
    assert np.max(np.abs(back - f.values)) < 1e-12 * np.max(np.abs(f.values))


grids = st.builds(make_grid, dim=st.integers(1, 3), n=st.sampled_from([8, 12, 16]),
                  half_width=st.floats(0.5, 20.0))


@FEW
@given(
    dim=st.integers(1, 3),
    n=st.sampled_from([8, 12, 16]),
    center=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    boost=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    c=st.floats(1e-3, 1e3),
    alpha=st.floats(0.0, 2.0 * np.pi),
)
def test_fh_half_norm_homogeneous(dim, n, center, boost, c, alpha):
    # a resolved Gaussian: width 1 on a lattice of spacing at most 1/2
    g = make_grid(dim, n, n / 4.0)
    r2 = sum((a - x) ** 2 for a, x in zip(g.axes, center))
    phase = sum(a * k for a, k in zip(g.axes, boost))
    f = Field(g, np.exp(-r2 / 2.0 + 1j * phase))
    scaled = Field(g, c * np.exp(1j * alpha) * f.values)
    assert fh_half_norm(scaled) == pytest.approx(c * fh_half_norm(f), rel=1e-12)


def field_values(grid):
    return hnp.arrays(np.complex128, grid.shape)


@FEW
@given(st.data(), grids)
def test_field_file_roundtrip(data, grid):
    f = Field(grid, data.draw(field_values(grid)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.nls2"
        write_field(path, f)
        back = read_field(path)
    assert back.grid == grid
    assert back.values.tobytes() == f.values.tobytes()


@FEW
@given(st.data(), grids, st.floats(allow_nan=False))
def test_state_file_roundtrip(data, grid, t):
    state = State(Field(grid, data.draw(field_values(grid))),
                  Field(grid, data.draw(field_values(grid))), t)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.nls2"
        write_state(path, state)
        back = read_state(path)
    assert back.grid == grid
    assert back.t == t
    assert back.u.values.tobytes() == state.u.values.tobytes()
    assert back.v.values.tobytes() == state.v.values.tobytes()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


def reorder(value, rng):
    """The same JSON value with every object's keys in a shuffled order."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: reorder(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [reorder(v, rng) for v in value]
    return value


@FEW
@given(st.dictionaries(st.text(), json_values, max_size=6), st.randoms())
def test_config_hash_ignores_key_order(config, rng):
    shuffled = reorder(config, rng)
    assert shuffled == config
    assert cli.config_hash(shuffled) == cli.config_hash(config)


def random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    return tuple(Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
                 for _ in range(2))


dyadic = st.integers(-3, 3).map(lambda k: 2.0 ** k)
seeds = st.integers(0, 2 ** 32 - 1)


@FEW
@given(grids, dyadic, dyadic, seeds)
def test_scale_data_composes(grid, a, b, seed):
    pair = random_pair(grid, seed)
    twice = scale_data(scale_data(pair, a), b)
    once = scale_data(pair, a * b)
    # dyadic factors: the grids and the samples agree bit for bit
    for f, g in zip(twice, once):
        assert f.grid == g.grid
        assert f.values.tobytes() == g.values.tobytes()


@FEW
@given(grids, dyadic, seeds)
def test_scale_data_scales_mass_and_energy(grid, lam, seed):
    """(lam^2 f(lam x), lam^2 g(lam x)) in d dimensions: the mass scales by
    lam^(4-d), and each energy term (two derivatives, or one more power of
    the fields) by lam^(6-d)."""
    pair = random_pair(grid, seed)
    scaled = scale_data(pair, lam)
    d = grid.dim
    before, after = State(*pair, 0.0), State(*scaled, 0.0)
    assert mass(after) == pytest.approx(lam ** (4 - d) * mass(before), rel=1e-12)
    e0, e1 = energy(before), energy(after)
    for term in ("kinetic_u", "kinetic_v", "interaction", "energy"):
        expected = lam ** (6 - d) * getattr(e0, term)
        scale = lam ** (6 - d) * (e0.kinetic_u + e0.kinetic_v + abs(e0.interaction))
        assert getattr(e1, term) == pytest.approx(expected, abs=1e-12 * scale)


def lattice_frequency(grid, draw_ints):
    return np.array(draw_ints[:grid.dim], dtype=float) * np.pi / grid.half_width


@FEW
@given(grids, st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3), seeds)
def test_galilean_boost_composes_and_keeps_mass(grid, j, k, seed):
    xi, eta = lattice_frequency(grid, j), lattice_frequency(grid, k)
    pair = random_pair(grid, seed)
    twice = galilean_boost(galilean_boost(pair, xi), eta)
    once = galilean_boost(pair, xi + eta)
    for f, g in zip(twice, once):
        assert np.max(np.abs(f.values - g.values)) < 1e-12 * np.max(np.abs(g.values))
    m = mass(State(*pair, 0.0))
    assert mass(State(*once, 0.0)) == pytest.approx(m, rel=1e-12)


@FEW
@given(grids, st.lists(st.integers(-3, 3), min_size=3, max_size=3), seeds)
def test_boost_evolved_state_at_t0_is_the_boost(grid, j, seed):
    xi = lattice_frequency(grid, j)
    pair = random_pair(grid, seed)
    state = boost_evolved_state(State(*pair, 0.0), xi, 0.0)
    boosted = galilean_boost(pair, xi)
    for f, g in zip((state.u, state.v), boosted):
        # the t = 0 translation is an FFT round trip: equal up to round-off
        assert np.max(np.abs(f.values - g.values)) < 1e-12 * np.max(np.abs(g.values))
