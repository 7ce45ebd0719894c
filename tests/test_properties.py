"""Property tests: Parseval for the unitary FFT, unitarity of the free
flow, and a config hash that ignores key order.  Grids stay at 16^3 or
below and the example counts small, so the file runs in seconds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nls2lab import cli
from nls2lab.dynamics import linear_step
from nls2lab.spectral import Field, fftn, make_grid

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
