"""The array '%.17g' kernel against Python's own '%.17g', text for text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf import _floattext
from minsurf._floattext import WIDTH, format_g17


def texts(x):
    """The kernel's cells of x as strings, NULs squeezed out."""
    cells = format_g17(np.asarray(x, dtype=float))
    assert cells.shape == np.shape(x) + (WIDTH,) and cells.dtype == np.uint8
    return [bytes(c).replace(b"\0", b"").decode() for c in cells.reshape(-1, WIDTH)]


def assert_matches(x):
    x = np.asarray(x, dtype=float).ravel()
    expected = ["%.17g" % v for v in x.tolist()]
    got = texts(x)
    wrong = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
    assert not wrong, wrong[:5]


def neighbours(values):
    return [y for v in values for y in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


EDGES = (
    [0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf, 1.7976931348623157e308,
     -1.7976931348623157e308, 2.2250738585072014e-308]
    + neighbours([1e-4, 1e16, 1e17, -1e-4, -1e16])
    # the double 1e-14 lies below 10^-14 and its 17 digits round up to 1e-14;
    # 0.00100040435791015625 is exact in binary and its 18th digit a tie
    + [1e-14, float(np.nextafter(1e-14, 1.0)), 0.00100040435791015625, -0.00100040435791015625]
    + neighbours([1e-3, 1e-2, 0.1, 1.0, 10.0, 1e15, 2.0 ** 52, 2.0 ** 53])
    + [0.5, 123.456, 100.0, 1e15 + 0.125, 9999999999999998.0, 0.30000000000000004]
)


def test_edge_values():
    assert_matches(EDGES)
    assert_matches(np.negative(EDGES))


def test_random_doubles_across_the_regime():
    # log-uniform over the kernel's range and a decade either side, both signs,
    # plus dyadic values whose decimal expansions end early
    rng = np.random.default_rng(20261018)
    x = 10.0 ** rng.uniform(-5, 17, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    assert_matches(x)
    assert_matches(rng.integers(0, 2 ** 40, 20_000) / 2.0 ** rng.integers(0, 40, 20_000))


def test_shapes():
    x = np.arange(24.0).reshape(2, 3, 4) / 7.0
    assert format_g17(x).shape == (2, 3, 4, WIDTH)
    assert format_g17(np.empty((0, 5))).shape == (0, 5, WIDTH)
    assert texts(2.5) == ["2.5"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float(values):
    assert_matches(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
                | st.floats(min_value=-1e16, max_value=-1e-4, exclude_min=True),
                min_size=1, max_size=40))
def test_fixed_notation_range(values):
    assert_matches(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_raw_bit_patterns(bits):
    assert_matches(np.array(bits, dtype=np.uint64).view(np.float64))


def test_every_value_can_take_the_fallback(monkeypatch):
    # with the tie window at 1/2 or more no scaled value is trusted, so every
    # text comes from '%.17g' itself; a 64-bit long double does the same
    monkeypatch.setattr(_floattext, "TIE_WINDOW", 1.0)
    v = 10.0 ** np.linspace(-4, 15.9, 1001)
    _, trusted = _floattext._fixed(v, v < 0)
    assert not trusted.any()
    assert_matches(np.concatenate([EDGES, v, -v]))


def test_tie_window_is_the_stated_bound():
    eps = float(np.finfo(np.longdouble).eps)
    assert _floattext.TIE_WINDOW == pytest.approx(2.0 * eps * 1e17)
    if eps < 1e-18:  # 80-bit or wider long double: the fast path is taken
        v = 10.0 ** np.linspace(-4, 15.9, 1001)
        assert _floattext._fixed(v, v < 0)[1].mean() > 0.9
