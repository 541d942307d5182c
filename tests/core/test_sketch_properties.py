"""Property tests for :class:`QuantileSketch` merges and moment recovery.

* ``merge`` is commutative bit for bit: ``a.merge(b)`` and ``b.merge(a)``
  are the same sketch whenever the two share their level array.  The
  mixture weights each CDF by its own run count, ``(n_a·F_a +
  n_b·F_b)/(n_a + n_b)``, and that expression is symmetric in floating
  point, so no tolerance is needed.  It is not associative: a merged
  sketch keeps only its levels' values, so a third merge interpolates
  between them, and ``(a·b)·c`` and ``a·(b·c)`` differ by that
  interpolation (the bounds below hold for every order).
* merged values are monotone, and at every level they lie between the
  two inputs' values at that level;
* moment recovery on a degenerate sketch — one run, zero variance,
  ``p50 == p99`` — or on one spread too wide for float64 returns finite
  moments or raises a typed :class:`~repro.errors.ValidationError`,
  never NaN.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import ASSUMPTIONS, DEFAULT_SKETCH_LEVELS, QuantileSketch
from repro.errors import ValidationError

LEVELS = np.asarray(DEFAULT_SKETCH_LEVELS, dtype=np.float64)

#: Positive finite values across the float range, subnormals included.
positive = st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False, allow_infinity=False)
#: Runtime-like magnitudes.
runtimes = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
n_runs = st.integers(1, 10_000)


@st.composite
def sketches(draw, values=runtimes):
    """A valid sketch at the default levels."""
    vals = sorted(draw(st.lists(values, min_size=LEVELS.size, max_size=LEVELS.size)))
    return QuantileSketch(LEVELS, np.asarray(vals), draw(n_runs))


@given(a=sketches(), b=sketches())
@settings(max_examples=200, deadline=None)
def test_merge_is_commutative_bit_for_bit(a, b):
    ab, ba = a.merge(b), b.merge(a)
    assert ab.n_runs == ba.n_runs == a.n_runs + b.n_runs
    assert np.array_equal(ab.levels, ba.levels)
    assert ab.values.tobytes() == ba.values.tobytes()


@given(a=sketches(), b=sketches(), c=sketches())
@settings(max_examples=200, deadline=None)
def test_merged_values_are_monotone_and_bounded_by_the_inputs(a, b, c):
    for left, right in ((a, b), (b, a), (a, a), (a.merge(b), c), (c, a.merge(b))):
        merged = left.merge(right)
        assert np.all(np.diff(merged.values) >= 0.0)
        assert np.all(merged.values >= np.minimum(left.values, right.values))
        assert np.all(merged.values <= np.maximum(left.values, right.values))


def check_recovery(sketch: QuantileSketch) -> None:
    """Every assumption's moments are finite, or a typed error."""
    for assumption in ASSUMPTIONS:
        for recover in (sketch.moments, sketch.log_moments):
            try:
                moments = recover(assumption)
            except ValidationError:
                continue
            assert np.all(np.isfinite(moments.as_array())), (recover, assumption, moments)


@given(value=positive)
@settings(max_examples=150, deadline=None)
def test_single_run_recovers_finite_moments(value):
    check_recovery(QuantileSketch.from_samples([value]))


@given(value=positive, n=st.integers(2, 1000))
@settings(max_examples=150, deadline=None)
def test_zero_variance_recovers_finite_moments(value, n):
    check_recovery(QuantileSketch.from_samples(np.full(n, value)))


@given(
    low=positive,
    middle=positive,
    high=positive,
    n=n_runs,
)
@settings(max_examples=300, deadline=None)
def test_equal_p50_p99_recovers_finite_moments(low, middle, high, n):
    """p50 == p90 == p95 == p99, with a p10 and a p999 on either side."""
    low, high = min(low, middle), max(high, middle)
    levels = np.asarray([0.1, 0.5, 0.9, 0.95, 0.99, 0.999])
    values = np.asarray([low, middle, middle, middle, middle, high])
    check_recovery(QuantileSketch(levels, values, n))


@pytest.mark.parametrize("value", [5e-324, 1e-300, 1.0, 1e300, 1.7e308])
def test_degenerate_extremes(value):
    check_recovery(QuantileSketch.from_samples([value]))
    check_recovery(QuantileSketch(LEVELS, np.full(LEVELS.size, value), 3))


def test_spread_beyond_float64_moments_is_a_typed_error():
    """p99/p50 = 1e20: the lognormal moments overflow float64."""
    sketch = QuantileSketch((0.5, 0.99), (1.0, 1e20), 5)
    with pytest.raises(ValidationError, match="overflow"):
        sketch.moments("lognormal")
    check_recovery(sketch)
