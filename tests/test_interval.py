"""Interval arithmetic: construction contracts, soundness, the pi constants
and the point sin/cos routine."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tangency.interval import HALF_PI, PI, Interval, IntervalError, _sin_bounds, ulp
from conftest import (
    PI_BOUNDS,
    contains_fraction,
    encloses_bounds,
    random_float,
    sincos_bounds,
)


class TestConstruction:
    def test_point_and_pair(self):
        assert Interval(2.0) == Interval(2.0, 2.0)
        assert Interval(1.0, 2.0).lo == 1.0

    def test_rejects_nan(self):
        with pytest.raises(IntervalError):
            Interval(float("nan"), 1.0)

    def test_rejects_inverted(self):
        with pytest.raises(IntervalError):
            Interval(2.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(IntervalError):
            Interval(-math.inf, 0.0)

    def test_immutable(self):
        x = Interval(1.0)
        with pytest.raises(AttributeError):
            x.lo = 2.0


_exact_numbers = st.one_of(
    st.integers(-(2**80), 2**80),
    st.fractions(min_value=-(2**80), max_value=2**80, max_denominator=2**70),
)


class TestCoercion:
    @settings(max_examples=500, deadline=None)
    @given(_exact_numbers)
    def test_ints_and_fractions_enclosed_outward(self, x):
        enclosures = [Interval(x), Interval(x, x)]
        if isinstance(x, int):
            enclosures += [Interval(0.0) + x, x * Interval(1.0)]
        for iv in enclosures:
            assert Fraction(iv.lo) <= x <= Fraction(iv.hi)
        point = Interval(x)
        assert point.hi in (point.lo, math.nextafter(point.lo, math.inf))

    def test_inexact_int_is_not_rounded_inward(self):
        x = Interval(2**53 + 1)
        assert x == Interval(2.0**53, 2.0**53 + 2.0)

    def test_strings_and_other_types_rejected(self):
        from jet_oracle import as_interval
        from tangency.interval import as_pair
        from tangency.linalg import inverse_enclosure

        for bad in ("0.1", "1", None, [1.0]):
            with pytest.raises(IntervalError):
                Interval(bad)
            with pytest.raises(IntervalError):
                as_interval(bad)
            with pytest.raises(IntervalError):
                as_pair(bad)
        with pytest.raises(IntervalError):
            inverse_enclosure([["0.1", 1.0], [0.0, 1.0]])
        with pytest.raises(IntervalError):
            Interval(10**400)

    def test_as_interval_passes_intervals_through(self):
        from jet_oracle import as_interval

        x = Interval(1.0, 2.0)
        assert as_interval(x) is x
        assert as_interval(0.5) == Interval(0.5)


class TestArithmeticExamples:
    def test_integer_add_exact(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)

    def test_additive_identity(self):
        x = Interval(-1.375, 2.25)
        assert Interval(0.0) + x == x

    def test_decimal_add_widens_and_encloses(self):
        r = Interval(0.1) + Interval(0.2)
        assert r.lo < r.hi
        assert contains_fraction(r, Fraction(1, 10) + Fraction(2, 10))
        assert contains_fraction(r, Fraction(0.1) + Fraction(0.2))

    def test_endpoint_extrema_mul(self):
        assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)

    def test_monotone_exact_sqrt(self):
        assert Interval(4, 9).sqrt() == Interval(2, 3)

    def test_sqr_straddling_zero(self):
        s = Interval(-2.0, 1.0).sqr()
        assert s.lo == 0.0
        assert s.hi == 4.0

    def test_division(self):
        assert Interval(1.0) / Interval(2.0) == Interval(0.5)
        with pytest.raises(IntervalError):
            Interval(1.0) / Interval(-1.0, 1.0)

    def test_sqrt_negative_rejected(self):
        with pytest.raises(IntervalError):
            Interval(-1.0, 4.0).sqrt()

    def test_overflow_is_loud(self):
        big = Interval(1.7e308)
        with pytest.raises(IntervalError):
            big + big

    def test_scalar_mixing(self):
        assert 1.0 + Interval(1.0) == Interval(2.0)
        assert 2 * Interval(1.0, 2.0) == Interval(2.0, 4.0)
        assert 1.0 / Interval(2.0) == Interval(0.5)
        assert (1.0 - Interval(0.25)) == Interval(0.75)


def test_point_soundness_sample(rng):
    # Full 1e5-sample version runs in the acceptance suite.
    for _ in range(5000):
        a, b = random_float(rng), random_float(rng)
        x, y = Interval(a), Interval(b)
        fa, fb = Fraction(a), Fraction(b)
        try:
            assert contains_fraction(x + y, fa + fb)
            assert contains_fraction(x - y, fa - fb)
            assert contains_fraction(x * y, fa * fb)
            if b != 0.0:
                assert contains_fraction(x / y, fa / fb)
        except IntervalError:
            pass  # overflow rejected loudly is acceptable


_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def _nested(lo, hi, shrink_lo, shrink_hi):
    inner_lo = lo + abs(shrink_lo) * (hi - lo) * 0.25
    inner_hi = hi - abs(shrink_hi) * (hi - lo) * 0.25
    inner_lo = min(max(inner_lo, lo), hi)
    inner_hi = min(max(inner_hi, inner_lo), hi)
    return Interval(lo, hi), Interval(inner_lo, inner_hi)


def _assert_monotone(op, big_args, small_args):
    # A loud overflow on the bigger box is acceptable; if the bigger box
    # evaluates, the smaller one must too and must land inside.
    try:
        big = op(*big_args)
    except IntervalError:
        return
    small = op(*small_args)
    assert small.is_subset(big)


@settings(max_examples=300, deadline=None)
@given(_floats, _floats, _floats, _floats, st.floats(0, 1), st.floats(0, 1))
def test_inclusion_monotonicity(a, b, c, d, s1, s2):
    big_x, small_x = _nested(min(a, b), max(a, b), s1, s2)
    big_y, small_y = _nested(min(c, d), max(c, d), s2, s1)
    _assert_monotone(lambda x, y: x + y, (big_x, big_y), (small_x, small_y))
    _assert_monotone(lambda x, y: x - y, (big_x, big_y), (small_x, small_y))
    _assert_monotone(lambda x, y: x * y, (big_x, big_y), (small_x, small_y))
    if not big_y.contains_zero():
        _assert_monotone(lambda x, y: x / y, (big_x, big_y), (small_x, small_y))
    _assert_monotone(lambda x: x.sqr(), (big_x,), (small_x,))
    if big_x.lo >= 0.0:
        _assert_monotone(lambda x: x.sqrt(), (big_x,), (small_x,))


class TestConstants:
    def test_pi_enclosure_against_independent_identity(self):
        assert encloses_bounds(PI, PI_BOUNDS) or (
            Fraction(PI.lo) <= PI_BOUNDS[0] and PI_BOUNDS[1] <= Fraction(PI.hi)
        )
        assert PI.width == ulp(PI.lo)

    def test_half_pi(self):
        assert Fraction(HALF_PI.lo) <= PI_BOUNDS[0] / 2
        assert PI_BOUNDS[1] / 2 <= Fraction(HALF_PI.hi)


class TestSinCos:
    def test_point_containment(self, rng):
        for _ in range(300):
            x = rng.uniform(-20.0, 20.0)
            sb, cb = sincos_bounds(x)
            s, c = Interval(*_sin_bounds(x, 0)), Interval(*_sin_bounds(x, 1))
            assert Fraction(s.lo) <= sb[0] and sb[1] <= Fraction(s.hi), x
            assert Fraction(c.lo) <= cb[0] and cb[1] <= Fraction(c.hi), x

    def test_point_width_target(self, rng):
        # 4 ulp of the result plus the unavoidable reduction floor.
        for _ in range(300):
            x = rng.uniform(-20.0, 20.0)
            for enc in (Interval(*_sin_bounds(x, 0)), Interval(*_sin_bounds(x, 1))):
                bound = 4 * ulp(enc.mid) + 8 * 2.0**-53 * (1.0 + abs(x))
                assert enc.width <= bound, (x, enc.width, bound)

    def test_known_values(self):
        assert _sin_bounds(0.0, 0) == (0.0, 0.0)
        assert _sin_bounds(0.0, 1) == (1.0, 1.0)


class TestQueries:
    def test_mid_width_mag(self):
        x = Interval(1.0, 3.0)
        assert x.mid == 2.0
        assert x.width == 2.0
        assert x.mag == 3.0
        assert Interval(-5.0, 1.0).mag == 5.0

    def test_hull(self):
        a, b = Interval(0, 1), Interval(2, 3)
        assert a.hull(b) == Interval(0, 3)
