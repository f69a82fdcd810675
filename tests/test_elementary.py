"""Float-kernel sin and cos at points: adversarial soundness against exact
rationals, the rounding analysis behind the kernels' error bounds, and
enclosure widths on the chart domain t in (0, pi)."""

import math
from fractions import Fraction

import pytest

from tangency.interval import (
    _COS_POLY,
    _SIN_POLY,
    _TINY_ARG,
    HALF_PI,
    PI,
    Interval,
    IntervalError,
    _cos_kernel,
    _sin_bounds,
    _sin_kernel,
    ulp,
)
from conftest import (
    PI_BOUNDS,
    _cos_series_bounds,
    _sin_series_bounds,
    sincos_bounds,
)


def _ulps(x, n):
    """x moved by n ulps (toward +inf for n > 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


def _assert_point_sincos(x):
    for shift, (lo_fr, hi_fr) in enumerate(sincos_bounds(x)):
        lo, hi = _sin_bounds(x, shift)
        assert Fraction(lo) <= lo_fr and hi_fr <= Fraction(hi), (x, shift, lo, hi)


def _near(center, steps=(-2, -1, 0, 1, 2)):
    return [_ulps(center, n) for n in steps]


# -- adversarial points --------------------------------------------------------


def _assert_quadrant_switch(j):
    # x/fl(pi/2) crosses j + 1/2 here, so the quadrant k flips and |r| is
    # largest.
    center = float((2 * j + 1) * PI_BOUNDS[0] / 4)
    for x in _near(center):
        _assert_point_sincos(x)


class TestReductionBoundaries:
    @pytest.mark.parametrize("j", range(0, 13))
    def test_quadrant_switch_points(self, j):
        _assert_quadrant_switch(j)

    def test_negative_quadrant_switch_points(self):
        # The switch points j = -12..-1, in one test.
        for j in range(-12, 0):
            _assert_quadrant_switch(j)

    def test_chart_domain_ends(self):
        tiny = [5e-324, 2.2250738585072014e-308, 1e-300, 1e-16, 1e-8]
        tiny += _near(_TINY_ARG) + _near(2.0**-26)
        for x in tiny:
            _assert_point_sincos(x)
        for x in _near(PI.lo, range(-3, 1)) + [3.141592653589793 - 1e-8]:
            _assert_point_sincos(x)

    def test_multiples_of_half_pi(self):
        # |r| tiny behind a nonzero k: the reduced argument is the
        # difference of nearly equal numbers.
        for j in range(-8, 9):
            if j:
                for x in _near(float(j * PI_BOUNDS[0] / 2)):
                    _assert_point_sincos(x)

    def test_huge_and_signed_zero(self):
        for x in (1e300, -1e300, 1.7976931348623157e308):
            for shift in (0, 1):
                with pytest.raises(IntervalError):
                    _sin_bounds(x, shift)
        for x in (0.0, -0.0):
            assert _sin_bounds(x, 0) == (0.0, 0.0)
            assert _sin_bounds(x, 1) == (1.0, 1.0)
        for x in (-5e-324, -2.2250738585072014e-308, -1e-300):
            _assert_point_sincos(x)

    def test_near_big_arg(self):
        big = 2.0**40
        for x in (big, _ulps(big, -1), big - 1.5, -big + 0.25):
            _assert_point_sincos(x)


def _sample(rng, bound):
    """A kernel argument in [-bound, bound], uniform or log-uniform, at
    least _TINY_ARG in magnitude so that the polynomial path runs."""
    r = rng.uniform(-bound, bound) if rng.random() < 0.7 else (
        math.copysign(bound * 2.0 ** rng.uniform(-26.0, 0.0), rng.random() - 0.5))
    return r if abs(r) >= _TINY_ARG else _TINY_ARG


class TestKernelBounds:
    """Each kernel's (y, e) claims |f(r) - y| <= e; checked exactly, before
    any outward rounding of y -/+ e can hide a bound that is too small."""

    @staticmethod
    def _points(rng, bound, edges):
        pts = [x for c in edges for x in _near(c) if abs(x) <= bound]
        pts += [_sample(rng, bound) for _ in range(300)]
        return pts + [-x for x in pts]

    def test_sin_and_cos(self, rng):
        quarter = float(PI_BOUNDS[0] / 4)
        for r in self._points(rng, 0.8, (0.8, quarter, _TINY_ARG, 1e-300)):
            q = Fraction(r)
            for (y, e), (lo, hi) in (
                (_sin_kernel(r), _sin_series_bounds(q)),
                (_cos_kernel(r), _cos_series_bounds(q)),
            ):
                assert Fraction(y) - Fraction(e) <= lo and hi <= Fraction(y) + Fraction(e), r


# -- the rounding analysis -----------------------------------------------------


def _exact_odd(r, coeffs, tail_den):
    """The kernel's polynomial r + r·z·P(z) in exact arithmetic, with exact
    coefficients, and the first omitted term of the series at r."""
    q = Fraction(r)
    z = q * q
    p = Fraction(0)
    for c in coeffs[::-1]:
        p = p * z + c
    return q + q * z * p, abs(q) * z ** (len(coeffs) + 1) / tail_den


class TestRoundingAnalysis:
    """The float Horner value against the exact value of the same truncated
    polynomial: the difference is rounding alone, and must stay within the
    returned bound less the series tail, which the kernel's bound also covers."""

    def test_sin(self, rng):
        n = len(_SIN_POLY)
        coeffs = [Fraction((-1) ** (i + 1), math.factorial(2 * i + 3)) for i in range(n)]
        for _ in range(2000):
            r = _sample(rng, 0.8)
            y, e = _sin_kernel(r)
            exact, tail = _exact_odd(r, coeffs, math.factorial(2 * n + 3))
            assert abs(Fraction(y) - exact) <= Fraction(e) - tail, r

    def test_cos(self, rng):
        n = len(_COS_POLY)
        coeffs = [Fraction((-1) ** (i + 1), math.factorial(2 * i + 2)) for i in range(n)]
        for _ in range(2000):
            r = _sample(rng, 0.8)
            y, e = _cos_kernel(r)
            z = Fraction(r) ** 2
            p = Fraction(0)
            for c in coeffs[::-1]:
                p = p * z + c
            tail = z ** (n + 1) / math.factorial(2 * n + 2)
            assert abs(Fraction(y) - (1 + z * p)) <= Fraction(e) - tail, r


# -- widths on the chart domain ------------------------------------------------


def test_chart_domain_widths(rng):
    for _ in range(3000):
        t = rng.uniform(1e-6, PI.lo)
        k = round(t / 1.5707963267948966)
        floor = k * HALF_PI.width
        for enc in (Interval(*_sin_bounds(t, 0)), Interval(*_sin_bounds(t, 1))):
            assert enc.width <= 6 * ulp(enc.mid) + floor, (t, enc)
