"""Rigorous scalar interval arithmetic with outward rounding.

An :class:`Interval` is a closed interval ``[lo, hi]`` of binary64 numbers.
Every operation returns an interval containing the exact real result for all
points of the operands (enclosure soundness); rounding is outward via the
kernels in :mod:`tangency.kernels`.  Float bounds are taken as given; int and
Fraction bounds are rounded outward, and strings are rejected.  Non-finite
bounds are construction errors: a proof pipeline must fail loudly rather than
propagate infinities.

Elementary functions (sqrt, sin, cos, atan) use rigorous argument reduction
plus alternating Taylor series whose truncation error is bounded by the first
omitted term; the reduction constants (pi and an atan table) are enclosed at
import time from exact rational series, so no libm accuracy assumption enters
the proof.

All values are immutable; operations are pure and thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction

from tangency import kernels as _k


class IntervalError(ValueError):
    """Invalid interval construction or domain violation."""


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        if type(lo) is not float:
            lo = _bound(lo, down=True)
        if type(hi) is not float:
            hi = _bound(hi, down=False)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IntervalError(f"non-finite interval bound: [{lo}, {hi}]")
        if lo > hi:
            raise IntervalError(f"inverted interval bounds: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    # -- queries ---------------------------------------------------------

    @property
    def mid(self):
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        if m < self.lo:
            return self.lo
        if m > self.hi:
            return self.hi
        return m

    @property
    def width(self):
        return _k.sub_up(self.hi, self.lo)

    @property
    def mag(self):
        """Upper bound of |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x):
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= x <= self.hi

    def contains_zero(self):
        return self.lo <= 0.0 <= self.hi

    def is_subset(self, other):
        return other.lo <= self.lo and self.hi <= other.hi

    def intersects(self, other):
        return self.lo <= other.hi and other.lo <= self.hi

    def hull(self, other):
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise IntervalError("empty intersection")
        return Interval(lo, hi)

    def __eq__(self, other):
        if isinstance(other, Interval):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            return Interval(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(*_k.iadd(self.lo, self.hi, o.lo, o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(*_k.isub(self.lo, self.hi, o.lo, o.hi))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(*_k.isub(o.lo, o.hi, self.lo, self.hi))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(*_k.imul(self.lo, self.hi, o.lo, o.hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.contains_zero():
            raise IntervalError(f"division by zero-containing interval {o!r}")
        return Interval(*_k.idiv(self.lo, self.hi, o.lo, o.hi))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __pos__(self):
        return self

    def sqr(self):
        return Interval(*_k.isqr(self.lo, self.hi))

    def sqrt(self):
        if self.lo < 0.0:
            raise IntervalError(f"sqrt of negative-containing interval {self!r}")
        return Interval(*_k.isqrt(self.lo, self.hi))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise IntervalError("only nonnegative integer powers are supported")
        if n == 0:
            return Interval(1.0)
        if n % 2 == 0:
            half = self ** (n // 2)
            return half.sqr()
        return self * (self ** (n - 1))

    # -- elementary functions (defined below, after the constants) -------

    def atan(self):
        lo = _atan_point(self.lo).lo
        hi = _atan_point(self.hi).hi
        return Interval(lo, hi)

    def sin(self):
        return _sin_interval(self)

    def cos(self):
        return _sin_interval(HALF_PI - self)


def as_interval(x):
    """x itself if it is an Interval, else an outward enclosure of the number x."""
    return x if isinstance(x, Interval) else Interval(x)


_EXACT_INT = 2**53  # every int of at most this magnitude is a binary64


def _bound(x, down):
    """A binary64 bound of the number x: at most x if down, else at least x.

    Floats are taken as they are; ints and Fractions are rounded outward.
    Strings and other types are rejected, never parsed.
    """
    if isinstance(x, float):
        return float(x)
    if isinstance(x, (int, Fraction)):
        if type(x) is int and -_EXACT_INT <= x <= _EXACT_INT:
            return float(x)
        try:
            return _float_down(x) if down else _float_up(x)
        except OverflowError:
            raise IntervalError("number out of float range") from None
    raise IntervalError(f"cannot enclose {type(x).__name__} {x!r} in an interval")


# ---------------------------------------------------------------------------
# Import-time constants from exact rational series.
# ---------------------------------------------------------------------------


def _float_down(fr):
    f = float(fr)  # CPython int/int division: correctly rounded
    if not math.isfinite(f):
        raise IntervalError("constant out of float range")
    if Fraction(f) > fr:
        return math.nextafter(f, -math.inf)
    return f


def _float_up(fr):
    f = float(fr)
    if not math.isfinite(f):
        raise IntervalError("constant out of float range")
    if Fraction(f) < fr:
        return math.nextafter(f, math.inf)
    return f


def _frac_interval(lo_fr, hi_fr):
    return Interval(_float_down(lo_fr), _float_up(hi_fr))


def _atan_frac_bounds(x, n_terms):
    """Rational bounds on atan(x) for |x| < 1, alternating-series remainder."""
    x2 = x * x
    s = Fraction(0)
    p = x
    sign = 1
    for n in range(n_terms):
        s += sign * p / (2 * n + 1)
        p *= x2
        sign = -sign
    r = abs(p) / (2 * n_terms + 1)
    return s - r, s + r


def _machin_pi_bounds():
    # pi = 16 atan(1/5) - 4 atan(1/239)
    a5_lo, a5_hi = _atan_frac_bounds(Fraction(1, 5), 40)
    a239_lo, a239_hi = _atan_frac_bounds(Fraction(1, 239), 16)
    return 16 * a5_lo - 4 * a239_hi, 16 * a5_hi - 4 * a239_lo


_PI_LO_FR, _PI_HI_FR = _machin_pi_bounds()

PI = _frac_interval(_PI_LO_FR, _PI_HI_FR)
HALF_PI = _frac_interval(_PI_LO_FR / 2, _PI_HI_FR / 2)
TWO_PI = _frac_interval(2 * _PI_LO_FR, 2 * _PI_HI_FR)


_ATAN_TABLE_MAX = 48  # table covers atan(k/16) for k = 0..48, i.e. x <= 3


def _build_atan_table():
    """Enclosures of atan(k/16) for k = 0.._ATAN_TABLE_MAX."""
    table = [Interval(0.0)]
    for k in range(1, 12):
        lo, hi = _atan_frac_bounds(Fraction(k, 16), 96)
        table.append(_frac_interval(lo, hi))
    for k in range(12, _ATAN_TABLE_MAX + 1):
        # atan(x) = pi/4 + atan((x-1)/(x+1)), |(k-16)/(k+16)| <= 1/2
        lo, hi = _atan_frac_bounds(Fraction(k - 16, k + 16), 96)
        table.append(_frac_interval(_PI_LO_FR / 4 + lo, _PI_HI_FR / 4 + hi))
    return tuple(table)


_ATAN_TABLE = _build_atan_table()

_INV_FACT = tuple(
    _frac_interval(Fraction(1, math.factorial(n)), Fraction(1, math.factorial(n)))
    for n in range(20)
)


# ---------------------------------------------------------------------------
# atan
# ---------------------------------------------------------------------------


def _atan_core(u):
    """Enclosure of atan(u) for an interval u with |u| <= 0.05.

    Alternating Taylor series; the truncation error is below the first
    omitted term, which is added as a symmetric remainder.
    """
    n_terms = 6
    u2 = u.sqr()
    poly = Interval(0.0)
    for n in range(n_terms - 1, 0, -1):
        poly = Interval(1.0) / Interval(2 * n + 1) - u2 * poly
    poly = Interval(1.0) - u2 * poly
    val = u * poly
    umag = Interval(u.mag)
    rem = (umag ** (2 * n_terms + 1) / Interval(2 * n_terms + 1)).hi
    return val + Interval(-rem, rem)


def _atan_point(x):
    """Enclosure of atan(x) for a point binary64 x."""
    if x < 0.0:
        r = _atan_point(-x)
        return Interval(-r.hi, -r.lo)
    if x > 3.0:
        # atan(x) = pi/2 - atan(1/x), 1/x < 1/3
        inv = Interval(1.0) / Interval(x)
        inner = Interval(_atan_tabled(inv.lo).lo, _atan_tabled(inv.hi).hi)
        return HALF_PI - inner
    return _atan_tabled(x)


def _atan_tabled(x):
    """Enclosure of atan(x) for a point x in [0, 3] via the 1/16-grid table."""
    k = int(round(16.0 * x))
    c = k / 16.0  # exact
    if k == 0:
        return _atan_core(Interval(x))
    cx = Interval(c) * Interval(x)
    u = (Interval(x) - Interval(c)) / (Interval(1.0) + cx)
    return _ATAN_TABLE[k] + _atan_core(u)


# ---------------------------------------------------------------------------
# sin / cos
# ---------------------------------------------------------------------------

_BIG_ARG = 2.0**40


def _sin_core(r):
    """Enclosure of sin(r) for an interval r with |r| <= 1.7."""
    n_terms = 9  # highest used power: r^(2*9-1) = r^17
    r2 = r.sqr()
    poly = Interval(0.0)
    for n in range(n_terms - 1, 0, -1):
        poly = _INV_FACT[2 * n + 1] - r2 * poly
    val = r * (_INV_FACT[1] - r2 * poly)
    m = Interval(r.mag)
    rem = ((m ** (2 * n_terms + 1)) * _INV_FACT[2 * n_terms + 1]).hi
    out = val + Interval(-rem, rem)
    return Interval(max(out.lo, -1.0), min(out.hi, 1.0))


def _cos_core(r):
    """Enclosure of cos(r) for an interval r with |r| <= 1.7."""
    n_terms = 9  # highest used power: r^16
    r2 = r.sqr()
    poly = Interval(0.0)
    for n in range(n_terms - 1, 0, -1):
        poly = _INV_FACT[2 * n] - r2 * poly
    val = Interval(1.0) - r2 * poly
    m = Interval(r.mag)
    rem = ((m ** (2 * n_terms)) * _INV_FACT[2 * n_terms]).hi
    out = val + Interval(-rem, rem)
    return Interval(max(out.lo, -1.0), min(out.hi, 1.0))


def _sin_point(x):
    """Enclosure of sin(x) for a point binary64 x of moderate size."""
    k = round(x / 1.5707963267948966)
    r = Interval(x) - Interval(float(k)) * HALF_PI
    q = k % 4
    if q == 0:
        return _sin_core(r)
    if q == 1:
        return _cos_core(r)
    if q == 2:
        return -_sin_core(r)
    return -_cos_core(r)


def _sin_interval(x):
    if x.mag > _BIG_ARG:
        return Interval(-1.0, 1.0)
    if x.width >= TWO_PI.hi:
        return Interval(-1.0, 1.0)
    out = _sin_point(x.lo).hull(_sin_point(x.hi))
    lo, hi = out.lo, out.hi
    # Interior extrema: sin has maxima at pi/2 + 2 pi m, minima at -pi/2 + 2 pi m.
    two_pi = 6.283185307179586
    for sign, center in ((1.0, 1.5707963267948966), (-1.0, -1.5707963267948966)):
        m0 = math.floor((x.lo - center) / two_pi) - 1
        m1 = math.ceil((x.hi - center) / two_pi) + 1
        for m in range(m0, m1 + 1):
            crit = (HALF_PI if sign > 0 else -HALF_PI) + Interval(float(m)) * TWO_PI
            if crit.lo <= x.hi and crit.hi >= x.lo:
                if sign > 0:
                    hi = 1.0
                else:
                    lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def ulp(x):
    """The gap from |x| to the next larger float; convenience for tests."""
    ax = abs(x)
    return math.nextafter(ax, math.inf) - ax
