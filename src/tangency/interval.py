"""Rigorous scalar interval arithmetic with outward rounding.

An :class:`Interval` is a closed interval ``[lo, hi]`` of binary64 numbers.
Every operation returns an interval containing the exact real result for all
points of the operands (enclosure soundness); rounding is outward via the
kernels in :mod:`tangency.kernels`.  Float bounds are taken as given; int and
Fraction bounds are rounded outward, and strings are rejected.  Non-finite
bounds are construction errors: a proof pipeline must fail loudly rather than
propagate infinities.

sqrt is a directed-rounding kernel.  The maps and the projective slope
chart are rational, so the proof calls no elementary function.

All values are immutable; operations are pure and thread-safe.

The matrices, the maps' closed forms and the Cholesky runs of the other
modules keep their entries as plain ``(lo, hi)`` float pairs and call the kernels on them
directly; :func:`as_pair`, :func:`pair_mid` and :func:`check_pairs` are the
conversions and checks they share with this class.
"""

from __future__ import annotations

import math
from fractions import Fraction

from tangency import kernels as _k


_INF = math.inf


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
        return pair_mid(self.lo, self.hi)

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
        return Interval(*_k.iadd((self.lo, self.hi), (o.lo, o.hi)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(*_k.isub((self.lo, self.hi), (o.lo, o.hi)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(*_k.isub((o.lo, o.hi), (self.lo, self.hi)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(*_k.imul((self.lo, self.hi), (o.lo, o.hi)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.contains_zero():
            raise IntervalError(f"division by zero-containing interval {o!r}")
        return Interval(*_k.idiv((self.lo, self.hi), (o.lo, o.hi)))

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
        return Interval(*_k.isqr((self.lo, self.hi)))

    def sqrt(self):
        if self.lo < 0.0:
            raise IntervalError(f"sqrt of negative-containing interval {self!r}")
        return Interval(*_k.isqrt((self.lo, self.hi)))


def as_pair(x):
    """The (lo, hi) bounds of the Interval x, or of an outward enclosure of
    the number x; an Interval or a finite float gives them without building
    an Interval."""
    if isinstance(x, Interval):
        return x.lo, x.hi
    if type(x) is not float or not math.isfinite(x):
        x = Interval(x)
        return x.lo, x.hi
    return x, x


def pair_mid(lo, hi):
    """A float in [lo, hi] next to the midpoint (Interval.mid)."""
    m = 0.5 * (lo + hi)
    if not math.isfinite(m):
        m = 0.5 * lo + 0.5 * hi
    if m < lo:
        return lo
    if m > hi:
        return hi
    return m


def check_pairs(pairs):
    """pairs itself, after the checks Interval's constructor makes: every
    (lo, hi) finite with lo <= hi.  The kernels return an infinite bound on
    overflow (and a NaN from 0 * inf), so pairs they computed are checked
    before they are stored."""
    for lo, hi in pairs:
        if not -_INF < lo <= hi < _INF:
            raise IntervalError(f"non-finite or inverted interval bounds: [{lo}, {hi}]")
    return pairs


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
    """The largest float at most the Fraction fr."""
    f = float(fr)  # CPython int/int division: correctly rounded
    if not math.isfinite(f):
        raise IntervalError("constant out of float range")
    if Fraction(f) > fr:
        return math.nextafter(f, -math.inf)
    return f


def _float_up(fr):
    """The smallest float at least the Fraction fr."""
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


# ---------------------------------------------------------------------------
# Float kernels with a priori error bounds.
# ---------------------------------------------------------------------------

# Series coefficients, rounded to nearest from exact rationals (CPython's
# Fraction -> float conversion is correctly rounded), highest degree first.
_SIN_POLY = tuple(
    float(Fraction((-1) ** (i + 1), math.factorial(2 * i + 3))) for i in range(7, -1, -1)
)
_COS_POLY = tuple(
    float(Fraction((-1) ** (i + 1), math.factorial(2 * i + 2))) for i in range(7, -1, -1)
)

# Error constants K of the kernels, in units of u = 2**-53; see _sin_kernel.
_SIN_K = 0.78 * 2.0**-53  # derived: 0.7747 u, for |r| <= 0.8
_COS_K = 1.67 * 2.0**-53  # derived: 1.6638 u, for |r| <= 0.8

_TINY_ARG = 2.0**-27  # below it a kernel returns the series' leading term


def _horner(poly, z):
    p = 0.0
    for a in poly:
        p = p * z + a
    return p


def _sin_kernel(r):
    """(y, e) with |sin r - y| <= e, for a float |r| <= 0.8.

    sin r = r + r·z·P(z) + tau with z = r², where P, with exact
    coefficients b_i, holds the series' first 8 terms after r, and tau is
    the alternating tail, at most the first omitted term:
    |tau| <= |r|·z·z^8/19!.  The analysis assumes IEEE binary64 with
    round-to-nearest and every operation rounded once.  The float steps run
    in a ``kernels.nearest()`` block, so they round to nearest inside the
    upward-rounding blocks of the proof too, and CPython guarantees the
    rest: each float operation of a Python expression is one C double
    operation, so none is contracted into an FMA or kept in extended
    precision (the directed-rounding kernels in ``tangency.kernels`` rest on
    the same fact).  With u = 2**-53 and g_k = k·u/(1 - k·u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, §3.1, §5.1):

    1. zh = fl(r·r) = z·(1 + d) with |d| <= u.
    2. Horner at zh over the float coefficients a_i (polynomial P~) gives
       ph = Σ a_i·zh^i·(1 + theta_(2i+1)) (Higham (5.3)), so
       |ph - P~(zh)| <= H = Σ g_(2i+1)·|a_i|·zh^i.
    3. The a_i are the b_i rounded to nearest: |P~(zh) - P(zh)| <= R =
       Σ |a_i - b_i|·zh^i.
    4. Rounding z: |P(zh) - P(z)| <= D = u·z·max|P'|.
    5. c = fl(r·fl(zh·ph)) = r·z·ph·(1 + theta_3), and |P(z)| <= |b_0|
       (alternating series with decreasing terms), so
       |c - r·z·P(z)| <= |r|·z·(g_3·|b_0| + (1 + g_3)·(H + R + D)).
    6. y = fl(r + c) with |c| < |r|: Fast2Sum (Dekker, 1971) makes
       t = c - (y - r) exact, y + t = r + c.

    Hence |sin r - y| <= K·|r|·z + |t|, where K bounds the bracket of step
    5 plus |tau|/(|r|·z); H, R, D and the tail grow with z, so K is their
    sum at the largest z: 0.7747u.  The constant rounds K up to three
    digits; that margin (at least 0.3%, where 3u would do) covers the
    rounding of fl(K·fl(|r|·zh)), at most a factor (1 - u)**3 below
    K·|r|·z, and the sum with |t| is rounded up.  Because |c| <= 0.11·|r|,
    the g_k reach only the correction term: the bound is a fraction of
    u·|r| plus the final rounding |t|, not g_18·|r|.

    For |r| >= 2**-27 every intermediate is a normal number, so the
    relative error model holds.  Below it the kernel returns r itself:
    |sin r - r| <= |r|³/6, under 2**-54·|r|.
    """
    if abs(r) < _TINY_ARG:
        return r, _k.mul_up(abs(r), 2.0**-54)
    with _k.nearest():
        z = r * r
        c = r * (z * _horner(_SIN_POLY, z))
        y = r + c
        t = c - (y - r)
        e = _SIN_K * (abs(r) * z)
    return y, _k.add_up(e, abs(t))


def _cos_kernel(r):
    """(y, e) with |cos r - y| <= e, for a float |r| <= 0.8.

    cos r = 1 + z·C(z) + tau with z = r², C the series' first 8 terms after
    1 and |tau| <= z·z^8/18!.  The analysis of :func:`_sin_kernel` applies
    with one product fewer: d = fl(zh·ph) = z·ph·(1 + theta_2), so
    |d - z·C(z)| <= z·(g_2/2 + (1 + g_2)·(H + R + D)), |d| < 1 makes
    t = d - (y - 1) exact, and |cos r - y| <= K·z + |t| with K = 1.6638u.
    For |r| < 2**-27 the kernel returns 1 with |cos r - 1| <= r²/2.
    """
    if abs(r) < _TINY_ARG:
        return 1.0, _k.mul_up(r, r)
    with _k.nearest():
        z = r * r
        d = z * _horner(_COS_POLY, z)
        y = 1.0 + d
        t = d - (y - 1.0)
        e = _COS_K * z
    return y, _k.add_up(e, abs(t))


# ---------------------------------------------------------------------------
# sin / cos at a point (Rump, "Rigorous and portable standard functions",
# BIT 41, 2001); no caller in the proof.
# ---------------------------------------------------------------------------

_HALF_PI_F = 1.5707963267948966  # fl(pi/2); picks quadrants, proves nothing


def _sin_bounds(x, shift):
    """(lo, hi) enclosing sin(x + shift·pi/2) at a float x.

    Shift 0 gives sin x, shift 1 gives cos x.  With k = round(x/fl(pi/2)),
    r = x - k·pi/2 is enclosed in [r_lo, r_hi] from HALF_PI's endpoints with
    directed rounding (r = x exactly when k == 0), and sin(x + shift·pi/2)
    is ±sin r or ±cos r by the quadrant (k + shift) mod 4.  On |r| <= 0.8
    sin increases with r and cos decreases with |r|, so each bound takes one
    kernel evaluation at an end of [r_lo, r_hi] (cos's upper one at 0 when
    the enclosure straddles it), and a thin r takes one in all.  For
    |x| <= 2**40, k·width(HALF_PI) <= 1.5e-4, so |r| <= 0.8 holds; it is
    checked all the same, and a larger x whose reduction fails raises
    IntervalError.
    """
    k = round(x / _HALF_PI_F)
    if k == 0:
        r_lo = r_hi = x
    else:
        p_lo, p_hi = _k.imul((float(k), float(k)), (HALF_PI.lo, HALF_PI.hi))
        r_lo = _k.sub_down(x, p_hi)
        r_hi = _k.sub_up(x, p_lo)
    if r_lo < -0.8 or r_hi > 0.8:
        raise IntervalError(f"sin/cos argument reduction failed at {x!r}")
    q = (k + shift) % 4
    if q % 2 == 0:
        y, e = _sin_kernel(r_lo)
        lo = _k.sub_down(y, e)
        if r_hi != r_lo:
            y, e = _sin_kernel(r_hi)
        hi = _k.add_up(y, e)
    else:
        far = max(-r_lo, r_hi)
        near = 0.0 if r_lo <= 0.0 <= r_hi else min(abs(r_lo), abs(r_hi))
        y, e = _cos_kernel(far)
        lo = _k.sub_down(y, e)
        if near != far:
            y, e = _cos_kernel(near)
        hi = _k.add_up(y, e)
    if q >= 2:
        lo, hi = -hi, -lo
    return max(lo, -1.0), min(hi, 1.0)


def ulp(x):
    """The gap from |x| to the next larger float; convenience for tests."""
    ax = abs(x)
    return math.nextafter(ax, math.inf) - ax
