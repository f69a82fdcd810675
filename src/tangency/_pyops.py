"""Directed-rounding kernels.

Every kernel returns a directed rounding (toward -inf / +inf) of the exact
real result of one binary64 operation.  Exact results are detected with
error-free transformations (TwoSum, Dekker's product) and returned without
widening; otherwise the nearest-rounded result is nudged one ulp outward,
which is always sound.  The error-free transformations are only trusted
inside a conservative exponent window; outside it we widen unconditionally.
"""

import math
import sys

_INF = math.inf
_MAX = sys.float_info.max
_TINY = 5e-324  # smallest subnormal

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant
_SAFE_LO = 2.0**-500
_SAFE_HI = 2.0**500


def _prod_err(a, b, p):
    # Exact residual of p = fl(a*b); caller guarantees the safe range.
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def add_down(a, b):
    s = a + b
    if s == _INF:
        return _MAX
    if s == -_INF:
        return -_INF
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    if err < 0.0:
        return math.nextafter(s, -_INF)
    return s


def add_up(a, b):
    s = a + b
    if s == _INF:
        return _INF
    if s == -_INF:
        return -_MAX
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    if err > 0.0:
        return math.nextafter(s, _INF)
    return s


def sub_down(a, b):
    return add_down(a, -b)


def sub_up(a, b):
    return add_up(a, -b)


def mul_down(a, b):
    p = a * b
    if p == _INF:
        return _MAX
    if p == -_INF:
        return -_INF
    if p == 0.0:
        if a == 0.0 or b == 0.0:
            return 0.0
        return -_TINY if (a < 0.0) != (b < 0.0) else 0.0
    if _SAFE_LO < abs(p) < _SAFE_HI and abs(a) < _SAFE_HI and abs(b) < _SAFE_HI:
        if _prod_err(a, b, p) >= 0.0:
            return p
    return math.nextafter(p, -_INF)


def mul_up(a, b):
    p = a * b
    if p == _INF:
        return _INF
    if p == -_INF:
        return -_MAX
    if p == 0.0:
        if a == 0.0 or b == 0.0:
            return 0.0
        return _TINY if (a < 0.0) == (b < 0.0) else 0.0
    if _SAFE_LO < abs(p) < _SAFE_HI and abs(a) < _SAFE_HI and abs(b) < _SAFE_HI:
        if _prod_err(a, b, p) <= 0.0:
            return p
    return math.nextafter(p, _INF)


def _div_exact(a, b, q):
    # True iff q = a/b exactly, decided via the product residual of q*b.
    if not (_SAFE_LO < abs(a) < _SAFE_HI and abs(b) < _SAFE_HI and abs(q) < _SAFE_HI):
        return False
    p = q * b
    return p == a and _prod_err(q, b, p) == 0.0


def div_down(a, b):
    q = a / b
    if q == _INF:
        return _MAX
    if q == -_INF:
        return -_INF
    if q == 0.0:
        if a == 0.0:
            return 0.0
        return -_TINY if (a < 0.0) != (b < 0.0) else 0.0
    if _div_exact(a, b, q):
        return q
    return math.nextafter(q, -_INF)


def div_up(a, b):
    q = a / b
    if q == _INF:
        return _INF
    if q == -_INF:
        return -_MAX
    if q == 0.0:
        if a == 0.0:
            return 0.0
        return _TINY if (a < 0.0) == (b < 0.0) else 0.0
    if _div_exact(a, b, q):
        return q
    return math.nextafter(q, _INF)


def sqrt_down(x):
    if x == 0.0:
        return 0.0
    s = math.sqrt(x)
    if _SAFE_LO < x < _SAFE_HI:
        p = s * s
        if p == x and _prod_err(s, s, p) == 0.0:
            return s
    return math.nextafter(s, -_INF)


def sqrt_up(x):
    if x == 0.0:
        return 0.0
    s = math.sqrt(x)
    if _SAFE_LO < x < _SAFE_HI:
        p = s * s
        if p == x and _prod_err(s, s, p) == 0.0:
            return s
    return math.nextafter(s, _INF)


# The interval kernels return at once when an operand is an exact zero pair
# (both bounds +-0.0).  A sum or difference with one is the plain float sum,
# which is exact; a product, or a quotient of one, is (0.0, 0.0).  These are
# the bits the directed-rounding path gives for every finite operand and for
# a -inf lower / +inf upper bound; only a zero times an infinite bound
# differs, giving the exact (0.0, 0.0) where that path gives NaN.


def iadd(al, ah, bl, bh):
    if not (al or ah) or not (bl or bh):
        return al + bl, ah + bh
    return add_down(al, bl), add_up(ah, bh)


def isub(al, ah, bl, bh):
    if not (al or ah) or not (bl or bh):
        return al - bh, ah - bl
    return add_down(al, -bh), add_up(ah, -bl)


def imul(al, ah, bl, bh):
    if not (al or ah) or not (bl or bh):
        return 0.0, 0.0
    if al >= 0.0:
        if bl >= 0.0:
            return mul_down(al, bl), mul_up(ah, bh)
        if bh <= 0.0:
            return mul_down(ah, bl), mul_up(al, bh)
        return mul_down(ah, bl), mul_up(ah, bh)
    if ah <= 0.0:
        if bl >= 0.0:
            return mul_down(al, bh), mul_up(ah, bl)
        if bh <= 0.0:
            return mul_down(ah, bh), mul_up(al, bl)
        return mul_down(al, bh), mul_up(al, bl)
    if bl >= 0.0:
        return mul_down(al, bh), mul_up(ah, bh)
    if bh <= 0.0:
        return mul_down(ah, bl), mul_up(al, bl)
    lo1 = mul_down(al, bh)
    lo2 = mul_down(ah, bl)
    hi1 = mul_up(al, bl)
    hi2 = mul_up(ah, bh)
    return (lo1 if lo1 <= lo2 else lo2), (hi1 if hi1 >= hi2 else hi2)


def idiv(al, ah, bl, bh):
    # Caller guarantees 0 is outside [bl, bh].
    if not (al or ah):
        return 0.0, 0.0
    if bl > 0.0:
        lo = div_down(al, bh if al >= 0.0 else bl)
        hi = div_up(ah, bl if ah >= 0.0 else bh)
        return lo, hi
    lo = div_down(ah, bh if ah >= 0.0 else bl)
    hi = div_up(al, bl if al >= 0.0 else bh)
    return lo, hi


def isqr(al, ah):
    if al >= 0.0:
        return mul_down(al, al), mul_up(ah, ah)
    if ah <= 0.0:
        return mul_down(ah, ah), mul_up(al, al)
    h1 = mul_up(al, al)
    h2 = mul_up(ah, ah)
    return 0.0, (h1 if h1 >= h2 else h2)


def isqrt(al, ah):
    # Caller guarantees al >= 0.
    return sqrt_down(al), sqrt_up(ah)
