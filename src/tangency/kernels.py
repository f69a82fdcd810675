"""Directed-rounding kernels, run with the FPU rounding upward, and the
rounding-mode blocks.

Every kernel returns the directed rounding (toward -inf / +inf) of the exact
real result of one binary64 operation: the tightest float bound.  The
kernels run under IEEE 754 roundTowardPositive, set with libc's
``fesetround`` through ``ctypes``, so an upper bound is one float operation
and a lower bound its negated mirror, RD(a*b) = 0.0 - RU((-a)*b) (Rump,
"Fast and parallel interval arithmetic", BIT 39, 1999).  ``sqrt_down`` steps
one float down from RU(sqrt x) unless that is exact.

``with upward():`` runs a block under upward rounding and ``with
nearest():`` one under round-to-nearest; each puts back the mode it found.
Every kernel first checks the mode (1.0 + 2**-60 rounds to 1.0 in every
other mode) and, called outside an upward block, sets it for that one call
(``_upward_call``): sound anywhere, only slower.  Inside an upward block
every float operation of Python rounds upward, so code whose analysis
assumes round-to-nearest runs in a nearest block, and none parses a float
from a string (``float()`` parsing rounds wrongly there) or imports a module
(which compiles its float literals).  The mode is per thread.

Zero signs: a lower bound 0.0 - x is never -0.0, and an upper bound that
may be a product's or a quotient's zero gets + 0.0, so that one is never
-0.0 either; a sum's upper bound is -0.0 only when both addends are.
``imul`` returns (0.0, 0.0) at once for an exact-zero operand pair, which is
also the exact product with an infinite bound, where the full path gives
NaN.

The interval kernels take and return (lo, hi) pairs: ``iadd``, ``isub``,
``imul`` and ``idiv`` two, ``isqr`` and ``isqrt`` one, so one dot-product
term is ``acc = iadd(acc, imul(a, b))``; the scalar kernels take floats.  A
pair star-unpacked into a call builds an argument tuple, a call CPython 3.11
does not specialise: with 2 x86_64 cores and CPython 3.11.7, in an upward
block, ``imul(*a, *b)`` on four floats took 293 ns and ``imul(a, b)`` 162
ns, and the term ``iadd(*acc, *imul(*a, *b))`` 531 ns against 288 ns.

The FE_* constants are those of the platform's <fenv.h>; an unsupported
machine is an ImportError, and so is a libc whose modes fail the probe.

Callers use the kernels through this module's namespace (``from tangency
import kernels as _k``), so a name replaced here, for instance to count
calls, reaches every caller, and also the replaced kernel's own per-call
fallback, which names it through the same namespace.  The proofs call no
kernel outside an upward block (``prove henon`` at grids 1 and 2 and
``check-toy`` take no fallback), so a replaced kernel counts the proofs'
calls once each.
"""

import ctypes
import math
import os

# (FE_UPWARD, FE_TONEAREST) per machine, as os.uname() and platform.machine()
# name it
_FE_MODES = {"x86_64": (0x800, 0), "aarch64": (0x400000, 0)}

_MACHINE = os.uname().machine
if _MACHINE not in _FE_MODES:
    raise ImportError(f"tangency: no FPU rounding-mode constants for machine {_MACHINE!r}")
_FE_UPWARD, _FE_TONEAREST = _FE_MODES[_MACHINE]
try:
    _LIBC = ctypes.CDLL(None)
    _fesetround, _fegetround = _LIBC.fesetround, _LIBC.fegetround
except (OSError, AttributeError) as exc:
    raise ImportError(f"tangency: no fesetround in the C library on {_MACHINE!r}") from exc

_INF = math.inf
_ONE = 1.0
_STEP = 2.0**-60  # 1.0 + _STEP != 1.0 only when rounding upward
_sqrt = math.sqrt
_nextafter = math.nextafter

BACKEND = "python"


class _RoundingMode:
    __slots__ = ("_saved",)

    def __enter__(self):
        self._saved = _fegetround()
        _fesetround(self._MODE)
        return self

    def __exit__(self, *exc):
        _fesetround(self._saved)


class upward(_RoundingMode):
    """``with upward():`` runs the block with the FPU rounding upward."""

    __slots__ = ()
    _MODE = _FE_UPWARD


class nearest(_RoundingMode):
    """``with nearest():`` runs the block with the FPU rounding to nearest."""

    __slots__ = ()
    _MODE = _FE_TONEAREST


def _upward_call(kernel, *args):
    """kernel(*args) with the FPU rounding upward for this call only, set
    here and not through the name upward, which a caller may replace."""
    saved = _fegetround()
    _fesetround(_FE_UPWARD)
    try:
        return kernel(*args)
    finally:
        _fesetround(saved)


with upward():
    _UP = _ONE + _STEP != _ONE and _fegetround() == _FE_UPWARD
with nearest():
    _NEAR = _ONE + _STEP == _ONE and _fegetround() == _FE_TONEAREST
if not (_UP and _NEAR):
    raise ImportError(f"tangency: fesetround does not set the FPU rounding on {_MACHINE!r}")


def add_down(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(add_down, a, b)
    return 0.0 - (-a - b)


def add_up(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(add_up, a, b)
    return a + b


def sub_down(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(sub_down, a, b)
    return 0.0 - (b - a)


def sub_up(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(sub_up, a, b)
    return a - b


def mul_down(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(mul_down, a, b)
    return 0.0 - (-a) * b


def mul_up(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(mul_up, a, b)
    return a * b + 0.0


def div_down(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(div_down, a, b)
    return 0.0 - (-a) / b


def div_up(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(div_up, a, b)
    return a / b + 0.0


def sqrt_down(x):
    if _ONE + _STEP == _ONE:
        return _upward_call(sqrt_down, x)
    s = _sqrt(x)
    return s + 0.0 if s * s == x else _nextafter(s, -_INF)


def sqrt_up(x):
    if _ONE + _STEP == _ONE:
        return _upward_call(sqrt_up, x)
    return _sqrt(x) + 0.0


# The interval kernels write out the scalar kernels' operations, so their
# bounds are those of the scalar kernels bit for bit.


def iadd(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(iadd, a, b)
    al, ah = a
    bl, bh = b
    return 0.0 - (-al - bl), ah + bh


def isub(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(isub, a, b)
    al, ah = a
    bl, bh = b
    return 0.0 - (bh - al), ah - bl


def imul(a, b):
    if _ONE + _STEP == _ONE:
        return _upward_call(imul, a, b)
    al, ah = a
    bl, bh = b
    if not (al or ah) or not (bl or bh):
        return 0.0, 0.0
    if al >= 0.0:
        if bl >= 0.0:
            return 0.0 - (-al) * bl, ah * bh + 0.0
        if bh <= 0.0:
            return 0.0 - (-ah) * bl, al * bh + 0.0
        return 0.0 - (-ah) * bl, ah * bh + 0.0
    if ah <= 0.0:
        if bl >= 0.0:
            return 0.0 - (-al) * bh, ah * bl + 0.0
        if bh <= 0.0:
            return 0.0 - (-ah) * bh, al * bl + 0.0
        return 0.0 - (-al) * bh, al * bl + 0.0
    if bl >= 0.0:
        return 0.0 - (-al) * bh, ah * bh + 0.0
    if bh <= 0.0:
        return 0.0 - (-ah) * bl, al * bl + 0.0
    # 0 inside both: every product below is nonzero
    n1, n2 = (-al) * bh, (-ah) * bl
    p1, p2 = al * bl, ah * bh
    return -(n1 if n1 >= n2 else n2), (p1 if p1 >= p2 else p2)


def idiv(a, b):
    # Caller guarantees 0 is outside b.
    if _ONE + _STEP == _ONE:
        return _upward_call(idiv, a, b)
    al, ah = a
    bl, bh = b
    if bl > 0.0:
        return (0.0 - (-al) / (bh if al >= 0.0 else bl),
                ah / (bl if ah >= 0.0 else bh) + 0.0)
    return (0.0 - (-ah) / (bh if ah >= 0.0 else bl),
            al / (bl if al >= 0.0 else bh) + 0.0)


def isqr(a):
    if _ONE + _STEP == _ONE:
        return _upward_call(isqr, a)
    al, ah = a
    if al >= 0.0:
        return 0.0 - (-al) * al, ah * ah + 0.0
    if ah <= 0.0:
        return 0.0 - (-ah) * ah, al * al + 0.0
    h1, h2 = al * al, ah * ah
    return 0.0, (h1 if h1 >= h2 else h2)


def isqrt(a):
    # Caller guarantees a[0] >= 0.
    if _ONE + _STEP == _ONE:
        return _upward_call(isqrt, a)
    al, ah = a
    s = _sqrt(al)
    return (s + 0.0 if s * s == al else _nextafter(s, -_INF)), _sqrt(ah) + 0.0
