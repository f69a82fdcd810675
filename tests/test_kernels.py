"""Directed-rounding kernel correctness."""

import math
import random
from fractions import Fraction

import tangency
from tangency import _pyops, kernels
from conftest import random_float

KERNELS = (
    "add_down", "add_up", "sub_down", "sub_up", "mul_down", "mul_up",
    "div_down", "div_up", "sqrt_down", "sqrt_up",
    "iadd", "isub", "imul", "idiv", "isqr", "isqrt",
)


def test_kernels_module_reexports_every_kernel():
    assert tangency.BACKEND == kernels.BACKEND == "python"
    for name in KERNELS:
        assert getattr(kernels, name) is getattr(_pyops, name), name


def test_directed_soundness_against_rationals():
    rng = random.Random(7)
    for _ in range(20000):
        a, b = random_float(rng), random_float(rng)
        fa, fb = Fraction(a), Fraction(b)
        cases = [
            (fa + fb, _pyops.add_down(a, b), _pyops.add_up(a, b)),
            (fa - fb, _pyops.sub_down(a, b), _pyops.sub_up(a, b)),
            (fa * fb, _pyops.mul_down(a, b), _pyops.mul_up(a, b)),
        ]
        if b != 0.0:
            cases.append((fa / fb, _pyops.div_down(a, b), _pyops.div_up(a, b)))
        for exact, lo, hi in cases:
            if math.isinf(lo) or math.isinf(hi):
                continue
            assert Fraction(lo) <= exact <= Fraction(hi)


def test_sqrt_soundness_against_rationals():
    rng = random.Random(8)
    for _ in range(10000):
        x = abs(random_float(rng))
        lo, hi = _pyops.sqrt_down(x), _pyops.sqrt_up(x)
        fx = Fraction(x)
        assert Fraction(lo) ** 2 <= fx
        assert Fraction(hi) ** 2 >= fx


def test_exact_results_stay_exact():
    assert _pyops.add_down(1.0, 3.0) == 4.0 == _pyops.add_up(1.0, 3.0)
    assert _pyops.sub_down(10.0, 3.0) == 7.0 == _pyops.sub_up(10.0, 3.0)
    assert _pyops.mul_down(2.0, 3.0) == 6.0 == _pyops.mul_up(2.0, 3.0)
    assert _pyops.div_down(1.0, 2.0) == 0.5 == _pyops.div_up(1.0, 2.0)
    assert _pyops.sqrt_down(4.0) == 2.0 == _pyops.sqrt_up(4.0)
    assert _pyops.add_down(0.0, 0.3) == 0.3 == _pyops.add_up(0.0, 0.3)


def test_directed_rounding_is_at_most_one_ulp():
    rng = random.Random(9)
    for _ in range(5000):
        a, b = random_float(rng), random_float(rng)
        for down, up, op in (
            (_pyops.add_down, _pyops.add_up, lambda: a + b),
            (_pyops.mul_down, _pyops.mul_up, lambda: a * b),
        ):
            nearest = op()
            if not math.isfinite(nearest):
                continue
            lo, hi = down(a, b), up(a, b)
            assert lo <= nearest <= hi
            assert math.nextafter(lo, math.inf) >= nearest
            assert math.nextafter(hi, -math.inf) <= nearest


def test_overflow_produces_nonfinite_for_ctor_to_reject():
    big = 1.7e308
    assert _pyops.add_up(big, big) == math.inf
    assert _pyops.add_down(big, big) == 1.7976931348623157e308
    assert _pyops.add_down(-big, -big) == -math.inf
    assert _pyops.mul_up(big, 2.0) == math.inf


def test_underflow_rounds_outward():
    tiny = 1e-320
    lo = _pyops.mul_down(tiny, 1e-10)
    hi = _pyops.mul_up(tiny, 1e-10)
    assert lo <= 0.0 < hi
    lo = _pyops.mul_down(-tiny, 1e-10)
    hi = _pyops.mul_up(-tiny, 1e-10)
    assert lo < 0.0 <= hi
