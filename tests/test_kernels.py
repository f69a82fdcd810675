"""Directed-rounding kernel correctness."""

import ast
import contextlib
import inspect
import io
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tangency
from tangency import hset, kernels
from tangency.cli import main
from tangency.interval import _sin_bounds
from conftest import random_float

KERNELS = (
    "add_down", "add_up", "sub_down", "sub_up", "mul_down", "mul_up",
    "div_down", "div_up", "sqrt_down", "sqrt_up",
    "iadd", "isub", "imul", "idiv", "isqr", "isqrt", "upward", "nearest",
)


def test_kernels_module_reexports_every_kernel():
    # The kernels module is the one backend: every kernel and block is
    # defined there, and the package names its backend.
    assert tangency.BACKEND == kernels.BACKEND == "python"
    for name in KERNELS:
        assert getattr(kernels, name).__module__ == "tangency.kernels", name


def test_directed_soundness_against_rationals():
    rng = random.Random(7)
    for _ in range(20000):
        a, b = random_float(rng), random_float(rng)
        fa, fb = Fraction(a), Fraction(b)
        cases = [
            (fa + fb, kernels.add_down(a, b), kernels.add_up(a, b)),
            (fa - fb, kernels.sub_down(a, b), kernels.sub_up(a, b)),
            (fa * fb, kernels.mul_down(a, b), kernels.mul_up(a, b)),
        ]
        if b != 0.0:
            cases.append((fa / fb, kernels.div_down(a, b), kernels.div_up(a, b)))
        for exact, lo, hi in cases:
            if math.isinf(lo) or math.isinf(hi):
                continue
            assert Fraction(lo) <= exact <= Fraction(hi)


def test_sqrt_soundness_against_rationals():
    rng = random.Random(8)
    for _ in range(10000):
        x = abs(random_float(rng))
        lo, hi = kernels.sqrt_down(x), kernels.sqrt_up(x)
        fx = Fraction(x)
        assert Fraction(lo) ** 2 <= fx
        assert Fraction(hi) ** 2 >= fx


def test_exact_results_stay_exact():
    assert kernels.add_down(1.0, 3.0) == 4.0 == kernels.add_up(1.0, 3.0)
    assert kernels.sub_down(10.0, 3.0) == 7.0 == kernels.sub_up(10.0, 3.0)
    assert kernels.mul_down(2.0, 3.0) == 6.0 == kernels.mul_up(2.0, 3.0)
    assert kernels.div_down(1.0, 2.0) == 0.5 == kernels.div_up(1.0, 2.0)
    assert kernels.sqrt_down(4.0) == 2.0 == kernels.sqrt_up(4.0)
    assert kernels.add_down(0.0, 0.3) == 0.3 == kernels.add_up(0.0, 0.3)


def test_directed_rounding_is_at_most_one_ulp():
    rng = random.Random(9)
    for _ in range(5000):
        a, b = random_float(rng), random_float(rng)
        for down, up, op in (
            (kernels.add_down, kernels.add_up, lambda: a + b),
            (kernels.mul_down, kernels.mul_up, lambda: a * b),
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
    assert kernels.add_up(big, big) == math.inf
    assert kernels.add_down(big, big) == 1.7976931348623157e308
    assert kernels.add_down(-big, -big) == -math.inf
    assert kernels.mul_up(big, 2.0) == math.inf


def test_underflow_rounds_outward():
    tiny = 1e-320
    lo = kernels.mul_down(tiny, 1e-10)
    hi = kernels.mul_up(tiny, 1e-10)
    assert lo <= 0.0 < hi
    lo = kernels.mul_down(-tiny, 1e-10)
    hi = kernels.mul_up(-tiny, 1e-10)
    assert lo < 0.0 <= hi


# -- exact-zero operands ------------------------------------------------------

ZERO_PAIRS = ((0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0))
_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308)


def _random_pair(rng, infinite=False):
    """A kernel-style bound pair: thin or thick, any sign, signed zeros,
    subnormal and huge bounds; with infinite, also a -inf lower or a +inf
    upper bound, as the kernels give on overflow."""
    draw = lambda: rng.choice(_EXTREMES) if rng.random() < 0.15 else random_float(rng)  # noqa: E731
    lo = draw()
    hi = lo if rng.random() < 0.3 else draw()
    lo, hi = min(lo, hi), max(lo, hi)
    if infinite and rng.random() < 0.3:
        if rng.random() < 0.5:
            lo = -math.inf
        else:
            hi = math.inf
    return lo, hi


# The full-path references: the scalar kernels on (lo, hi) pairs.


def _iadd_full(a, b):
    return kernels.add_down(a[0], b[0]), kernels.add_up(a[1], b[1])


def _isub_full(a, b):
    return kernels.add_down(a[0], -b[1]), kernels.add_up(a[1], -b[0])


def _imul_full(a, b):
    # imul's sign-case analysis, without its exact-zero return.
    (al, ah), (bl, bh) = a, b
    down, up = kernels.mul_down, kernels.mul_up
    if al >= 0.0:
        if bl >= 0.0:
            return down(al, bl), up(ah, bh)
        if bh <= 0.0:
            return down(ah, bl), up(al, bh)
        return down(ah, bl), up(ah, bh)
    if ah <= 0.0:
        if bl >= 0.0:
            return down(al, bh), up(ah, bl)
        if bh <= 0.0:
            return down(ah, bh), up(al, bl)
        return down(al, bh), up(al, bl)
    if bl >= 0.0:
        return down(al, bh), up(ah, bh)
    if bh <= 0.0:
        return down(ah, bl), up(al, bl)
    lo1, lo2 = down(al, bh), down(ah, bl)
    hi1, hi2 = up(al, bl), up(ah, bh)
    return (lo1 if lo1 <= lo2 else lo2), (hi1 if hi1 >= hi2 else hi2)


def _idiv_full(a, b):
    (al, ah), (bl, bh) = a, b
    if bl > 0.0:
        return (kernels.div_down(al, bh if al >= 0.0 else bl),
                kernels.div_up(ah, bl if ah >= 0.0 else bh))
    return (kernels.div_down(ah, bh if ah >= 0.0 else bl),
            kernels.div_up(al, bl if al >= 0.0 else bh))


def _hex(pair):
    return tuple(x.hex() for x in pair)


class TestExactZeroShortCircuit:
    """iadd, isub, imul and idiv return at once on an exact-zero operand
    pair, with the bits of the directed-rounding path."""

    def test_sums_and_differences_match_the_full_path(self, rng):
        others = [_random_pair(rng, infinite=True) for _ in range(3000)]
        for z in ZERO_PAIRS:
            for b in list(ZERO_PAIRS) + others:
                for kernel, full in ((kernels.iadd, _iadd_full), (kernels.isub, _isub_full)):
                    assert _hex(kernel(z, b)) == _hex(full(z, b)), (kernel, z, b)
                    assert _hex(kernel(b, z)) == _hex(full(b, z)), (kernel, b, z)

    def test_products_match_the_full_path(self, rng):
        others = [_random_pair(rng) for _ in range(3000)]
        for z in ZERO_PAIRS:
            for b in list(ZERO_PAIRS) + others:
                assert _hex(kernels.imul(z, b)) == _hex(_imul_full(z, b)) == _hex((0.0, 0.0))
                assert _hex(kernels.imul(b, z)) == _hex(_imul_full(b, z)) == _hex((0.0, 0.0))

    def test_zero_numerator_quotients_match_the_full_path(self, rng):
        dens = [_random_pair(rng, infinite=True) for _ in range(3000)]
        dens = [(lo, hi) for lo, hi in dens if lo > 0.0 or hi < 0.0]
        assert len(dens) > 1000
        for z in ZERO_PAIRS:
            for b in dens:
                assert _hex(kernels.idiv(z, b)) == _hex(_idiv_full(z, b)) == _hex((0.0, 0.0))

    def test_nonzero_operands_take_the_full_path(self, rng):
        for _ in range(3000):
            a, b = _random_pair(rng), _random_pair(rng)
            if not (a[0] or a[1]) or not (b[0] or b[1]):
                continue
            assert _hex(kernels.iadd(a, b)) == _hex(_iadd_full(a, b))
            assert _hex(kernels.isub(a, b)) == _hex(_isub_full(a, b))
            assert _hex(kernels.imul(a, b)) == _hex(_imul_full(a, b))
            if b[0] > 0.0 or b[1] < 0.0:
                assert _hex(kernels.idiv(a, b)) == _hex(_idiv_full(a, b))

    def test_zero_times_an_infinite_bound_is_exact(self):
        # The one behaviour change: the directed path gives NaN for 0 * inf;
        # the short circuit gives the exact product (0.0, 0.0).
        for b in ((1.0, math.inf), (-math.inf, -1.0), (-math.inf, math.inf)):
            for z in ZERO_PAIRS:
                assert any(math.isnan(x) for x in _imul_full(z, b))
                assert _hex(kernels.imul(z, b)) == _hex((0.0, 0.0))
                assert _hex(kernels.imul(b, z)) == _hex((0.0, 0.0))


# -- correct rounding against exact rationals ---------------------------------

_MAX = sys.float_info.max


def _rd(x):
    """The largest float at most the rational x (-inf below -MAX)."""
    if x > _MAX:
        return _MAX
    if x < -_MAX:
        return -math.inf
    f = float(x)
    return math.nextafter(f, -math.inf) if Fraction(f) > x else f


def _ru(x):
    """The smallest float at least the rational x (+inf above MAX)."""
    return -_rd(-x)


def _sqrt_rd(x):
    """The largest float whose square is at most the float x >= 0."""
    s, fx = math.sqrt(x), Fraction(x)
    while Fraction(s) ** 2 > fx:
        s = math.nextafter(s, -math.inf)
    while Fraction(math.nextafter(s, math.inf)) ** 2 <= fx:
        s = math.nextafter(s, math.inf)
    return s


def _sqrt_ru(x):
    s = _sqrt_rd(x)
    return s if Fraction(s) ** 2 == Fraction(x) else math.nextafter(s, math.inf)


def _wide_float(rng):
    """A float of any binade, subnormals and binades beyond 2**+-500
    included, or one of random_float's moderate draws."""
    if rng.random() < 0.3:
        return random_float(rng)
    if rng.random() < 0.1:
        return rng.choice(_EXTREMES)
    x = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-1075, 1023))
    return -x if rng.random() < 0.5 else x


def _wide_pair(rng):
    lo = _wide_float(rng)
    hi = lo if rng.random() < 0.3 else _wide_float(rng)
    return min(lo, hi), max(lo, hi)


def _run(inside, calls):
    """Evaluate the thunks calls inside one upward block (the per-call
    fallback made to fail) or each outside any block (the fallback)."""
    if not inside:
        return [f() for f in calls]
    saved = kernels._upward_call

    def no_fallback(kernel, *args):
        raise AssertionError(f"{kernel.__name__} fell back inside an upward block")

    kernels._upward_call = no_fallback
    try:
        with kernels.upward():
            return [f() for f in calls]
    finally:
        kernels._upward_call = saved


def _is_plus_zero_or_nonzero(x):
    return x != 0.0 or math.copysign(1.0, x) > 0.0


WHERE = pytest.mark.parametrize("inside", [True, False], ids=["upward-block", "per-call"])


class TestCorrectRounding:
    """Every kernel returns the tightest float bound of the exact result,
    inside an upward block and through the per-call fallback alike."""

    @WHERE
    def test_scalar_kernels_are_tightest(self, rng, inside):
        ops = (
            ("add", lambda fa, fb: fa + fb),
            ("sub", lambda fa, fb: fa - fb),
            ("mul", lambda fa, fb: fa * fb),
            ("div", lambda fa, fb: fa / fb),
        )
        cases, calls = [], []
        for _ in range(3000):
            a, b = _wide_float(rng), _wide_float(rng)
            for name, exact in ops:
                if name == "div" and b == 0.0:
                    continue
                down, up = getattr(kernels, name + "_down"), getattr(kernels, name + "_up")
                cases.append((name, a, b, exact(Fraction(a), Fraction(b))))
                calls += [lambda d=down, a=a, b=b: d(a, b), lambda u=up, a=a, b=b: u(a, b)]
        results = _run(inside, calls)
        for (name, a, b, exact), lo, hi in zip(cases, results[::2], results[1::2]):
            assert lo == _rd(exact) and hi == _ru(exact), (name, a, b, lo, hi)
            assert _is_plus_zero_or_nonzero(lo), (name, a, b)
            if name != "add" and name != "sub":
                assert _is_plus_zero_or_nonzero(hi), (name, a, b)

    @WHERE
    def test_sqrt_is_tightest(self, rng, inside):
        xs = [abs(_wide_float(rng)) for _ in range(3000)]
        xs += [0.0, -0.0, 4.0, 2.0, 5e-324, 2.0**-1074 * 4, _MAX]
        calls = []
        for x in xs:
            calls += [lambda x=x: kernels.sqrt_down(x), lambda x=x: kernels.sqrt_up(x),
                      lambda x=x: kernels.isqrt((x, x))]
        results = _run(inside, calls)
        for x, lo, hi, pair in zip(xs, results[::3], results[1::3], results[2::3]):
            assert lo == _sqrt_rd(x) and hi == _sqrt_ru(x), (x, lo, hi)
            assert pair == (lo, hi)
            assert _is_plus_zero_or_nonzero(lo) and _is_plus_zero_or_nonzero(hi), x

    @WHERE
    def test_interval_kernels_are_tightest(self, rng, inside):
        cases, calls = [], []
        for _ in range(1500):
            a, b = _wide_pair(rng), _wide_pair(rng)
            fa, fb = [Fraction(x) for x in a], [Fraction(x) for x in b]
            prods = [x * y for x in fa for y in fb]
            cases.append(("iadd", fa[0] + fb[0], fa[1] + fb[1]))
            cases.append(("isub", fa[0] - fb[1], fa[1] - fb[0]))
            cases.append(("imul", min(prods), max(prods)))
            sq = [x * x for x in fa]
            sq_lo = 0 if fa[0] <= 0 <= fa[1] else min(sq)
            cases.append(("isqr", sq_lo, max(sq)))
            calls += [lambda a=a, b=b: kernels.iadd(a, b),
                      lambda a=a, b=b: kernels.isub(a, b),
                      lambda a=a, b=b: kernels.imul(a, b),
                      lambda a=a: kernels.isqr(a)]
            if b[0] > 0.0 or b[1] < 0.0:
                quots = [x / y for x in fa for y in fb]
                cases.append(("idiv", min(quots), max(quots)))
                calls.append(lambda a=a, b=b: kernels.idiv(a, b))
        for (name, lo_exact, hi_exact), (lo, hi) in zip(cases, _run(inside, calls)):
            assert (lo, hi) == (_rd(lo_exact), _ru(hi_exact)), (name, lo, hi)
            assert _is_plus_zero_or_nonzero(lo), name
            if name in ("imul", "isqr", "idiv"):
                assert _is_plus_zero_or_nonzero(hi), name

    def test_exact_quotients_and_roots_are_not_widened(self):
        # The one-ulp nudge of an inexactness test is gone: exact results
        # come back as themselves, inexact ones as the two neighbours.
        assert kernels.div_down(1.0, 3.0) == math.nextafter(kernels.div_up(1.0, 3.0), 0.0)
        assert kernels.div_down(2.0**-1000, 2.0**40) == 2.0**-1040 == kernels.div_up(2.0**-1000, 2.0**40)
        assert kernels.sqrt_down(2.0**-1074) == 2.0**-537 == kernels.sqrt_up(2.0**-1074)
        assert kernels.sqrt_down(2.0**-1073) == math.nextafter(kernels.sqrt_up(2.0**-1073), 0.0)
        assert kernels.sqrt_down(2.0**600) == 2.0**300 == kernels.sqrt_up(2.0**600)
        assert kernels.mul_down(2.0**600, 2.0**-700) == 2.0**-100 == kernels.mul_up(2.0**600, 2.0**-700)


def _elementary_args(rng, n):
    out = []
    for _ in range(n):
        w = rng.random()
        if w < 0.4:
            x = rng.uniform(-8.0, 8.0)
        elif w < 0.7:
            x = rng.uniform(-1e4, 1e4)
        elif w < 0.9:
            x = math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-60, 40))
        else:
            x = rng.uniform(0.0, 3.2)
        out.append(x)
    return out


def test_elementary_functions_are_the_same_bits_in_and_out_of_a_block(rng):
    """sin and cos round their float kernels to nearest inside an
    upward block too, so the enclosures do not depend on the caller's mode."""
    points = _elementary_args(rng, 10000)

    def evaluate():
        return [tuple(b.hex() for b in _sin_bounds(x, shift))
                for x in points for shift in (0, 1)]

    outside = evaluate()
    with kernels.upward():
        inside = evaluate()
    assert inside == outside


# -- the pair convention ------------------------------------------------------

BINARY_KERNELS = ("iadd", "isub", "imul", "idiv")
UNARY_KERNELS = ("isqr", "isqrt")
INTERVAL_KERNELS = BINARY_KERNELS + UNARY_KERNELS


def _kernel_aliases(tree):
    """The names bound in tree to an interval kernel (``imul = _k.imul``,
    ``imul, iadd = _k.imul, _k.iadd``), each mapped to the kernel's name;
    every kernel's own name included."""
    aliases = {name: name for name in INTERVAL_KERNELS}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        for target in node.targets:
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for t, v in pairs:
                if (isinstance(t, ast.Name) and isinstance(v, ast.Attribute)
                        and v.attr in INTERVAL_KERNELS):
                    aliases[t.id] = v.attr
    return aliases


def _kernel_calls(path):
    """(line, kernel name, call node) of every interval-kernel call in the
    source file path, called as ``<module>.name`` or through a local
    alias."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = _kernel_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in INTERVAL_KERNELS:
            yield node.lineno, func.attr, node
        elif isinstance(func, ast.Name) and func.id in aliases:
            yield node.lineno, aliases[func.id], node


class TestPairConvention:
    """The interval kernels take and return (lo, hi) pairs, and no source
    file star-unpacks a pair into one."""

    def test_kernels_take_pairs(self):
        for name in BINARY_KERNELS:
            assert len(inspect.signature(getattr(kernels, name)).parameters) == 2, name
        for name in UNARY_KERNELS:
            assert len(inspect.signature(getattr(kernels, name)).parameters) == 1, name

    def test_no_starred_argument_reaches_a_kernel(self):
        package = Path(tangency.__file__).parent
        starred, seen = [], {}
        for path in sorted(package.glob("*.py")):
            for line, name, call in _kernel_calls(path):
                seen[name] = seen.get(name, 0) + 1
                arity = 2 if name in BINARY_KERNELS else 1
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or len(call.args) != arity or call.keywords):
                    starred.append(f"{path.name}:{line} {name}")
        assert starred == []
        # The scan sees the proof path's calls: every kernel, many times.
        assert set(seen) == set(INTERVAL_KERNELS)
        assert sum(seen.values()) > 80


# Per-kernel call counts of one CLI call, the subbox tables built afresh
# (their lru caches cleared), so that each call builds them as the first
# call of a process does.  A rewrite of the call sites keeps them exactly.
PROOF_KERNEL_CALLS = {
    "prove-henon": (["prove", "henon"], {
        "add_down": 32, "sub_down": 100, "sub_up": 414,
        "iadd": 4103, "isub": 2105, "imul": 5444, "idiv": 1514, "isqr": 730, "isqrt": 127,
    }),
    "check-toy": (["check-toy"], {
        "add_down": 20, "sub_down": 60, "sub_up": 192,
        "iadd": 1229, "isub": 542, "imul": 1792, "idiv": 598, "isqr": 67, "isqrt": 29,
    }),
}

COUNTED_KERNELS = (
    "add_down", "add_up", "sub_down", "sub_up", "mul_down", "mul_up",
    "div_down", "div_up", "sqrt_down", "sqrt_up",
) + INTERVAL_KERNELS


@pytest.mark.parametrize("case", sorted(PROOF_KERNEL_CALLS))
def test_proof_kernel_call_counts(monkeypatch, tmp_path, case):
    argv, expected = PROOF_KERNEL_CALLS[case]
    counts = dict.fromkeys(COUNTED_KERNELS, 0)
    for name in COUNTED_KERNELS:
        def counting(*args, _name=name, _f=getattr(kernels, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(kernels, name, counting)
    for table in (hset._cuts, hset._walls, hset._subboxes):
        table.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--report", os.fspath(tmp_path / "r.json")]) == 0
    assert {k: v for k, v in counts.items() if v} == expected
