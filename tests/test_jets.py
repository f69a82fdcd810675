"""Second-order jets: chain rules, derivative identities, finite-difference corpus."""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tangency.interval import Interval, IntervalError
from jet_oracle import Jet


def _jet_point(values, order=2):
    n = len(values)
    return [Jet.variable(i, Interval(v), n, order=order) for i, v in enumerate(values)]


class TestConstructors:
    def test_variable(self):
        j = Jet.variable(0, Interval(2.0), 2)
        assert j.value == Interval(2.0)
        assert j.grad[0] == Interval(1.0)
        assert j.grad[1] == Interval(0.0)
        assert all(h == Interval(0.0) for row in j.hess for h in row)

    def test_variable_slot(self):
        j = Jet.variable(1, Interval(1.3145, 1.3146), 4)
        assert [g.mid for g in j.grad] == [0.0, 1.0, 0.0, 0.0]

    def test_index_out_of_range(self):
        with pytest.raises(IntervalError):
            Jet.variable(3, Interval(0.0), 2)

    def test_order_one_has_no_hessian(self):
        j = Jet.variable(0, Interval(1.0), 2, order=1)
        assert j.hess is None
        assert (j * j).hess is None

    def test_hessian_is_packed_lower_triangle(self):
        j = Jet((1.0, 1.0), [(0.0, 0.0)] * 2, [(2.0, 2.0), (1.0, 1.0), (3.0, 3.0)])
        assert j.hess == ((Interval(2.0), Interval(1.0)),
                          (Interval(1.0), Interval(3.0)))
        assert j.hess_row_pairs(1) == ((1.0, 1.0), (3.0, 3.0))

    def test_hessian_length_is_checked(self):
        # A packed Hessian for n variables has n (n + 1) / 2 entries.
        with pytest.raises(IntervalError):
            Jet((1.0, 1.0), [(0.0, 0.0)] * 2, [(1.0, 1.0)])
        with pytest.raises(IntervalError):
            Jet((1.0, 1.0), [(0.0, 0.0)] * 2, [(1.0, 1.0)] * 4)
        assert Jet((1.0, 1.0), [], []).hess == ()

    @pytest.mark.parametrize("bad", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.inf)])
    def test_pairs_are_checked(self, bad):
        ok = (0.0, 0.0)
        for value, grad, hess in ((bad, [ok], [ok]), (ok, [bad], [ok]),
                                  (ok, [ok], [bad])):
            with pytest.raises(IntervalError):
                Jet(value, grad, hess)


class TestChainRules:
    def test_sqr_of_variable(self):
        x = Jet.variable(0, Interval(1.0), 1)
        s = x.sqr()
        assert s.value == Interval(1.0)
        assert s.grad[0] == Interval(2.0)
        assert s.hess[0][0] == Interval(2.0)

    def test_product_of_variables(self):
        x, y = _jet_point([3.0, 5.0])
        p = x * y
        assert p.value == Interval(15.0)
        assert p.grad[0] == Interval(5.0)
        assert p.grad[1] == Interval(3.0)
        assert p.hess[0][1] == Interval(1.0)
        assert p.hess[1][0] == Interval(1.0)
        assert p.hess[0][0] == Interval(0.0)

    def test_henon_first_component_hessian(self):
        # a - x^2 + b y has a single nonzero second derivative: -2 in xx,
        # exactly, even over a fat box.
        x = Jet.variable(0, Interval(-3.0, 3.0), 3)
        y = Jet.variable(1, Interval(-2.0, 2.0), 3)
        a = Jet.variable(2, Interval(1.0, 1.5), 3)
        f = a - x.sqr() + (-0.3) * y
        assert f.hess[0][0] == Interval(-2.0)
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    assert f.hess[i][j] == Interval(0.0)

    def test_division(self):
        x, y = _jet_point([1.0, 2.0])
        q = x / y
        assert q.value.contains(0.5)
        assert q.grad[0].contains(0.5)  # 1/y
        assert q.grad[1].contains(-0.25)  # -x/y^2
        assert q.hess[1][1].contains(0.25)  # 2x/y^3
        assert q.hess[0][1].contains(-0.25)  # -1/y^2

    def test_sqrt(self):
        (x,) = _jet_point([4.0])
        s = x.sqrt()
        assert s.value.contains(2.0)
        assert s.grad[0].contains(0.25)
        assert s.hess[0][0].contains(-1.0 / 32.0)

    @pytest.mark.parametrize("fn", ["sqr", "sqrt"])
    def test_order_one_matches_order_two_bits(self, fn):
        # An order-1 jet skips the second-derivative factor; its value and
        # gradient are the order-2 jet's, bit for bit.
        box = [Interval(0.3, 0.31), Interval(1.2, 1.25)]
        jets = {
            order: getattr(
                Jet.variable(0, box[0], 2, order) * Jet.variable(1, box[1], 2, order), fn
            )()
            for order in (1, 2)
        }
        one, two = jets[1], jets[2]
        assert one.hess_pairs is None
        assert [x.hex() for x in one.value_pair] == [x.hex() for x in two.value_pair]
        assert [[x.hex() for x in g] for g in one.grad_pairs] == [
            [x.hex() for x in g] for g in two.grad_pairs
        ]

    def test_scalar_mixing(self):
        (x,) = _jet_point([2.0])
        f = 1.0 + 3.0 * x - x / 2.0
        assert f.value.contains(6.0)
        assert f.grad[0].contains(2.5)

    def test_overflow_raises(self):
        # The pairs an operation stores are checked as Intervals are: an
        # overflowing bound, or a NaN from inf * 0, is an error.
        x = Jet.variable(0, Interval(-1e300, 1e300), 2)
        for op in (lambda: x.sqr(), lambda: x * 1e300, lambda: x / 1e-300,
                   lambda: Jet.variable(0, Interval(1e-300, 1.0), 1).sqrt()):
            with pytest.raises(IntervalError):
                op()

    def test_variable_count_mismatch(self):
        with pytest.raises(IntervalError):
            Jet.variable(0, Interval(0.0), 2) + Jet.variable(0, Interval(0.0), 3)


# -- finite-difference corpus -------------------------------------------------

# 50 composite expressions; each entry is (function over (x, y), domain for x,
# domain for y).  Functions are written with generic arithmetic so they run on
# jets (for enclosures) and on plain floats (for central differences): _sq
# and _sqrt pick the jet method or the float operation.

def _sq(v):
    return v.sqr() if hasattr(v, "sqr") else v * v


def _sqrt(v):
    return v.sqrt() if hasattr(v, "sqrt") else math.sqrt(v)


def _bump(u):
    """The odd rational u / (1 + u^2), bounded and with every derivative
    nonzero somewhere."""
    return u / (1.0 + _sq(u))


def _ramp(u):
    """The odd algebraic u / sqrt(1 + u^2)."""
    return u / _sqrt(1.0 + _sq(u))


CORPUS = []


def _add(fn, xdom, ydom):
    CORPUS.append((fn, xdom, ydom))


_add(lambda x, y: x * y, (-2, 2), (-2, 2))
_add(lambda x, y: x * x * y, (-2, 2), (-2, 2))
_add(lambda x, y: x * (x + y), (-2, 2), (-2, 2))
_add(lambda x, y: (x + y) * (x - y), (-2, 2), (-2, 2))
_add(lambda x, y: x / (2.5 + y), (-2, 2), (-1, 1))
_add(lambda x, y: (1.0 + x * y) / (3.0 + x), (-1, 1), (-1, 1))
_add(lambda x, y: _sq(x) + _sq(y), (-2, 2), (-2, 2))
_add(lambda x, y: _sqrt(2.0 + x), (-1, 1), (-1, 1))
_add(lambda x, y: _sqrt(3.0 + x + y) * y, (-1, 1), (-1, 1))
_add(lambda x, y: _bump(x), (-3, 3), (-1, 1))
_add(lambda x, y: y / (2.0 + _sq(x)), (-3, 3), (-2, 2))
_add(lambda x, y: _bump(x * y), (-1.5, 1.5), (-1.5, 1.5))
_add(lambda x, y: 1.0 / (1.5 + _sq(x + y)), (-2, 2), (-2, 2))
_add(lambda x, y: _ramp(x), (-4, 4), (-1, 1))
_add(lambda x, y: _ramp(x * y), (-2, 2), (-2, 2))
_add(lambda x, y: (_bump(x) + 2.5) / (_sq(y) / (1.0 + _sq(y)) + 3.0), (-2, 2), (-2, 2))
_add(lambda x, y: _bump(x) * _bump(y), (-2, 2), (-2, 2))
_add(lambda x, y: _sqrt(1.0 + _sq(x)), (-2, 2), (-1, 1))
_add(lambda x, y: _ramp(x / (1.5 + _sq(y))), (-2, 2), (-2, 2))
_add(lambda x, y: x * x * x - 2.0 * x * y + y * y, (-2, 2), (-2, 2))

# Parameterized variants fill the corpus to 50.
for _c in (0.25, 0.5, 0.75, 1.25, 1.5, 2.0):
    _add((lambda c: lambda x, y: _bump(c * x + y))(_c), (-2, 2), (-2, 2))
    _add((lambda c: lambda x, y: _sqrt(c + _sq(x) + _sq(y)))(_c),
         (-1.5, 1.5), (-1.5, 1.5))
    _add((lambda c: lambda x, y: x / (c + 2.0 + _bump(y)))(_c), (-2, 2), (-2, 2))
    _add((lambda c: lambda x, y: _ramp(x * y + c) * x)(_c), (-1.5, 1.5), (-1.5, 1.5))
_add(lambda x, y: _sq(x + 0.5 * y), (-2, 2), (-2, 2))
_add(lambda x, y: _sqrt(_sq(_bump(x) + y) + 0.5), (-2, 2), (-2, 2))
_add(lambda x, y: _bump(_ramp(x) + _ramp(y)), (-3, 3), (-3, 3))
_add(lambda x, y: _sqrt(2.0 + 1.0 / (1.0 + _sq(x))) * (y + 3.0), (-3, 3), (-2, 2))
_add(lambda x, y: x * y / (4.0 + _sq(x)), (-2, 2), (-2, 2))
_add(lambda x, y: _sq(x - y) * (x + y), (-2, 2), (-2, 2))

assert len(CORPUS) == 50, len(CORPUS)


def _central_grad_hess(fn, x, y, h=1e-5):
    f = fn
    gx = (f(x + h, y) - f(x - h, y)) / (2 * h)
    gy = (f(x, y + h) - f(x, y - h)) / (2 * h)
    hxx = (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / (h * h)
    hyy = (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / (h * h)
    hxy = (
        f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)
    ) / (4 * h * h)
    return (gx, gy), ((hxx, hxy), (hxy, hyy))


def test_finite_difference_corpus():
    rng = random.Random(424242)
    h = 1e-5
    checked = 0
    for fn, xdom, ydom in CORPUS:
        x0 = rng.uniform(xdom[0] + 0.2, xdom[1] - 0.2)
        y0 = rng.uniform(ydom[0] + 0.2, ydom[1] - 0.2)
        # Jet enclosures over a thin box around the sample point.
        eps = 2 * h  # box covering the finite-difference stencil
        xj = Jet.variable(0, Interval(x0 - eps, x0 + eps), 2)
        yj = Jet.variable(1, Interval(y0 - eps, y0 + eps), 2)
        out = fn(xj, yj)
        grad_fd, hess_fd = _central_grad_hess(fn, x0, y0, h)
        tol_g = 1e-7  # O(h^2) central-difference error with generous slack
        tol_h = 1e-4
        for i in range(2):
            g = out.grad[i]
            assert g.lo - tol_g <= grad_fd[i] <= g.hi + tol_g, (checked, i)
            for j in range(2):
                hh = out.hess[i][j]
                assert hh.lo - tol_h <= hess_fd[i][j] <= hh.hi + tol_h, (
                    checked,
                    i,
                    j,
                )
        checked += 1
    assert checked == 50


def test_enclosure_monotonicity_in_box():
    big_x = Jet.variable(0, Interval(0.4, 1.1), 2)
    big_y = Jet.variable(1, Interval(-0.6, 0.2), 2)
    small_x = Jet.variable(0, Interval(0.6, 0.9), 2)
    small_y = Jet.variable(1, Interval(-0.4, 0.0), 2)

    def expr(x, y):
        return _bump(x * y + x.sqr()) / (2.5 + y)

    big = expr(big_x, big_y)
    small = expr(small_x, small_y)
    assert small.value.is_subset(big.value)
    for i in range(2):
        assert small.grad[i].is_subset(big.grad[i])
        for j in range(2):
            assert small.hess[i][j].is_subset(big.hess[i][j])


# -- exact-rational oracle ----------------------------------------------------


class _Exact:
    """Forward-mode value, gradient and full Hessian in exact Fractions."""

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    @classmethod
    def variable(cls, i, x, n):
        zero = Fraction(0)
        return cls(Fraction(x), [Fraction(int(j == i)) for j in range(n)],
                   [[zero] * n for _ in range(n)])

    def _lift(self, o):
        if isinstance(o, _Exact):
            return o
        n = len(self.g)
        zero = Fraction(0)
        return _Exact(Fraction(o), [zero] * n, [[zero] * n for _ in range(n)])

    def __add__(self, o):
        o = self._lift(o)
        return _Exact(self.v + o.v, [a + b for a, b in zip(self.g, o.g)],
                      [[a + b for a, b in zip(r, s)] for r, s in zip(self.h, o.h)])

    __radd__ = __add__

    def __neg__(self):
        return _Exact(-self.v, [-a for a in self.g], [[-a for a in r] for r in self.h])

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        n = len(self.g)
        return _Exact(
            self.v * o.v,
            [self.v * o.g[i] + o.v * self.g[i] for i in range(n)],
            [[self.v * o.h[i][j] + o.v * self.h[i][j] + self.g[i] * o.g[j]
              + self.g[j] * o.g[i] for j in range(n)] for i in range(n)],
        )

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.v
        n = len(self.g)
        return _Exact(
            1 / v,
            [-g / v**2 for g in self.g],
            [[2 * self.g[i] * self.g[j] / v**3 - self.h[i][j] / v**2 for j in range(n)]
             for i in range(n)],
        )

    def __truediv__(self, o):
        return self * self._lift(o)._reciprocal()

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def sqr(self):
        return self * self


def _rational_corpus():
    """The corpus entries built from +, -, *, / and sqr only: the ones that
    run on exact jets (the others reach sqrt)."""
    out = []
    for fn, xdom, ydom in CORPUS:
        x, y = _Exact.variable(0, 0.5, 2), _Exact.variable(1, 0.25, 2)
        try:
            fn(x, y)
        except (AttributeError, TypeError):
            continue
        out.append((fn, xdom, ydom))
    return out


def _lifted(fn, xs):
    """fn of two arguments made from n = 2, 3 or 4 variables, so that every
    variable, and for n = 4 a product of two, reaches both arguments."""
    if len(xs) == 2:
        u, v = xs
    elif len(xs) == 3:
        u, v = xs[0] + 0.25 * xs[2], xs[1] - 0.25 * xs[2]
    else:
        u, v = xs[0] + 0.25 * xs[2] * xs[3], xs[1] - 0.25 * xs[3] + 0.125 * xs[2]
    return fn(u, v)


def _contains(iv, fr):
    return Fraction(iv.lo) <= fr <= Fraction(iv.hi)


class TestExactRationalOracle:
    """Exact forward-mode derivatives at exact points of a box lie in the
    jet enclosures over the box: rational corpus, n = 2, 3, 4, orders 1, 2."""

    def test_corpus_is_nontrivial(self):
        assert len(_rational_corpus()) == 29

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("order", [1, 2])
    def test_rational_corpus(self, rng, n, order):
        for fn, xdom, ydom in _rational_corpus():
            for half in (0.0, 1e-3, 0.25):
                # u and v stay in the corpus domains: the lifts move them by
                # at most 0.375 * half.
                c = [rng.uniform(xdom[0] + 0.5, xdom[1] - 0.5),
                     rng.uniform(ydom[0] + 0.5, ydom[1] - 0.5), 0.0, 0.0][:n]
                c = [float(Fraction(ci).limit_denominator(64)) for ci in c]
                box = [Interval(ci - half, ci + half) for ci in c]
                jets = [Jet.variable(i, box[i], n, order=order) for i in range(n)]
                out = _lifted(fn, jets)
                for s in range(6):
                    point = [
                        Fraction(b.lo) + (Fraction(rng.randint(0, 1)) if s < 3 else
                                          Fraction(rng.randint(0, 64), 64))
                        * (Fraction(b.hi) - Fraction(b.lo))
                        for b in box
                    ]
                    exact = _lifted(
                        fn, [_Exact.variable(i, p, n) for i, p in enumerate(point)])
                    assert _contains(out.value, exact.v)
                    for i in range(n):
                        assert _contains(out.grad[i], exact.g[i]), i
                        if order == 2:
                            for j in range(n):
                                assert _contains(out.hess[i][j], exact.h[i][j]), (i, j)
                if order == 1:
                    assert out.hess is None


# -- scalar operands against constant jets --------------------------------------

_MAX = 1.7976931348623157e308
_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 5e-324, -5e-324, 1e-300, 1e300,
            -1e300, _MAX / 2, -_MAX / 2, _MAX, -_MAX)
_FLOATS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _pairs(draw):
    a, b = draw(_FLOATS), draw(_FLOATS)
    return (a, b) if a <= b else (b, a)


@st.composite
def _jets(draw):
    n, order = draw(st.integers(0, 3)), draw(st.sampled_from((1, 2)))
    hess = draw(st.lists(_pairs(), min_size=n * (n + 1) // 2,
                         max_size=n * (n + 1) // 2)) if order == 2 else None
    return Jet(draw(_pairs()), draw(st.lists(_pairs(), min_size=n, max_size=n)), hess)


_SCALAR_OPERANDS = st.one_of(
    _FLOATS,
    st.integers(-2**60, 2**60),
    _pairs().map(lambda p: Interval(*p)),
)

# (scalar route, constant-jet route) per operation; k is Jet.constant(c).
_SCALAR_OPS = {
    "j*c": (lambda j, c: j * c, lambda j, k: j * k),
    "c*j": (lambda j, c: c * j, lambda j, k: k * j),
    "j/c": (lambda j, c: j / c, lambda j, k: j / k),
    "j+c": (lambda j, c: j + c, lambda j, k: j + k),
    "c+j": (lambda j, c: c + j, lambda j, k: k + j),
    "j-c": (lambda j, c: j - c, lambda j, k: j - k),
    "c-j": (lambda j, c: c - j, lambda j, k: k - j),
}


def _packed(jet):
    hess = None if jet.hess_pairs is None else [
        struct.pack("<2d", *p) for p in jet.hess_pairs]
    return (struct.pack("<2d", *jet.value_pair),
            [struct.pack("<2d", *p) for p in jet.grad_pairs], hess)


class TestScalarOperands:
    """A float, int or Interval operand gives the bits of the same operation
    on Jet.constant, signed zeros included, and the same errors."""

    @settings(max_examples=600, deadline=None)
    @given(_jets(), _SCALAR_OPERANDS, st.sampled_from(sorted(_SCALAR_OPS)))
    @example(Jet((1.0, 2.0), [(-0.0, -0.0), (-0.0, 3.0), (0.0, -0.0)]), 5.0, "j+c")
    @example(Jet((1.0, 2.0), [(-0.0, -0.0)], [(-2.0, -0.0)]), 5.0, "j-c")
    @example(Jet((1.0, 2.0), [(-0.0, 0.0)], [(0.0, 0.0)]), Interval(-1.0, 2.0), "c-j")
    @example(Jet((1.0, 2.0), [(-0.0, -0.0)], [(-0.0, 1.0)]), -2.0, "j/c")
    @example(Jet((1.0, 2.0), [(1e300, 1e300)], None), 1e10, "j*c")
    @example(Jet((1.0, 2.0), [(1e300, 1e300)], None), 1e-10, "j/c")
    @example(Jet((1.0, 2.0), [(1.0, 1.0)], None), Interval(-1.0, 1.0), "j/c")
    @example(Jet((1.0, 2.0), [(1.0, 1.0)], None), -0.0, "j/c")
    @example(Jet((_MAX, _MAX), [], []), _MAX, "c+j")
    def test_bits_match_constant_jet(self, jet, c, name):
        scalar, constant = _SCALAR_OPS[name]
        try:
            want = _packed(constant(jet, Jet.constant(c, jet.n, jet.order)))
        except IntervalError:
            with pytest.raises(IntervalError):
                scalar(jet, c)
            return
        got = scalar(jet, c)
        assert _packed(got) == want
        assert got.order == jet.order

    def test_errors(self):
        j = Jet((1.0, 2.0), [(1e300, 1e300), (0.0, 0.0)], [(0.0, 0.0)] * 3)
        for op in (lambda: j * 1e10, lambda: 1e10 * j, lambda: j / 1e-10,
                   lambda: j + _MAX, lambda: _MAX - (-j),
                   lambda: j / 0.0, lambda: j / -0.0, lambda: j / Interval(-1.0, 1.0),
                   lambda: j / Interval(0.0, 1.0)):
            with pytest.raises(IntervalError):
                op()
