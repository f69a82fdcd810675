"""The tests' oracle of the maps' closed forms: forward-mode automatic
differentiation with interval coefficients, the maps as expressions on it,
and that route as an evaluator of the pair protocol.

A :class:`Jet` carries an enclosure of a function value together with
enclosures of its gradient and (optionally) its Hessian over a box: feeding
interval-valued variables through a composite expression yields rigorous
derivative enclosures valid at every point of the box.  Order is 2 at most
(the proofs need exactly D and D^2); order-1 jets skip the Hessian work.
The Henon maps and the toy's switch map are evaluated in closed form
(``henon.henon_family``, ``toy.switch_evaluator``) with the bits of this
route, which the tests check them against.

The number of independent variables n is a runtime parameter.

A jet stores ``(lo, hi)`` float pairs: ``value_pair``, ``grad_pairs`` and
``hess_pairs``, the last the Hessian's lower triangle row by row, (0, 0),
(1, 0), (1, 1), (2, 0), ...  The one constructor takes these pairs and
checks them as Interval checks its bounds; ``Jet.variable`` and
``Jet.constant`` also accept a float or an Interval value.  The operations
call the kernels on the pairs with the operations of the scalar
:class:`Interval` expressions they stand for, so the enclosures are those of
Interval arithmetic bit for bit.
``value``, ``grad`` and ``hess`` (the full symmetric matrix) give Intervals.
``seed_jets`` seeds jets from a box's checked pairs.

Where pairs are checked: every pair an operation computes with a kernel is
checked once, by one ``check_pairs`` over the new jet's value, gradient and
Hessian; pairs taken over from checked operands (a negation, the gradient of
a jet shifted by a constant) are not checked again.  An int, float or
Interval operand of ``*``, ``/``, ``+`` and ``-`` is used as its (lo, hi)
pair, with no constant jet built: the kernel calls with its zero gradient
and Hessian are left out, and the bits are those the constant jet gives
(see ``_scalar``).

``henon_expressions`` and ``switch_expression`` are the maps written as
expressions, on jets or on Intervals; ``on_pairs`` runs such an expression
on jets as an evaluator of the pair protocol, ``f(*pairs, order)``, and
``planar_evaluators`` does so for the chart map's planar maps.
``as_interval`` is the coercion the oracles use.
"""

from __future__ import annotations

from functools import lru_cache

from tangency import kernels as _k
from tangency.henon import B0
from tangency.interval import Interval, IntervalError, as_pair, check_pairs

_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)
_SCALARS = (int, float, Interval)


@lru_cache(maxsize=None)
def _tri(n):
    """The (i, j), j <= i, of an n x n lower triangle, row by row."""
    return tuple((i, j) for i in range(n) for j in range(i + 1))


def _tri_index(i, j):
    if j > i:
        i, j = j, i
    return i * (i + 1) // 2 + j


@lru_cache(maxsize=None)
def _hess_rows(n):
    """Per row i of an n x n symmetric matrix, the index of each entry (i, j)
    in the packed lower triangle."""
    return tuple(tuple(_tri_index(i, j) for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _seeds(n, order):
    """The gradients of the n variables, the zero gradient and the zero
    Hessian (None at order 1) of jets over n variables, as tuples of pairs."""
    units = tuple(tuple(_ONE if j == i else _ZERO for j in range(n)) for i in range(n))
    hess = (_ZERO,) * len(_tri(n)) if order == 2 else None
    return units, (_ZERO,) * n, hess


def seed_jets(values, n, order):
    """Jets of the given order over n variables of the checked (lo, hi)
    pairs values, unchecked: the first n are the variables, in order, and
    the rest constants; n = 0 gives value-only jets."""
    units, zeros, hess = _seeds(n, order)
    return [
        _wrap(v, units[i] if i < n else zeros, hess) for i, v in enumerate(values)
    ]


def _wrap(value, grad, hess):
    """The jet of pairs that are checked already: grad and hess (or None)
    tuples.  Nothing is checked."""
    jet = Jet.__new__(Jet)
    jet.value_pair = value
    jet.grad_pairs = grad
    jet.hess_pairs = hess
    return jet


def _checked(value, grad, hess):
    """The jet of pairs an operation computed, after one check_pairs over
    them all."""
    grad = tuple(grad)
    if hess is None:
        check_pairs((value, *grad))
        return _wrap(value, grad, None)
    hess = tuple(hess)
    check_pairs((value, *grad, *hess))
    return _wrap(value, grad, hess)


def _div(a, b):
    """a / b over pairs, refused like Interval division when b holds 0 and
    checked like an Interval before it enters a product."""
    if b[0] <= 0.0 <= b[1]:
        raise IntervalError(f"division by zero-containing interval {Interval(*b)!r}")
    return check_pairs((_k.idiv(a, b),))[0]


def _scalar(other):
    """The (lo, hi) pair of an int, float or Interval operand, as
    Jet.constant would hold it; None for any other type.

    Against the constant jet's zero gradient and Hessian the kernels give:
    imul(c, e) for a product's coefficients, idiv(e, c) for a quotient's,
    isub((0, 0), e) for c - e, and e itself for e + c and e - c, except that
    a sum makes a -0.0 bound +0.0 and a difference a -0.0 lower bound.  The
    scalar operations below take these routes.
    """
    if isinstance(other, _SCALARS):
        return as_pair(other)
    return None


class Jet:
    __slots__ = ("value_pair", "grad_pairs", "hess_pairs")

    def __init__(self, value, grad, hess=None):
        """A jet of (lo, hi) pairs, hess packed as ``hess_pairs`` (or None
        for order 1), checked as Interval checks them."""
        grad = tuple(grad)
        if hess is not None:
            hess = tuple(hess)
        check_pairs((value, *grad) if hess is None else (value, *grad, *hess))
        if hess is not None and len(hess) != len(_tri(len(grad))):
            raise IntervalError(
                f"packed Hessian of {len(hess)} entries for n={len(grad)} variables"
            )
        self.value_pair = value
        self.grad_pairs = grad
        self.hess_pairs = hess

    @property
    def value(self):
        return Interval(*self.value_pair)

    @property
    def grad(self):
        return tuple(Interval(lo, hi) for lo, hi in self.grad_pairs)

    @property
    def hess(self):
        if self.hess_pairs is None:
            return None
        n = self.n
        return tuple(
            tuple(Interval(*self.hess_pairs[_tri_index(i, j)]) for j in range(n))
            for i in range(n)
        )

    def hess_row_pairs(self, i):
        """Row i of the Hessian as (lo, hi) pairs."""
        hess = self.hess_pairs
        return tuple([hess[k] for k in _hess_rows(len(self.grad_pairs))[i]])

    @property
    def n(self):
        return len(self.grad_pairs)

    @property
    def order(self):
        return 1 if self.hess_pairs is None else 2

    @classmethod
    def variable(cls, i, value, n, order=2):
        if not 0 <= i < n:
            raise IntervalError(f"variable index {i} out of range for n={n}")
        units, _, hess = _seeds(n, order)
        return cls(as_pair(value), units[i], hess)

    @classmethod
    def constant(cls, value, n, order=2):
        _, zeros, hess = _seeds(n, order)
        return cls(as_pair(value), zeros, hess)

    def _same_n(self, other):
        if other.n != self.n:
            raise IntervalError("jet variable-count mismatch")
        return other

    def __repr__(self):
        return f"Jet(value={self.value!r}, n={self.n}, order={self.order})"

    # -- ring operations --------------------------------------------------

    def _termwise(self, o, op):
        """The jet of self op o, jets, for op = kernels.iadd or kernels.isub."""
        hess = None
        if self.hess_pairs is not None and o.hess_pairs is not None:
            hess = [op(a, b) for a, b in zip(self.hess_pairs, o.hess_pairs)]
        return _checked(
            op(self.value_pair, o.value_pair),
            [op(a, b) for a, b in zip(self.grad_pairs, o.grad_pairs)],
            hess,
        )

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._termwise(self._same_n(other), _k.iadd)
        c = _scalar(other)
        if c is None:
            return NotImplemented
        value = check_pairs((_k.iadd(self.value_pair, c),))[0]
        hess = self.hess_pairs
        if hess is not None:
            hess = tuple([(lo or 0.0, hi or 0.0) for lo, hi in hess])
        return _wrap(
            value, tuple([(lo or 0.0, hi or 0.0) for lo, hi in self.grad_pairs]), hess
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self._termwise(self._same_n(other), _k.isub)
        c = _scalar(other)
        if c is None:
            return NotImplemented
        value = check_pairs((_k.isub(self.value_pair, c),))[0]
        hess = self.hess_pairs
        if hess is not None:
            hess = tuple([(lo or 0.0, hi) for lo, hi in hess])
        return _wrap(value, tuple([(lo or 0.0, hi) for lo, hi in self.grad_pairs]), hess)

    def __rsub__(self, other):
        c = _scalar(other)
        if c is None:
            return NotImplemented
        isub = _k.isub
        hess = self.hess_pairs
        if hess is not None:
            hess = [isub((0.0, 0.0), h) for h in hess]
        return _checked(
            isub(c, self.value_pair), [isub((0.0, 0.0), g) for g in self.grad_pairs], hess
        )

    def __neg__(self):
        hess = self.hess_pairs
        if hess is not None:
            hess = tuple([(-hi, -lo) for lo, hi in hess])
        lo, hi = self.value_pair
        return _wrap(
            (-hi, -lo), tuple([(-g_hi, -g_lo) for g_lo, g_hi in self.grad_pairs]), hess
        )

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = _scalar(other)
            if c is None:
                return NotImplemented
            imul = _k.imul
            hess = self.hess_pairs
            if hess is not None:
                hess = [imul(c, h) for h in hess]
            return _checked(
                imul(self.value_pair, c), [imul(c, g) for g in self.grad_pairs], hess
            )
        o = self._same_n(other)
        imul, iadd = _k.imul, _k.iadd
        sv, ov = self.value_pair, o.value_pair
        sg, og = self.grad_pairs, o.grad_pairs
        value = imul(sv, ov)
        grad = [iadd(imul(sv, b), imul(ov, a)) for a, b in zip(sg, og)]
        hess = None
        if self.hess_pairs is not None and o.hess_pairs is not None:
            hess = []
            for (i, j), sh, oh in zip(_tri(self.n), self.hess_pairs, o.hess_pairs):
                acc = iadd(imul(sv, oh), imul(ov, sh))
                acc = iadd(acc, imul(sg[i], og[j]))
                hess.append(iadd(acc, imul(sg[j], og[i])))
        return _checked(value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            c = _scalar(other)
            if c is None:
                return NotImplemented
            if c[0] <= 0.0 <= c[1]:
                raise IntervalError("jet division by zero-containing value")
            idiv = _k.idiv
            hess = self.hess_pairs
            if hess is not None:
                hess = [idiv(h, c) for h in hess]
            return _checked(
                idiv(self.value_pair, c), [idiv(g, c) for g in self.grad_pairs], hess
            )
        o = self._same_n(other)
        ov = o.value_pair
        if ov[0] <= 0.0 <= ov[1]:
            raise IntervalError("jet division by zero-containing value")
        imul, isub, idiv = _k.imul, _k.isub, _k.idiv
        og = o.grad_pairs
        value = idiv(self.value_pair, ov)
        grad = [
            idiv(isub(a, imul(value, b)), ov)
            for a, b in zip(self.grad_pairs, og)
        ]
        hess = None
        if self.hess_pairs is not None and o.hess_pairs is not None:
            hess = []
            for (i, j), sh, oh in zip(_tri(self.n), self.hess_pairs, o.hess_pairs):
                acc = isub(sh, imul(grad[i], og[j]))
                acc = isub(acc, imul(grad[j], og[i]))
                acc = isub(acc, imul(value, oh))
                hess.append(idiv(acc, ov))
        return _checked(value, grad, hess)

    def __rtruediv__(self, other):
        if _scalar(other) is None:
            return NotImplemented
        return Jet.constant(other, self.n, self.order) / self

    # -- squares and square roots ----------------------------------------

    def _chain(self, value, d1, d2):
        """The jet of g(self) from the pairs value = g(v), d1 = g'(v) and
        d2 = g''(v); an order-1 jet never reads d2."""
        imul, iadd = _k.imul, _k.iadd
        sg = self.grad_pairs
        grad = [imul(d1, g) for g in sg]
        hess = None
        if self.hess_pairs is not None:
            hess = [
                iadd(imul(imul(d2, sg[i]), sg[j]), imul(d1, h))
                for (i, j), h in zip(_tri(self.n), self.hess_pairs)
            ]
        return _checked(value, grad, hess)

    def sqr(self):
        imul, iadd = _k.imul, _k.iadd
        v = self.value_pair
        sg = self.grad_pairs
        two_v = imul((2.0, 2.0), v)
        grad = [imul(two_v, g) for g in sg]
        hess = None
        if self.hess_pairs is not None:
            hess = [
                imul((2.0, 2.0), iadd(imul(sg[i], sg[j]), imul(v, h)))
                for (i, j), h in zip(_tri(self.n), self.hess_pairs)
            ]
        return _checked(_k.isqr(v), grad, hess)

    def sqrt(self):
        if self.value_pair[0] <= 0.0:
            raise IntervalError("jet sqrt requires a strictly positive value")
        s = self.value.sqrt()
        s = (s.lo, s.hi)
        d1 = _div((0.5, 0.5), s)
        d2 = None
        if self.hess_pairs is not None:
            d2 = _div((-0.25, -0.25), _k.imul(s, self.value_pair))
        return self._chain(s, d1, d2)


def as_interval(x):
    """x itself if it is an Interval, else an outward enclosure of the number x."""
    return x if isinstance(x, Interval) else Interval(x)


# -- the maps as expressions, and the jet route ------------------------------


def henon_expressions(b0=B0):
    """The Henon family's (forward, inverse) maps at b = b0 as expressions
    f(x, y, a) on jets or Intervals, returning the image pair."""

    def forward(x, y, a):
        return a - x.sqr() + b0 * y, x

    def inverse(x, y, a):
        return y, (x - a + y.sqr()) / b0

    return forward, inverse


def switch_expression(x, y, v, a):
    """The toy's switch map (x, y, v, a) -> ((x - 1)^2 + y + a, 2 - x,
    -2 (x - 1) - v, a) as an expression on jets or Intervals."""
    u = x - 1.0
    return (u.sqr() + y + a, 2.0 - x, -2.0 * u - v, a)


def on_pairs(expression, n, rows):
    """The expression of n arguments run on jets, as an evaluator of the
    pair protocol: f(*pairs, order) returns per output a tuple of its value
    pair, at order >= 1 its gradient over the n arguments, and at order 2
    its Hessian rows over the argument indices rows.  Order 0 runs on
    value-only jets, order 1 and 2 on jets of that order over all n
    arguments."""

    def evaluate(*args):
        *values, order = args
        outs = expression(*seed_jets(values, n if order else 0, max(order, 1)))
        if order == 0:
            return tuple([(out.value_pair,) for out in outs])
        if order == 1:
            return tuple([(out.value_pair, out.grad_pairs) for out in outs])
        return tuple([(out.value_pair, out.grad_pairs,
                       tuple([out.hess_row_pairs(i) for i in rows])) for out in outs])

    return evaluate


def planar_evaluators(*expressions):
    """Planar map expressions f(x, y, a) as evaluators of the chart map's
    protocol, on_pairs with Hessian rows over x and y."""
    return tuple([on_pairs(f, 3, (0, 1)) for f in expressions])
