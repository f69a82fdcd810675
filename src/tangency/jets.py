"""Forward-mode automatic differentiation with interval coefficients.

A :class:`Jet` carries an enclosure of a function value together with
enclosures of its gradient and (optionally) its Hessian over a box: feeding
interval-valued variables through a composite expression yields rigorous
derivative enclosures valid at every point of the box.  Order is 2 at most
(the proofs need exactly D and D^2); order-1 jets skip the Hessian work and
are used where only first derivatives matter.

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
"""

from __future__ import annotations

from functools import lru_cache

from tangency import kernels as _k
from tangency.interval import Interval, IntervalError, as_pair, check_pairs

_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)


@lru_cache(maxsize=None)
def _tri(n):
    """The (i, j), j <= i, of an n x n lower triangle, row by row."""
    return tuple((i, j) for i in range(n) for j in range(i + 1))


def _tri_index(i, j):
    if j > i:
        i, j = j, i
    return i * (i + 1) // 2 + j


def _div(a, b):
    """a / b over pairs, refused like Interval division when b holds 0 and
    checked like an Interval before it enters a product."""
    if b[0] <= 0.0 <= b[1]:
        raise IntervalError(f"division by zero-containing interval {Interval(*b)!r}")
    return check_pairs((_k.idiv(*a, *b),))[0]


class Jet:
    __slots__ = ("value_pair", "grad_pairs", "hess_pairs")

    def __init__(self, value, grad, hess=None):
        """A jet of (lo, hi) pairs, hess packed as ``hess_pairs`` (or None
        for order 1), checked as Interval checks them."""
        self.value_pair = check_pairs((value,))[0]
        self.grad_pairs = check_pairs(tuple(grad))
        self.hess_pairs = None if hess is None else check_pairs(tuple(hess))
        if hess is not None and len(self.hess_pairs) != len(_tri(len(self.grad_pairs))):
            raise IntervalError(
                f"packed Hessian of {len(self.hess_pairs)} entries for "
                f"n={len(self.grad_pairs)} variables"
            )

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
        return tuple(self.hess_pairs[_tri_index(i, j)] for j in range(self.n))

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
        grad = [_ONE if j == i else _ZERO for j in range(n)]
        hess = [_ZERO] * len(_tri(n)) if order == 2 else None
        return cls(as_pair(value), grad, hess)

    @classmethod
    def constant(cls, value, n, order=2):
        hess = [_ZERO] * len(_tri(n)) if order == 2 else None
        return cls(as_pair(value), [_ZERO] * n, hess)

    def _promote(self, other):
        if isinstance(other, Jet):
            if other.n != self.n:
                raise IntervalError("jet variable-count mismatch")
            return other
        if isinstance(other, (int, float, Interval)):
            return Jet.constant(other, self.n, self.order)
        return None

    def __repr__(self):
        return f"Jet(value={self.value!r}, n={self.n}, order={self.order})"

    # -- ring operations --------------------------------------------------

    def _termwise(self, other, op):
        """The jet of self op other for op = kernels.iadd or kernels.isub."""
        o = self._promote(other)
        if o is None:
            return NotImplemented
        hess = None
        if self.hess_pairs is not None and o.hess_pairs is not None:
            hess = [op(*a, *b) for a, b in zip(self.hess_pairs, o.hess_pairs)]
        return Jet(
            op(*self.value_pair, *o.value_pair),
            [op(*a, *b) for a, b in zip(self.grad_pairs, o.grad_pairs)],
            hess,
        )

    def __add__(self, other):
        return self._termwise(other, _k.iadd)

    __radd__ = __add__

    def __sub__(self, other):
        return self._termwise(other, _k.isub)

    def __rsub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        hess = None
        if self.hess_pairs is not None:
            hess = [(-hi, -lo) for lo, hi in self.hess_pairs]
        lo, hi = self.value_pair
        return Jet(
            (-hi, -lo), [(-g_hi, -g_lo) for g_lo, g_hi in self.grad_pairs], hess
        )

    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        imul, iadd = _k.imul, _k.iadd
        sv, ov = self.value_pair, o.value_pair
        sg, og = self.grad_pairs, o.grad_pairs
        value = imul(*sv, *ov)
        grad = [iadd(*imul(*sv, *b), *imul(*ov, *a)) for a, b in zip(sg, og)]
        hess = None
        if self.hess_pairs is not None and o.hess_pairs is not None:
            hess = []
            for (i, j), sh, oh in zip(_tri(self.n), self.hess_pairs, o.hess_pairs):
                lo, hi = iadd(*imul(*sv, *oh), *imul(*ov, *sh))
                lo, hi = iadd(lo, hi, *imul(*sg[i], *og[j]))
                hess.append(iadd(lo, hi, *imul(*sg[j], *og[i])))
        return Jet(value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        ov = o.value_pair
        if ov[0] <= 0.0 <= ov[1]:
            raise IntervalError("jet division by zero-containing value")
        imul, isub, idiv = _k.imul, _k.isub, _k.idiv
        og = o.grad_pairs
        value = idiv(*self.value_pair, *ov)
        grad = [
            idiv(*isub(*a, *imul(*value, *b)), *ov)
            for a, b in zip(self.grad_pairs, og)
        ]
        hess = None
        if self.hess_pairs is not None and o.hess_pairs is not None:
            hess = []
            for (i, j), sh, oh in zip(_tri(self.n), self.hess_pairs, o.hess_pairs):
                lo, hi = isub(*sh, *imul(*grad[i], *og[j]))
                lo, hi = isub(lo, hi, *imul(*grad[j], *og[i]))
                lo, hi = isub(lo, hi, *imul(*value, *oh))
                hess.append(idiv(lo, hi, *ov))
        return Jet(value, grad, hess)

    def __rtruediv__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- squares and square roots ----------------------------------------

    def _chain(self, value, d1, d2):
        """The jet of g(self) from the pairs value = g(v), d1 = g'(v) and
        d2 = g''(v); an order-1 jet never reads d2."""
        imul, iadd = _k.imul, _k.iadd
        sg = self.grad_pairs
        grad = [imul(*d1, *g) for g in sg]
        hess = None
        if self.hess_pairs is not None:
            hess = [
                iadd(*imul(*imul(*d2, *sg[i]), *sg[j]), *imul(*d1, *h))
                for (i, j), h in zip(_tri(self.n), self.hess_pairs)
            ]
        return Jet(value, grad, hess)

    def sqr(self):
        imul, iadd = _k.imul, _k.iadd
        v = self.value_pair
        sg = self.grad_pairs
        two_v = imul(2.0, 2.0, *v)
        grad = [imul(*two_v, *g) for g in sg]
        hess = None
        if self.hess_pairs is not None:
            hess = [
                imul(2.0, 2.0, *iadd(*imul(*sg[i], *sg[j]), *imul(*v, *h)))
                for (i, j), h in zip(_tri(self.n), self.hess_pairs)
            ]
        return Jet(_k.isqr(*v), grad, hess)

    def sqrt(self):
        if self.value_pair[0] <= 0.0:
            raise IntervalError("jet sqrt requires a strictly positive value")
        s = self.value.sqrt()
        s = (s.lo, s.hi)
        d1 = _div((0.5, 0.5), s)
        d2 = None
        if self.hess_pairs is not None:
            d2 = _div((-0.25, -0.25), _k.imul(*s, *self.value_pair))
        return self._chain(s, d1, d2)
