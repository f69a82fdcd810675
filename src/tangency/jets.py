"""Forward-mode automatic differentiation with interval coefficients.

A :class:`Jet` carries an enclosure of a function value together with
enclosures of its gradient and (optionally) its Hessian over a box: feeding
interval-valued variables through a composite expression yields rigorous
derivative enclosures valid at every point of the box.  Order is 2 at most
(the proofs need exactly D and D^2); order-1 jets skip the Hessian work and
are used where only first derivatives matter.

The number of independent variables n is a runtime parameter.
"""

from __future__ import annotations

from tangency.interval import Interval, IntervalError, as_interval


class Jet:
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess=None):
        self.value = as_interval(value)
        self.grad = tuple(as_interval(g) for g in grad)
        if hess is None:
            self.hess = None
        else:
            self.hess = tuple(tuple(as_interval(h) for h in row) for row in hess)
            n = len(self.grad)
            if len(self.hess) != n or any(len(r) != n for r in self.hess):
                raise IntervalError("hessian shape mismatch")

    @property
    def n(self):
        return len(self.grad)

    @property
    def order(self):
        return 1 if self.hess is None else 2

    @classmethod
    def variable(cls, i, value, n, order=2):
        if not 0 <= i < n:
            raise IntervalError(f"variable index {i} out of range for n={n}")
        grad = [Interval(1.0) if j == i else Interval(0.0) for j in range(n)]
        hess = None
        if order == 2:
            hess = [[Interval(0.0)] * n for _ in range(n)]
        return cls(value, grad, hess)

    @classmethod
    def constant(cls, value, n, order=2):
        grad = [Interval(0.0)] * n
        hess = [[Interval(0.0)] * n for _ in range(n)] if order == 2 else None
        return cls(value, grad, hess)

    def _promote(self, other):
        if isinstance(other, Jet):
            if other.n != self.n:
                raise IntervalError("jet variable-count mismatch")
            return other
        if isinstance(other, (int, float, Interval)):
            return Jet.constant(as_interval(other), self.n, self.order)
        return None

    def __repr__(self):
        return f"Jet(value={self.value!r}, n={self.n}, order={self.order})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        hess = None
        if self.hess is not None and o.hess is not None:
            hess = [
                [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.hess, o.hess)
            ]
        return Jet(
            self.value + o.value,
            [a + b for a, b in zip(self.grad, o.grad)],
            hess,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        hess = None
        if self.hess is not None and o.hess is not None:
            hess = [
                [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.hess, o.hess)
            ]
        return Jet(
            self.value - o.value,
            [a - b for a, b in zip(self.grad, o.grad)],
            hess,
        )

    def __rsub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        hess = None
        if self.hess is not None:
            hess = [[-h for h in row] for row in self.hess]
        return Jet(-self.value, [-g for g in self.grad], hess)

    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        n = self.n
        value = self.value * o.value
        grad = [self.value * o.grad[i] + o.value * self.grad[i] for i in range(n)]
        hess = None
        if self.hess is not None and o.hess is not None:
            hess = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    h = (
                        self.value * o.hess[i][j]
                        + o.value * self.hess[i][j]
                        + self.grad[i] * o.grad[j]
                        + self.grad[j] * o.grad[i]
                    )
                    hess[i][j] = h
                    hess[j][i] = h
        return Jet(value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if o.value.contains_zero():
            raise IntervalError("jet division by zero-containing value")
        n = self.n
        value = self.value / o.value
        grad = [(self.grad[i] - value * o.grad[i]) / o.value for i in range(n)]
        hess = None
        if self.hess is not None and o.hess is not None:
            hess = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    h = (
                        self.hess[i][j]
                        - grad[i] * o.grad[j]
                        - grad[j] * o.grad[i]
                        - value * o.hess[i][j]
                    ) / o.value
                    hess[i][j] = h
                    hess[j][i] = h
        return Jet(value, grad, hess)

    def __rtruediv__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- composition with elementary functions ----------------------------

    def _chain(self, value, d1, d2):
        n = self.n
        grad = [d1 * g for g in self.grad]
        hess = None
        if self.hess is not None:
            hess = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    h = d2 * self.grad[i] * self.grad[j] + d1 * self.hess[i][j]
                    hess[i][j] = h
                    hess[j][i] = h
        return Jet(value, grad, hess)

    def sqr(self):
        n = self.n
        value = self.value.sqr()
        two_v = Interval(2.0) * self.value
        grad = [two_v * g for g in self.grad]
        hess = None
        if self.hess is not None:
            hess = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    h = Interval(2.0) * (
                        self.grad[i] * self.grad[j] + self.value * self.hess[i][j]
                    )
                    hess[i][j] = h
                    hess[j][i] = h
        return Jet(value, grad, hess)

    def sqrt(self):
        if self.value.lo <= 0.0:
            raise IntervalError("jet sqrt requires a strictly positive value")
        s = self.value.sqrt()
        d1 = Interval(0.5) / s
        d2 = -Interval(0.25) / (s * self.value)
        return self._chain(s, d1, d2)

    def sincos(self):
        """(sin, cos) of the jet from one interval sin and one cos."""
        s = self.value.sin()
        c = self.value.cos()
        return self._chain(s, c, -s), self._chain(c, -s, -c)

    def sin(self):
        return self.sincos()[0]

    def cos(self):
        return self.sincos()[1]

    def atan(self):
        v = self.value
        den = Interval(1.0) + v.sqr()
        d1 = Interval(1.0) / den
        d2 = Interval(-2.0) * v / den.sqr()
        return self._chain(v.atan(), d1, d2)
