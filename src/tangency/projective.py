"""Projectivized dynamics of a planar map family in the angle chart.

Directions [v] in the projective line over a planar tangent space are
parameterized by an angle t in (0, pi) through (cos t, sin t); the chart
excludes the horizontal direction, and any enclosure touching it is a hard
error (ChartError), checked on the angle of every box the map takes and
returns.  The extended map acts on chart boxes, IntervalVectors (x, y, t, a),
by

    (x, y, t, a) |-> (f_a(x, y), angle(Df_a(x, y) . (cos t, sin t)), a)

and its rigorous 4x4 derivative is assembled from order-2 jets of f (the
angle component needs the second derivatives of f); the value parts of the
same jets are the image enclosure, returned beside the derivative.  The
angle, in the image and in the derivative's row, is written out on
(lo, hi) pairs from f's jets.  Both
can be asked for some outputs only and compute only what those read:
without t they compute no angle, the image's jets of f carry values only
and the derivative's drop to order 1; the derivative on a alone does not
evaluate f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from tangency import kernels as _k
from tangency.interval import (
    HALF_PI,
    PI,
    Interval,
    IntervalError,
    as_pair,
    check_pairs,
    pair_atan,
    pair_cos,
    pair_sin,
)
from tangency.jets import Jet
from tangency.linalg import IntervalMatrix, IntervalVector


class ChartError(IntervalError):
    """Direction enclosure leaves the angle chart (touches t = 0 or pi)."""


def _check_angle(t):
    """ChartError unless the angle enclosure t, a (lo, hi) pair, lies
    strictly inside the chart (0, pi)."""
    lo, hi = t
    if not (lo > 0.0 and hi < PI.lo):
        raise ChartError(
            f"angle enclosure {Interval(lo, hi)!r} leaves the chart (0, pi)"
        )


def _flip_to_upper(vx, vy):
    """Whether the direction enclosure (vx, vy) of (lo, hi) pairs lies below
    the horizontal, so that -v is the representative the chart uses;
    ChartError if it may contain the zero vector or touches the horizontal."""
    if vy[0] <= 0.0 <= vy[1]:
        if vx[0] <= 0.0 <= vx[1]:
            raise ChartError("direction enclosure contains the zero vector")
        raise ChartError(
            "direction enclosure touches the excluded chart point t in {0, pi}"
        )
    return vy[1] < 0.0


@dataclass(frozen=True)
class PlanarMapFamily:
    """A parameterized planar diffeomorphism given as jet evaluators.

    ``forward(x, y, a)`` and ``inverse(x, y, a)`` take three jets and return
    the pair of image-coordinate jets.  The inverse evaluator really must be
    the inverse map; nothing here checks it, so a family's tests should map a
    box back and forth and see the box midpoint re-enclosed.
    """

    name: str
    forward: Callable[[Jet, Jet, Jet], tuple[Jet, Jet]]
    inverse: Optional[Callable[[Jet, Jet, Jet], tuple[Jet, Jet]]] = None


def direction_to_angle(v):
    """Angle enclosure t in (0, pi) of a projective direction enclosure.

    v and -v denote the same class; the representative with positive second
    component is used.  If the enclosure touches the excluded horizontal
    direction (or may contain the zero vector) the chart is left: error.
    """
    return Interval(*_chart_angle(as_pair(v[0]), as_pair(v[1])))


def _chart_angle(vx, vy):
    """The angle pi/2 - atan(vx/vy) of a direction enclosure (vx, vy) of
    (lo, hi) pairs, as a pair: direction_to_angle on pairs, with the checks
    an Interval would make (IntervalError) and the chart's (ChartError)."""
    vx, vy = check_pairs((vx, vy))
    if _flip_to_upper(vx, vy):
        vx, vy = (-vx[1], -vx[0]), (-vy[1], -vy[0])
    (q,) = check_pairs((_k.idiv(*vx, *vy),))
    t = _k.isub(*_HALF_PI, *pair_atan(*q))
    _check_angle(t)
    return t


_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)
_HALF_PI = (HALF_PI.lo, HALF_PI.hi)


def _place_t(xya):
    """(x, y, a) pairs placed into (x, y, t, a) with an exact zero for t."""
    x, y, a = xya
    return x, y, _ZERO, a


def _jets(values, n, order):
    """Jets over n variables of the (lo, hi) pairs values: the first n are
    the variables, in order, and the rest constants."""
    hess = (_ZERO,) * (n * (n + 1) // 2) if order == 2 else None
    return [
        Jet(v, [_ONE if j == i else _ZERO for j in range(n)], hess)
        for i, v in enumerate(values)
    ]


class ChartMap:
    """The extended map on chart coordinates for one orientation of a family.

    ``direction="forward"`` uses the family's forward evaluator,
    ``direction="inverse"`` its inverse; both act on (x, y, t, a) with the
    parameter held fixed by the dynamics.
    """

    def __init__(self, family, direction="forward"):
        if direction not in ("forward", "inverse"):
            raise ValueError(direction)
        if direction == "inverse" and family.inverse is None:
            raise IntervalError(f"{family.name}: no inverse evaluator")
        self.family = family
        self.direction = direction

    def _evaluator(self):
        return (
            self.family.forward
            if self.direction == "forward"
            else self.family.inverse
        )

    # -- value-level application ------------------------------------------

    def apply(self, v, outputs=None):
        """Image enclosure of a chart box, the IntervalVector (x, y, t, a);
        order-1 jets supply Df.  With outputs, increasing indices into
        (x, y, t, a), the image holds those entries only; without t, no
        angle is computed or checked and f runs on value-only jets.  The
        image angle is _chart_angle of Df (cos t, sin t), on pairs."""
        x, y, t, a = v.pairs
        _check_angle(t)
        angle = outputs is None or 2 in outputs
        fx, fy = self._evaluator()(*_jets((x, y, a), 2 if angle else 0, 1))
        image = [fx.value_pair, fy.value_pair, None, a]
        if angle:
            imul, iadd = _k.imul, _k.iadd
            c = pair_cos(*t)
            s = pair_sin(*t)
            image[2] = _chart_angle(*(
                iadd(*imul(*f.grad_pairs[0], *c), *imul(*f.grad_pairs[1], *s))
                for f in (fx, fy)
            ))
        return IntervalVector.from_pairs(
            image if outputs is None else [image[k] for k in outputs]
        )

    # -- derivative enclosures --------------------------------------------

    def derivative(self, v, outputs=None):
        """Image enclosure of a chart box (the jets' values: apply's, bit for
        bit) and a sound 4x4 enclosure of the derivative over it.

        f does not depend on t, so its jets run over (x, y, a) and are
        placed into the (x, y, t, a) rows with an exact zero in the t slot;
        the t column comes from the angle row (_tangent_row) alone.  With
        outputs, increasing indices into (x, y, t, a), the image holds those
        entries and the matrix those rows only; without t, the jets of f are
        of order 1 and no angle row is computed or checked, and with a alone
        (the parameter is held by the dynamics: its row is (0, 0, 0, 1)) f
        is not evaluated.
        """
        x, y, t, a = v.pairs
        _check_angle(t)
        rows = [None, None, None, (a, (_ZERO, _ZERO, _ZERO, _ONE))]
        if outputs is None or not set(outputs) <= {3}:
            angle = outputs is None or 2 in outputs
            fx, fy = self._evaluator()(*_jets((x, y, a), 3, 2 if angle else 1))
            rows[0] = (fx.value_pair, _place_t(fx.grad_pairs))
            rows[1] = (fy.value_pair, _place_t(fy.grad_pairs))
            if angle:
                rows[2] = self._tangent_row(fx, fy, t)
        if outputs is not None:
            rows = [rows[k] for k in outputs]
        image = IntervalVector.from_pairs([value for value, _ in rows])
        jacobian = IntervalMatrix.from_pairs([row for _, row in rows])
        return image, jacobian

    @staticmethod
    def _tangent_row(fx, fy, t):
        """The image angle over a chart box and its gradient over
        (x, y, t, a), as (value, gradient) pairs, from the order-2 jets
        (fx, fy) of f over (x, y, a) and the angle pair t.

        The angle is pi/2 - atan(wx/wy) of w = f_x cos t + f_y sin t, with
        f_x, f_y the columns of Df; the gradient of w reads the Hessian rows
        of f.  Each pair is the kernel call that order-1 jets over
        (x, y, t, a) make for it, on the same operands in the same order,
        less the terms with a factor that is an exact zero by construction
        (f does not depend on t, cos t and sin t on nothing else), so the
        row is those jets' row bit for bit.  w and the quotient are checked
        before they enter a product; what follows is finite by
        construction.
        """
        imul, iadd, isub, idiv = _k.imul, _k.iadd, _k.isub, _k.idiv
        s = pair_sin(*t)
        c = pair_cos(*t)
        ds = imul(*c, *_ONE)  # d(sin t)/dt
        dc = imul(-s[1], -s[0], *_ONE)  # d(cos t)/dt
        w = []
        for f in (fx, fy):
            g0, g1, _ = f.grad_pairs
            h0, h1 = f.hess_row_pairs(0), f.hess_row_pairs(1)
            # f_x cos t + f_y sin t: value, then d/dx, d/dy, d/dt, d/da.
            w.append(check_pairs((
                iadd(*imul(*g0, *c), *imul(*g1, *s)),
                iadd(*imul(*c, *h0[0]), *imul(*s, *h1[0])),
                iadd(*imul(*c, *h0[1]), *imul(*s, *h1[1])),
                iadd(*imul(*g0, *dc), *imul(*g1, *ds)),
                iadd(*imul(*c, *h0[2]), *imul(*s, *h1[2])),
            )))
        wx, wy = w
        if _flip_to_upper(wx[0], wy[0]):
            wx, wy = ([(-hi, -lo) for lo, hi in r] for r in (wx, wy))
        den = wy[0]
        q = idiv(*wx[0], *den)
        q = check_pairs((q, *(
            idiv(*isub(*a, *imul(*q, *b)), *den) for a, b in zip(wx[1:], wy[1:])
        )))
        # The row is pi/2 - atan(q), with atan' = 1 / (1 + q^2).
        d1 = idiv(*_ONE, *iadd(*_ONE, *_k.isqr(*q[0])))
        value = isub(*_HALF_PI, *pair_atan(*q[0]))
        _check_angle(value)
        return value, tuple(isub(*_ZERO, *imul(*d1, *g)) for g in q[1:])
