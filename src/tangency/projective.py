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
same jets are the image enclosure, returned beside the derivative.  Both
can be asked for some outputs only and compute only what those read:
without t they compute no angle, the image's jets of f carry values only
and the derivative's drop to order 1; the derivative on a alone does not
evaluate f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from tangency import kernels as _k
from tangency.interval import HALF_PI, PI, Interval, IntervalError, as_interval
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
    vx, vy = as_interval(v[0]), as_interval(v[1])
    if _flip_to_upper((vx.lo, vx.hi), (vy.lo, vy.hi)):
        vx, vy = -vx, -vy
    t = HALF_PI - (vx / vy).atan()
    _check_angle((t.lo, t.hi))
    return t


_ZERO = (0.0, 0.0)


def _place_t(xya):
    """(x, y, a) pairs placed into (x, y, t, a) with an exact zero for t."""
    x, y, a = xya
    return x, y, _ZERO, a


def _angle_jet(wx, wy):
    """Order-1 jet of the chart angle of a direction given by jets (wx, wy)."""
    if _flip_to_upper(wx.value_pair, wy.value_pair):
        wx, wy = -wx, -wy
    n = wx.n
    half_pi = Jet.constant(HALF_PI, n, order=wx.order)
    return half_pi - (wx / wy).atan()


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
        angle is computed or checked and f runs on value-only jets."""
        _check_angle(v.pairs[2])
        angle = outputs is None or 2 in outputs
        x, y, t, a = v
        if angle:
            xj = Jet.variable(0, x, 2, order=1)
            yj = Jet.variable(1, y, 2, order=1)
            aj = Jet.constant(a, 2, order=1)
        else:
            xj, yj, aj = (Jet.constant(c, 0, order=1) for c in (x, y, a))
        fx, fy = self._evaluator()(xj, yj, aj)
        image = [fx.value_pair, fy.value_pair, None, v.pairs[3]]
        if angle:
            ct = t.cos()
            st = t.sin()
            w = [
                _k.iadd(*_k.imul(*f.grad_pairs[0], ct.lo, ct.hi),
                        *_k.imul(*f.grad_pairs[1], st.lo, st.hi))
                for f in (fx, fy)
            ]
            t2 = direction_to_angle([Interval(*c) for c in w])
            image[2] = (t2.lo, t2.hi)
        return IntervalVector.from_pairs(
            image if outputs is None else [image[k] for k in outputs]
        )

    # -- derivative enclosures --------------------------------------------

    def derivative(self, v, outputs=None):
        """Image enclosure of a chart box (the jets' values: apply's, bit for
        bit) and a sound 4x4 enclosure of the derivative over it.

        f does not depend on t, so its jets run over (x, y, a) and are
        placed into the (x, y, t, a) rows with an exact zero in the t slot;
        the t column comes from the tangent jet alone.  With outputs,
        increasing indices into (x, y, t, a), the image holds those entries
        and the matrix those rows only; without t, the jets of f are of
        order 1 and no tangent jet is computed or checked, and with a alone
        (the parameter is held by the dynamics: its row is (0, 0, 0, 1)) f
        is not evaluated.
        """
        _check_angle(v.pairs[2])
        rows = [None, None, None, (v.pairs[3], (_ZERO, _ZERO, _ZERO, (1.0, 1.0)))]
        if outputs is None or not set(outputs) <= {3}:
            angle = outputs is None or 2 in outputs
            order = 2 if angle else 1
            x, y, t, a = v
            xj = Jet.variable(0, x, 3, order=order)
            yj = Jet.variable(1, y, 3, order=order)
            aj = Jet.variable(2, a, 3, order=order)
            fx, fy = self._evaluator()(xj, yj, aj)
            rows[0] = (fx.value_pair, _place_t(fx.grad_pairs))
            rows[1] = (fy.value_pair, _place_t(fy.grad_pairs))
            if angle:
                tang = self._tangent_jet(fx, fy, t)
                _check_angle(tang.value_pair)
                rows[2] = (tang.value_pair, tang.grad_pairs)
        if outputs is not None:
            rows = [rows[k] for k in outputs]
        image = IntervalVector.from_pairs([value for value, _ in rows])
        jacobian = IntervalMatrix.from_pairs([row for _, row in rows])
        return image, jacobian

    @staticmethod
    def _tangent_jet(fx, fy, t):
        # Rows of Df as order-1 jets over (x, y, t, a): value = first
        # derivative, grad = the corresponding Hessian row (mixed partials up
        # to symmetry).
        f1x, f1y, f2x, f2y = (
            Jet(f.grad_pairs[i], _place_t(f.hess_row_pairs(i)))
            for f in (fx, fy)
            for i in (0, 1)
        )
        tj = Jet.variable(2, t, 4, order=1)
        st, ct = tj.sincos()
        wx = f1x * ct + f1y * st
        wy = f2x * ct + f2y * st
        return _angle_jet(wx, wy)
