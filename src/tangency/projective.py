"""Projectivized dynamics of a planar map family in the angle chart.

Directions [v] in the projective line over a planar tangent space are
parameterized by an angle t in (0, pi) through (cos t, sin t); the chart
excludes the horizontal direction, and any enclosure touching it is a hard
error.  The extended map acts on chart coordinates (x, y, t, a) by

    (x, y, t, a) |-> (f_a(x, y), angle(Df_a(x, y) . (cos t, sin t)), a)

and its rigorous 4x4 derivative is assembled from order-2 jets of f (the
angle component needs the second derivatives of f); the value parts of the
same jets are the image enclosure, returned beside the derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from tangency import kernels as _k
from tangency.covering import BoxMap
from tangency.interval import HALF_PI, PI, Interval, IntervalError, as_interval
from tangency.jets import Jet
from tangency.linalg import IntervalMatrix, IntervalVector


class ChartError(IntervalError):
    """Direction enclosure leaves the angle chart (touches t = 0 or pi)."""


@dataclass(frozen=True)
class ChartPoint:
    x: Interval
    y: Interval
    t: Interval
    a: Interval

    def __post_init__(self):
        if not (self.t.lo > 0.0 and self.t.hi < PI.lo):
            raise ChartError(f"angle enclosure {self.t!r} leaves the chart (0, pi)")

    @classmethod
    def make(cls, x, y, t, a):
        return cls(as_interval(x), as_interval(y), as_interval(t), as_interval(a))

    def as_vector(self):
        return IntervalVector([self.x, self.y, self.t, self.a])

    @classmethod
    def from_vector(cls, v):
        return cls(v[0], v[1], v[2], v[3])


@dataclass(frozen=True)
class PlanarMapFamily:
    """A parameterized planar diffeomorphism given as jet evaluators.

    ``forward(x, y, a)`` and ``inverse(x, y, a)`` take three jets and return
    the pair of image-coordinate jets.  The inverse evaluator really must be
    the inverse map; :func:`check_inverse_consistency` verifies the round trip
    on a box and should be exercised by callers' tests.
    """

    name: str
    forward: Callable[[Jet, Jet, Jet], tuple[Jet, Jet]]
    inverse: Optional[Callable[[Jet, Jet, Jet], tuple[Jet, Jet]]] = None

    def flipped(self):
        if self.inverse is None:
            raise IntervalError(f"{self.name}: no inverse evaluator")
        return PlanarMapFamily(
            name=f"{self.name}^-1", forward=self.inverse, inverse=self.forward
        )


def direction_to_angle(v):
    """Angle enclosure t in (0, pi) of a projective direction enclosure.

    v and -v denote the same class; the representative with positive second
    component is used.  If the enclosure touches the excluded horizontal
    direction (or may contain the zero vector) the chart is left: error.
    """
    vx, vy = as_interval(v[0]), as_interval(v[1])
    if vy.contains_zero():
        if vx.contains_zero():
            raise ChartError("direction enclosure contains the zero vector")
        raise ChartError(
            "direction enclosure touches the excluded chart point t in {0, pi}"
        )
    if vy.hi < 0.0:
        vx, vy = -vx, -vy
    t = HALF_PI - (vx / vy).atan()
    if not (t.lo > 0.0 and t.hi < PI.lo):
        raise ChartError(f"angle enclosure {t!r} leaves the chart (0, pi)")
    return t


def angle_to_direction(t):
    """Unit-direction enclosure (cos t, sin t) of an angle enclosure."""
    t = as_interval(t)
    return IntervalVector([t.cos(), t.sin()])


_ZERO = (0.0, 0.0)


def _place_t(xya):
    """(x, y, a) pairs placed into (x, y, t, a) with an exact zero for t."""
    x, y, a = xya
    return x, y, _ZERO, a


def _angle_jet(wx, wy):
    """Order-1 jet of the chart angle of a direction given by jets (wx, wy)."""
    wy_lo, wy_hi = wy.value_pair
    if wy_lo <= 0.0 <= wy_hi:
        wx_lo, wx_hi = wx.value_pair
        if wx_lo <= 0.0 <= wx_hi:
            raise ChartError("direction enclosure contains the zero vector")
        raise ChartError(
            "direction enclosure touches the excluded chart point t in {0, pi}"
        )
    if wy_hi < 0.0:
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

    @property
    def name(self):
        suffix = "" if self.direction == "forward" else "^-1"
        return f"P[{self.family.name}]{suffix}"

    def _evaluator(self):
        return (
            self.family.forward
            if self.direction == "forward"
            else self.family.inverse
        )

    # -- value-level application ------------------------------------------

    def apply(self, p):
        """Image enclosure of a chart box; order-1 jets supply Df."""
        xj = Jet.variable(0, p.x, 2, order=1)
        yj = Jet.variable(1, p.y, 2, order=1)
        aj = Jet.constant(p.a, 2, order=1)
        fx, fy = self._evaluator()(xj, yj, aj)
        ct = p.t.cos()
        st = p.t.sin()
        w = [
            _k.iadd(*_k.imul(*f.grad_pairs[0], ct.lo, ct.hi),
                    *_k.imul(*f.grad_pairs[1], st.lo, st.hi))
            for f in (fx, fy)
        ]
        t2 = direction_to_angle([Interval(*c) for c in w])
        return ChartPoint(fx.value, fy.value, t2, p.a)

    def apply3(self, v3, a):
        """3D variant (x, y, t) with the parameter fixed to the interval a."""
        p = ChartPoint(v3[0], v3[1], v3[2], as_interval(a))
        q = self.apply(p)
        return IntervalVector([q.x, q.y, q.t])

    # -- derivative enclosures --------------------------------------------

    def derivative(self, p):
        """Image enclosure of a chart box (the jets' values: apply's, bit for
        bit) and a sound 4x4 enclosure of the derivative over it.

        f does not depend on t, so its order-2 jets run over (x, y, a) and
        are placed into the (x, y, t, a) rows with an exact zero in the t
        slot; the t column comes from the tangent jet alone.
        """
        xj = Jet.variable(0, p.x, 3, order=2)
        yj = Jet.variable(1, p.y, 3, order=2)
        aj = Jet.variable(2, p.a, 3, order=2)
        fx, fy = self._evaluator()(xj, yj, aj)
        tang = self._tangent_jet(fx, fy, p.t)
        jacobian = IntervalMatrix.from_pairs(
            [_place_t(fx.grad_pairs), _place_t(fy.grad_pairs), tang.grad_pairs,
             (_ZERO, _ZERO, _ZERO, (1.0, 1.0))]
        )
        return ChartPoint(fx.value, fy.value, tang.value, p.a), jacobian

    @staticmethod
    def _tangent_jet(fx, fy, t):
        # Rows of Df as order-1 jets over (x, y, t, a): value = first
        # derivative, grad = the corresponding Hessian row (mixed partials up
        # to symmetry).
        f1x, f1y, f2x, f2y = (
            Jet.from_pairs(f.grad_pairs[i], _place_t(f.hess_row_pairs(i)))
            for f in (fx, fy)
            for i in (0, 1)
        )
        tj = Jet.variable(2, t, 4, order=1)
        st, ct = tj.sincos()
        wx = f1x * ct + f1y * st
        wy = f2x * ct + f2y * st
        return _angle_jet(wx, wy)

    # -- adapters for the covering machinery --------------------------------

    def as_vec_map(self):
        def run(v):
            q = self.apply(ChartPoint.from_vector(v))
            return q.as_vector()

        def enclose(v):
            q, jacobian = self.derivative(ChartPoint.from_vector(v))
            return q.as_vector(), jacobian

        return BoxMap(run, enclose)

    def as_vec_map3(self, a):
        """BoxMap on (x, y, t) with the parameter held in the interval a.

        Its enclosure pass is derivative's over box x a: the image's
        (x, y, t) and rows 0-2 of the 4x4, the 3x4 matrix
        d(x, y, t)/d(x, y, t, a).  Covering checks sandwich its first three
        columns; the disk constants read the parameter column.
        """
        a = as_interval(a)

        def enclose(v):
            q, jacobian = self.derivative(ChartPoint(v[0], v[1], v[2], a))
            return IntervalVector([q.x, q.y, q.t]), IntervalMatrix.from_pairs(
                jacobian.pairs[:3]
            )

        return BoxMap(lambda v: self.apply3(v, a), enclose)


def check_inverse_consistency(family, box, tol=1e-9):
    """Verify forward(inverse(p)) re-encloses the box midpoint on a test box.

    Returns the maximal componentwise defect; callers assert it is below tol.
    """
    x, y, a = (as_interval(c) for c in box)
    xj = Jet.variable(0, x, 2, order=1)
    yj = Jet.variable(1, y, 2, order=1)
    aj = Jet.constant(a, 2, order=1)
    ix, iy = family.inverse(xj, yj, aj)
    rx, ry = family.forward(
        Jet.constant(ix.value, 2, order=1), Jet.constant(iy.value, 2, order=1), aj
    )
    defect = 0.0
    for got, want in ((rx.value, x), (ry.value, y)):
        if not got.contains(want.mid):
            defect = max(
                defect, abs(got.mid - want.mid) - 0.5 * got.width - 0.5 * want.width
            )
    return defect
