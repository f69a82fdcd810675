"""Projectivized dynamics of a parameterized planar map in the slope chart.

Directions [v] in the projective line over a planar tangent space are
parameterized by the slope w = v_x / v_y, the direction [(w, 1)]; the chart
excludes the horizontal direction.  The extended map acts on chart boxes,
tuples of (lo, hi) pairs (x, y, w, a), by

    (x, y, w, a) |-> (f_a(x, y), w_x / w_y, a),  (w_x, w_y) = Df_a(x, y) . (w, 1),

a rational function of the box.  A ChartMap is built from one evaluator
f(x, y, a, order) of the planar map on checked (lo, hi) pairs, which returns
per image coordinate its value pair, at order >= 1 also its gradient over
(x, y, a), and at order 2 also its Hessian rows over x and over y (the Henon
family's are closed forms: henon.henon_family); a family's forward and
inverse maps are two chart maps, one per evaluator, and nothing here checks
that they are inverses.  An image direction whose w_y enclosure contains 0
may be horizontal and leaves the chart: a hard error (ChartError).  The
rigorous 4x4 derivative is assembled from f's order-2 data (the slope
component needs the second derivatives of f); the values of the same call
are the image enclosure, returned beside the derivative.  The slope, in the
image and in the derivative's row, is written out on (lo, hi) pairs from f's
gradient and Hessian rows.  apply and derivative call f once each, at the
least order the outputs asked for need: both can be asked for some outputs
only, and without w they compute no slope, apply calls f at order 0 and
derivative at order 1; on a alone, neither calls f.

Where pairs are checked: the box's pairs are checked by whoever built the
box (an h-set's from_normalized) and go to f as they are; f checks what it
computes; apply and derivative check only the pairs they compute
themselves, the image slope and the slope row (its gradient, and the
direction enclosure and the quotient before they enter a product), and
return the image and the Jacobian as tuples of checked pairs without
checking them again.
"""

from __future__ import annotations

from tangency import kernels as _k
from tangency.interval import Interval, IntervalError, check_pairs


class ChartError(IntervalError):
    """Direction enclosure leaves the slope chart (may be horizontal)."""


def _slope(wx, wy):
    """The slope wx / wy of the direction enclosure (wx, wy), (lo, hi)
    pairs; ChartError if wy contains 0."""
    if wy[0] <= 0.0 <= wy[1]:
        raise ChartError(
            f"image direction ({Interval(*wx)!r}, {Interval(*wy)!r}) may be "
            "horizontal: it leaves the slope chart"
        )
    return _k.idiv(wx, wy)


_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)


def _place_w(xya):
    """(x, y, a) pairs placed into (x, y, w, a) with an exact zero for w."""
    x, y, a = xya
    return x, y, _ZERO, a


class ChartMap:
    """The extended map on chart coordinates of one planar map, whose
    evaluator ``f(x, y, a, order)`` takes three (lo, hi) pairs and returns
    the two image coordinates' data (see the module docstring); it acts on
    (x, y, w, a) with the parameter held fixed by the dynamics."""

    def __init__(self, f):
        self.f = f

    # -- value-level application ------------------------------------------

    def apply(self, box, outputs=None):
        """Image enclosure of a chart box, the checked (lo, hi) pairs
        (x, y, w, a), as a tuple of pairs; f at order 1 supplies Df.  With
        outputs, increasing indices into (x, y, w, a), the image holds those
        entries only; without w, no slope is computed or checked and f runs
        at order 0, and on a alone (the parameter, held by the dynamics) f
        is not evaluated.  The image slope is _slope of Df (w, 1), on
        pairs."""
        x, y, w, a = box
        image = [None, None, None, a]
        if outputs is None or not set(outputs) <= {3}:
            slope = outputs is None or 2 in outputs
            fx, fy = self.f(x, y, a, 1 if slope else 0)
            image[0], image[1] = fx[0], fy[0]
            if slope:
                imul, iadd = _k.imul, _k.iadd
                image[2] = check_pairs((_slope(*(
                    iadd(imul(grad[0], w), grad[1]) for _, grad in (fx, fy)
                )),))[0]
        return tuple(image if outputs is None else [image[k] for k in outputs])

    # -- derivative enclosures --------------------------------------------

    def derivative(self, box, outputs=None):
        """Image enclosure of a chart box (f's values: apply's, bit for bit)
        and a sound 4x4 enclosure of the derivative over it, as a tuple of
        pairs and a tuple of rows of pairs.

        f does not depend on w, so its gradients over (x, y, a) are placed
        into the (x, y, w, a) rows with an exact zero in the w slot; the w
        column comes from the slope row (_tangent_row) alone.  With outputs,
        increasing indices into (x, y, w, a), the image holds those entries
        and the matrix those rows only; without w, f runs at order 1 and no
        slope row is computed or checked, and with a alone (the parameter is
        held by the dynamics: its row is (0, 0, 0, 1)) f is not evaluated.
        """
        x, y, w, a = box
        rows = [None, None, None, (a, (_ZERO, _ZERO, _ZERO, _ONE))]
        if outputs is None or not set(outputs) <= {3}:
            slope = outputs is None or 2 in outputs
            fx, fy = self.f(x, y, a, 2 if slope else 1)
            rows[0] = (fx[0], _place_w(fx[1]))
            rows[1] = (fy[0], _place_w(fy[1]))
            if slope:
                rows[2] = self._tangent_row(fx, fy, w)
        if outputs is not None:
            rows = [rows[k] for k in outputs]
        return tuple([value for value, _ in rows]), tuple([row for _, row in rows])

    @staticmethod
    def _tangent_row(fx, fy, w):
        """The image slope over a chart box and its gradient over
        (x, y, w, a), as (value, gradient) pairs, from f's order-2 data
        (fx, fy), each (value, gradient over (x, y, a), Hessian rows over x
        and y), and the slope pair w.

        The slope is wx / wy of (wx, wy) = f_x w + f_y, with f_x, f_y the
        columns of Df; the gradient of (wx, wy) reads the Hessian rows of
        f, and the slope's is the quotient rule, (d wx - q d wy) / wy with
        q an enclosure of wx / wy.  Both and the quotient are checked before
        they enter a product, and so is the gradient; d/dw of (wx, wy) is
        f_x, a gradient entry f checked, and is not checked again.
        """
        imul, iadd, isub, idiv = _k.imul, _k.iadd, _k.isub, _k.idiv
        d = []
        for _, (g0, g1, _), (h0, h1) in (fx, fy):
            # f_x w + f_y: value, then d/dx, d/dy, d/da; d/dw is f_x.
            value, dx, dy, da = check_pairs((
                iadd(imul(g0, w), g1),
                iadd(imul(w, h0[0]), h1[0]),
                iadd(imul(w, h0[1]), h1[1]),
                iadd(imul(w, h0[2]), h1[2]),
            ))
            d.append((value, dx, dy, g0, da))
        wx, wy = d
        den = wy[0]
        (q,) = check_pairs((_slope(wx[0], den),))
        return q, check_pairs(tuple([
            idiv(isub(a, imul(q, b)), den) for a, b in zip(wx[1:], wy[1:])
        ]))
