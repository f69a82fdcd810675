"""Projectivized dynamics of a parameterized planar map in the slope chart.

Directions [v] in the projective line over a planar tangent space are
parameterized by the slope w = v_x / v_y, the direction [(w, 1)]; the chart
excludes the horizontal direction.  The extended map acts on chart boxes,
tuples of (lo, hi) pairs (x, y, w, a), by

    (x, y, w, a) |-> (f_a(x, y), w_x / w_y, a),  (w_x, w_y) = Df_a(x, y) . (w, 1),

a rational function of the box.  A ChartMap is built from one evaluator,
f(x, y, a) on jets; a family's forward and inverse maps are two chart maps,
one per evaluator, and nothing here checks that they are inverses.  An image
direction whose w_y enclosure contains 0 may be horizontal and leaves the
chart: a hard error (ChartError).  The rigorous 4x4 derivative is assembled
from order-2 jets of f (the slope component needs the second derivatives of
f); the value parts of the same jets are the image enclosure, returned
beside the derivative.  The slope, in the image and in the derivative's row,
is written out on (lo, hi) pairs from f's jets.  Both can be asked for some
outputs only and compute only what those read: without w, they compute no
slope, the image's jets of f carry values only and the derivative's drop to
order 1; on a alone, neither evaluates f.

Where pairs are checked: the box's pairs are checked by whoever built the
box (an h-set's from_normalized) and seed f's jets as they are; f's jets
check what they compute; apply and derivative check only the pairs they
compute themselves, the image slope and the slope row (its gradient, and
the direction enclosure and the quotient before they enter a product), and
return the image and the Jacobian as tuples of checked pairs without
checking them again.
"""

from __future__ import annotations

from tangency import kernels as _k
from tangency.interval import Interval, IntervalError, check_pairs
from tangency.jets import seed_jets


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
    return _k.idiv(*wx, *wy)


_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)


def _place_w(xya):
    """(x, y, a) pairs placed into (x, y, w, a) with an exact zero for w."""
    x, y, a = xya
    return x, y, _ZERO, a


class ChartMap:
    """The extended map on chart coordinates of one planar map, whose
    evaluator ``f(x, y, a)`` takes three jets and returns the pair of
    image-coordinate jets; it acts on (x, y, w, a) with the parameter held
    fixed by the dynamics."""

    def __init__(self, f):
        self.f = f

    # -- value-level application ------------------------------------------

    def apply(self, box, outputs=None):
        """Image enclosure of a chart box, the checked (lo, hi) pairs
        (x, y, w, a), as a tuple of pairs; order-1 jets supply Df.  With
        outputs, increasing indices into (x, y, w, a), the image holds those
        entries only; without w, no slope is computed or checked and f runs
        on value-only jets, and on a alone (the parameter, held by the
        dynamics) f is not evaluated.  The image slope is _slope of
        Df (w, 1), on pairs."""
        x, y, w, a = box
        image = [None, None, None, a]
        if outputs is None or not set(outputs) <= {3}:
            slope = outputs is None or 2 in outputs
            fx, fy = self.f(*seed_jets((x, y, a), 2 if slope else 0, 1))
            image[0], image[1] = fx.value_pair, fy.value_pair
            if slope:
                imul, iadd = _k.imul, _k.iadd
                image[2] = check_pairs((_slope(*(
                    iadd(*imul(*f.grad_pairs[0], *w), *f.grad_pairs[1])
                    for f in (fx, fy)
                )),))[0]
        return tuple(image if outputs is None else [image[k] for k in outputs])

    # -- derivative enclosures --------------------------------------------

    def derivative(self, box, outputs=None):
        """Image enclosure of a chart box (the jets' values: apply's, bit for
        bit) and a sound 4x4 enclosure of the derivative over it, as a tuple
        of pairs and a tuple of rows of pairs.

        f does not depend on w, so its jets run over (x, y, a) and are
        placed into the (x, y, w, a) rows with an exact zero in the w slot;
        the w column comes from the slope row (_tangent_row) alone.  With
        outputs, increasing indices into (x, y, w, a), the image holds those
        entries and the matrix those rows only; without w, the jets of f are
        of order 1 and no slope row is computed or checked, and with a alone
        (the parameter is held by the dynamics: its row is (0, 0, 0, 1)) f
        is not evaluated.
        """
        x, y, w, a = box
        rows = [None, None, None, (a, (_ZERO, _ZERO, _ZERO, _ONE))]
        if outputs is None or not set(outputs) <= {3}:
            slope = outputs is None or 2 in outputs
            fx, fy = self.f(*seed_jets((x, y, a), 3, 2 if slope else 1))
            rows[0] = (fx.value_pair, _place_w(fx.grad_pairs))
            rows[1] = (fy.value_pair, _place_w(fy.grad_pairs))
            if slope:
                rows[2] = self._tangent_row(fx, fy, w)
        if outputs is not None:
            rows = [rows[k] for k in outputs]
        return tuple([value for value, _ in rows]), tuple([row for _, row in rows])

    @staticmethod
    def _tangent_row(fx, fy, w):
        """The image slope over a chart box and its gradient over
        (x, y, w, a), as (value, gradient) pairs, from the order-2 jets
        (fx, fy) of f over (x, y, a) and the slope pair w.

        The slope is wx / wy of (wx, wy) = f_x w + f_y, with f_x, f_y the
        columns of Df; the gradient of (wx, wy) reads the Hessian rows of
        f, and the slope's is the quotient rule, (d wx - q d wy) / wy with
        q an enclosure of wx / wy.  Both and the quotient are checked before
        they enter a product, and so is the gradient; d/dw of (wx, wy) is
        f_x, a checked gradient entry of the jets, and is not checked again.
        """
        imul, iadd, isub, idiv = _k.imul, _k.iadd, _k.isub, _k.idiv
        d = []
        for f in (fx, fy):
            g0, g1, _ = f.grad_pairs
            h0, h1 = f.hess_row_pairs(0), f.hess_row_pairs(1)
            # f_x w + f_y: value, then d/dx, d/dy, d/da; d/dw is f_x.
            value, dx, dy, da = check_pairs((
                iadd(*imul(*g0, *w), *g1),
                iadd(*imul(*w, *h0[0]), *h1[0]),
                iadd(*imul(*w, *h0[1]), *h1[1]),
                iadd(*imul(*w, *h0[2]), *h1[2]),
            ))
            d.append((value, dx, dy, g0, da))
        wx, wy = d
        den = wy[0]
        (q,) = check_pairs((_slope(wx[0], den),))
        return q, check_pairs(tuple([
            idiv(*isub(*a, *imul(*q, *b)), *den) for a, b in zip(wx[1:], wy[1:])
        ]))
