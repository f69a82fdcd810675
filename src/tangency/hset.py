"""H-sets and their attached diagonal cone forms.

An h-set is an affine parallelepiped ``c + M (d . [-1,1]^n)`` with a
designated split of the axes into unstable (exit) and stable (entry)
directions.  Two local frames matter and are kept explicit:

* the un-normalized frame ``w = M^-1 (p - c)`` in which the quadratic cone
  forms are expressed (the columns of M set its units: a Henon frame's
  planar columns are unit vectors, and its slope column is scaled so that
  the local tangent coordinate is, to first order, an angle);
* the diameter-normalized frame ``z = d^-1 . w`` in which the set is the
  cube [-1,1]^n and all covering inequalities are checked.

Rigor enters through ``inv_coord``, a verified interval enclosure of M^-1
with closed-form 2x2 blocks (adj/det) and exact zeros off the blocks of M
(see ``linalg.inverse_enclosure``); the coordinate matrix itself is an
exact point matrix.  Both live in a ``Frame``, built once per frame, the
inverse in a kernels.upward() block: a set is built on a Frame that other
sets may share (every set of a toy chain has the identity frame), or on the
rows of M, which build a Frame of its own (every Henon set).

The frame changes a covering check makes per sub-box run on ``(lo, hi)``
pairs, in loops written out over nonzero patterns built once:
``from_normalized``, on the patterns of the frame's rows, built with the
Frame, and covering._image_normalized's one pass onto a set of target rows,
on the patterns of the source frame's columns and of a ``RowsRead``
(``HSet.rows_read``, one per link and row set): those rows of inv_coord,
built once per Frame.  They take the terms of the interval matrix products
of the tests' oracle (``tests/linalg_oracle.py``), in their order, so the
results are the same bits.

Where pairs are checked: from_normalized checks the scaled offset before
it enters a product and the ambient box it returns, once, where it is
built; the box is handed to a map as it is, and ``box`` is such a box.

The sub-boxes a covering check visits, ``walls`` and ``subboxes``, depend
only on the dimension and the grid: they are tuples of sub-boxes built once
per (n, axis, side, grid) and (n, grid).  A sub-box is the triple ``(box,
mid, delta_terms)``: its (lo, hi) pairs, its thin midpoint and the nonzero
terms of its offset from it, which the covering reads instead of computing
them per link.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from tangency import kernels as _k
from tangency.interval import IntervalError, check_pairs, pair_mid
from tangency.linalg import inverse_enclosure, nonzero_pattern


def _floats(values, what):
    """values as a tuple of floats; IntervalError unless each is an int or a
    float (a bool or a string is neither)."""
    values = tuple(values)
    if not all(isinstance(v, (int, float)) and type(v) is not bool for v in values):
        raise IntervalError(f"{what} must be numbers, got {list(values)!r}")
    return tuple(float(v) for v in values)


def _axes(axes, n):
    """The distinct int axes in range(n), sorted; IntervalError otherwise."""
    axes = tuple(axes)
    if (
        not all(type(i) is int for i in axes)
        or len(set(axes)) != len(axes)
        or any(not 0 <= i < n for i in axes)
    ):
        raise IntervalError(f"invalid unstable axis set {list(axes)!r}")
    return tuple(sorted(axes))


# A set has grid^n interior sub-boxes (65,536 at grid 16 in 4D, minutes of
# checking); a larger grid would run out of time or memory before a verdict.
MAX_GRID = 16


def _check_grid(grid):
    if type(grid) is not int or not 1 <= grid <= MAX_GRID:
        raise IntervalError(f"grid must be an int in 1..{MAX_GRID}, got {grid!r}")


@lru_cache(maxsize=None)
def _cuts(grid):
    """The grid segments covering [-1, 1], as (lo, hi) pairs: the outward
    enclosures of -1 + 2 j / grid bound them.  Built once per grid."""
    g = float(grid)
    ends = [
        _k.iadd((-1.0, -1.0), _k.idiv(_k.imul((2.0, 2.0), (float(j), float(j))), (g, g)))
        for j in range(grid + 1)
    ]
    return tuple((lo[0], hi[1]) for lo, hi in zip(ends, ends[1:]))


def _subbox(box):
    """The sub-box (box, mid, delta_terms) of the (lo, hi) pairs box: mid is
    its thin midpoint, (m, m) per entry with m = pair_mid of the entry, and
    delta_terms the (k, pair) entries of z - mid z, checked, that are not
    exact zeros."""
    mids = [pair_mid(*z) for z in box]
    delta = check_pairs([_k.isub(z, (m, m)) for z, m in zip(box, mids)])
    (delta_terms,) = nonzero_pattern((delta,))
    return box, tuple([(m, m) for m in mids]), delta_terms


def _table(segments):
    """The sub-boxes of the product of the per-axis segments, built in a
    kernels.upward() block, the mode the covering stage runs in, so that
    each midpoint is the float that stage would compute, whichever caller
    asks first."""
    with _k.upward():
        return tuple([_subbox(box) for box in product(*segments)])


@lru_cache(maxsize=None)
def _walls(n, axis, side, grid):
    """The sub-boxes of the face {z_axis = side} of [-1, 1]^n, grid segments
    on each other axis.  Built once per (n, axis, side, grid)."""
    face = ((float(side), float(side)),)
    return _table([face if i == axis else _cuts(grid) for i in range(n)])


@lru_cache(maxsize=None)
def _subboxes(n, grid):
    """The sub-boxes of [-1, 1]^n, grid segments per axis.  Built once per
    (n, grid)."""
    return _table([_cuts(grid)] * n)


class Frame:
    """A coordinate matrix M and what every set built on it shares.

    Holds the validated point entries ``coord``, the nonzero patterns of
    its rows and of its columns, as point pairs, the verified ``inverse``
    enclosure, rows of pairs (built in a kernels.upward() block) and,
    per set of rows of the inverse, the nonzero pattern of those rows on
    the columns they read, with those columns (inv_rows, built on first
    use).  None of this depends on a set's center or diameters, so sets
    with one M (every set of a toy chain) share one Frame.
    """

    __slots__ = ("coord", "rows", "cols", "inverse", "_row_patterns")

    def __init__(self, coord):
        self.coord = tuple(_floats(row, "coordinate matrix entries") for row in coord)
        n = len(self.coord)
        if any(len(r) != n for r in self.coord):
            raise IntervalError("coordinate matrix shape mismatch")
        points = [[(c, c) for c in row] for row in self.coord]
        self.rows = nonzero_pattern(points)
        self.cols = nonzero_pattern(zip(*points))
        with _k.upward():
            self.inverse = inverse_enclosure(self.coord)
        self._row_patterns = {}

    @property
    def n(self):
        return len(self.coord)

    def inv_rows(self, rows):
        """The nonzero pattern of the rows ``rows`` (a tuple) of the inverse
        on the columns they read, and those columns: the ones, increasing,
        where one of those rows is not an exact zero.  Built once per
        rows."""
        hit = self._row_patterns.get(rows)
        if hit is None:
            inv = self.inverse
            cols = tuple(
                k for k in range(self.n)
                if any(inv[j][k][0] or inv[j][k][1] for j in rows)
            )
            hit = (nonzero_pattern([[inv[j][k] for k in cols] for j in rows]), cols)
            self._row_patterns[rows] = hit
        return hit


class RowsRead:
    """The frame change of an h-set onto the target rows ``rows``: the
    nonzero pattern ``terms`` of those rows of inv_coord on ``cols``, the
    ambient coordinates they read (Frame.inv_rows; every one when rows are
    every row), the set's ``center`` on cols and its ``diam`` on rows.  A
    product skips every other column's term bit for bit (linalg._nonzero),
    so a change onto these rows reads only the cols of an ambient box or
    Jacobian (see covering._image_normalized)."""

    __slots__ = ("rows", "cols", "terms", "center", "diam")

    def __init__(self, h, rows):
        self.rows = tuple(rows)
        self.terms, self.cols = h.basis.inv_rows(self.rows)
        self.center = tuple((h.center[k], h.center[k]) for k in self.cols)
        self.diam = tuple(h.diam[j] for j in self.rows)


class HSet:
    """An h-set on a coordinate matrix ``coord``: its rows, or a Frame that
    other sets may share."""

    __slots__ = ("name", "center", "basis", "diam", "unstable", "stable")

    def __init__(self, name, center, coord, diam, unstable):
        self.name = str(name)
        self.center = _floats(center, "center entries")
        if not all(math.isfinite(c) for c in self.center):
            raise IntervalError(f"center entries must be finite, got {list(self.center)!r}")
        self.basis = coord if isinstance(coord, Frame) else Frame(coord)
        self.diam = _floats(diam, "diameters")
        n = len(self.center)
        if self.basis.n != n:
            raise IntervalError("coordinate matrix shape mismatch")
        # Negated, so that NaN (false in every comparison) fails.
        if len(self.diam) != n or not all(0.0 < d < math.inf for d in self.diam):
            raise IntervalError("diameters must be positive and finite")
        self.unstable = _axes(unstable, n)
        self.stable = tuple(i for i in range(n) if i not in self.unstable)

    @property
    def coord(self):
        """The coordinate matrix M as rows of floats."""
        return self.basis.coord

    @property
    def inv_coord(self):
        """The verified enclosure of M^-1, rows of (lo, hi) pairs."""
        return self.basis.inverse

    @property
    def n(self):
        return len(self.center)

    def __repr__(self):
        return (
            f"HSet({self.name!r}, n={self.n}, unstable={self.unstable}, "
            f"diam={self.diam})"
        )

    # -- coordinate transforms -------------------------------------------

    def rows_read(self, rows):
        """The RowsRead of the rows ``rows`` of the frame change."""
        return RowsRead(self, rows)

    def from_normalized(self, z):
        """The ambient box c + M (d . z) of the normalized box z, (lo, hi)
        pairs, as a checked tuple of pairs."""
        if len(z) != self.n:
            raise IntervalError(f"dimension mismatch: {len(z)} vs {self.n}")
        imul, iadd = _k.imul, _k.iadd
        scaled = check_pairs([imul((d, d), zi) for d, zi in zip(self.diam, z)])
        out = []
        for c, row in zip(self.center, self.basis.rows):
            acc = (0.0, 0.0)
            for k, a in row:
                b = scaled[k]
                if b[0] or b[1]:
                    acc = iadd(acc, imul(a, b))
            out.append(iadd((c, c), acc))
        return check_pairs(tuple(out))

    def box(self):
        """Ambient enclosure of the whole set, a checked tuple of pairs."""
        return self.from_normalized(((-1.0, 1.0),) * self.n)

    # -- face machinery -----------------------------------------------------

    def walls(self, axis, side, grid=1):
        """Sub-boxes covering the face {z_axis = side} of [-1, 1]^n, as a
        tuple of sub-boxes shared by every set of dimension n.

        The covering is by closed overlapping boxes whose union equals the
        face: grid segments on each of the other n - 1 axes.
        """
        if axis not in self.unstable:
            raise IntervalError(f"wall axis {axis} is not an unstable axis")
        if side not in (-1, 1):
            raise IntervalError("side must be +-1")
        _check_grid(grid)
        return _walls(self.n, axis, side, grid)

    def subboxes(self, grid=1):
        """Sub-boxes covering the whole normalized cube [-1, 1]^n, grid
        segments per axis, as a tuple of sub-boxes shared by every set of
        dimension n."""
        _check_grid(grid)
        return _subboxes(self.n, grid)

    def to_dict(self):
        return {
            "name": self.name,
            "center": list(self.center),
            "matrix_columns": [
                [self.coord[i][j] for i in range(self.n)] for j in range(self.n)
            ],
            "diameters": list(self.diam),
            "unstable_axes": list(self.unstable),
        }

    @classmethod
    def from_dict(cls, data):
        cols = data["matrix_columns"]
        n = len(cols)
        coord = [[cols[j][i] for j in range(n)] for i in range(n)]
        return cls(
            data["name"],
            data["center"],
            coord,
            data["diameters"],
            data["unstable_axes"],
        )


class QuadraticForm:
    """Diagonal cone form Q(z) = sum_i coeffs[i] z_i^2 in un-normalized local
    coordinates; positive coefficients sit on the unstable axes, negative on
    the stable ones, so Q = alpha(x) - beta(y) with alpha, beta positive
    definite.
    """

    __slots__ = ("coeffs", "unstable")

    def __init__(self, coeffs, unstable):
        self.coeffs = _floats(coeffs, "cone form coefficients")
        self.unstable = _axes(unstable, len(self.coeffs))
        if not all(math.isfinite(c) and c != 0.0 for c in self.coeffs):
            raise IntervalError("cone form coefficients must be finite and nonzero")
        for i, c in enumerate(self.coeffs):
            if i in self.unstable and c <= 0.0:
                raise IntervalError(f"coefficient {i} must be positive (unstable)")
            if i not in self.unstable and c >= 0.0:
                raise IntervalError(f"coefficient {i} must be negative (stable)")

    @property
    def n(self):
        return len(self.coeffs)

    def __repr__(self):
        return f"QuadraticForm({list(self.coeffs)!r}, unstable={self.unstable})"

    def alpha_norm(self):
        """Operator norm of the positive (unstable) block: max coefficient."""
        return max(self.coeffs[i] for i in self.unstable)

    def beta_norm(self):
        """Operator norm of the negative (stable) block: max |coefficient|."""
        stable = [i for i in range(self.n) if i not in self.unstable]
        return max(-self.coeffs[i] for i in stable)

    def to_dict(self):
        return {"coeffs": list(self.coeffs), "unstable_axes": list(self.unstable)}

    @classmethod
    def from_dict(cls, data):
        return cls(data["coeffs"], data["unstable_axes"])
