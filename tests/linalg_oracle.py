"""The tests' oracle of the pair loops in ``tangency``: interval vector and
matrix objects, and the h-set frame changes and cone matrix written as their
products.

``tangency`` keeps every interval vector and matrix as ``(lo, hi)`` float
pairs and computes its frame changes in loops written out over nonzero
patterns (``hset.HSet.from_normalized``, ``covering._image_normalized``,
``cones.cone_matrix``).  The objects here take the same kernel calls in
their products, so the tests compare those loops with them bit for bit.

Entries are stored as ``(lo, hi)`` pairs (``pairs``); indexing, iteration,
``rows`` and ``entries`` give Intervals.  ``from_pairs`` and the public
constructors check every pair they are given, and each product, sum or
scaling checks the pairs it computes.  Pairs that are checked already are
wrapped by :func:`_wrap` and not checked again.
"""

from tangency import kernels as _k
from tangency.interval import Interval, IntervalError, as_pair, check_pairs


def _nonzero(pairs):
    """The (index, pair) of each entry of pairs that is not an exact zero:
    the terms a product keeps (tangency.linalg skips the same ones)."""
    return [(k, p) for k, p in enumerate(pairs) if p[0] or p[1]]


def _wrap(cls, pairs):
    """The IntervalVector or IntervalMatrix cls of pairs that are checked
    already: a tuple of pairs, or of rows of pairs, of a valid shape.
    Nothing is checked."""
    obj = cls.__new__(cls)
    obj.pairs = pairs
    return obj


class IntervalVector:
    __slots__ = ("pairs",)

    def __init__(self, entries):
        self.pairs = tuple(as_pair(e) for e in entries)
        if not self.pairs:
            raise IntervalError("empty vector")

    @classmethod
    def from_pairs(cls, pairs):
        """The vector of the (lo, hi) pairs, checked as Interval checks them."""
        pairs = check_pairs(tuple(pairs))
        if not pairs:
            raise IntervalError("empty vector")
        return _wrap(cls, pairs)

    @property
    def entries(self):
        return tuple(Interval(lo, hi) for lo, hi in self.pairs)

    @property
    def dim(self):
        return len(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return Interval(*self.pairs[i])

    def __add__(self, other):
        return self._entrywise(other, _k.iadd)

    def __sub__(self, other):
        return self._entrywise(other, _k.isub)

    def _entrywise(self, other, op):
        self._check(other)
        return IntervalVector.from_pairs(
            [op(a, b) for a, b in zip(self.pairs, other.pairs)]
        )

    def __neg__(self):
        return _wrap(IntervalVector, tuple([(-hi, -lo) for lo, hi in self.pairs]))

    def is_subset(self, other):
        self._check(other)
        return all(
            bl <= al and ah <= bh
            for (al, ah), (bl, bh) in zip(self.pairs, other.pairs)
        )

    def _check(self, other):
        if self.dim != other.dim:
            raise IntervalError(f"dimension mismatch: {self.dim} vs {other.dim}")


class IntervalMatrix:
    __slots__ = ("pairs",)

    def __init__(self, rows):
        self.pairs = self._shaped(tuple(tuple(as_pair(e) for e in row) for row in rows))

    @classmethod
    def from_pairs(cls, rows):
        """The matrix of rows of (lo, hi) pairs, checked as Interval checks
        them."""
        return _wrap(cls, cls._shaped(tuple(tuple(check_pairs(row)) for row in rows)))

    @staticmethod
    def _shaped(rows):
        if not rows or not rows[0]:
            raise IntervalError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise IntervalError("ragged matrix")
        return rows

    @classmethod
    def identity(cls, n):
        return cls.from_pairs(
            [[(1.0, 1.0) if i == j else (0.0, 0.0) for j in range(n)] for i in range(n)]
        )

    @property
    def rows(self):
        return tuple(tuple(Interval(lo, hi) for lo, hi in row) for row in self.pairs)

    @property
    def nrows(self):
        return len(self.pairs)

    @property
    def ncols(self):
        return len(self.pairs[0])

    def __getitem__(self, ij):
        i, j = ij
        return Interval(*self.pairs[i][j])

    def __repr__(self):
        return f"IntervalMatrix({[list(r) for r in self.rows]!r})"

    def __add__(self, other):
        return self._entrywise(other, _k.iadd)

    def __sub__(self, other):
        return self._entrywise(other, _k.isub)

    def _entrywise(self, other, op):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise IntervalError("shape mismatch")
        return IntervalMatrix.from_pairs(
            [[op(a, b) for a, b in zip(ra, rb)]
             for ra, rb in zip(self.pairs, other.pairs)]
        )

    def scale(self, c):
        c = as_pair(c)
        imul = _k.imul
        return IntervalMatrix.from_pairs(
            [[imul(c, a) for a in row] for row in self.pairs]
        )

    def transpose(self):
        return _wrap(IntervalMatrix, tuple(zip(*self.pairs)))

    def mat_mul(self, other):
        if self.ncols != other.nrows:
            raise IntervalError("shape mismatch in matrix product")
        imul, iadd = _k.imul, _k.iadd
        # Each column keeps its nonzero entries with their row index; a term
        # with an exact-zero factor is skipped (see _nonzero).
        cols = [_nonzero(col) for col in zip(*other.pairs)]
        out = []
        for row in self.pairs:
            out_row = []
            for col in cols:
                acc = (0.0, 0.0)
                for k, b in col:
                    a = row[k]
                    if a[0] or a[1]:
                        acc = iadd(acc, imul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return IntervalMatrix.from_pairs(out)

    def mat_vec(self, v):
        if self.ncols != v.dim:
            raise IntervalError("shape mismatch in matrix-vector product")
        imul, iadd = _k.imul, _k.iadd
        nz = _nonzero(v.pairs)
        out = []
        for row in self.pairs:
            acc = (0.0, 0.0)
            for k, b in nz:
                a = row[k]
                if a[0] or a[1]:
                    acc = iadd(acc, imul(a, b))
            out.append(acc)
        return IntervalVector.from_pairs(out)


# -- the object route of an h-set's frame changes -----------------------------


def center_vec(h):
    """The center of the h-set h as a point IntervalVector."""
    return IntervalVector(h.center)


def frame(h):
    """The coordinate matrix M of h as a point IntervalMatrix."""
    return IntervalMatrix(h.coord)


def inv_coord(h):
    """The verified enclosure of M^-1 of h as an IntervalMatrix."""
    return IntervalMatrix.from_pairs(h.inv_coord)


def unit_cube(n):
    """The normalized cube [-1, 1]^n as an IntervalVector."""
    return IntervalVector([Interval(-1.0, 1.0)] * n)


def to_local(h, p):
    """Un-normalized local coordinates M^-1 (p - c) of the ambient box p,
    an IntervalVector."""
    return inv_coord(h).mat_vec(p - center_vec(h))


def to_normalized(h, p):
    """Normalized coordinates of the ambient box p; p is certified inside
    h iff the result is a subset of [-1,1]^n (sufficient direction only)."""
    idiv = _k.idiv
    return IntervalVector.from_pairs(
        [idiv(w, (d, d)) for w, d in zip(to_local(h, p).pairs, h.diam)]
    )


def local_derivative(src, tgt, jacobian):
    """A chart-coordinate Jacobian enclosure (an IntervalMatrix) in the
    un-normalized local frames.

    With T = tgt's M^-1 . jacobian, the first src.n columns are
    T[:, :n] . src's M, the derivative from src to tgt local coordinates;
    any further columns (a parameter's) are T[:, n:], the parameter
    derivative of the tgt local coordinates.
    """
    n = src.n
    t = inv_coord(tgt).mat_mul(jacobian).pairs
    block = IntervalMatrix.from_pairs([row[:n] for row in t]).mat_mul(frame(src)).pairs
    return IntervalMatrix.from_pairs([b + row[n:] for b, row in zip(block, t)])


def form_matrix(q):
    """The diagonal matrix of the cone form q as a point IntervalMatrix."""
    n = q.n
    return IntervalMatrix(
        [[q.coeffs[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    )
