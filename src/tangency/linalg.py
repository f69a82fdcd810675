"""Interval vectors and matrices over the scalar interval type.

Everything here is tuned for the tiny sizes the proofs use (n <= 4):
products are triple loops that skip every term with an exact-zero factor,
and the rigorous inverse has closed-form 2x2 blocks: each block of the
matrix's nonzero pattern is 1x1 or 2x2 (the planar (u, s) block of an h-set
frame) and is enclosed as adj/det, and the entries off the blocks are exact
zeros.

Entries are stored as ``(lo, hi)`` float pairs (``pairs``) and the products
call the kernels on them directly, with the operations of the scalar
:class:`Interval` expressions they replace, so the results are the same bit
for bit.  Indexing, iteration, ``rows`` and ``entries`` give Intervals.

A matrix that is fixed while the vectors it multiplies vary (an h-set's
frame, or rows of its inverse) keeps its :func:`nonzero_pattern`, built
once.  The covering's per-sub-box frame changes (tangency.hset and
tangency.covering) take each row of it against a sequence of pairs in a
loop written out where the product is needed, with no vector or matrix
object built per product: the terms of mat_vec, in its order, so the
results are the same bits.

Where pairs are checked: ``from_pairs`` and the public constructors check
every pair they are given, and each product, sum or scaling checks the
pairs it computes.  Pairs that are checked already are wrapped by
:func:`_wrap` and not checked again: a transpose, a row, a negation, and
the matrices and vectors the proof path assembles from checked pairs (an
h-set's box, a covering's local-frame hull, a disk's blocks of it, a cone
matrix).  The maps of the covering's map protocol take and return checked
pairs and build neither type.
"""

from __future__ import annotations

from tangency import kernels as _k
from tangency.interval import Interval, IntervalError, as_pair, check_pairs


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

    def __repr__(self):
        return f"IntervalVector({list(self.entries)!r})"

    def __eq__(self, other):
        if isinstance(other, IntervalVector):
            return self.pairs == other.pairs
        return NotImplemented

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

    def scale(self, c):
        c = as_pair(c)
        imul = _k.imul
        return IntervalVector.from_pairs([imul(c, a) for a in self.pairs])

    def norm_upper(self):
        """Upper bound of the Euclidean norm over all point selections."""
        isqr, iadd = _k.isqr, _k.iadd
        acc = (0.0, 0.0)
        for a_lo, a_hi in self.pairs:
            mag = max(abs(a_lo), abs(a_hi))
            acc = iadd(acc, isqr((mag, mag)))
        check_pairs((acc,))
        return _k.isqrt(acc)[1]

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
        self._conform_add(other)
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

    def _conform_add(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise IntervalError("shape mismatch")


def _nonzero(pairs):
    """The (index, pair) of each entry of pairs that is not an exact zero.

    A product term with an exact-zero factor is (+0.0, +0.0).  Adding it
    changes an accumulator only if that is -0.0, and a dot product's
    accumulator never is: it starts at +0.0, a lower bound is never -0.0,
    and an upper bound, a sum, is -0.0 only when both addends are (see
    tangency.kernels).  So the products skip such terms and their results
    keep every bit.
    """
    return [(k, p) for k, p in enumerate(pairs) if p[0] or p[1]]


def nonzero_pattern(rows):
    """The (index, pair) entries of each row of rows that are not exact
    zeros, as a tuple per row: the terms of the row in mat_vec."""
    return tuple(tuple(_nonzero(row)) for row in rows)


def _det(rows):
    """ad - bc of the 2x2 matrix [[a, b], [c, d]] of (lo, hi) pairs, checked."""
    (a, b), (c, d) = rows
    return check_pairs((_k.isub(_k.imul(a, d), _k.imul(b, c)),))[0]


def inverse_enclosure(a_rows):
    """Rigorous enclosure of the inverse of a point matrix, block by block.

    The indices split into the connected components of the nonzero pattern
    (i ~ j when a[i][j] or a[j][i] is nonzero); up to a permutation A is
    block diagonal, and so is its inverse.  A 1x1 block x gives 1/x in
    directed rounding (an exact 1 for x == 1).  A closed-form 2x2 block
    [[a, b], [c, d]] gives adj/det: each entry is one directed-rounding
    quotient of the cofactor d, -b, -c or a (exact, the entries being
    points) by the enclosure of ad - bc, and an exact zero for a zero
    cofactor.  Every entry off the blocks is an exact zero.  Raises
    IntervalError on a singular or non-finite matrix, and on a block
    larger than 2x2.
    """
    a = IntervalMatrix(a_rows)
    n = a.nrows
    if a.ncols != n:
        raise IntervalError("inverse of a non-square matrix")
    out = [[(0.0, 0.0)] * n for _ in range(n)]
    for block in _blocks(a.pairs):
        if len(block) == 1:
            (i,) = block
            x = a.pairs[i][i]
            if x[0] <= 0.0 <= x[1]:
                raise IntervalError("inverse_enclosure: singular 1x1 block")
            out[i][i] = _k.idiv((1.0, 1.0), x)
            continue
        if len(block) > 2:
            raise IntervalError(
                f"inverse_enclosure: a {len(block)}x{len(block)} block of the "
                "nonzero pattern; only 1x1 and 2x2 blocks are supported")
        i, j = block
        p = a.pairs
        rows = ((p[i][i], p[i][j]), (p[j][i], p[j][j]))
        det = _det(rows)
        if det[0] <= 0.0 <= det[1]:
            raise IntervalError("inverse_enclosure: singular 2x2 block")
        (aii, (b_lo, b_hi)), ((c_lo, c_hi), ajj) = rows
        out[i][i] = _k.idiv(ajj, det)
        out[i][j] = _k.idiv((-b_hi, -b_lo), det)
        out[j][i] = _k.idiv((-c_hi, -c_lo), det)
        out[j][j] = _k.idiv(aii, det)
    return IntervalMatrix.from_pairs(out)


def _blocks(rows):
    """The connected components of the nonzero pattern of a square matrix
    of (lo, hi) pairs, each as a sorted index list, ordered by their
    smallest index."""
    n = len(rows)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block, todo = [start], [start]
        while todo:
            i = todo.pop()
            for j in range(n):
                if not seen[j] and (any(rows[i][j]) or any(rows[j][i])):
                    seen[j] = True
                    block.append(j)
                    todo.append(j)
        blocks.append(sorted(block))
    return blocks
