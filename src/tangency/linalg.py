"""Interval vectors and matrices over the scalar interval type.

Everything here is dimension-agnostic but tuned for the tiny sizes the proofs
use (n <= 4): products are plain triple loops, determinants are cofactor
expansions, and the rigorous inverse is an approximate float inverse wrapped
in a Neumann-series residual enclosure.

Entries are stored as ``(lo, hi)`` float pairs (``pairs``) and the products
call the kernels on them directly, with the operations of the scalar
:class:`Interval` expressions they replace, so the results are the same bit
for bit.  Indexing, iteration, ``rows`` and ``entries`` give Intervals.
"""

from __future__ import annotations

from tangency import kernels as _k
from tangency.interval import (
    Interval,
    IntervalError,
    as_pair,
    check_pairs,
    pair_mid,
)


class IntervalVector:
    __slots__ = ("pairs",)

    def __init__(self, entries):
        self.pairs = tuple(as_pair(e) for e in entries)
        if not self.pairs:
            raise IntervalError("empty vector")

    @classmethod
    def from_pairs(cls, pairs):
        """The vector of the (lo, hi) pairs, checked as Interval checks them."""
        v = cls.__new__(cls)
        v.pairs = check_pairs(tuple(pairs))
        if not v.pairs:
            raise IntervalError("empty vector")
        return v

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
            [op(*a, *b) for a, b in zip(self.pairs, other.pairs)]
        )

    def __neg__(self):
        return IntervalVector.from_pairs([(-hi, -lo) for lo, hi in self.pairs])

    def scale(self, c):
        c = as_pair(c)
        imul = _k.imul
        return IntervalVector.from_pairs([imul(*c, *a) for a in self.pairs])

    def dot(self, other):
        self._check(other)
        imul, iadd = _k.imul, _k.iadd
        lo = hi = 0.0
        for a, b in zip(self.pairs, other.pairs):
            lo, hi = iadd(lo, hi, *imul(*a, *b))
        return Interval(lo, hi)

    def norm_upper(self):
        """Upper bound of the Euclidean norm over all point selections."""
        isqr, iadd = _k.isqr, _k.iadd
        lo = hi = 0.0
        for a_lo, a_hi in self.pairs:
            mag = max(abs(a_lo), abs(a_hi))
            lo, hi = iadd(lo, hi, *isqr(mag, mag))
        check_pairs(((lo, hi),))
        return _k.isqrt(lo, hi)[1]

    def mids(self):
        return [pair_mid(lo, hi) for lo, hi in self.pairs]

    def hull(self, other):
        self._check(other)
        return IntervalVector.from_pairs(
            [(min(al, bl), max(ah, bh))
             for (al, ah), (bl, bh) in zip(self.pairs, other.pairs)]
        )

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
        m = cls.__new__(cls)
        m.pairs = cls._shaped(tuple(tuple(check_pairs(row)) for row in rows))
        return m

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

    def row(self, i):
        return IntervalVector.from_pairs(self.pairs[i])

    def __add__(self, other):
        return self._entrywise(other, _k.iadd)

    def __sub__(self, other):
        return self._entrywise(other, _k.isub)

    def _entrywise(self, other, op):
        self._conform_add(other)
        return IntervalMatrix.from_pairs(
            [[op(*a, *b) for a, b in zip(ra, rb)]
             for ra, rb in zip(self.pairs, other.pairs)]
        )

    def scale(self, c):
        c = as_pair(c)
        imul = _k.imul
        return IntervalMatrix.from_pairs(
            [[imul(*c, *a) for a in row] for row in self.pairs]
        )

    def hull(self, other):
        self._conform_add(other)
        return IntervalMatrix.from_pairs(
            [[(min(al, bl), max(ah, bh)) for (al, ah), (bl, bh) in zip(ra, rb)]
             for ra, rb in zip(self.pairs, other.pairs)]
        )

    def transpose(self):
        return IntervalMatrix.from_pairs(list(zip(*self.pairs)))

    def mat_mul(self, other):
        if self.ncols != other.nrows:
            raise IntervalError("shape mismatch in matrix product")
        imul, iadd = _k.imul, _k.iadd
        cols = list(zip(*other.pairs))
        out = []
        for row in self.pairs:
            out_row = []
            for col in cols:
                lo = hi = 0.0
                for a, b in zip(row, col):
                    lo, hi = iadd(lo, hi, *imul(*a, *b))
                out_row.append((lo, hi))
            out.append(out_row)
        return IntervalMatrix.from_pairs(out)

    def mat_vec(self, v):
        if self.ncols != v.dim:
            raise IntervalError("shape mismatch in matrix-vector product")
        imul, iadd = _k.imul, _k.iadd
        out = []
        for row in self.pairs:
            lo = hi = 0.0
            for a, b in zip(row, v.pairs):
                lo, hi = iadd(lo, hi, *imul(*a, *b))
            out.append((lo, hi))
        return IntervalVector.from_pairs(out)

    def norm_inf_upper(self):
        """Upper bound on the infinity operator norm over point selections."""
        iadd = _k.iadd
        best = 0.0
        for row in self.pairs:
            lo = hi = 0.0
            for e_lo, e_hi in row:
                mag = max(abs(e_lo), abs(e_hi))
                lo, hi = iadd(lo, hi, mag, mag)
            best = max(best, check_pairs(((lo, hi),))[0][1])
        return best

    def det(self):
        if self.nrows != self.ncols:
            raise IntervalError("determinant of non-square matrix")
        return Interval(*_det(self.pairs))

    def _conform_add(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise IntervalError("shape mismatch")


def _det(rows):
    """Cofactor expansion along the first row, over (lo, hi) pairs; each
    minor's determinant is checked before it enters a product."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return check_pairs((_k.isub(*_k.imul(*a, *d), *_k.imul(*b, *c)),))[0]
    lo = hi = 0.0
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = _k.imul(*rows[0][j], *_det(minor))
        lo, hi = (_k.iadd if j % 2 == 0 else _k.isub)(lo, hi, *term)
    return check_pairs(((lo, hi),))[0]


def det4(a):
    """Cofactor-expansion determinant enclosure of a 4x4 interval matrix."""
    if a.nrows != 4 or a.ncols != 4:
        raise IntervalError("det4 requires a 4x4 matrix")
    return a.det()


def _float_solve(a, rhs_cols):
    """Plain float Gaussian elimination with partial pivoting; a is n x n."""
    n = len(a)
    m = [list(map(float, row)) + list(map(float, rhs)) for row, rhs in zip(a, rhs_cols)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0.0:
            raise IntervalError("numerically singular matrix")
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col] / p
            if f != 0.0:
                for c in range(col, len(m[r])):
                    m[r][c] -= f * m[col][c]
    return [[m[r][n + c] / m[r][r] for c in range(len(m[0]) - n)] for r in range(n)]


def approx_inverse(a_rows):
    """Non-rigorous float inverse, the seed for inverse_enclosure."""
    n = len(a_rows)
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return _float_solve([list(r) for r in a_rows], eye)


# Refinement sweeps of inverse_enclosure's float inverse before it gives up.
INVERSE_SWEEPS = 2


def inverse_enclosure(a_rows):
    """Rigorous enclosure of the inverse of a point matrix.

    Computes a float approximate inverse R0 and bounds A^-1 within
    R0 (I + C + E) where C = I - A R0 and E absorbs the Neumann tail,
    requiring the residual norm q = ||C||_inf < 1.  Raises on failure.
    """
    n = len(a_rows)
    a = IntervalMatrix(a_rows)
    r0_rows = approx_inverse(a_rows)
    r0 = IntervalMatrix(r0_rows)
    for _ in range(INVERSE_SWEEPS):
        c = IntervalMatrix.identity(n) - a.mat_mul(r0)
        q = c.norm_inf_upper()
        if q < 1.0:
            tail = (Interval(q).sqr() / (Interval(1.0) - Interval(q))).hi
            e = IntervalMatrix.from_pairs([[(-tail, tail)] * n for _ in range(n)])
            inv = r0.mat_mul(IntervalMatrix.identity(n) + c + e)
            return inv
        # One refinement sweep: R0 <- R0 (2I - A R0), then retry.
        two_i = IntervalMatrix.identity(n).scale(2.0)
        r0 = IntervalMatrix(
            [[pair_mid(*e) for e in row]
             for row in r0.mat_mul(two_i - a.mat_mul(r0)).pairs]
        )
    raise IntervalError("inverse_enclosure: residual check failed (singular matrix?)")


def residual_norm(a_rows, inv):
    """||I - A R||_inf upper bound, for audits of inverse_enclosure output."""
    a = IntervalMatrix(a_rows)
    n = len(a_rows)
    return (IntervalMatrix.identity(n) - a.mat_mul(inv)).norm_inf_upper()
