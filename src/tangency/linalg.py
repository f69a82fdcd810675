"""Interval vectors and matrices over the scalar interval type.

Everything here is dimension-agnostic but tuned for the tiny sizes the proofs
use (n <= 4): products are plain triple loops, determinants are cofactor
expansions, and the rigorous inverse is an approximate float inverse wrapped
in a Neumann-series residual enclosure.
"""

from __future__ import annotations

from tangency.interval import Interval, IntervalError, as_interval


class IntervalVector:
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(as_interval(e) for e in entries)
        if not self.entries:
            raise IntervalError("empty vector")

    @property
    def dim(self):
        return len(self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self):
        return f"IntervalVector({list(self.entries)!r})"

    def __eq__(self, other):
        if isinstance(other, IntervalVector):
            return self.entries == other.entries
        return NotImplemented

    def __add__(self, other):
        self._check(other)
        return IntervalVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check(other)
        return IntervalVector([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return IntervalVector([-a for a in self.entries])

    def scale(self, c):
        c = as_interval(c)
        return IntervalVector([c * a for a in self.entries])

    def dot(self, other):
        self._check(other)
        acc = Interval(0.0)
        for a, b in zip(self.entries, other.entries):
            acc = acc + a * b
        return acc

    def norm_upper(self):
        """Upper bound of the Euclidean norm over all point selections."""
        acc = Interval(0.0)
        for a in self.entries:
            acc = acc + Interval(a.mag).sqr()
        return acc.sqrt().hi

    def mids(self):
        return [a.mid for a in self.entries]

    def hull(self, other):
        self._check(other)
        return IntervalVector([a.hull(b) for a, b in zip(self.entries, other.entries)])

    def is_subset(self, other):
        self._check(other)
        return all(a.is_subset(b) for a, b in zip(self.entries, other.entries))

    def _check(self, other):
        if self.dim != other.dim:
            raise IntervalError(f"dimension mismatch: {self.dim} vs {other.dim}")


class IntervalMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(as_interval(e) for e in row) for row in rows)
        if not self.rows or not self.rows[0]:
            raise IntervalError("empty matrix")
        ncols = len(self.rows[0])
        if any(len(r) != ncols for r in self.rows):
            raise IntervalError("ragged matrix")

    @classmethod
    def identity(cls, n):
        return cls([[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_point(cls, rows):
        return cls([[Interval(e) for e in row] for row in rows])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return f"IntervalMatrix({[list(r) for r in self.rows]!r})"

    def row(self, i):
        return IntervalVector(self.rows[i])

    def __add__(self, other):
        self._conform_add(other)
        return IntervalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        self._conform_add(other)
        return IntervalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def scale(self, c):
        c = as_interval(c)
        return IntervalMatrix([[c * a for a in row] for row in self.rows])

    def hull(self, other):
        self._conform_add(other)
        return IntervalMatrix(
            [[a.hull(b) for a, b in zip(ra, rb)]
             for ra, rb in zip(self.rows, other.rows)]
        )

    def transpose(self):
        return IntervalMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def mat_mul(self, other):
        if self.ncols != other.nrows:
            raise IntervalError("shape mismatch in matrix product")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = Interval(0.0)
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return IntervalMatrix(out)

    def mat_vec(self, v):
        if self.ncols != v.dim:
            raise IntervalError("shape mismatch in matrix-vector product")
        out = []
        for i in range(self.nrows):
            acc = Interval(0.0)
            for k in range(self.ncols):
                acc = acc + self.rows[i][k] * v[k]
            out.append(acc)
        return IntervalVector(out)

    def norm_inf_upper(self):
        """Upper bound on the infinity operator norm over point selections."""
        best = 0.0
        for row in self.rows:
            acc = Interval(0.0)
            for e in row:
                acc = acc + Interval(e.mag)
            best = max(best, acc.hi)
        return best

    def det(self):
        n = self.nrows
        if n != self.ncols:
            raise IntervalError("determinant of non-square matrix")
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            a, b = self.rows[0]
            c, d = self.rows[1]
            return a * d - b * c
        acc = Interval(0.0)
        for j in range(n):
            minor = IntervalMatrix(
                [
                    [self.rows[i][k] for k in range(n) if k != j]
                    for i in range(1, n)
                ]
            )
            term = self.rows[0][j] * minor.det()
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    def _conform_add(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise IntervalError("shape mismatch")


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


def inverse_enclosure(a_rows, max_sweeps=2):
    """Rigorous enclosure of the inverse of a point matrix.

    Computes a float approximate inverse R0 and bounds A^-1 within
    R0 (I + C + E) where C = I - A R0 and E absorbs the Neumann tail,
    requiring the residual norm q = ||C||_inf < 1.  Raises on failure.
    """
    n = len(a_rows)
    a = IntervalMatrix.from_point(a_rows)
    r0_rows = approx_inverse(a_rows)
    r0 = IntervalMatrix.from_point(r0_rows)
    for _ in range(max_sweeps):
        c = IntervalMatrix.identity(n) - a.mat_mul(r0)
        q = c.norm_inf_upper()
        if q < 1.0:
            tail = (Interval(q).sqr() / (Interval(1.0) - Interval(q))).hi
            e = IntervalMatrix([[Interval(-tail, tail)] * n for _ in range(n)])
            inv = r0.mat_mul(IntervalMatrix.identity(n) + c + e)
            return inv
        # One refinement sweep: R0 <- R0 (2I - A R0), then retry.
        two_i = IntervalMatrix.identity(n).scale(2.0)
        r0 = IntervalMatrix.from_point(
            [[e.mid for e in row] for row in r0.mat_mul(two_i - a.mat_mul(r0)).rows]
        )
    raise IntervalError("inverse_enclosure: residual check failed (singular matrix?)")


def residual_norm(a_rows, inv):
    """||I - A R||_inf upper bound, for audits of inverse_enclosure output."""
    a = IntervalMatrix.from_point(a_rows)
    n = len(a_rows)
    return (IntervalMatrix.identity(n) - a.mat_mul(inv)).norm_inf_upper()
