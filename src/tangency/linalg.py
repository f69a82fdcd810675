"""Interval matrices as rows of ``(lo, hi)`` float pairs.

Everything here is tuned for the tiny sizes the proofs use (n <= 4):
products are triple loops that skip every term with an exact-zero factor,
and the rigorous inverse has closed-form 2x2 blocks: each block of the
matrix's nonzero pattern is 1x1 or 2x2 (the planar (u, s) block of an h-set
frame) and is enclosed as adj/det, and the entries off the blocks are exact
zeros.

A matrix that is fixed while the vectors it multiplies vary (an h-set's
frame, or rows of its inverse) keeps its :func:`nonzero_pattern`, built
once.  The covering's per-sub-box frame changes (tangency.hset and
tangency.covering) take each row of it against a sequence of pairs in a
loop written out where the product is needed: the terms of a matrix-vector
product, in their order.

Where pairs are checked: :func:`checked_rows` checks the shape and every
pair of a matrix handed to a public entry point, and each product checks
the pairs it computes.  The tests' oracle, ``tests/linalg_oracle.py``,
holds the interval vector and matrix objects whose products these loops
match bit for bit.
"""

from __future__ import annotations

from tangency import kernels as _k
from tangency.interval import IntervalError, as_pair, check_pairs


def checked_rows(rows):
    """rows as a tuple of tuples of (lo, hi) pairs, each checked as Interval
    checks them; IntervalError on an empty or ragged matrix."""
    rows = tuple(tuple(check_pairs(tuple(row))) for row in rows)
    if not rows or not rows[0]:
        raise IntervalError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise IntervalError("ragged matrix")
    return rows


def mat_mul(a, b):
    """The product of the matrices a and b, rows of (lo, hi) pairs, as a
    checked tuple of rows.  Each column of b keeps its nonzero entries with
    their row index; a term with an exact-zero factor is skipped (see
    _nonzero)."""
    a, b = checked_rows(a), checked_rows(b)
    if len(a[0]) != len(b):
        raise IntervalError("shape mismatch in matrix product")
    imul, iadd = _k.imul, _k.iadd
    cols = [_nonzero(col) for col in zip(*b)]
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = (0.0, 0.0)
            for k, e in col:
                f = row[k]
                if f[0] or f[1]:
                    acc = iadd(acc, imul(f, e))
            out_row.append(acc)
        out.append(tuple(check_pairs(out_row)))
    return tuple(out)


def norm_upper(pairs):
    """Upper bound of the Euclidean norm of the vector of (lo, hi) pairs
    over all point selections."""
    isqr, iadd = _k.isqr, _k.iadd
    acc = (0.0, 0.0)
    for a_lo, a_hi in pairs:
        mag = max(abs(a_lo), abs(a_hi))
        acc = iadd(acc, isqr((mag, mag)))
    check_pairs((acc,))
    return _k.isqrt(acc)[1]


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
    zeros, as a tuple per row: the terms of the row in a matrix-vector
    product."""
    return tuple(tuple(_nonzero(row)) for row in rows)


def _det(rows):
    """ad - bc of the 2x2 matrix [[a, b], [c, d]] of (lo, hi) pairs, checked."""
    (a, b), (c, d) = rows
    return check_pairs((_k.isub(_k.imul(a, d), _k.imul(b, c)),))[0]


def inverse_enclosure(a_rows):
    """Rigorous enclosure of the inverse of a point matrix, block by block,
    as a tuple of rows of (lo, hi) pairs.

    The indices split into the connected components of the nonzero pattern
    (i ~ j when a[i][j] or a[j][i] is nonzero); up to a permutation A is
    block diagonal, and so is its inverse.  A 1x1 block x gives 1/x in
    directed rounding (an exact 1 for x == 1).  A closed-form 2x2 block
    [[a, b], [c, d]] gives adj/det: each entry is one directed-rounding
    quotient of the cofactor d, -b, -c or a (exact, the entries being
    points) by the enclosure of ad - bc, and an exact zero for a zero
    cofactor.  Every entry off the blocks is an exact zero.  Raises
    IntervalError on an empty, ragged, non-square, singular or non-finite
    matrix, and on a block larger than 2x2.
    """
    p = checked_rows([as_pair(e) for e in row] for row in a_rows)
    n = len(p)
    if len(p[0]) != n:
        raise IntervalError("inverse of a non-square matrix")
    out = [[(0.0, 0.0)] * n for _ in range(n)]
    for block in _blocks(p):
        if len(block) == 1:
            (i,) = block
            x = p[i][i]
            if x[0] <= 0.0 <= x[1]:
                raise IntervalError("inverse_enclosure: singular 1x1 block")
            out[i][i] = _k.idiv((1.0, 1.0), x)
            continue
        if len(block) > 2:
            raise IntervalError(
                f"inverse_enclosure: a {len(block)}x{len(block)} block of the "
                "nonzero pattern; only 1x1 and 2x2 blocks are supported")
        i, j = block
        rows = ((p[i][i], p[i][j]), (p[j][i], p[j][j]))
        det = _det(rows)
        if det[0] <= 0.0 <= det[1]:
            raise IntervalError("inverse_enclosure: singular 2x2 block")
        (aii, (b_lo, b_hi)), ((c_lo, c_hi), ajj) = rows
        out[i][i] = _k.idiv(ajj, det)
        out[i][j] = _k.idiv((-b_hi, -b_lo), det)
        out[j][i] = _k.idiv((-c_hi, -c_lo), det)
        out[j][j] = _k.idiv(aii, det)
    return checked_rows(out)


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
