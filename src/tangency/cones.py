"""Cone-condition verification via interval positive definiteness.

For a covering link (N, Q_N) => (M, Q_M) under f, the cone conditions hold
whenever the symmetric interval matrix

    V = [Df(N)]^T Q_M [Df(N)] - Q_N

(in the un-normalized local frames of N and M) is positive definite.  Df is
the local-frame derivative the covering certificate of the same link
carries; nothing here changes frames or evaluates a map.  An
interval symmetric matrix A_c + [-1,1] A_0 is positive definite iff all
2^(n-1) vertex matrices A_c - D(z) A_0 D(z) are (z and -z coincide, so the
first component is pinned to +1); each vertex is decided by a rigorous
Cholesky factorization run in interval arithmetic: every pivot must be
certified strictly positive.  The vertices share one factorization over the
tree of their sign prefixes, and vertices that differ only in the sign of
an index with zero off-diagonal radii share every bit (rump_positive_definite).
The tree is walked by a module-level recursion, _cholesky_column, that is
passed the test's data, not a closure over it: a closure that calls itself
is a reference cycle, and would leave each test's working data to the
cyclic garbage collector.  A test's data is freed by reference counting
when it returns or raises.

Every matrix here is rows of (lo, hi) pairs.  Where pairs are checked:
the public entry points check the shape and pairs of the matrices they are
handed (linalg.checked_rows); cone_matrix builds V on pairs, D^T Q_M and D
being checked as they enter their product, linalg.mat_mul, which checks
that product, and V once, after the halving; the Cholesky run checks each
pivot and factor entry before it enters a product.  The tests' oracle of V
is the same expression in the interval matrix objects of
tests/linalg_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from tangency import kernels as _k
from tangency.covering import VerificationInconclusive, certify_each
from tangency.interval import IntervalError, as_pair, check_pairs, pair_mid
from tangency.linalg import checked_rows, mat_mul


@dataclass(frozen=True)
class RumpResult:
    positive_definite: bool
    vertex_margins: tuple  # ((z, min_pivot_lower_bound_or_None), ...)

    def min_margin(self):
        vals = [m for _, m in self.vertex_margins if m is not None]
        return min(vals) if vals else None

    def to_dict(self):
        return {
            "positive_definite": self.positive_definite,
            "vertices": [
                {"z": list(z), "min_pivot": m} for z, m in self.vertex_margins
            ],
        }


@dataclass(frozen=True)
class ConeCertificate:
    link: str
    matrix: tuple = field(compare=False)  # V, rows of (lo, hi) pairs
    rump: RumpResult = field(compare=False)

    def to_dict(self):
        return {
            "type": "cone",
            "link": self.link,
            "V": [[list(e) for e in row] for row in self.matrix],
            "rump": self.rump.to_dict(),
        }


def midrad_split(a):
    """Symmetric midpoint/radius split with outward rounding of the square
    matrix a, rows of (lo, hi) pairs: the returned (C, R) satisfy a[i][j]
    within [C - R, C + R] entrywise."""
    n = len(a)
    c = [[0.0] * n for _ in range(n)]
    r = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            lo, hi = a[i][j]
            m = pair_mid(lo, hi)
            rad = max(_k.sub_up(hi, m), _k.sub_up(m, lo))
            c[i][j] = c[j][i] = m
            r[i][j] = r[j][i] = rad
    return c, r


def vertex_signs(n):
    """The sign vectors z of the 2^(n-1) vertex matrices C - D(z) R D(z)."""
    return [(1,) + tail for tail in product((1, -1), repeat=n - 1)]


def rump_positive_definite(a):
    """Decide positive definiteness of a symmetric interval matrix, rows of
    (lo, hi) pairs.

    True iff every vertex matrix passes the rigorous Cholesky; False means
    inconclusive/indefinite, never a disproof of the original enclosure.
    A matrix that is empty, ragged or not square, or whose pairs are not
    exactly symmetric, is an error: the test reads only the lower triangle.

    One interval Cholesky runs over the tree of sign prefixes, since column
    j of vertex z depends only on z_1..z_j and, in row i, on z_i: each pivot
    is computed once per prefix, each factor entry once per prefix and row
    sign, each vertex entry c_ij - s r_ij once per sign s = z_i z_j.  A
    pivot not certified positive gives None for every vertex below it.
    Every pivot and factor entry takes the kernel calls a separate run on
    its vertex would, so the margins are those runs' bits, in
    vertex_signs(n) order.  Where every off-diagonal radius in row and
    column j is zero, no vertex matrix depends on z_j: the z_j = -1 subtree
    is not run, and its outcomes are the +1 subtree's with z_j flipped, so
    each distinct vertex matrix is factored once (a diagonal V, one).  The
    factor is kept as (lo, hi) pairs; each pivot and factor entry is
    checked like an Interval before it enters a product.
    """
    rows = checked_rows(a)
    n = len(rows)
    if len(rows[0]) != n:
        raise IntervalError("positive definiteness requires a square matrix")
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise IntervalError(
                    f"positive definiteness requires a symmetric matrix: "
                    f"entries ({i}, {j}) and ({j}, {i}) differ"
                )
    c, r = midrad_split(rows)
    isub = _k.isub
    # enclosures of the exact reals c_ij - s r_ij: s = +1 on the diagonal;
    # below it one pair per sign, indexed by s < 0
    diag = [isub((c[i][i], c[i][i]), (r[i][i], r[i][i])) for i in range(n)]
    off = [
        [(isub((c_ij, c_ij), (r_ij, r_ij)), isub((c_ij, c_ij), (-r_ij, -r_ij)))
         for c_ij, r_ij in zip(c[i][:i], r[i][:i])]
        for i in range(n)
    ]
    # Index j is free when r_ij = 0 for every i != j: no vertex matrix reads
    # z_j, and each pair of off that row j or column j picks from is one
    # value twice, up to zero signs that the factor's quotients erase.
    free = [all(r[i][j] == 0.0 for i in range(n) if i != j) for j in range(n)]
    outcomes = []
    tree = (n, diag, off, free, outcomes)
    _cholesky_column(tree, (1,), (), [((), ())] * (n - 1), None)
    ok = all(margin is not None for _, margin in outcomes)
    return RumpResult(positive_definite=ok, vertex_margins=tuple(outcomes))


def _cholesky_column(tree, z, low_j, below, min_pivot):
    """Column j = len(z) - 1 of the factor under the signs z of rows 0..j,
    and the subtrees below it; each vertex's (z, min pivot or None) is
    appended to outcomes in vertex_signs order.

    tree is (n, diag, off, free, outcomes) of rump_positive_definite.  low_j
    is row j's factor so far; below[i - j - 1] is row i's, under z[:j], as
    the pair (z_i = +1, z_i = -1).  A module-level function, not a closure
    over the test's data, so that no reference cycle outlives the test.
    """
    n, diag, off, free, outcomes = tree
    isub, isqr = _k.isub, _k.isqr
    j = len(z) - 1
    pivot = diag[j]
    for k in range(j):
        pivot = isub(pivot, isqr(low_j[k]))
    check_pairs((pivot,))
    lo = pivot[0]
    if lo <= 0.0:
        tails = product((1, -1), repeat=n - 1 - j)
        outcomes.extend((z + tail, None) for tail in tails)
        return
    if min_pivot is None or lo < min_pivot:
        min_pivot = lo
    if j == n - 1:
        outcomes.append((z, min_pivot))
        return
    imul, idiv = _k.imul, _k.idiv
    ljj = _k.isqrt(pivot)
    zj = z[j]
    grown = []
    for i, low_i in enumerate(below, j + 1):
        pair = []
        for z_i, low in zip((1, -1), low_i):
            s = off[i][j][z_i != zj]
            for k in range(j):
                s = isub(s, imul(low[k], low_j[k]))
            pair.append(low + check_pairs((idiv(s, ljj),)))
        grown.append(pair)
    start = len(outcomes)
    _cholesky_column(tree, z + (1,), grown[0][0], grown[1:], min_pivot)
    if free[j + 1]:
        # The z_(j+1) = -1 subtree is the +1 subtree's bits.
        outcomes.extend(
            (v[:j + 1] + (-1,) + v[j + 2:], m) for v, m in outcomes[start:]
        )
    else:
        _cholesky_column(tree, z + (-1,), grown[0][1], grown[1:], min_pivot)


def cone_matrix(d_loc, q_src, q_tgt, inflate_src=1.0):
    """V = D^T Q_M D - c Q_N, symmetrized.

    d_loc, rows of (lo, hi) pairs, must enclose the local-frame derivative
    over all of the source set, as a covering certificate's local_jacobian
    does; inflate_src is c (used as 1 + eps by the manifold constants).  D
    is d_loc's first q_src.n columns: a disk's local_jacobian carries the
    parameter column after them, which V does not read.  An empty or ragged
    d_loc, or one with other than q_tgt.n rows or fewer than q_src.n
    columns, is an error.

    The forms are diagonal: D^T Q_M is D^T with its columns scaled by the
    coefficients of Q_M, and c Q_N changes the diagonal only.  Every entry
    takes the kernel calls of symmetrize(D^T.mat_mul(Q_M).mat_mul(D) - c Q_N)
    in the interval matrix operations of the tests' oracle, except those
    with an exact-zero operand, which change no bit here (no bound of a
    product, and no lower bound of D^T Q_M D, is -0.0): V is that
    expression's bits.  D^T Q_M is checked as it enters (D^T Q_M) D, one
    mat_mul, which checks its product; V's entries are checked once, after
    the halving, which keeps a non-finite bound non-finite.
    """
    n = q_src.n
    q = q_tgt.coeffs
    d_loc = checked_rows(d_loc)
    if len(d_loc) != len(q):
        raise IntervalError("shape mismatch in matrix product")
    if len(d_loc[0]) < n:
        raise IntervalError("shape mismatch")
    d = tuple([row[:n] for row in d_loc])
    imul, iadd, isub = _k.imul, _k.iadd, _k.isub
    dtq = tuple(
        tuple([imul(d[k][i], (q_k, q_k)) for k, q_k in enumerate(q)]) for i in range(n)
    )
    w = [list(row) for row in mat_mul(dtq, d)]
    c = as_pair(inflate_src)
    for i, q_i in enumerate(q_src.coeffs):
        cq = (q_i, q_i) if inflate_src == 1.0 else imul(c, (q_i, q_i))
        w[i][i] = isub(w[i][i], cq)
    lower = [
        [imul((0.5, 0.5), iadd(w[i][j], w[j][i])) for j in range(i + 1)]
        for i in range(n)
    ]
    check_pairs([e for row in lower for e in row])
    return tuple(
        tuple([lower[i][j] if j <= i else lower[j][i] for j in range(n)])
        for i in range(n)
    )


def check_cone_link(covering, q_src, q_tgt):
    """Certify the cone condition on one covering link from its certificate.

    Only V and its test are computed: the derivative is the certificate's
    local_jacobian, and the link is named after its source and target.
    """
    link = f"{covering.source}=>{covering.target}"
    try:
        v = cone_matrix(covering.local_jacobian, q_src, q_tgt)
        rump = rump_positive_definite(v)
    except IntervalError as exc:
        raise VerificationInconclusive("cones", link, str(exc))
    if not rump.positive_definite:
        raise VerificationInconclusive(
            "cones", link, "interval matrix not certified positive definite"
        )
    return ConeCertificate(link=link, matrix=v, rump=rump)


def check_cone_chain(forms, coverings):
    """Cone certificates for every link of a certified covering chain.

    coverings[i] certifies the link from the set of forms[i] to that of
    forms[i + 1].  The first inconclusive link aborts with the links
    certified before it.
    """
    if not coverings:
        raise IntervalError("a chain needs at least one link")
    if len(forms) != len(coverings) + 1:
        raise IntervalError("one form per h-set required")
    return certify_each("cones", check_cone_link, [
        (covering, forms[idx], forms[idx + 1]) for idx, covering in enumerate(coverings)
    ])
