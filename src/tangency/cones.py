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
certified strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from tangency import kernels as _k
from tangency.covering import VerificationInconclusive
from tangency.interval import IntervalError, check_pairs, pair_mid
from tangency.linalg import IntervalMatrix


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
    matrix: IntervalMatrix = field(compare=False)
    rump: RumpResult = field(compare=False)

    def to_dict(self):
        return {
            "type": "cone",
            "link": self.link,
            "V": [[list(e) for e in row] for row in self.matrix.pairs],
            "rump": self.rump.to_dict(),
        }


def symmetrize(m):
    """Average an interval matrix with its transpose enclosure."""
    return (m + m.transpose()).scale(0.5)


def interval_cholesky_min_pivot(a):
    """Smallest certified pivot of an interval Cholesky run, or None.

    Returns a strictly positive lower bound on every pivot if the
    factorization certifies positive definiteness of all point matrices in
    a; None as soon as some pivot cannot be certified positive.  The run
    keeps its factor as (lo, hi) pairs; each pivot and factor entry is
    checked like an Interval before it enters a product.
    """
    n = a.nrows
    if a.ncols != n:
        raise IntervalError("cholesky requires a square matrix")
    imul, isub, isqr, idiv = _k.imul, _k.isub, _k.isqr, _k.idiv
    rows = a.pairs
    low = [[None] * n for _ in range(n)]
    min_pivot = None
    for j in range(n):
        low_j = low[j]
        lo, hi = rows[j][j]
        for k in range(j):
            lo, hi = isub(lo, hi, *isqr(*low_j[k]))
        check_pairs(((lo, hi),))
        if lo <= 0.0:
            return None
        if min_pivot is None or lo < min_pivot:
            min_pivot = lo
        ljj = _k.isqrt(lo, hi)
        for i in range(j + 1, n):
            low_i = low[i]
            s_lo, s_hi = rows[i][j]
            for k in range(j):
                s_lo, s_hi = isub(s_lo, s_hi, *imul(*low_i[k], *low_j[k]))
            low_i[j] = check_pairs((idiv(s_lo, s_hi, *ljj),))[0]
    return min_pivot


def midrad_split(a):
    """Symmetric midpoint/radius split with outward rounding: the returned
    (C, R) satisfy a[i][j] within [C - R, C + R] entrywise."""
    n = a.nrows
    c = [[0.0] * n for _ in range(n)]
    r = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            lo, hi = a.pairs[i][j]
            m = pair_mid(lo, hi)
            rad = max(_k.sub_up(hi, m), _k.sub_up(m, lo))
            c[i][j] = c[j][i] = m
            r[i][j] = r[j][i] = rad
    return c, r


def vertex_signs(n):
    """The sign vectors z of the 2^(n-1) vertex matrices C - D(z) R D(z)."""
    return [(1,) + tail for tail in product((1, -1), repeat=n - 1)]


def rump_positive_definite(a):
    """Decide positive definiteness of a symmetric interval matrix.

    True iff every vertex matrix passes the rigorous Cholesky; False means
    inconclusive/indefinite, never a disproof of the original enclosure.
    """
    n = a.nrows
    c, r = midrad_split(a)
    isub = _k.isub
    outcomes = []
    ok = True
    for z in vertex_signs(n):
        # enclosures of the exact reals c_ij - z_i z_j r_ij
        rows = [
            [isub(c_ij, c_ij, zz * r_ij, zz * r_ij)
             for c_ij, r_ij, zz in zip(c_i, r_i, (z_i * z_j for z_j in z))]
            for c_i, r_i, z_i in zip(c, r, z)
        ]
        margin = interval_cholesky_min_pivot(IntervalMatrix.from_pairs(rows))
        outcomes.append((z, margin))
        if margin is None:
            ok = False
    return RumpResult(positive_definite=ok, vertex_margins=tuple(outcomes))


def cone_matrix(d_loc, q_src, q_tgt, inflate_src=1.0):
    """V = D^T Q_M D - c Q_N, symmetrized.

    d_loc must enclose the local-frame derivative over all of the source
    set, as a covering certificate's local_jacobian does; inflate_src is c
    (used as 1 + eps by the manifold constants).
    """
    v = d_loc.transpose().mat_mul(q_tgt.matrix()).mat_mul(d_loc)
    qn = q_src.matrix() if inflate_src == 1.0 else q_src.matrix().scale(inflate_src)
    return symmetrize(v - qn)


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
    certs = []
    for idx, covering in enumerate(coverings):
        try:
            certs.append(check_cone_link(covering, forms[idx], forms[idx + 1]))
        except VerificationInconclusive as exc:
            exc.certified = {"cones": tuple(certs)}
            raise
    return certs
