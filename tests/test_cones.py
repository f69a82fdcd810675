"""Cone machinery: Rump's vertex reduction, interval Cholesky, cone matrices."""

import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tangency import kernels as _k
from tangency.cones import (
    RumpResult,
    cone_matrix,
    midrad_split,
    rump_positive_definite,
    vertex_signs,
)
from tangency.hset import QuadraticForm
from tangency.interval import Interval, IntervalError, check_pairs
from linalg_oracle import IntervalMatrix, IntervalVector, form_matrix
from tangency.toy import ToyParams, build_toy_chain, switch_cone_blocks, switch_map
from conftest import pairs_hex, random_float


def symmetrize(m):
    """Average an interval matrix with its transpose enclosure."""
    return (m + m.transpose()).scale(0.5)


# -- per-vertex oracle -----------------------------------------------------------


def interval_cholesky_min_pivot(rows):
    """Smallest certified pivot of an interval Cholesky run, or None.

    Returns a strictly positive lower bound on every pivot if the
    factorization certifies positive definiteness of all point matrices in
    rows, rows of (lo, hi) pairs; None as soon as some pivot cannot be
    certified positive.  The run keeps its factor as (lo, hi) pairs; each
    pivot and factor entry is checked like an Interval before it enters a
    product.
    """
    n = len(rows)
    imul, isub, isqr, idiv = _k.imul, _k.isub, _k.isqr, _k.idiv
    low = [[None] * n for _ in range(n)]
    min_pivot = None
    for j in range(n):
        low_j = low[j]
        pivot = rows[j][j]
        for k in range(j):
            pivot = isub(pivot, isqr(low_j[k]))
        check_pairs((pivot,))
        lo = pivot[0]
        if lo <= 0.0:
            return None
        if min_pivot is None or lo < min_pivot:
            min_pivot = lo
        ljj = _k.isqrt(pivot)
        for i in range(j + 1, n):
            low_i = low[i]
            s = rows[i][j]
            for k in range(j):
                s = isub(s, imul(low_i[k], low_j[k]))
            low_i[j] = check_pairs((idiv(s, ljj),))[0]
    return min_pivot


def rump_per_vertex(a):
    """Rump's test with one separate Cholesky run per vertex matrix of a,
    rows of (lo, hi) pairs."""
    n = len(a)
    c, r = midrad_split(a)
    outcomes = []
    for z in vertex_signs(n):
        # enclosures of the exact reals c_ij - z_i z_j r_ij
        rows = [
            [_k.isub((c_ij, c_ij), (zz * r_ij, zz * r_ij))
             for c_ij, r_ij, zz in zip(c_i, r_i, (z_i * z_j for z_j in z))]
            for c_i, r_i, z_i in zip(c, r, z)
        ]
        outcomes.append((z, interval_cholesky_min_pivot(IntervalMatrix.from_pairs(rows).pairs)))
    ok = all(margin is not None for _, margin in outcomes)
    return RumpResult(positive_definite=ok, vertex_margins=tuple(outcomes))


def _sym_interval_matrix(rng, n, scale=2.0, rad=0.3):
    c = [[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            c[i][j] = c[j][i]
        c[i][i] += n * scale * 0.6  # push toward diagonal dominance sometimes
    r = [[rng.uniform(0.0, rad) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            r[i][j] = r[j][i]
    rows = [
        [Interval(c[i][j] - r[i][j], c[i][j] + r[i][j]) for j in range(n)]
        for i in range(n)
    ]
    return IntervalMatrix(rows), c, r


def _dot(x, y):
    """The interval dot product of two interval vectors."""
    return sum((a * b for a, b in zip(x, y)), Interval(0.0))


def _vertex_matrices(c, r):
    n = len(c)
    out = []
    from itertools import product

    for tail in product((1, -1), repeat=n - 1):
        z = (1,) + tail
        out.append(
            np.array(
                [[c[i][j] - z[i] * z[j] * r[i][j] for j in range(n)] for i in range(n)]
            )
        )
    return out


class TestRump:
    def test_diagonal_interval_matrix(self):
        m = IntervalMatrix(
            [[Interval(1, 2), Interval(0.0)], [Interval(0.0), Interval(3, 4)]]
        )
        res = rump_positive_definite(m.pairs)
        assert res.positive_definite
        assert len(res.vertex_margins) == 2
        assert res.min_margin() > 0.0

    def test_identity_with_rank_one_radius(self):
        # A_c = I, A_0 = 0.6 * ones: vertices I -+ 0.6 D(z) J D(z); decided
        # and cross-checked against an eigenvalue oracle per vertex.
        n = 2
        rows = [
            [Interval(1.0 - 0.6, 1.0 + 0.6) if i == j else Interval(-0.6, 0.6)
             for j in range(n)]
            for i in range(n)
        ]
        m = IntervalMatrix(rows)
        res = rump_positive_definite(m.pairs)
        c = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        r = [[0.6] * n for _ in range(n)]
        eigs = [np.linalg.eigvalsh(v).min() for v in _vertex_matrices(c, r)]
        assert res.positive_definite == all(e > 0 for e in eigs)

    def test_vertex_count_is_half(self):
        m, _, _ = _sym_interval_matrix(random.Random(5), 4)
        res = rump_positive_definite(m.pairs)
        assert len(res.vertex_margins) == 8  # 2^(4-1)

    def test_agreement_with_eigenvalue_oracle(self, rng):
        # Acceptance runs the full 1e3-sample version.
        for _ in range(200):
            n = rng.choice([2, 3])
            m, c, r = _sym_interval_matrix(rng, n)
            res = rump_positive_definite(m.pairs)
            mins = [np.linalg.eigvalsh(v).min() for v in _vertex_matrices(c, r)]
            if res.positive_definite:
                # no sampled point matrix may contradict the certificate
                assert all(e > 0 for e in mins)
            else:
                # inconclusive: some vertex must be near-singular or worse
                assert min(mins) < 1e-8

    def test_split_is_outward(self, rng):
        m, _, _ = _sym_interval_matrix(rng, 3)
        c, r = midrad_split(m.pairs)
        for i in range(3):
            for j in range(3):
                assert c[i][j] - r[i][j] <= m[i, j].lo
                assert m[i, j].hi <= c[i][j] + r[i][j]


class TestCholesky:
    def test_certified_pivots_imply_positivity(self, rng):
        for _ in range(100):
            m, c, r = _sym_interval_matrix(rng, 3, rad=0.05)
            pivot = interval_cholesky_min_pivot(m.pairs)
            certified = rump_positive_definite(m.pairs).positive_definite
            if pivot is None and not certified:
                continue
            assert pivot is None or pivot > 0.0
            for _ in range(20):
                x = np.array([rng.uniform(-1, 1) for _ in range(3)])
                a = np.array([[m[i, j].mid for j in range(3)] for i in range(3)])
                if np.linalg.norm(x) > 1e-9:
                    assert x @ a @ x > 0.0

    def test_zero_pivot_inconclusive(self):
        m = IntervalMatrix(
            [[Interval(1.0), Interval(1.0)], [Interval(1.0), Interval(1.0)]]
        )
        assert interval_cholesky_min_pivot(m.pairs) is None
        res = rump_positive_definite(m.pairs)
        assert res.vertex_margins == (((1, 1), None), ((1, -1), None))
        assert not res.positive_definite

    def test_overflow_raises(self):
        # The factor entry 1e300 / sqrt(1e-300) overflows: an error, as an
        # Interval holding it would be, not a verdict.
        m = IntervalMatrix([[1e-300, 1e300], [1e300, 1.0]])
        with pytest.raises(IntervalError):
            interval_cholesky_min_pivot(m.pairs)
        with pytest.raises(IntervalError):
            rump_positive_definite(m.pairs)

    def test_error_leaves_no_cycles(self):
        # The factor tree's working data is freed by reference counting when
        # the test returns or raises: the collector finds nothing to free.
        m = IntervalMatrix([[1e-300, 1e300], [1e300, 1.0]])
        gc.collect()
        gc.disable()
        try:
            try:
                rump_positive_definite(m.pairs)
            except IntervalError:
                pass
            else:
                raise AssertionError("the overflow was not raised")
            assert gc.collect() == 0
        finally:
            gc.enable()


def _bits(res):
    return res.positive_definite, tuple(
        (z, None if m is None else m.hex()) for z, m in res.vertex_margins
    )


def _outcome(test, m):
    """The bits of test(m.pairs), or "raised" for an IntervalError."""
    try:
        return _bits(test(m.pairs))
    except IntervalError:
        return "raised"


@st.composite
def _symmetric_matrices(draw):
    """Exactly symmetric interval matrices, n = 1..4, each entry scaled by
    2**e: e = 0 mostly, +-1000 sometimes (overflowing factor entries)."""
    n = draw(st.integers(1, 4))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if i == j:
                mid, rad = draw(st.floats(0.5, 4.0 * n)), draw(st.sampled_from([0.0, 0.1]))
            else:
                mid, rad = draw(st.floats(-2.0, 2.0)), draw(st.sampled_from([0.0, 1.0, 2.0]))
            scale = 2.0 ** draw(st.sampled_from([0, 0, 0, 0, 0, -1000, 1000]))
            rows[i][j] = rows[j][i] = ((mid - rad) * scale, (mid + rad) * scale)
    return IntervalMatrix.from_pairs(rows)


_MIXED = IntervalMatrix(
    [[1.0, Interval(-0.1, 1.1)], [Interval(-0.1, 1.1), 1.0]]
)


class TestSharedVertexTree:
    """rump_positive_definite runs one Cholesky over the tree of vertex
    sign prefixes; it must give the per-vertex runs' results bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_symmetric_matrices())
    @example(_MIXED)
    @example(IntervalMatrix([[1e-300, 1e300], [1e300, 1.0]]))
    @example(IntervalMatrix([[4.0, 1e300, 0.0], [1e300, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    def test_matches_per_vertex_oracle(self, m):
        assert _outcome(rump_positive_definite, m) == _outcome(rump_per_vertex, m)

    def test_mixed_vertices_match_per_vertex_oracle(self, rng):
        # Matrices where some vertices pass and others fail: the failed
        # prefixes' subtrees read None, the others their runs' pivots.
        res = rump_positive_definite(_MIXED.pairs)
        assert [m is None for _, m in res.vertex_margins] == [False, True]
        mixed = 0
        for _ in range(300):
            n = rng.choice([2, 3, 4])
            m, _, _ = _sym_interval_matrix(rng, n, rad=rng.choice([0.5, 1.5, 3.0]))
            res = rump_positive_definite(m.pairs)
            assert _bits(res) == _bits(rump_per_vertex(m.pairs))
            failed = sum(margin is None for _, margin in res.vertex_margins)
            mixed += 0 < failed < len(res.vertex_margins)
        assert mixed >= 20

    def test_kernel_counts_of_a_positive_definite_4x4(self, monkeypatch):
        # 15 pivots (one per sign prefix), 7 square roots (one per prefix
        # with rows below it) and 22 quotients (one per prefix and row
        # sign), where 8 separate runs take 32, 32 and 48.  The test runs in
        # an upward block, as the proofs run it: outside one, each kernel
        # call also passes its replacement to its own per-call fallback.
        calls = {"isqrt": 0, "idiv": 0}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(_k, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(_k, name, counting)
        m, _, _ = _sym_interval_matrix(random.Random(5), 4, rad=0.05)
        with _k.upward():
            assert rump_positive_definite(m.pairs).positive_definite
        assert calls == {"isqrt": 7, "idiv": 22}


@st.composite
def _matrices_with_free_indices(draw):
    """Exactly symmetric interval matrices, n = 1..5, whose off-diagonal
    entries in the rows and columns of a drawn set of indices are points
    (zero radius), +-0.0 among them; the vertex matrices do not depend on
    the signs at those indices."""
    n = draw(st.integers(1, 5))
    free = draw(st.sets(st.integers(0, n - 1)))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if i == j:
                mid = draw(st.floats(0.25, 3.0 * n))
                rad = draw(st.sampled_from([0.0, 0.1]))
            else:
                mid = draw(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0))
                rad = 0.0 if i in free or j in free else draw(
                    st.sampled_from([0.0, 0.5, 1.5]))
            rows[i][j] = rows[j][i] = (mid, mid) if rad == 0.0 else (mid - rad, mid + rad)
    return IntervalMatrix.from_pairs(rows)


class TestFreeIndices:
    """An index whose off-diagonal radii are all zero leaves every vertex
    matrix unchanged when its sign flips: its -1 subtree is the +1
    subtree's bits, emitted with that sign flipped."""

    @settings(max_examples=500, deadline=None)
    @given(_matrices_with_free_indices())
    @example(IntervalMatrix([[1.0, -0.0], [-0.0, 1.0]]))
    @example(IntervalMatrix.from_pairs(
        [[(-0.0, -0.0), (0.0, 0.0)], [(0.0, 0.0), (1.0, 1.0)]]))
    @example(IntervalMatrix([[2.0, Interval(-1.0, 1.0), 0.0],
                             [Interval(-1.0, 1.0), 2.0, -0.0],
                             [0.0, -0.0, Interval(0.5, 1.0)]]))
    def test_matches_per_vertex_oracle(self, m):
        assert _outcome(rump_positive_definite, m) == _outcome(rump_per_vertex, m)

    def test_diagonal_matrix_factors_one_vertex(self, monkeypatch):
        # A toy linear link's V is diagonal: every index but the first is
        # free, so one column per index runs, 4 pivots and 3 square roots,
        # where the shared tree of a dense 4x4 takes 15 and 7.
        calls = {"isqrt": 0}

        def counting(*args, _f=_k.isqrt):
            calls["isqrt"] += 1
            return _f(*args)

        monkeypatch.setattr(_k, "isqrt", counting)
        v = IntervalMatrix([[3.0 if i == j else 0.0 for j in range(4)] for i in range(4)])
        with _k.upward():  # as the proofs run it (see the dense 4x4 count)
            res = rump_positive_definite(v.pairs)
        assert calls["isqrt"] == 3
        assert [z for z, _ in res.vertex_margins] == vertex_signs(4)
        assert _bits(res) == _bits(rump_per_vertex(v.pairs))


class TestRumpInput:
    def test_asymmetric_matrix_raises(self):
        # Only the lower triangle is read, and it is that of the identity;
        # the symmetric part [[1, -1.5], [-1.5, 1]] is indefinite: x = (1, 1)
        # gives x^T A x = -1.
        a = IntervalMatrix([[1.0, -3.0], [0.0, 1.0]])
        x = IntervalVector([1.0, 1.0])
        assert _dot(x, a.mat_vec(x)) == Interval(-1.0)
        with pytest.raises(IntervalError, match="symmetric"):
            rump_positive_definite(a.pairs)

    def test_one_ulp_asymmetry_raises(self):
        a = IntervalMatrix([[2.0, 0.5], [Interval(0.5, math.nextafter(0.5, 1.0)), 2.0]])
        with pytest.raises(IntervalError, match="symmetric"):
            rump_positive_definite(a.pairs)

    def test_non_square_matrix_raises(self):
        with pytest.raises(IntervalError, match="square"):
            rump_positive_definite(IntervalMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).pairs)


class TestSymmetrize:
    def test_quadratic_form_unchanged(self, rng):
        m, _, _ = _sym_interval_matrix(rng, 3)
        skew = IntervalMatrix(
            [
                [
                    m[i, j] + Interval(-abs(i - j) * 0.01, abs(i - j) * 0.01)
                    for j in range(3)
                ]
                for i in range(3)
            ]
        )
        sym = symmetrize(skew)
        for _ in range(30):
            x = IntervalVector([rng.uniform(-1, 1) for _ in range(3)])
            before = _dot(x, skew.mat_vec(x))
            after = _dot(x, sym.mat_vec(x))
            assert before.intersects(after)


class TestToyConeMatrices:
    """The switch link's cone matrix: cones.cone_matrix on the Jacobian of
    the switch map, with the chain's N_k and M_s forms, in ambient source
    order (x, y, v, a)."""

    @staticmethod
    def _switch_link(x):
        chain = build_toy_chain()
        jac = switch_map().derivative(IntervalVector([x, 0.0, 0.0, 0.0]).pairs)[1]
        q_n, q_m = chain.forms[chain.k], chain.forms[chain.k + 1]
        return IntervalMatrix.from_pairs(cone_matrix(jac, q_n, q_m)), q_n, q_m

    def test_switch_matrix_matches_block_structure(self):
        # At the tangency point, ambient x = 1, the cone matrix has the
        # reference entries, and its (x, v) and (a, y) blocks are the
        # switch blocks of the same forms.
        v, q_n, q_m = self._switch_link(1.0)
        alpha, beta, gamma, delta = 1.0, 0.25, 4.0, 2.0
        a, b, c, d = 1.0, 1.0, 1.0, 0.5
        expected = [
            [4 * b - c - alpha, 0.0, 2 * b, 0.0],
            [0.0, a + gamma, 0.0, a],
            [2 * b, 0.0, b + delta, 0.0],
            [0.0, a, 0.0, a - d - beta],
        ]
        for i in range(4):
            for j in range(4):
                assert v[i, j].contains(expected[i][j]), (i, j)
                assert v[i, j].width < 1e-12
        for block, axes in zip(switch_cone_blocks(q_n, q_m), ((0, 2), (3, 1))):
            for i, vi in enumerate(axes):
                for j, vj in enumerate(axes):
                    assert v.pairs[vi][vj] == block[i][j], (axes, i, j)

    def test_blocks_positive_definite_at_reference_coefficients(self):
        chain = build_toy_chain()
        q1, q2 = (IntervalMatrix.from_pairs(q) for q in switch_cone_blocks(
            chain.forms[chain.k], chain.forms[chain.k + 1]))
        assert q1[0, 0] == Interval(2.0)
        assert q2[0, 0] == Interval(0.25)
        assert rump_positive_definite(q1.pairs).positive_definite
        assert rump_positive_definite(q2.pairs).positive_definite
        # determinants 2 and 1/4 via direct 2x2 arithmetic
        d1 = q1[0, 0] * q1[1, 1] - q1[0, 1] * q1[1, 0]
        d2 = q2[0, 0] * q2[1, 1] - q2[0, 1] * q2[1, 0]
        assert d1 == Interval(2.0)
        assert d2 == Interval(0.25)

    def test_gamma_boundary_fails(self):
        chain = build_toy_chain()
        q_n = QuadraticForm((1.0, -3.0, -2.0, 0.25), (0, 3))  # gamma = 3
        _, q2 = switch_cone_blocks(q_n, chain.forms[chain.k + 1])
        q2 = IntervalMatrix.from_pairs(q2)
        d2 = q2[0, 0] * q2[1, 1] - q2[0, 1] * q2[1, 0]
        assert d2.contains(0.0)
        assert not rump_positive_definite(q2.pairs).positive_definite

    def test_whole_box_switch_matrix_inconclusive(self):
        # Positive definiteness is claimed only near the tangency point; over
        # x in 1 +- 0.25 the interval matrix is not certified.
        v, _, _ = self._switch_link(Interval(0.75, 1.25))
        assert not rump_positive_definite(v.pairs).positive_definite


class TestConeMatrixGeneric:
    def test_identity_map_counterexample(self):
        # Q_M = 2 Q_N with Q_N = diag(1, -1) under the identity map:
        # V = diag(1, -1), not positive definite.
        qn = QuadraticForm((1.0, -1.0), (0,))
        qm = QuadraticForm((2.0, -2.0), (0,))
        v = cone_matrix(IntervalMatrix.identity(2).pairs, qn, qm)
        assert v[0][0] == (1.0, 1.0)
        assert v[1][1] == (-1.0, -1.0)
        assert not rump_positive_definite(v).positive_definite

    def test_linear_toy_link_diagonal(self):
        # V = diag(a(l^2-1), g(1-m^2), d(1-(m/l)^2), beta_{i+1}-beta_i) for
        # one chain-start link, exactly, in ambient order (x, y, v, a).
        from tangency.covering import check_covering
        from tangency.toy import linear_start_map

        params = ToyParams()
        chain = build_toy_chain(params)
        src, tgt = chain.sets[1], chain.sets[2]
        qn, qm = chain.forms[1], chain.forms[2]
        cert = check_covering(src, tgt, linear_start_map(params))
        v = IntervalMatrix.from_pairs(cone_matrix(cert.local_jacobian, qn, qm))
        lam, mu = params.lam, params.mu
        assert v[0, 0].contains(1.0 * lam**2 - 1.0)
        assert v[1, 1].contains(4.0 - mu**2 * 4.0)
        assert v[2, 2].contains(2.0 - (mu / lam) ** 2 * 2.0)
        assert v[3, 3].contains(qm.coeffs[3] - qn.coeffs[3])
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert v[i, j].contains(0.0)


# -- cone matrix against the interval-matrix formula --------------------------


def cone_matrix_oracle(d, q_src, q_tgt, inflate_src=1.0):
    """symmetrize(D^T Q_M D - c Q_N) in IntervalMatrix operations, d rows of
    (lo, hi) pairs, as rows of (lo, hi) pairs."""
    d = IntervalMatrix.from_pairs(d)
    qn = form_matrix(q_src)
    if inflate_src != 1.0:
        qn = qn.scale(inflate_src)
    return symmetrize(d.transpose().mat_mul(form_matrix(q_tgt)).mat_mul(d) - qn).pairs


def _rows_hex(rows):
    return [pairs_hex(row) for row in rows]


def _random_form(rng, n):
    unstable = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
    coeffs = [abs(random_float(rng, 20)) or 1.0 for _ in range(n)]
    return QuadraticForm(
        [c if i in unstable else -c for i, c in enumerate(coeffs)], unstable
    )


def _random_entry(rng):
    w = rng.random()
    if w < 0.05:
        # squares near the float maximum: sums in V may overflow
        return rng.choice([(1e154, 1e154), (-1.3e154, -1.3e154), (1e154, 1.3e154)])
    if w < 0.3:
        return rng.choice([(0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)])
    if w < 0.4:
        return rng.choice([(-0.0, 1.5), (-2.5, -0.0), (0.0, 3.0), (-1.0, 0.0)])
    a, b = random_float(rng, 40), random_float(rng, 40)
    if w < 0.6:
        return (a, a)
    return (a, b) if a <= b else (b, a)


class TestConeMatrixBits:
    """cone_matrix on pairs is cone_matrix_oracle bit for bit."""

    @pytest.mark.parametrize("inflate", [1.0, 1.0 + 1e-6])
    def test_random_matrices(self, rng, inflate):
        for _ in range(400):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            d = IntervalMatrix.from_pairs(
                [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
            ).pairs
            q_src, q_tgt = _random_form(rng, n), _random_form(rng, m)
            try:
                want = _rows_hex(cone_matrix_oracle(d, q_src, q_tgt, inflate))
            except IntervalError:
                with pytest.raises(IntervalError):
                    cone_matrix(d, q_src, q_tgt, inflate)
                continue
            assert _rows_hex(cone_matrix(d, q_src, q_tgt, inflate)) == want

    @pytest.mark.parametrize("inflate", [1.0, 1.0 + 1e-6])
    def test_chain_links(self, henon_proof, henon_chain, inflate):
        from tangency.covering import check_chain
        from tangency.henon import projected_disk_data

        stages, _, extras = henon_proof
        forms = extras["forms"]
        links = [
            (cov.local_jacobian, forms[i], forms[i + 1])
            for i, cov in enumerate(stages["covering"])
        ]
        for side in ("stable", "unstable"):
            disk = stages[f"{side}_disk"]
            qtilde = projected_disk_data(henon_chain, side)[1]
            rows = disk.covering.local_jacobian
            links.append((tuple(row[:3] for row in rows), qtilde, qtilde))
        toy = build_toy_chain()
        coverings = check_chain(list(toy.sets), list(toy.maps))
        links += [
            (cov.local_jacobian, toy.forms[i], toy.forms[i + 1])
            for i, cov in enumerate(coverings)
        ]
        assert len(links) == 17 + len(toy.sets) - 1
        for d, q_src, q_tgt in links:
            assert _rows_hex(cone_matrix(d, q_src, q_tgt, inflate)) == _rows_hex(
                cone_matrix_oracle(d, q_src, q_tgt, inflate)
            )

    def test_shape_mismatch(self):
        d = IntervalMatrix.identity(2).pairs
        q1, q2 = QuadraticForm((1.0, -1.0), (0,)), QuadraticForm((1.0, -1.0, -1.0), (0,))
        for q_src, q_tgt in ((q1, q2), (q2, q1)):
            with pytest.raises(IntervalError):
                cone_matrix_oracle(d, q_src, q_tgt)
            with pytest.raises(IntervalError):
                cone_matrix(d, q_src, q_tgt)

    def test_overflowing_product_raises(self):
        # A local_jacobian whose (D^T Q) D entry overflows, while D^T Q
        # does not, or whose (D^T Q) D is finite but overflows when doubled
        # in the symmetrization (1e154): an error, never a non-finite pair.
        q = QuadraticForm((1.0, -1.0), (0,))
        for big in (1e200, -1e200, 1.5e154, 1e154):
            d = ((big, big), (0.0, 0.0)), ((0.0, 0.0), (1.0, 1.0))
            with pytest.raises(IntervalError):
                cone_matrix(d, q, q)


# -- exact-rational pivot oracle -----------------------------------------------


def _exact_pivots(p):
    """The LDL^T pivots of a symmetric Fraction matrix, up to and including
    the first one that is not positive."""
    a = [list(row) for row in p]
    n = len(a)
    pivots = []
    for j in range(n):
        d = a[j][j]
        pivots.append(d)
        if d <= 0:
            break
        for i in range(j + 1, n):
            f = a[i][j] / d
            for k in range(j + 1, n):
                a[i][k] -= f * a[j][k]
    return pivots


def _exact_points(m, rng, count):
    """Symmetric Fraction matrices inside the lower triangle of m, rows of
    (lo, hi) pairs (what the Cholesky run and the midpoint/radius split
    read): corners, then points at random dyadic positions."""
    n = len(m)
    bounds = [[tuple(Fraction(b) for b in m[i][j]) for j in range(i + 1)]
              for i in range(n)]
    for s in range(count):
        p = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                lo, hi = bounds[i][j]
                t = Fraction(rng.randint(0, 1)) if s % 2 == 0 else Fraction(
                    rng.randint(0, 2**20), 2**20)
                p[i][j] = p[j][i] = lo + t * (hi - lo)
        yield p


def _vertex_enclosures(a):
    """(z, exact vertex matrix C - D(z) R D(z) of the split of a, rows of
    (lo, hi) pairs) per sign vector."""
    c, r = midrad_split(a)
    n = len(a)
    return [
        (z, [[Fraction(c[i][j]) - z[i] * z[j] * Fraction(r[i][j]) for j in range(n)]
             for i in range(n)])
        for z in vertex_signs(n)
    ]


def _henon_and_toy_cone_matrices(henon_proof):
    from tangency.covering import check_chain
    from tangency.toy import linear_link_indices

    stages = henon_proof[0]
    mats = [c.matrix for c in stages["cones"]]
    mats += [stages[key].cone.matrix for key in ("stable_disk", "unstable_disk")]
    chain = build_toy_chain()
    coverings = check_chain(list(chain.sets), list(chain.maps))
    mats += [
        cone_matrix(coverings[i].local_jacobian, chain.forms[i], chain.forms[i + 1])
        for i in linear_link_indices(chain)
    ]
    return mats


class TestExactPivotOracle:
    """Every exact LDL^T pivot of every exact matrix inside a certified
    interval matrix is at least the certified minimum pivot."""

    def test_cholesky_pivots_bound_exact_pivots(self, rng):
        certified = 0
        for _ in range(120):
            n = rng.choice([2, 3, 4, 5])
            m, _, _ = _sym_interval_matrix(rng, n, rad=rng.choice([0.01, 0.1, 0.4]))
            pivot = interval_cholesky_min_pivot(m.pairs)
            if pivot is None:
                continue
            certified += 1
            for p in _exact_points(m.pairs, rng, 12):
                assert min(_exact_pivots(p)) >= Fraction(pivot)
        assert certified >= 60

    def test_rump_vertices_and_points(self, rng):
        certified = 0
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            m, _, _ = _sym_interval_matrix(rng, n, rad=rng.choice([0.1, 0.5, 1.5]))
            res = rump_positive_definite(m.pairs)
            vertices = _vertex_enclosures(m.pairs)
            for (z, margin), (z2, vertex) in zip(res.vertex_margins, vertices):
                assert z == z2
                if margin is not None:
                    assert min(_exact_pivots(vertex)) >= Fraction(margin)
            if res.positive_definite:
                certified += 1
                for p in _exact_points(m.pairs, rng, 10):
                    assert min(_exact_pivots(p)) > 0
        assert certified >= 20

    def test_proof_cone_matrices(self, henon_proof, rng):
        # The cone matrices V of the grid-1 Henon proof (chain links and
        # disks) and of the toy's linear links: each vertex certificate
        # bounds the exact pivots of its vertex matrix and of points of the
        # vertex's interval enclosure, and points of V are positive definite.
        mats = _henon_and_toy_cone_matrices(henon_proof)
        assert len(mats) == 15 + 2 + 9
        for v in mats:
            res = rump_positive_definite(v)
            assert res.positive_definite
            c, r = midrad_split(v)
            n = len(v)
            vertices = _vertex_enclosures(v)
            for (z, margin), (_, vertex) in zip(res.vertex_margins, vertices):
                assert min(_exact_pivots(vertex)) >= Fraction(margin)
                enclosure = IntervalMatrix(
                    [[Interval(c[i][j]) - Interval(z[i] * z[j] * r[i][j])
                      for j in range(n)] for i in range(n)]
                )
                assert interval_cholesky_min_pivot(enclosure.pairs) == margin
                for p in _exact_points(enclosure.pairs, rng, 4):
                    assert min(_exact_pivots(p)) >= Fraction(margin)
            for p in _exact_points(v, rng, 6):
                assert min(_exact_pivots(p)) > 0
