"""Interval vectors/matrices against exact rational oracles."""

import math
import random
from fractions import Fraction

import pytest

from tangency.interval import Interval, IntervalError
from tangency.linalg import (
    IntervalMatrix,
    IntervalVector,
    det4,
    inverse_enclosure,
    residual_norm,
)
from conftest import contains_fraction, frac_det, frac_matmul


def _rand_point_matrix(rng, n, scale=4.0):
    return [[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)]


class TestVector:
    def test_basic_ops(self):
        v = IntervalVector([1.0, 2.0])
        w = IntervalVector([0.5, -1.0])
        assert (v + w)[0] == Interval(1.5)
        assert (v - w)[1] == Interval(3.0)
        assert (-v)[0] == Interval(-1.0)
        assert v.dot(w).contains(0.5 * 1 + 2 * (-1.0))

    def test_norm_upper(self, rng):
        for _ in range(200):
            pts = [rng.uniform(-5, 5) for _ in range(3)]
            v = IntervalVector(pts)
            exact = math.sqrt(sum(p * p for p in pts))
            assert v.norm_upper() >= exact

    def test_dim_mismatch(self):
        with pytest.raises(IntervalError):
            IntervalVector([1.0]) + IntervalVector([1.0, 2.0])


class TestMatMul:
    def test_identity_encloses(self):
        a = IntervalMatrix([[1.25, -0.5], [0.75, 2.0]])
        prod = IntervalMatrix.identity(2).mat_mul(a)
        for i in range(2):
            for j in range(2):
                assert prod[i, j].contains(a[i, j])

    def test_degenerate_exact(self):
        a = IntervalMatrix([[1.0, 2.0], [3.0, 4.0]])
        b = IntervalMatrix([[5.0, 6.0], [7.0, 8.0]])
        prod = a.mat_mul(b)
        assert prod[0, 0] == Interval(19.0)
        assert prod[0, 1] == Interval(22.0)
        assert prod[1, 0] == Interval(43.0)
        assert prod[1, 1] == Interval(50.0)

    def test_random_against_rational_oracle(self, rng):
        for _ in range(50):
            a = _rand_point_matrix(rng, 4)
            b = _rand_point_matrix(rng, 4)
            prod = IntervalMatrix(a).mat_mul(IntervalMatrix(b))
            exact = frac_matmul(a, b)
            for i in range(4):
                for j in range(4):
                    assert contains_fraction(prod[i, j], exact[i][j])

    def test_mat_vec(self, rng):
        a = _rand_point_matrix(rng, 3)
        v = [rng.uniform(-2, 2) for _ in range(3)]
        out = IntervalMatrix(a).mat_vec(IntervalVector(v))
        for i in range(3):
            exact = sum(Fraction(a[i][k]) * Fraction(v[k]) for k in range(3))
            assert contains_fraction(out[i], exact)

    def test_shape_mismatch(self):
        with pytest.raises(IntervalError):
            IntervalMatrix.identity(2).mat_mul(IntervalMatrix.identity(3))

    def test_transpose(self):
        a = IntervalMatrix([[1.0, 2.0], [3.0, 4.0]])
        t = a.transpose()
        assert t[0, 1] == Interval(3.0)


class TestDet4:
    def test_identity(self):
        assert det4(IntervalMatrix.identity(4)) == Interval(1.0)

    def test_transversality_block_matrix(self):
        # det [[1,0,1,0],[0,1,0,1],[0,0,ga,0],[0,0,gta,gtt]] = ga*gtt; with
        # point values ga=2, gtt=3 the determinant encloses 6 for any gta.
        for gta in (0.0, -7.25, 123.456):
            m = IntervalMatrix(
                [
                    [1.0, 0.0, 1.0, 0.0],
                    [0.0, 1.0, 0.0, 1.0],
                    [0.0, 0.0, 2.0, 0.0],
                    [0.0, 0.0, gta, 3.0],
                ]
            )
            assert det4(m).contains(6.0)

    def test_random_against_rational_oracle(self, rng):
        for _ in range(60):
            a = _rand_point_matrix(rng, 4)
            enc = det4(IntervalMatrix(a))
            assert contains_fraction(enc, frac_det(a))

    def test_shape_check(self):
        with pytest.raises(IntervalError):
            det4(IntervalMatrix.identity(3))


class TestInverseEnclosure:
    def test_identity(self):
        inv = inverse_enclosure([[1.0, 0.0], [0.0, 1.0]])
        assert inv[0, 0].contains(1.0)
        assert inv[0, 1].contains(0.0)

    def test_diagonal(self):
        inv = inverse_enclosure([[2.0, 0.0], [0.0, 0.5]])
        assert inv[0, 0].contains(0.5)
        assert inv[1, 1].contains(2.0)
        assert inv[0, 0].width < 1e-14

    def test_henon_frame_residual(self):
        from tangency.henon import eigen_data

        eig = eigen_data()
        u0, s0 = eig["u0_mid"], eig["s0_mid"]
        m0 = [
            [u0[0], s0[0], 0.0, 0.0],
            [u0[1], s0[1], 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
        inv = inverse_enclosure(m0)
        assert residual_norm(m0, inv) < 1e-12

    def test_random_contains_rational_inverse(self, rng):
        for _ in range(30):
            a = _rand_point_matrix(rng, 3)
            if abs(float(frac_det(a))) < 1e-3:
                continue
            inv = inverse_enclosure(a)
            det = frac_det(a)
            n = 3
            for i in range(n):
                for j in range(n):
                    minor = [
                        [Fraction(a[r][c]) for c in range(n) if c != i]
                        for r in range(n)
                        if r != j
                    ]
                    cof = frac_det(minor) * (-1) ** (i + j) / det
                    assert contains_fraction(inv[i, j], cof)

    def test_singular_rejected(self):
        with pytest.raises(IntervalError):
            inverse_enclosure([[1.0, 2.0], [2.0, 4.0]])


class TestFloatPairs:
    """Entries are (lo, hi) pairs inside; Intervals at the edges; a pair the
    kernels computed is checked as an Interval is before it is stored."""

    def test_edges_give_intervals(self):
        m = IntervalMatrix([[1, Interval(2.0, 3.0)], [Fraction(1, 3), 4.0]])
        assert m.pairs[0] == ((1.0, 1.0), (2.0, 3.0))
        assert m[1, 0] == Interval(Fraction(1, 3))
        assert m.rows[0][1] == Interval(2.0, 3.0)
        v = IntervalVector([0.5, Interval(-1.0, 1.0)])
        assert v.pairs == ((0.5, 0.5), (-1.0, 1.0))
        assert list(v) == [Interval(0.5), Interval(-1.0, 1.0)]

    @pytest.mark.parametrize("pair", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.inf)])
    def test_bad_pairs_rejected(self, pair):
        with pytest.raises(IntervalError):
            IntervalMatrix.from_pairs([[pair]])
        with pytest.raises(IntervalError):
            IntervalVector.from_pairs([pair])

    def test_overflow_raises(self):
        big = IntervalMatrix([[1e200, 1.0], [0.0, 1.0]])
        with pytest.raises(IntervalError):
            big.mat_mul(big)
        with pytest.raises(IntervalError):
            big.mat_vec(IntervalVector([1e200, 0.0]))
        with pytest.raises(IntervalError):
            IntervalMatrix([[1e300, 1e-300], [1e300, 1e300]]).det()
