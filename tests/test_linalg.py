"""The pair matrix functions of tangency.linalg, and the interval vector
and matrix objects of the tests' oracle (linalg_oracle), against exact
rational oracles."""

import math
import random
from fractions import Fraction

import pytest

from tangency import kernels as _k
from tangency.interval import Interval, IntervalError, ulp
from tangency.cones import cone_matrix, rump_positive_definite
from tangency.hset import QuadraticForm
from tangency.linalg import checked_rows, inverse_enclosure, mat_mul, norm_upper
from linalg_oracle import IntervalMatrix, IntervalVector
from conftest import (
    contains_fraction,
    frac_det,
    frac_inverse,
    frac_matmul,
    pairs_hex,
)


def _rand_point_matrix(rng, n, scale=4.0):
    return [[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)]


def _points(rows):
    """The point matrix of the numbers rows as rows of (lo, hi) pairs."""
    return IntervalMatrix(rows).pairs


def _at(rows, i, j):
    """Entry (i, j) of rows of (lo, hi) pairs as an Interval."""
    return Interval(*rows[i][j])


class TestVector:
    def test_basic_ops(self):
        v = IntervalVector([1.0, 2.0])
        w = IntervalVector([0.5, -1.0])
        assert (v + w)[0] == Interval(1.5)
        assert (v - w)[1] == Interval(3.0)
        assert (-v)[0] == Interval(-1.0)
        assert (v[0] * w[0] + v[1] * w[1]).contains(0.5 * 1 + 2 * (-1.0))

    def test_norm_upper(self, rng):
        for _ in range(200):
            pts = [rng.uniform(-5, 5) for _ in range(3)]
            exact = math.sqrt(sum(p * p for p in pts))
            assert norm_upper(IntervalVector(pts).pairs) >= exact

    def test_dim_mismatch(self):
        with pytest.raises(IntervalError):
            IntervalVector([1.0]) + IntervalVector([1.0, 2.0])


class TestMatMul:
    def test_identity_encloses(self):
        a = _points([[1.25, -0.5], [0.75, 2.0]])
        prod = mat_mul(IntervalMatrix.identity(2).pairs, a)
        for i in range(2):
            for j in range(2):
                assert _at(prod, i, j).contains(_at(a, i, j))

    def test_degenerate_exact(self):
        prod = mat_mul(_points([[1.0, 2.0], [3.0, 4.0]]), _points([[5.0, 6.0], [7.0, 8.0]]))
        assert prod == (((19.0, 19.0), (22.0, 22.0)), ((43.0, 43.0), (50.0, 50.0)))

    def test_random_against_rational_oracle(self, rng):
        for _ in range(50):
            a = _rand_point_matrix(rng, 4)
            b = _rand_point_matrix(rng, 4)
            prod = mat_mul(_points(a), _points(b))
            exact = frac_matmul(a, b)
            for i in range(4):
                for j in range(4):
                    assert contains_fraction(_at(prod, i, j), exact[i][j])

    def test_mat_vec(self, rng):
        a = _rand_point_matrix(rng, 3)
        v = [rng.uniform(-2, 2) for _ in range(3)]
        out = IntervalMatrix(a).mat_vec(IntervalVector(v))
        for i in range(3):
            exact = sum(Fraction(a[i][k]) * Fraction(v[k]) for k in range(3))
            assert contains_fraction(out[i], exact)

    def test_shape_mismatch(self):
        with pytest.raises(IntervalError, match="shape mismatch"):
            mat_mul(IntervalMatrix.identity(2).pairs, IntervalMatrix.identity(3).pairs)
        with pytest.raises(IntervalError):
            IntervalMatrix.identity(2).mat_mul(IntervalMatrix.identity(3))

    def test_transpose(self):
        a = IntervalMatrix([[1.0, 2.0], [3.0, 4.0]])
        t = a.transpose()
        assert t[0, 1] == Interval(3.0)


class TestInverseEnclosure:
    def test_identity(self):
        inv = inverse_enclosure([[1.0, 0.0], [0.0, 1.0]])
        assert _at(inv, 0, 0).contains(1.0)
        assert _at(inv, 0, 1).contains(0.0)

    def test_diagonal(self):
        inv = inverse_enclosure([[2.0, 0.0], [0.0, 0.5]])
        assert _at(inv, 0, 0).contains(0.5)
        assert _at(inv, 1, 1).contains(2.0)
        assert _at(inv, 0, 0).width < 1e-14

    def test_henon_frame_residual(self):
        # The exact rational inverse lies in the enclosure, which is tight.
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
        exact = frac_inverse(m0)
        for i in range(4):
            for j in range(4):
                assert contains_fraction(_at(inv, i, j), exact[i][j])
                assert _at(inv, i, j).width < 1e-12

    def test_random_contains_rational_inverse(self, rng):
        for _ in range(200):
            a = _rand_point_matrix(rng, 2)
            if abs(float(frac_det(a))) < 1e-3:
                continue
            inv = inverse_enclosure(a)
            for i, row in enumerate(frac_inverse(a)):
                for j, q in enumerate(row):
                    assert contains_fraction(_at(inv, i, j), q)

    def test_singular_rejected(self):
        with pytest.raises(IntervalError):
            inverse_enclosure([[1.0, 2.0], [2.0, 4.0]])


class TestFloatPairs:
    """The oracle's entries are (lo, hi) pairs inside and Intervals at the
    edges; a pair the kernels computed is checked as an Interval is before
    it is stored, by the oracle and by tangency.linalg alike."""

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
        with pytest.raises(IntervalError):
            checked_rows([[pair]])

    def test_overflow_raises(self):
        big = IntervalMatrix([[1e200, 1.0], [0.0, 1.0]])
        with pytest.raises(IntervalError):
            mat_mul(big.pairs, big.pairs)
        with pytest.raises(IntervalError):
            big.mat_mul(big)
        with pytest.raises(IntervalError):
            big.mat_vec(IntervalVector([1e200, 0.0]))
        with pytest.raises(IntervalError):  # the 2x2 block's determinant
            inverse_enclosure([[1e300, 1e-300], [1e300, 1e300]])


def _all_frames(chain):
    """The coordinate matrices of the Henon sets N0-N15, of both disks'
    projected sets and of the toy chain's sets."""
    from tangency.henon import projected_disk_data
    from tangency.toy import ToyParams, build_toy_chain

    sets = list(chain.sets)
    sets += [projected_disk_data(chain, side)[0] for side in ("stable", "unstable")]
    sets += list(build_toy_chain(ToyParams()).sets)
    return [(h.name, [list(row) for row in h.coord]) for h in sets]


def _random_block_matrix(rng, n):
    """A random nonsingular point matrix whose nonzero pattern splits into
    1x1 and 2x2 blocks, under a random permutation of the indices."""
    perm = list(range(n))
    rng.shuffle(perm)
    a = [[0.0] * n for _ in range(n)]
    start = 0
    while start < n:
        size = rng.randint(1, min(2, n - start))
        idx = [perm[k] for k in range(start, start + size)]
        while True:
            block = _rand_point_matrix(rng, size)
            if abs(frac_det(block)) > 1e-2:
                break
        for bi, i in enumerate(idx):
            for bj, j in enumerate(idx):
                a[i][j] = block[bi][bj]
        start += size
    return a


def _blocks_of(a):
    """Index -> set of indices in its block, by closure of the pattern."""
    n = len(a)
    comp = {i: {i} for i in range(n)}
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if (a[i][j] != 0 or a[j][i] != 0) and comp[i] != comp[j]:
                    merged = comp[i] | comp[j]
                    for k in merged:
                        comp[k] = merged
                    changed = True
    return comp


class TestBlockInverse:
    """inverse_enclosure encloses each block of the nonzero pattern on its
    own: off-block entries are exact zeros, a 1x1 block of 1.0 an exact 1."""

    def test_frames_contain_the_exact_rational_inverse(self, henon_chain):
        frames = _all_frames(henon_chain)
        assert len(frames) > 18
        for name, m in frames:
            inv = inverse_enclosure(m)
            exact = frac_inverse(m)
            for i, row in enumerate(exact):
                for j, q in enumerate(row):
                    assert contains_fraction(_at(inv, i, j), q), (name, i, j)

    def test_random_block_matrices_contain_the_exact_inverse(self, rng):
        for _ in range(60):
            a = _random_block_matrix(rng, rng.randint(1, 5))
            inv = inverse_enclosure(a)
            exact = frac_inverse(a)
            for i, row in enumerate(exact):
                for j, q in enumerate(row):
                    assert contains_fraction(_at(inv, i, j), q)

    def test_frames_are_within_four_ulps_of_the_exact_inverse(self, henon_chain):
        for name, m in _all_frames(henon_chain):
            inv = inverse_enclosure(m)
            for i, row in enumerate(frac_inverse(m)):
                for j, q in enumerate(row):
                    lo, hi = inv[i][j]
                    assert Fraction(lo) <= q <= Fraction(hi), (name, i, j)
                    assert hi - lo <= 4 * math.ulp(float(q)), (name, i, j)

    def test_blocks_larger_than_2x2_rejected(self, rng):
        dense = _rand_point_matrix(rng, 3)
        a = [[0.0] * 5 for _ in range(5)]
        for bi, i in enumerate((0, 2, 4)):
            for bj, j in enumerate((0, 2, 4)):
                a[i][j] = dense[bi][bj]
        a[1][1], a[3][3] = 2.0, 0.5
        for m in (dense, a):
            with pytest.raises(IntervalError, match="3x3 block"):
                inverse_enclosure(m)

    def test_off_block_zeros_and_unit_diagonals_are_exact(self, henon_chain, rng):
        zero = pairs_hex([(0.0, 0.0)])[0]
        for h in henon_chain.sets:
            p = h.inv_coord
            for i in range(4):
                for j in range(4):
                    if (i < 2) != (j < 2) or (i >= 2 and i != j):
                        assert pairs_hex([p[i][j]])[0] == zero, (h.name, i, j)
            # The slope entry is 1 / -(1 + w^2), a reciprocal enclosed to
            # one ulp; the parameter's is exactly 1.
            lo, hi = p[2][2]
            assert lo <= 1 / Fraction(h.coord[2][2]) <= hi and hi - lo <= ulp(lo)
            assert p[3][3] == (1.0, 1.0)
        for _ in range(60):
            a = _random_block_matrix(rng, rng.randint(2, 5))
            comp = _blocks_of(a)
            inv = inverse_enclosure(a)
            for i in range(len(a)):
                for j in range(len(a)):
                    if j not in comp[i]:
                        assert pairs_hex([inv[i][j]])[0] == zero
        assert inverse_enclosure([[1.0, 0.0], [0.0, 1.0]]) == (
            ((1.0, 1.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 1.0)))

    @pytest.mark.parametrize(
        "a",
        [
            [[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 3.0, 4.0]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
            [[1.0, 0.0, 5.0], [2.0, 0.0, 1.0], [3.0, 0.0, 1.0]],
            [[2.0, 0.0], [0.0, 0.0]],
            [[0.0]],
        ],
        ids=["zero-row-and-column", "zero-1x1", "zero-row", "zero-column",
             "zero-last-diagonal", "zero-scalar"],
    )
    def test_zero_row_or_column_rejected(self, a):
        with pytest.raises(IntervalError):
            inverse_enclosure(a)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 2), (2, 1)])
    def test_non_finite_entry_rejected(self, bad, where):
        a = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.25, 3.0]]
        a[where[0]][where[1]] = bad
        with pytest.raises(IntervalError):
            inverse_enclosure(a)

    def test_non_square_rejected(self):
        with pytest.raises(IntervalError):
            inverse_enclosure([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


# Exact zeros of every sign, thin entries that cancel or underflow, thick
# entries of every sign case.
_ZEROS = ((0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0))
_THIN = (1.0, -1.0, 2.0, -2.0, 0.5, 3.0, -3.0, 1e-200, -1e-200, 5e-324, -5e-324)


def _random_entry(rng):
    w = rng.random()
    if w < 0.3:
        return rng.choice(_ZEROS)
    if w < 0.55:
        x = rng.choice(_THIN) if rng.random() < 0.5 else rng.uniform(-4.0, 4.0)
        return (x, x)
    a = rng.choice(_THIN + (0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-4, 4)
    b = rng.uniform(-4.0, 4.0)
    kind = rng.randrange(3)  # below zero, above zero, straddling zero
    if kind == 0:
        return (-abs(a) - abs(b), -abs(a))
    if kind == 1:
        return (abs(a), abs(a) + abs(b))
    return (-abs(a), abs(b))


def _fold(row, col):
    """The unskipped iadd(..., imul(...)) fold of one dot product."""
    acc = (0.0, 0.0)
    for a, b in zip(row, col):
        acc = _k.iadd(acc, _k.imul(a, b))
    return acc


class TestZeroSkipping:
    """linalg.mat_mul and the oracle's mat_mul and mat_vec skip every term
    with an exact-zero factor; the results keep every bit of the unskipped
    fold, signed zeros included."""

    def test_products_match_the_unskipped_fold(self, rng):
        skipped = 0
        for _ in range(2000):
            n, m, p = (rng.randint(1, 4) for _ in range(3))
            a = [[_random_entry(rng) for _ in range(m)] for _ in range(n)]
            b = [[_random_entry(rng) for _ in range(p)] for _ in range(m)]
            v = [_random_entry(rng) for _ in range(m)]
            am = IntervalMatrix.from_pairs(a)
            want = [[_fold(row, col) for col in zip(*b)] for row in a]
            got = am.mat_mul(IntervalMatrix.from_pairs(b)).pairs
            assert [pairs_hex(r) for r in got] == [pairs_hex(r) for r in want]
            got = mat_mul(a, b)
            assert [pairs_hex(r) for r in got] == [pairs_hex(r) for r in want]
            got_v = am.mat_vec(IntervalVector.from_pairs(v)).pairs
            assert pairs_hex(got_v) == pairs_hex([_fold(row, v) for row in a])
            skipped += sum(1 for row in a for e in row if e in _ZEROS)
        assert skipped > 1000


_FORM = QuadraticForm((1.0, -1.0), (0,))
_ENTRY_POINTS = {
    "rump_positive_definite": rump_positive_definite,
    "cone_matrix": lambda rows: cone_matrix(rows, _FORM, _FORM),
    "inverse_enclosure": lambda rows: inverse_enclosure(
        [[lo for lo, _ in row] for row in rows]),
    "mat_mul-left": lambda rows: mat_mul(rows, IntervalMatrix.identity(2).pairs),
    "mat_mul-right": lambda rows: mat_mul(IntervalMatrix.identity(2).pairs, rows),
}
_ONE = (1.0, 1.0)
_BAD_SHAPES = {
    "no-rows": ([], "empty matrix"),
    "empty-row": ([[]], "empty matrix"),
    "ragged-short": ([[_ONE, _ONE], [_ONE]], "ragged matrix"),
    "ragged-long": ([[_ONE, _ONE], [_ONE, _ONE, _ONE]], "ragged matrix"),
}


@pytest.mark.parametrize("shape", list(_BAD_SHAPES))
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_entry_points_reject_empty_and_ragged_rows(entry, shape):
    # The public functions that take rows of (lo, hi) pairs reject a
    # matrix with no entries or rows of unequal length as IntervalError.
    rows, message = _BAD_SHAPES[shape]
    with pytest.raises(IntervalError, match=message):
        _ENTRY_POINTS[entry](rows)
