"""H-sets: transforms, walls, cone forms."""

import itertools
import math

import pytest

from conftest import pairs_hex
from tangency import hset, kernels
from tangency.interval import Interval, IntervalError, pair_mid
from tangency.hset import Frame, HSet, QuadraticForm
from linalg_oracle import (
    IntervalMatrix,
    IntervalVector,
    form_matrix,
    frame,
    to_normalized,
    unit_cube,
)
from tangency.projective import ChartMap


ROT = [[0.6, -0.8], [0.8, 0.6]]  # normalized columns


def _sample_set():
    return HSet("S", (1.0, -2.0), ROT, (0.5, 0.25), (0,))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(IntervalError, match="singular"):
            HSet("bad", (0, 0), [[2.0, 1.0], [4.0, 2.0]], (1, 1), (0,))
        with pytest.raises(IntervalError):
            HSet("bad", (0, 0), ROT, (1.0, -1.0), (0,))
        with pytest.raises(IntervalError):
            HSet("bad", (0, 0), ROT, (1.0, 1.0), (0, 0))
        with pytest.raises(IntervalError):
            HSet("bad", (0, 0), ROT, (1.0, 1.0), (5,))

    def test_frame_columns_need_not_be_unit(self):
        # A Henon frame's slope column is -(1 + w^2) e_w: any invertible
        # frame is an h-set frame, and the transforms use its inverse.
        h = HSet("S", (1.0, -2.0), [[2.0, 0.0], [0.0, -3.0]], (0.5, 0.25), (0,))
        w = to_normalized(h, IntervalVector([2.0, -2.75]))
        assert w[0].contains(1.0) and w[1].contains(1.0)

    @pytest.mark.parametrize(
        "coord",
        [
            [[2.0, 1.0], [4.0, 2.0]],
            [[0.1, 0.3], [0.2, 0.6]],
            [[0.6, 0.8, 0.0, 0.0], [-0.8, 0.6, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
            [[0.6, 0.6, 0.0, 0.0], [0.8, 0.8, 0.0, 0.0],
             [0.0, 0.0, -2.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        ],
        ids=["parallel-columns", "determinant-enclosing-zero", "zero-slope-column",
             "parallel-planar-columns"],
    )
    def test_singular_frame_rejected_through_the_inverse_enclosure(
        self, monkeypatch, coord
    ):
        # With no unit-column check, the inverse-frame enclosure built with
        # the set is what rejects a frame that is not certified invertible.
        from tangency import hset

        seen = []
        enclose = hset.inverse_enclosure

        def spy(rows):
            seen.append(rows)
            return enclose(rows)

        monkeypatch.setattr(hset, "inverse_enclosure", spy)
        n = len(coord)
        with pytest.raises(IntervalError, match="inverse_enclosure: singular"):
            HSet("bad", (0.0,) * n, coord, (1.0,) * n, (0,))
        assert len(seen) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_diameters_rejected(self, bad):
        for diam in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(IntervalError):
                HSet("bad", (0, 0), ROT, diam, (0,))

    @pytest.mark.parametrize(
        "center, coord, diam, unstable",
        [
            (("0.5", 0.0), ROT, (1.0, 1.0), (0,)),
            ((True, 0.0), ROT, (1.0, 1.0), (0,)),
            ((0.0, 0.0), [["0.6", -0.8], [0.8, 0.6]], (1.0, 1.0), (0,)),
            ((0.0, 0.0), ROT, (1.0, "1"), (0,)),
            ((0.0, 0.0), ROT, (1.0, 1.0), (0.9,)),
            ((0.0, 0.0), ROT, (1.0, 1.0), (True,)),
            ((0.0, 0.0), ROT, (1.0, 1.0), ("0",)),
        ],
        ids=["string-center", "bool-center", "string-matrix", "string-diameter",
             "float-axis", "bool-axis", "string-axis"],
    )
    def test_malformed_input_rejected(self, center, coord, diam, unstable):
        with pytest.raises(IntervalError):
            HSet("bad", center, coord, diam, unstable)

    def test_axis_split(self):
        h = HSet("S", (0, 0, 0, 0),
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 (1, 1, 1, 1), (0, 3))
        assert h.unstable == (0, 3)
        assert h.stable == (1, 2)

    def test_serialization_round_trip(self):
        h = _sample_set()
        h2 = HSet.from_dict(h.to_dict())
        assert h2.center == h.center
        assert h2.coord == h.coord
        assert h2.diam == h.diam
        assert h2.unstable == h.unstable


class TestTransforms:
    def test_center_maps_to_zero(self):
        h = _sample_set()
        z = to_normalized(h, IntervalVector([1.0, -2.0]))
        assert z[0].contains(0.0) and z[1].contains(0.0)
        assert z[0].width < 1e-14

    def test_axis_point_maps_to_unit(self):
        h = _sample_set()
        p = IntervalVector([1.0 + 0.5 * 0.6, -2.0 + 0.5 * 0.8])
        z = to_normalized(h, p)
        assert z[0].contains(1.0)
        assert z[1].contains(0.0)

    def test_round_trip_contains(self, rng):
        h = _sample_set()
        for _ in range(100):
            p = IntervalVector([rng.uniform(0.5, 1.5), rng.uniform(-2.5, -1.5)])
            back = IntervalVector.from_pairs(h.from_normalized(to_normalized(h, p).pairs))
            assert back[0].contains(p[0].mid)
            assert back[1].contains(p[1].mid)

    def test_membership_certification_by_sampling(self, rng):
        # Random interior points of the parallelepiped certify membership.
        h = _sample_set()
        for _ in range(200):
            z0 = rng.uniform(-0.95, 0.95)
            z1 = rng.uniform(-0.95, 0.95)
            p = h.from_normalized(IntervalVector([z0, z1]).pairs)
            z = to_normalized(h, IntervalVector.from_pairs(p))
            assert z.is_subset(unit_cube(2))

    def test_box_encloses_samples(self, rng):
        h = _sample_set()
        box = IntervalVector.from_pairs(h.box())
        for _ in range(100):
            z = IntervalVector([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            p = h.from_normalized(z.pairs)
            assert box[0].contains(pair_mid(*p[0]))
            assert box[1].contains(pair_mid(*p[1]))

    def test_rows_read_only_their_columns(self, henon_chain):
        # The covering's one pass onto a set of target rows, which maps and
        # reads only the coordinates and Jacobian rows those rows read,
        # gives the rows of the pass onto every row bit for bit.
        from tangency.covering import _image_normalized
        from tangency.henon import henon_family

        chart = ChartMap(henon_family()[0])
        sets = henon_chain.sets
        for src, tgt in zip(sets, sets[1:]):
            zbox = src.subboxes(1)[0]
            full, full_local = _image_normalized(
                src, tgt, chart, zbox, tgt.rows_read(range(4)))
            for rows in (tgt.unstable, tgt.stable, (2,), (3,), tuple(range(4))):
                img, local = _image_normalized(src, tgt, chart, zbox, tgt.rows_read(rows))
                assert list(img) == list(rows)
                assert pairs_hex(img.values()) == pairs_hex(full[j] for j in rows)
                assert [pairs_hex(r) for r in local] == [
                    pairs_hex(full_local[j]) for j in rows
                ]
            assert tgt.rows_read((2,)).cols == (2,) and tgt.rows_read((3,)).cols == (3,)
            if tgt.unstable == (0, 3):
                assert tgt.rows_read(tgt.unstable).cols == (0, 1, 3)


class TestWalls:
    def test_single_degenerate_wall(self):
        h = _sample_set()
        walls = h.walls(0, 1, 1)
        assert len(walls) == 1
        assert walls[0][0] == ((1.0, 1.0), (-1.0, 1.0))

    def test_grid_counts_4d(self):
        h = HSet("S", (0, 0, 0, 0),
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 (1, 1, 1, 1), (0, 3))
        walls = h.walls(0, -1, 2)
        assert len(walls) == 8  # 2 x 2 x 2 over the free axes

    def test_union_reproduces_face_hull(self):
        h = HSet("S", (0, 0, 0),
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 1, 1), (0, 2))
        for grid in (1, 2, 3, 7):
            walls = [IntervalVector.from_pairs(box) for box, _, _ in h.walls(0, 1, grid)]
            hull = list(walls[0])
            for w in walls[1:]:
                hull = [a.hull(b) for a, b in zip(hull, w)]
            assert hull[0] == Interval(1.0)
            assert hull[1] == Interval(-1.0, 1.0)
            assert hull[2] == Interval(-1.0, 1.0)
            # adjacent segments overlap or touch: total cover, no gaps
            segs = sorted((w[1].lo, w[1].hi) for w in walls)
            reach = -1.0
            for lo, hi in segs:
                assert lo <= reach
                reach = max(reach, hi)
            assert reach == 1.0

    def test_subboxes_cover_cube(self):
        h = _sample_set()
        boxes = [IntervalVector.from_pairs(box) for box, _, _ in h.subboxes(3)]
        assert len(boxes) == 9
        hull = list(boxes[0])
        for b in boxes[1:]:
            hull = [a.hull(c) for a, c in zip(hull, b)]
        assert hull[0] == Interval(-1.0, 1.0)
        assert hull[1] == Interval(-1.0, 1.0)

    @pytest.mark.parametrize("grid", [1, 2, 3])
    def test_boxes_are_those_built_from_intervals(self, grid):
        # The construction from Interval rows that the cut pairs replaced.
        cuts = []
        for j in range(grid):
            lo = Interval(-1.0) + Interval(2.0) * Interval(float(j)) / Interval(grid)
            hi = Interval(-1.0) + Interval(2.0) * Interval(float(j + 1)) / Interval(grid)
            cuts.append(Interval(lo.lo, hi.hi))

        def boxes(n, axis=None, side=None):
            out = [[]]
            for i in range(n):
                if i == axis:
                    out = [row + [Interval(float(side))] for row in out]
                else:
                    out = [row + [c] for row in out for c in cuts]
            return [pairs_hex(IntervalVector(row).pairs) for row in out]

        h = HSet("S", (0, 0, 0, 0),
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 (1, 1, 1, 1), (0, 3))
        for axis in h.unstable:
            for side in (1, -1):
                got = [pairs_hex(b) for b, _, _ in h.walls(axis, side, grid)]
                assert got == boxes(4, axis, side)
        assert [pairs_hex(b) for b, _, _ in h.subboxes(grid)] == boxes(4)

    def test_wall_requires_unstable_axis(self):
        h = _sample_set()
        with pytest.raises(IntervalError):
            h.walls(1, 1, 1)
        with pytest.raises(IntervalError):
            h.walls(0, 0, 1)
        with pytest.raises(IntervalError):
            h.walls(0, 1, 0)

    @pytest.mark.parametrize("grid", [True, 1.5, "2", 0, -1, hset.MAX_GRID + 1, 10**11],
                             ids=["bool", "float", "string", "zero", "negative",
                                  "above-max", "1e11"])
    def test_grid_must_be_a_positive_int(self, monkeypatch, grid):
        # Refused before any segment is cut: a grid past MAX_GRID would
        # build grid^n sub-boxes.
        def no_table(grid):
            raise AssertionError(f"grid {grid} cut")

        monkeypatch.setattr(hset, "_cuts", no_table)
        h = _sample_set()
        with pytest.raises(IntervalError, match="grid"):
            h.walls(0, 1, grid)
        with pytest.raises(IntervalError, match="grid"):
            h.subboxes(grid)

    def test_grid_at_the_maximum_is_accepted(self):
        h = _sample_set()
        assert len(h.subboxes(hset.MAX_GRID)) == hset.MAX_GRID**2


class TestQuadraticForm:
    def test_sign_validation(self):
        with pytest.raises(IntervalError):
            QuadraticForm((1.0, 1.0), (0,))
        with pytest.raises(IntervalError):
            QuadraticForm((-1.0, -1.0), (0,))
        with pytest.raises(IntervalError):
            QuadraticForm((1.0, 0.0), (0,))

    def test_unstable_axes_validated(self):
        # As HSet checks them: out of range, or named twice.
        with pytest.raises(IntervalError):
            QuadraticForm((-1.0, -1.0), (5,))
        with pytest.raises(IntervalError):
            QuadraticForm((1.0, -1.0), (0, 0))
        with pytest.raises(IntervalError):
            QuadraticForm((1.0, -1.0), (-1,))

    @pytest.mark.parametrize(
        "coeffs, unstable",
        [
            (("1.0", -1.0), (0,)),
            ((True, -1.0), (0,)),
            ((-1.0, 1.0), (True,)),
            ((1.0, -1.0), (0.0,)),
        ],
        ids=["string-coefficient", "bool-coefficient", "bool-axis", "float-axis"],
    )
    def test_malformed_input_rejected(self, coeffs, unstable):
        with pytest.raises(IntervalError):
            QuadraticForm(coeffs, unstable)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        for coeffs in ((bad, -1.0, -1.0), (1.0, bad, -1.0)):
            with pytest.raises(IntervalError):
                QuadraticForm(coeffs, (0,))

    def test_norms(self):
        q = QuadraticForm((0.5, 2.0, -0.1, -3.0), (0, 1))
        assert q.alpha_norm() == 2.0
        assert q.beta_norm() == 3.0

    def test_henon_q15_alpha_norm(self):
        from tangency.henon import FORM_ROWS, LAM, MU

        q15 = QuadraticForm(FORM_ROWS[15][:3], (0, 2))
        assert q15.alpha_norm() == max(0.3 / LAM**2, (MU / LAM) ** 2)
        assert q15.alpha_norm() == 0.3 / LAM**2

    def test_matrix(self):
        q = QuadraticForm((1.0, -2.0), (0,))
        m = form_matrix(q)
        assert m[0, 0] == Interval(1.0)
        assert m[1, 1] == Interval(-2.0)
        assert m[0, 1] == Interval(0.0)


# -- the pair-level frame changes against the IntervalMatrix route -----------


def _row_sets(n):
    return [rows for k in range(1, n + 1) for rows in itertools.combinations(range(n), k)]


def _thin(p):
    """The thin box of the midpoints of p's entries."""
    return IntervalVector.from_pairs([(m, m) for m in (pair_mid(*e) for e in p.pairs)])


def _random_box(rng, center, scale):
    """A box about center whose entries are all nonzero and mostly thick."""
    out = []
    for c in center:
        m = c + scale * rng.uniform(0.1, 1.0) * rng.choice((-1.0, 1.0))
        r = scale * rng.choice((0.0, rng.uniform(0.0, 0.5)))
        out.append(Interval(m - r, m + r))
    return IntervalVector(out)


class TestPairFrameChanges:
    """from_normalized, a tuple of pairs, is the IntervalMatrix product's
    result bit for bit, and so is the covering's one pass onto every set of
    target rows (conftest.one_pass_oracle), on every Henon and toy link and
    both disk self-coverings: on the covering's sub-boxes and their
    midpoints and on random sub-boxes, with the maps' own images and
    Jacobians and with dense random ones (conftest.FixedMap) that make every
    nonzero frame term count."""

    def test_against_the_matrix_route(self, rng, henon_chain):
        from conftest import (
            FixedMap,
            covering_boxes,
            matrix_from_normalized,
            one_pass_cases,
            one_pass_oracle,
        )
        from tangency.covering import _image_normalized

        compared = 0
        with kernels.upward():
            for src, tgt, fmap in one_pass_cases(henon_chain):
                zs = list(covering_boxes(src, 1))
                zs += [hset._subbox(_random_box(rng, [0.0] * src.n, 0.9).pairs)
                       for _ in range(4)]
                maps = []
                for z in [box for box, _, _ in zs] + [mid for _, mid, _ in zs]:
                    got = src.from_normalized(z)
                    want = matrix_from_normalized(src, z).pairs
                    assert type(got) is tuple
                    assert pairs_hex(got) == pairs_hex(want)
                for z, _, _ in zs:
                    image, jac = fmap.derivative(src.from_normalized(z))
                    image = IntervalVector.from_pairs(image)
                    maps.append(FixedMap(_thin(image), image, IntervalMatrix.from_pairs(jac)))
                jac_dim = maps[0].jac.ncols
                for _ in range(4):
                    p = _random_box(rng, tgt.center, 10.0 * max(tgt.diam))
                    jac = IntervalMatrix(
                        [list(_random_box(rng, [0.0] * jac_dim, 2.0)) for _ in range(tgt.n)]
                    )
                    maps.append(FixedMap(_thin(p), p, jac))
                for fixed in maps:
                    z = rng.choice(zs)
                    want, want_local = one_pass_oracle(src, tgt, fixed, z)
                    for rows in _row_sets(tgt.n):
                        img, local = _image_normalized(src, tgt, fixed, z, tgt.rows_read(rows))
                        assert pairs_hex(img.values()) == pairs_hex(want[j] for j in rows)
                        assert [pairs_hex(r) for r in local] == [
                            pairs_hex(want_local[j]) for j in rows
                        ]
                        compared += 1
        assert compared > 2000


# -- frames shared between sets, and the per-grid sub-box tables -----------------


def _hex_rows(rows):
    return [pairs_hex(row) for row in rows]


class TestSharedFrame:
    """A set built on a shared Frame is the set built from the frame's rows,
    bit for bit; the toy chain builds one Frame, the Henon proof one per
    set."""

    @staticmethod
    def _boxes(rng, h):
        return [_random_box(rng, h.center, 10.0 * max(h.diam)) for _ in range(3)]

    def test_same_bits_as_a_set_built_from_rows(self, rng):
        from tangency.henon import build_chain
        from tangency.toy import ToyParams, build_toy_chain

        toy = build_toy_chain(ToyParams())
        assert len({id(h.basis) for h in toy.sets}) == 1
        henon = build_chain()
        # Henon sets rebuilt on a Frame of their rows.
        shared = [HSet(h.name, h.center, Frame(h.coord), h.diam, h.unstable)
                  for h in henon.sets]
        for on_frame in list(toy.sets) + shared:
            from_rows = HSet.from_dict(on_frame.to_dict())
            assert from_rows.basis is not on_frame.basis
            assert on_frame.to_dict() == from_rows.to_dict()
            assert _hex_rows(on_frame.inv_coord) == _hex_rows(from_rows.inv_coord)
            assert _hex_rows(frame(on_frame).pairs) == _hex_rows(frame(from_rows).pairs)
            boxes = self._boxes(rng, on_frame)
            for rows in _row_sets(on_frame.n):
                read, other = on_frame.rows_read(rows), from_rows.rows_read(rows)
                assert (other.cols, other.diam) == (read.cols, read.diam)
                assert pairs_hex(other.center) == pairs_hex(read.center)
                assert [[(k, *pairs_hex([a])) for k, a in row] for row in other.terms] == [
                    [(k, *pairs_hex([a])) for k, a in row] for row in read.terms
                ]
            with kernels.upward():
                for p in boxes:
                    assert pairs_hex(to_normalized(on_frame, p).pairs) == pairs_hex(
                        to_normalized(from_rows, p).pairs
                    )

    def test_sets_on_one_frame_keep_their_own_centers(self):
        frame = Frame(ROT)
        a = HSet("A", (1.0, -2.0), frame, (0.5, 0.25), (0,))
        b = HSet("B", (3.0, 4.0), frame, (2.0, 1.0), (0,))
        assert a.basis is b.basis is frame
        assert a.inv_coord is b.inv_coord
        p = IntervalVector([1.0, -2.0])
        assert all(e.contains(0.0) for e in to_normalized(a, p))
        assert not to_normalized(b, p)[0].contains(0.0)

    def test_frame_dimension_must_match_the_center(self):
        with pytest.raises(IntervalError, match="shape mismatch"):
            HSet("bad", (0.0, 0.0, 0.0), Frame(ROT), (1.0, 1.0, 1.0), (0,))

    @staticmethod
    def _count_inverses(monkeypatch):
        from tangency import hset

        seen = []
        enclose = hset.inverse_enclosure

        def counting(rows):
            seen.append(rows)
            return enclose(rows)

        monkeypatch.setattr(hset, "inverse_enclosure", counting)
        return seen

    def test_check_toy_inverts_one_frame(self, monkeypatch, tmp_path, capsys):
        from tangency.cli import main

        seen = self._count_inverses(monkeypatch)
        assert main(["check-toy", "--report", str(tmp_path / "r.json")]) == 0
        assert len(seen) == 1

    def test_prove_henon_inverts_one_frame_per_set(self, monkeypatch, tmp_path, capsys):
        # 16 chain sets and the two disks' projected sets.
        from tangency.cli import main

        seen = self._count_inverses(monkeypatch)
        assert main(["prove", "henon", "--report", str(tmp_path / "r.json")]) == 0
        assert len(seen) == 18


_BAD = [math.nan, math.inf, -math.inf]


class TestNonFiniteInput:
    """NaN and infinite centers and frame entries are refused on both
    construction routes."""

    @pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("on_frame", [False, True], ids=["rows", "frame"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_center(self, bad, on_frame, k):
        center = [1.0, -2.0]
        center[k] = bad
        coord = Frame(ROT) if on_frame else ROT
        with pytest.raises(IntervalError):
            HSet("bad", center, coord, (0.5, 0.25), (0,))

    @pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("on_frame", [False, True], ids=["rows", "frame"])
    @pytest.mark.parametrize("ij", [(0, 0), (0, 1), (1, 0)])
    def test_coord(self, bad, on_frame, ij):
        coord = [list(row) for row in ROT]
        coord[ij[0]][ij[1]] = bad
        with pytest.raises(IntervalError):
            if on_frame:
                HSet("bad", (1.0, -2.0), Frame(coord), (0.5, 0.25), (0,))
            else:
                HSet("bad", (1.0, -2.0), coord, (0.5, 0.25), (0,))


class TestSubBoxTables:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("grid", [1, 2, 3, 5])
    def test_midpoints_and_deltas(self, n, grid):
        # Each box's mid and delta_terms are the pair_mid and isub values
        # computed from its pairs in the covering stage's rounding mode,
        # upward, whatever mode the boxes are asked for in (at grid 5 some
        # midpoints rounded to nearest differ).
        from tangency.interval import pair_mid
        from tangency.linalg import nonzero_pattern

        eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        h = HSet("S", (0.0,) * n, eye, (1.0,) * n, range(n))
        boxes = [b for i in range(n) for side in (1, -1) for b in h.walls(i, side, grid)]
        boxes += list(h.subboxes(grid))
        assert len(boxes) == 2 * n * grid ** (n - 1) + grid**n
        with kernels.upward():
            for box, mid, delta_terms in boxes:
                mids = [pair_mid(*z) for z in box]
                assert pairs_hex(mid) == pairs_hex((m, m) for m in mids)
                delta = [kernels.isub(z, (m, m)) for z, m in zip(box, mids)]
                (terms,) = nonzero_pattern((delta,))
                assert [k for k, _ in delta_terms] == [k for k, _ in terms]
                assert pairs_hex(p for _, p in delta_terms) == pairs_hex(
                    p for _, p in terms)

    def test_sets_of_one_dimension_share_their_boxes(self):
        a = _sample_set()
        b = HSet("T", (5.0, 5.0), [[1.0, 0.0], [0.0, 2.0]], (1.0, 3.0), (0, 1))
        for grid in (1, 2):
            assert a.walls(0, 1, grid) is b.walls(0, 1, grid)
            assert a.walls(0, -1, grid) is b.walls(0, -1, grid)
            assert a.subboxes(grid) is b.subboxes(grid)
        assert a.walls(0, 1, 1) is not a.walls(0, -1, 1)
        assert b.walls(1, 1, 1) is not b.walls(0, 1, 1)
        assert a.subboxes(1) is not HSet(
            "U", (0.0,) * 3, [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], (1.0,) * 3, (0,)
        ).subboxes(1)
