"""Covering-relation checker: analytic oracles, soundness, monotonicity."""

import random
from itertools import permutations

import pytest

from conftest import (
    CountingMap,
    IdentityMap,
    PointShiftedMap,
    covering_boxes,
    one_pass_cases,
    one_pass_oracle,
    pairs_hex,
)
from jet_oracle import planar_evaluators
from tangency.covering import (
    EnclosureError,
    VerificationInconclusive,
    _image_normalized,
    check_chain,
    check_covering,
    detect_correspondence,
    run_stages,
)
from tangency import kernels
from tangency.henon import henon_family, projected_disk_data
from tangency.hset import HSet
from tangency.interval import Interval, IntervalError, pair_mid
from linalg_oracle import IntervalMatrix, IntervalVector, local_derivative, to_normalized
from tangency.manifold import DiskMap
from tangency.projective import ChartError, ChartMap
from tangency.toy import ToyParams, build_toy_chain, linear_start_map, switch_map


EYE4 = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]


def _normalized(h, image):
    """The normalized coordinates in h of the ambient box image, (lo, hi)
    pairs as a map returns them."""
    return to_normalized(h, IntervalVector.from_pairs(image))


def _enclose(src, tgt, fmap, zbox, rows):
    """The covering's evaluation of one sub-box on the target rows rows."""
    return _image_normalized(src, tgt, fmap, zbox, tgt.rows_read(rows))


def _wall_midpoint_pairing(src, tgt, fmap, grid):
    """The unstable-axis pairing read off the wall sub-boxes: the thin
    midpoint image of each on the unstable target rows; for each source
    axis i and target axis j, the separation across j of the midpoints of
    the hulls of the images of the walls z_i = +1 and z_i = -1; the first
    pairing of largest total |separation|, each pair signed as its
    separation."""
    def thin(zbox):
        return _normalized(tgt, fmap.apply(src.from_normalized(zbox[1]))).pairs

    mids = {}
    for i in src.unstable:
        for side in (1, -1):
            images = [thin(w) for w in src.walls(i, side, grid)]
            mids[(i, side)] = {
                j: pair_mid(min(img[j][0] for img in images),
                            max(img[j][1] for img in images))
                for j in tgt.unstable
            }
    seps = {(i, j): mids[(i, 1)][j] - mids[(i, -1)][j]
            for i in src.unstable for j in tgt.unstable}
    best = max(
        permutations(tgt.unstable),
        key=lambda perm: sum(abs(seps[(i, j)]) for i, j in zip(src.unstable, perm)),
    )
    return tuple((i, j, 1 if seps[(i, j)] >= 0.0 else -1)
                 for i, j in zip(src.unstable, best))


def _linear_inequality_oracle(params, src, tgt):
    """Direct evaluation of the reference wall inequalities for one link of
    the chain-start dynamics (x, y, v, a) -> (lam x, mu y, (mu/lam) v, a)."""
    lam, mu = params.lam, params.mu
    cx_s, cx_t = src.center[0], tgt.center[0]
    x_s, y_s, v_s, a_s = src.diam
    x_t, y_t, v_t, a_t = tgt.diam
    reach_lo = lam * cx_s - abs(lam) * x_s
    reach_hi = lam * cx_s + abs(lam) * x_s
    cond_x = reach_lo < cx_t - x_t and cx_t + x_t < reach_hi
    cond_y = abs(mu) * y_s < y_t
    cond_v = abs(mu / lam) * v_s < v_t
    cond_a = a_s > a_t
    return cond_x and cond_y and cond_v and cond_a


class TestToyLinearLink:
    def test_checker_agrees_with_inequality_oracle(self):
        params = ToyParams()
        chain = build_toy_chain(params)
        fmap = linear_start_map(params)
        for idx in range(chain.k):
            src, tgt = chain.sets[idx], chain.sets[idx + 1]
            assert _linear_inequality_oracle(params, src, tgt)
            cert = check_covering(src, tgt, fmap, grid=1)
            assert cert.min_exit_margin() > 0.0
            assert cert.entry_margin > 0.0

    def test_checker_rejects_when_oracle_rejects(self):
        params = ToyParams()
        chain = build_toy_chain(params)
        src = chain.sets[1]
        bad_tgt = HSet(
            "bad",
            chain.sets[2].center,
            EYE4,
            # stable y-diameter shrunk below |mu| y_src: entry must fail
            (chain.sets[2].diam[0], 0.4 * params.mu * src.diam[1],
             chain.sets[2].diam[2], chain.sets[2].diam[3]),
            (0, 3),
        )
        assert not _linear_inequality_oracle(params, src, bad_tgt)
        with pytest.raises(VerificationInconclusive):
            check_covering(src, bad_tgt, linear_start_map(params), grid=1)

    def test_random_valid_params_agree(self, rng):
        for _ in range(15):
            lam = rng.choice([-1, 1]) * rng.uniform(1.3, 3.0)
            mu = rng.choice([-1, 1]) * rng.uniform(0.1, 0.7)
            params = ToyParams(lam=lam, mu=mu,
                               delta=rng.uniform(0.3, 0.7),
                               eps=rng.uniform(0.005, 0.05))
            chain = build_toy_chain(params)
            fmap = linear_start_map(params)
            for idx in range(chain.k):
                src, tgt = chain.sets[idx], chain.sets[idx + 1]
                assert _linear_inequality_oracle(params, src, tgt), (lam, mu)
                check_covering(src, tgt, fmap, grid=1)


class TestSwitchLink:
    def test_reference_sizes_certify(self):
        # x_k = D/2, y_k = xbar = D/3, v_k = wbar = (1-e)D/2,
        # ybar = (0.5+e)D, abar = (1+e)D: the switch covering holds.
        params = ToyParams(delta=0.5, eps=0.01)
        chain = build_toy_chain(params)
        src = chain.sets[chain.k]
        tgt = chain.sets[chain.k + 1]
        cert = check_covering(src, tgt, switch_map(), grid=1)
        # the expanding x-direction stretches across the w-direction and the
        # parameter direction stretches across x
        pairing = {i: (j, s) for i, j, s in cert.correspondence}
        assert pairing[0][0] == 2
        assert pairing[3][0] == 0

    def test_planar_image_of_tangency_point(self):
        fmap = switch_map()
        out = IntervalVector.from_pairs(fmap.apply(IntervalVector([1.0, 0.0, 0.0, 0.0]).pairs))
        assert out[0].contains(0.0)
        assert out[1].contains(1.0)


class TestFailureModes:
    def test_identity_map_never_covers(self):
        h = HSet("U", (0, 0, 0, 0), EYE4, (1, 1, 1, 1), (0, 3))
        with pytest.raises(VerificationInconclusive) as err:
            check_covering(h, h, IdentityMap(4), grid=1)
        assert err.value.stage == "covering"

    def test_failure_is_localized(self):
        params = ToyParams()
        chain = build_toy_chain(params)
        sets = list(chain.sets)
        bad = HSet(
            "shrunk",
            sets[3].center,
            EYE4,
            (sets[3].diam[0], 1e-4, sets[3].diam[2], sets[3].diam[3]),
            (0, 3),
        )
        sets[3] = bad
        with pytest.raises(VerificationInconclusive) as err:
            check_chain(sets, list(chain.maps), grid=1)
        assert "N2=>shrunk" in err.value.locus

    def test_interior_failure_is_reported_before_any_wall(self):
        # The interior sub-boxes are evaluated before the walls: a map whose
        # derivative fails on every box reaching the face z_0 = +1 (the
        # interior box and that wall's box, at grid 1) ends the link at
        # the interior box, with no wall sub-box mapped.
        chain = build_toy_chain(ToyParams())
        src, tgt, fmap = chain.sets[0], chain.sets[1], chain.maps[0]

        class FailsOnFace:
            def apply(self, box, outputs=None):
                return fmap.apply(box, outputs)

            def derivative(self, box, outputs=None):
                if _normalized(src, box)[0].hi >= 1.0:
                    raise IntervalError("no derivative on the face z_0 = +1")
                return fmap.derivative(box, outputs)

        counted = CountingMap(FailsOnFace())
        with pytest.raises(VerificationInconclusive) as err:
            check_covering(src, tgt, counted, grid=1)
        assert err.value.locus == f"{src.name}=>{tgt.name}"
        assert err.value.detail.startswith("interior box 0: ")
        assert "z_0 = +1" in err.value.detail
        assert counted.calls == {"apply": 1, "derivative": 1}
        assert counted.outputs["derivative"] == [tuple(range(tgt.n))]


class TestRunStages:
    """covering.run_stages, the one stage runner of both drivers, on stages
    that record the rounding mode they run in."""

    @staticmethod
    def _run(last):
        modes = []

        def stage(value):
            def fn(done):
                modes.append(kernels._fegetround())
                return value(done) if callable(value) else value
            return fn

        def build():
            modes.append(kernels._fegetround())
            return "built", [("first", "first", "stage-1", "locus 1", stage(1)),
                             ("second", "shared", "stage-2", "locus 2",
                              stage(lambda done: done["first"] + 1)),
                             ("third", "shared", "stage-3", "locus 3", stage(last))]

        try:
            return run_stages(build)
        finally:
            assert modes[0] == kernels._FE_TONEAREST  # the build
            assert set(modes[1:]) == {kernels._FE_UPWARD}
            assert kernels._fegetround() == kernels._FE_TONEAREST

    def test_every_stage_certified(self):
        built, certified, timings = self._run(3)
        assert built == "built"
        assert certified == {"first": 1, "second": 2, "third": 3}
        assert list(timings) == ["build", "first", "shared"]

    def test_interval_error_is_the_stage_verdict(self):
        def fails(done):
            raise IntervalError("no enclosure")

        with pytest.raises(VerificationInconclusive) as err:
            self._run(fails)
        exc = err.value
        assert (exc.stage, exc.locus, exc.detail) == ("stage-3", "locus 3", "no enclosure")
        assert exc.certified == {"first": 1, "second": 2}
        assert list(exc.timings) == ["build", "first", "shared"]

    def test_a_failing_stage_keeps_its_own_certificates(self):
        def fails(done):
            raise VerificationInconclusive("own stage", "own locus", "failed",
                                           {"third": ("partial",)})

        with pytest.raises(VerificationInconclusive) as err:
            self._run(fails)
        exc = err.value
        assert (exc.stage, exc.locus) == ("own stage", "own locus")
        assert exc.certified == {"first": 1, "second": 2, "third": ("partial",)}
        assert list(exc.timings) == ["build", "first", "shared"]

    def test_enclosure_error_is_not_a_verdict(self):
        def fails(done):
            raise EnclosureError("stage-3", "locus 3", "disjoint enclosures")

        with pytest.raises(EnclosureError):
            self._run(fails)


class _AffineMap:
    """p -> A p + b on 2-D boxes, A an interval matrix, as a map of the
    covering protocol: exactly the outputs asked for."""

    def __init__(self, a, b=(0.0, 0.0)):
        self.a = IntervalMatrix(a)
        self.b = IntervalVector(b)

    def apply(self, box, outputs=None):
        image = self.a.mat_vec(IntervalVector.from_pairs(box)) + self.b
        return tuple([image.pairs[k] for k in (range(2) if outputs is None else outputs)])

    def derivative(self, box, outputs=None):
        rows = self.a.pairs
        return self.apply(box, outputs), tuple(
            [rows[k] for k in (range(2) if outputs is None else outputs)]
        )


EYE2 = [[1.0, 0.0], [0.0, 1.0]]
# Columns (1, 0) and (1, 1e-300): unit vectors whose inverse frame holds
# entries of magnitude 1e300.
NEAR_SINGULAR = [[1.0, 1.0], [0.0, 1e-300]]
HUGE = 1.5e308


class TestOverflowInTheFrameChange:
    """A link whose image overflows in the frame change, after the map has
    returned finite enclosures, ends in VerificationInconclusive at that
    link: each vector and row the pair-level frame changes store is checked
    before it enters a product, including the products that reach imul's
    branch for two operands straddling zero, where a NaN would be dropped.
    The first link of the chain is certified and kept."""

    @pytest.mark.parametrize(
        "case",
        [
            # The image, 1e308 away from the target center, overflows in
            # p - c on the thin midpoint image of the interior box.
            ("far-image", EYE2, [[2.0, 0.0], [0.0, 0.5]], (HUGE, 0.0), (-HUGE, 0.0)),
            # A Jacobian column of [-1.5e308, 1.5e308] times the source
            # diameter 0.25 is finite; over the target diameter 0.125 it
            # overflows, on operands straddling zero.
            ("straddling-slope", EYE2,
             [[2.0, Interval(-HUGE, HUGE)], [0.0, 0.5]], (0.0, 0.0), (0.0, 0.0)),
            # The Jacobian entry 1e10 times the -1e300 entry of the
            # target's inverse frame overflows in the local derivative's
            # first product; the thin images stay finite.
            ("inverse-frame", NEAR_SINGULAR,
             [[2.0, 0.0], [0.0, 1e10]], (0.0, 0.0), (0.0, 0.0)),
        ],
        ids=lambda case: case[0],
    )
    def test_inconclusive_at_the_link(self, case):
        _, coord, a, b, center = case
        s0 = HSet("S0", (0.0, 0.0), EYE2, (1.0, 1.0), (0,))
        s1 = HSet("S1", (0.0, 0.0), EYE2, (0.25, 1.0), (0,))
        s2 = HSet("S2", center, coord, (0.125, 1e-3), (0,))
        good = _AffineMap([[0.5, 0.0], [0.0, 0.25]])
        with pytest.raises(VerificationInconclusive) as exc:
            check_chain([s0, s1, s2], [good, _AffineMap(a, b)])
        assert exc.value.locus == "S1=>S2"
        assert "non-finite" in exc.value.detail
        assert [c.target for c in exc.value.certified["covering"]] == ["S1"]


class TestMonotonicity:
    def test_grid_growth_never_breaks_success(self):
        params = ToyParams()
        chain = build_toy_chain(params)
        base = check_chain(list(chain.sets), list(chain.maps), grid=1)
        finer = check_chain(list(chain.sets), list(chain.maps), grid=2)
        finest = check_chain(list(chain.sets), list(chain.maps), grid=3)
        for c1, c2, c3 in zip(base, finer, finest):
            assert c2.min_exit_margin() >= c1.min_exit_margin() - 1e-12
            assert c3.entry_margin >= c1.entry_margin - 1e-12


class TestJacobian:
    def test_grid_one_is_the_whole_set_enclosure(self):
        chain = build_toy_chain(ToyParams())
        for cert, src, tgt, fmap in zip(
            check_chain(list(chain.sets), list(chain.maps), grid=1),
            chain.sets,
            chain.sets[1:],
            chain.maps,
        ):
            jacobian = IntervalMatrix.from_pairs(fmap.derivative(src.box())[1])
            whole = local_derivative(src, tgt, jacobian)
            assert cert.local_jacobian == whole.pairs

    def test_finer_grid_stays_inside(self):
        chain = build_toy_chain(ToyParams())
        coarse = check_chain(list(chain.sets), list(chain.maps), grid=1)
        fine = check_chain(list(chain.sets), list(chain.maps), grid=2)
        for c1, c2 in zip(coarse, fine):
            assert c2.grid == 2
            for r1, r2 in zip(c1.local_jacobian, c2.local_jacobian):
                assert all(l1 <= l2 and h2 <= h1 for (l1, h1), (l2, h2) in zip(r1, r2))


class TestEnclosureConsistency:
    def test_disjoint_images_are_an_error_not_a_verdict(self):
        chain = build_toy_chain(ToyParams())
        src, tgt = chain.sets[0], chain.sets[1]
        bad = PointShiftedMap(chain.maps[0], 10.0 * max(tgt.diam))
        with pytest.raises(EnclosureError) as err:
            check_covering(src, tgt, bad, grid=1)
        assert not isinstance(err.value, (IntervalError, VerificationInconclusive))
        assert err.value.stage == "covering"
        assert err.value.locus == "N0=>N1"
        assert err.value.detail == (
            "mean-value image Interval(48.84140625, 53.18984375000001) and hull "
            "image Interval(-3.1507812499999996, 1.19765625) of axis 0 are "
            "disjoint on sub-box [Interval(-1.0, 1.0), Interval(-1.0, 1.0), "
            "Interval(-1.0, 1.0), Interval(-1.0, 1.0)]")

    @pytest.mark.parametrize("ignores", ["apply", "derivative"])
    def test_map_ignoring_outputs_is_an_error_not_a_verdict(self, ignores):
        # A map that returns every output where fewer were asked for breaks
        # the map protocol: a TypeError naming the link, not an
        # INCONCLUSIVE verdict.
        chain = build_toy_chain(ToyParams())
        src, tgt, fmap = chain.sets[0], chain.sets[1], chain.maps[0]

        class IgnoresOutputs:
            def apply(self, box, outputs=None):
                return fmap.apply(box, None if ignores == "apply" else outputs)

            def derivative(self, box, outputs=None):
                return fmap.derivative(
                    box, None if ignores == "derivative" else outputs
                )

        assert tgt.rows_read(tgt.unstable).cols == (0, 3)
        with pytest.raises(TypeError, match="N0=>N1"):
            check_covering(src, tgt, IgnoresOutputs(), grid=1)


class TestSoundnessProxy:
    def test_sampled_wall_points_satisfy_inequalities(self, rng):
        # Dense point sampling can never contradict a certificate.
        params = ToyParams()
        chain = build_toy_chain(params)
        for idx in (0, chain.k, chain.n_links - 1):
            src, tgt = chain.sets[idx], chain.sets[idx + 1]
            fmap = chain.maps[idx]
            cert = check_covering(src, tgt, fmap, grid=1)
            for i, j, sign in cert.correspondence:
                for side in (1, -1):
                    for _ in range(40):
                        z = [rng.uniform(-1, 1) for _ in range(4)]
                        z[i] = float(side)
                        img = _normalized(
                            tgt, fmap.apply(src.from_normalized(IntervalVector(z).pairs))
                        )
                        w = img[j] if sign > 0 else -img[j]
                        if side > 0:
                            assert w.lo > 1.0
                        else:
                            assert w.hi < -1.0
            for _ in range(60):
                z = IntervalVector([rng.uniform(-1, 1) for _ in range(4)])
                img = _normalized(tgt, fmap.apply(src.from_normalized(z.pairs)))
                for j in tgt.stable:
                    assert -1.0 < img[j].lo and img[j].hi < 1.0


class TestDeterminism:
    def test_bit_identical_reruns(self):
        params = ToyParams()
        chain = build_toy_chain(params)
        a = check_chain(list(chain.sets), list(chain.maps), grid=1)
        b = check_chain(list(chain.sets), list(chain.maps), grid=1)
        for c1, c2 in zip(a, b):
            assert c1.to_dict() == c2.to_dict()

    def test_detection_recorded_in_certificate(
        self, henon_chain, henon_proof, henon_proof_grid2
    ):
        # The pairing is read off the local Jacobian hull.  It equals the one
        # read off the wall sub-boxes' thin midpoint images, on every Henon
        # link at grid 1 and grid 2, on both disk self-coverings and on the
        # toy chains of 30 seeded draws.
        chart = ChartMap(henon_family()[0])
        sets = henon_chain.sets
        for stages, _, _ in (henon_proof, henon_proof_grid2):
            grid = stages["covering"][0].grid
            for src, tgt, cov in zip(sets, sets[1:], stages["covering"]):
                assert cov.correspondence == _wall_midpoint_pairing(
                    src, tgt, chart, grid
                ), (cov.source, grid)
            for side, f in zip(("stable", "unstable"), henon_family()):
                ntilde, _, param, _ = projected_disk_data(henon_chain, side)
                disk_map = DiskMap(ChartMap(f), param)
                disk = stages[f"{side}_disk"].covering
                assert disk.correspondence == _wall_midpoint_pairing(
                    ntilde, ntilde, disk_map, grid
                ), (side, grid)

        rng = random.Random("tangency::toy-pairings")
        for _ in range(30):
            params = ToyParams(
                lam=rng.uniform(1.5, 4.0),
                mu=rng.uniform(0.2, 0.6),
                delta=rng.uniform(0.3, 0.7),
                eps=rng.uniform(0.005, 0.05),
            )
            chain = build_toy_chain(params)
            for src, tgt, fmap in zip(chain.sets, chain.sets[1:], chain.maps):
                cert = check_covering(src, tgt, fmap, grid=1)
                assert cert.correspondence == _wall_midpoint_pairing(
                    src, tgt, fmap, 1
                ), (params, cert.source)

    def test_detection_reads_the_normalized_jacobian(self):
        # Unstable axes (0, 3).  The raw entries pair source axis 0 with
        # target axis 3 and 3 with 0 (10 + 10 against 1 + 1).  Scaled by the
        # diameters, d_src[i] / d_tgt[j], the normalized slopes pair 0 with
        # 0 (100) and 3 with 3 (0.01) against 10 + 10.  A negative entry
        # signs its pair -1.
        unit = HSet("U", (0, 0, 0, 0), EYE4, (1.0, 1.0, 1.0, 1.0), (0, 3))
        src = HSet("S", (0, 0, 0, 0), EYE4, (100.0, 1.0, 1.0, 1.0), (0, 3))
        tgt = HSet("T", (0, 0, 0, 0), EYE4, (1.0, 1.0, 1.0, 100.0), (0, 3))
        one, ten, zero = (0.5, 1.5), (9.0, 11.0), (0.0, 0.0)
        local = [
            [one, zero, zero, ten],
            [zero, zero, zero, zero],
            [zero, zero, zero, zero],
            [ten, zero, zero, one],
        ]
        assert detect_correspondence(unit, unit, local) == ((0, 3, 1), (3, 0, 1))
        assert detect_correspondence(src, tgt, local) == ((0, 0, 1), (3, 3, 1))
        local[3][3] = (-1.5, -0.5)
        assert detect_correspondence(src, tgt, local) == ((0, 0, 1), (3, 3, -1))

    @pytest.mark.parametrize("grid", [1, 2])
    def test_each_box_evaluated_once(self, grid):
        # One thin midpoint image and one enclosure pass per wall and
        # interior sub-box; the pairing search maps nothing.
        chain = build_toy_chain(ToyParams())
        for idx, fmap in enumerate(chain.maps):
            src, tgt = chain.sets[idx], chain.sets[idx + 1]
            counted = CountingMap(fmap)
            check_covering(src, tgt, counted, grid=grid)
            boxes = len(covering_boxes(src, grid))
            assert counted.calls == {"apply": boxes, "derivative": boxes}, idx


class TestWallRows:
    def test_restricted_rows_equal_the_full_image_rows(self, henon_chain):
        # Walls are evaluated on the unstable target rows only, and the
        # chart map on the outputs those rows read; those rows are the full
        # image's rows bit for bit, on every wall of the Henon chain at
        # grid 1 and grid 2.
        fmap = ChartMap(henon_family()[0])
        sets = henon_chain.sets
        for grid in (1, 2):
            walls = 0
            for src, tgt in zip(sets, sets[1:]):
                rows = tgt.unstable
                for i in src.unstable:
                    for side in (1, -1):
                        for w in src.walls(i, side, grid):
                            img, local = _enclose(src, tgt, fmap, w, rows)
                            full, full_local = _enclose(
                                src, tgt, fmap, w, range(tgt.n)
                            )
                            assert list(img) == list(rows)
                            assert pairs_hex(img.values()) == pairs_hex(
                                full[j] for j in rows
                            )
                            assert [pairs_hex(r) for r in local] == [
                                pairs_hex(full_local[j]) for j in rows
                            ]
                            walls += 1
            assert walls == 4 * grid**3 * (len(sets) - 1)

    @pytest.mark.parametrize("grid", [1, 2])
    @pytest.mark.parametrize("given", [False, True], ids=["detected", "given"])
    def test_walls_read_their_paired_row_only(self, henon_chain, grid, given):
        # The interior sub-boxes are evaluated first, asking for every
        # output.  Then each wall sub-box asks the map, for its thin image
        # and its enclosure pass alike, for the columns its paired target
        # row reads, whether the pairing is detected or given.
        chart = ChartMap(henon_family()[0])
        toy = build_toy_chain(ToyParams())
        links = [(s, t, chart) for s, t in zip(henon_chain.sets, henon_chain.sets[1:])]
        links += list(zip(toy.sets, toy.sets[1:], toy.maps))
        for src, tgt, fmap in links:
            pairing = check_covering(src, tgt, fmap, grid).correspondence
            spy = CountingMap(fmap)
            check_covering(src, tgt, spy, grid, pairing if given else None)
            paired = {i: j for i, j, _ in pairing}
            walls = [
                tgt.rows_read((paired[i],)).cols
                for i in src.unstable
                for side in (1, -1)
                for _ in src.walls(i, side, grid)
            ]
            interior = [tuple(range(tgt.n))] * len(src.subboxes(grid))
            assert spy.outputs["derivative"] == interior + walls, src.name
            assert spy.outputs["apply"] == interior + walls, src.name

    def test_restricted_map_returns_only_the_outputs_asked_for(self, henon_chain):
        # Every map of the protocol, evaluated on some outputs, gives exactly
        # those entries and rows of its evaluation on every output, bit for
        # bit: no placeholders.  The maps are the chart map on the Henon
        # sets, the toy maps on the toy sets and the disk maps on the
        # projected sets.
        chart = ChartMap(henon_family()[0])
        cases = [(chart, h) for h in henon_chain.sets]
        toy = build_toy_chain(ToyParams())
        cases += [(fmap, h) for fmap, h in zip(toy.maps, toy.sets)]
        for side, f in zip(("stable", "unstable"), henon_family()):
            ntilde, _, param, _ = projected_disk_data(henon_chain, side)
            cases.append((DiskMap(ChartMap(f), param), ntilde))
        for fmap, h in cases:
            box = h.box()
            mid = tuple([(pair_mid(*e),) * 2 for e in box])
            full_value = fmap.apply(mid)
            full_image, full_jac = fmap.derivative(box)
            n = len(full_value)
            assert n == h.n == len(full_image) == len(full_jac)
            subsets = ((0, 1, n - 1), (0, 1, 2), (n - 1,), (2,), tuple(range(n)))
            for outputs in subsets:
                value = fmap.apply(mid, outputs)
                image, jac = fmap.derivative(box, outputs)
                assert pairs_hex(value) == pairs_hex(full_value[k] for k in outputs)
                assert pairs_hex(image) == pairs_hex(full_image[k] for k in outputs)
                assert [pairs_hex(r) for r in jac] == [
                    pairs_hex(full_jac[k]) for k in outputs
                ]

    def test_wall_slope_check_moves_to_the_interior(self):
        # f(x, y) = (x + y, x) maps the direction (w, 1) to (w + 1, w), so
        # it turns the vertical, slope 0, horizontal.  On a link whose
        # target rows are (x, a), the walls never compute the image slope
        # and pass their exit checks; the interior box, which covers the
        # walls and maps every output, leaves the chart, so the link is
        # still inconclusive.
        fmap = ChartMap(planar_evaluators(lambda x, y, a: (x + y, x))[0])
        src = HSet("S", (0.0, 0.0, 0.0, 0.0), EYE4, (1.0, 0.01, 0.1, 0.2), (0, 3))
        tgt = HSet("T", (0.0, 0.0, 0.0, 0.0), EYE4, (0.5, 2.0, 1.0, 0.1), (0, 3))
        wall = src.walls(0, 1, 1)[0]
        with pytest.raises(ChartError):
            _enclose(src, tgt, fmap, wall, range(tgt.n))
        img, _ = _enclose(src, tgt, fmap, wall, tgt.unstable)
        assert img[0][0] > 1.0
        with pytest.raises(VerificationInconclusive) as exc:
            check_covering(src, tgt, fmap)
        assert exc.value.locus == "S=>T"
        assert exc.value.detail.startswith("interior box 0:")
        assert "chart" in exc.value.detail


class TestOnePassOracle:
    """_image_normalized, the covering's one pass on (lo, hi) pairs, is the
    object route's evaluation bit for bit (conftest.one_pass_oracle: the
    ambient boxes by IntervalMatrix.mat_vec, the maps on every output,
    linalg_oracle.to_normalized and local_derivative), on every sub-box of the
    15 Henon links, both disk self-coverings and the default toy chain's
    links, on every target row, on each single row and on the unstable and
    stable rows."""

    @pytest.mark.parametrize("grid", [1, 2])
    def test_every_sub_box(self, henon_chain, grid):
        from tangency.kernels import upward

        cases = one_pass_cases(henon_chain)
        compared = 0
        with upward():
            for src, tgt, fmap in cases:
                n = tgt.n
                row_sets = [tuple(range(n)), tgt.unstable, tgt.stable]
                row_sets += [(j,) for j in range(n)]
                for zbox in covering_boxes(src, grid):
                    want, want_local = one_pass_oracle(src, tgt, fmap, zbox)
                    for rows in row_sets:
                        img, local = _enclose(src, tgt, fmap, zbox, rows)
                        assert list(img) == list(rows)
                        assert pairs_hex(img.values()) == pairs_hex(want[j] for j in rows)
                        assert [pairs_hex(r) for r in local] == [
                            pairs_hex(want_local[j]) for j in rows
                        ]
                    compared += 1
        # 15 Henon and 10 toy links on 4-dimensional sets, 2 disks on
        # 3-dimensional ones, each with two unstable axes.
        assert len(cases) == 27
        assert compared == 25 * (4 * grid**3 + grid**4) + 2 * (4 * grid**2 + grid**3)


# Run in a fresh interpreter: a __new__ set on a class cannot be taken back
# (deleting it leaves the class refusing constructor arguments).  The first
# run warms the per-grid sub-box tables and the frames' row patterns; the
# second is counted.
_COUNT_BUILDS = """
import contextlib, io, json, sys
from collections import Counter

from tangency import kernels
from tangency.interval import Interval

which, grid = sys.argv[1], int(sys.argv[2])
if which == "check-toy":
    from tangency.cli import main

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["check-toy", "--report", sys.argv[3]])
else:
    from tangency.covering import check_chain

    if which == "henon":
        from tangency.henon import build_chain, henon_family
        from tangency.projective import ChartMap

        sets = list(build_chain().sets)
        maps = [ChartMap(henon_family()[0])] * (len(sets) - 1)
    else:
        from tangency.toy import ToyParams, build_toy_chain

        chain = build_toy_chain(ToyParams())
        sets, maps = list(chain.sets), list(chain.maps)

    def run():
        with kernels.upward():
            return len(check_chain(sets, maps, grid))
run()
built = Counter()


def new(cls, *args, **kwargs):
    built[cls.__name__] += 1
    return object.__new__(cls)


Interval.__new__ = staticmethod(new)
out = run()
print(json.dumps({"built": built, "out": out}))
"""


def _count_builds(*args):
    """What the _COUNT_BUILDS script prints for args, run on the tangency
    package the tests import."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tangency

    src = str(Path(tangency.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", _COUNT_BUILDS, *map(str, args)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


class TestObjectsBuiltPerLink:
    """The covering speaks (lo, hi) pairs from the sub-boxes to the
    certificate: a warm covering stage, one whose per-grid sub-box tables
    and frame row patterns are built already, builds no Interval, counted
    through the class's __new__, on the Henon chain at grids 1 and 2 and on
    the default toy chain; nor does a whole warm check-toy call, which
    certifies the same chain, its cones, switch blocks and transversality."""

    @pytest.mark.parametrize("which, grid, links", [
        ("henon", 1, 15), ("henon", 2, 15), ("toy", 1, 10),
    ])
    def test_warm_stage(self, which, grid, links):
        assert _count_builds(which, grid) == {"built": {}, "out": links}

    def test_warm_check_toy_call(self, tmp_path):
        assert _count_builds("check-toy", 1, tmp_path / "r.json") == {"built": {}, "out": 0}


class TestFrameChangesFetchedOnce:
    def test_rows_read_once_per_link_and_row_set(self, monkeypatch, henon_chain):
        # check_covering fetches the frame change onto each set of target
        # rows once per link, not per sub-box: as many HSet.rows_read calls
        # at grid 2 as at grid 1, one per unstable target row and one for
        # every row.
        calls = []
        rows_read = HSet.rows_read

        def counting(h, rows):
            calls.append(rows)
            return rows_read(h, rows)

        monkeypatch.setattr(HSet, "rows_read", counting)
        chart = ChartMap(henon_family()[0])
        toy = build_toy_chain(ToyParams())
        links = [(s, t, chart) for s, t in zip(henon_chain.sets, henon_chain.sets[1:])]
        links += list(zip(toy.sets, toy.sets[1:], toy.maps))
        for src, tgt, fmap in links:
            counts = []
            for grid in (1, 2):
                calls.clear()
                check_covering(src, tgt, fmap, grid)
                counts.append(len(calls))
            assert counts[0] == counts[1] == len(tgt.unstable) + 1, src.name


class TestChainBasics:
    def test_single_pair_degenerates(self):
        params = ToyParams()
        chain = build_toy_chain(params)
        certs = check_chain(chain.sets[:2], [chain.maps[0]], grid=1)
        single = check_covering(chain.sets[0], chain.sets[1], chain.maps[0], 1)
        assert certs[0].to_dict() == single.to_dict()

    def test_chain_needs_two_sets(self):
        params = ToyParams()
        chain = build_toy_chain(params)
        with pytest.raises(Exception):
            check_chain(chain.sets[:1], [], grid=1)

    def test_override_correspondence(self):
        params = ToyParams()
        chain = build_toy_chain(params)
        cert = check_covering(
            chain.sets[0],
            chain.sets[1],
            chain.maps[0],
            grid=1,
            correspondence=[(0, 0, 1), (3, 3, 1)],
        )
        assert cert.correspondence == ((0, 0, 1), (3, 3, 1))

    @pytest.mark.parametrize(
        "pairing",
        [
            [(0, 0, 1)],  # axis 3 unpaired: its walls would go unchecked
            [(0, 0, 1), (3, 3, 2)],
            [(7, 0, 1), (3, 3, 1)],
            [(0, 0, 1), (0, 3, 1)],
            [(0, 0, 1), (3, 3, 1), (3, 3, 1)],
            [(0, 0, 1), (3, 3, True)],
            [(0, 0), (3, 3, 1)],
            [1, 2],
            7,
        ],
        ids=["partial", "sign-two", "bad-axis", "repeated-source", "extra",
             "bool-sign", "pair", "scalars", "not-a-list"],
    )
    def test_malformed_correspondence_rejected(self, pairing):
        chain = build_toy_chain(ToyParams())
        with pytest.raises(IntervalError, match="does not pair"):
            check_covering(chain.sets[0], chain.sets[1], chain.maps[0], 1, pairing)
