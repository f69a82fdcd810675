"""Henon certification: data integrity, chain, cones, disks, full driver."""

import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_exact_cone_matrix,
    assert_exact_margins,
    check_inverse_consistency,
    contains_fraction,
    covering_boxes,
    evaluator,
    exact_point,
    exact_sample_points,
    frac_inverse,
    frac_matmul,
)
from jet_oracle import Jet, henon_expressions
from tangency import henon
from tangency.covering import VerificationInconclusive
from tangency.henon import (
    A0,
    B0,
    DIAM_ROWS,
    FORM_ROWS,
    LAM,
    MU,
    SEED_S_COEFF,
    SEED_U_COEFF,
    HenonConfig,
    build_chain,
    eigen_data,
    fixed_point,
    henon_family,
    projected_disk_data,
    run_proof,
    seed_quality,
    tangent_alignment,
)
from tangency.interval import Interval
from linalg_oracle import IntervalMatrix, IntervalVector, to_normalized
from tangency.manifold import DiskMap
from tangency.projective import ChartMap


def _serialized(result):
    """Everything run_proof's result certifies, margins included, as plain
    data: the stage certificates', h-sets' and forms' own to_dict() and the
    conclusion, without the timings.  Dataclass equality would skip the
    margins (compare=False)."""
    stages, _, extras = result
    return {
        "coverings": [c.to_dict() for c in stages["covering"]],
        "cones": [c.to_dict() for c in stages["cones"]],
        "stable_disk": stages["stable_disk"].to_dict(),
        "unstable_disk": stages["unstable_disk"].to_dict(),
        "hsets": [h.to_dict() for h in extras["hsets"]],
        "forms": [q.to_dict() for q in extras["forms"]],
        "conclusion": extras["conclusion"],
    }


def _step_images(chain):
    """Rigorous one-step chart images of the orbit centers c_1..c_14, the
    enclosures build_chain checks."""
    chart = ChartMap(henon_family()[0])
    return [IntervalVector.from_pairs(chart.apply(IntervalVector(chain.sets[i].center).pairs))
            for i in range(1, 15)]


def _mids(v):
    return IntervalVector([c.mid for c in v])


class TestFamily:
    def test_forward_inverse_consistency(self):
        fam = henon_expressions()
        for box in (
            (Interval(-2.0, -1.9), Interval(-2.0, -1.9), Interval(A0)),
            (Interval(0.4, 0.5), Interval(-0.1, 0.0), Interval(A0)),
        ):
            assert check_inverse_consistency(*fam, box) == 0.0

    def test_second_derivative_constant(self):
        # d^2(first component)/dx^2 = -2 everywhere, exactly: on the jets of
        # the map's expression and in its closed form's Hessian rows.
        forward, _ = henon_expressions()
        x = Jet.variable(0, Interval(-5.0, 5.0), 3)
        y = Jet.variable(1, Interval(-5.0, 5.0), 3)
        a = Jet.variable(2, Interval(1.0, 1.6), 3)
        fx, fy = forward(x, y, a)
        assert fx.hess[0][0] == Interval(-2.0)
        assert fy.hess[0][0] == Interval(0.0)
        (_, _, (hx, _)), (_, _, (gx, _)) = henon_family()[0](
            (-5.0, 5.0), (-5.0, 5.0), (1.0, 1.6), 2)
        assert (hx[0], gx[0]) == ((-2.0, -2.0), (0.0, 0.0))

    def test_zero_b_rejected(self):
        with pytest.raises(Exception):
            henon_family(0.0)


class TestFixedPointAndEigen:
    def test_fixed_point_value(self):
        x0, y0 = fixed_point()
        assert x0 == y0
        assert x0.contains(-1.9679632427827796)
        assert x0.width < 1e-13

    def test_fixed_point_residual(self):
        # ||H(z0) - z0|| encloses 0 with width below 1e-10.
        forward, _ = henon_expressions()
        x0, y0 = fixed_point()
        fx, fy = forward(x0, y0, Interval(A0))
        rx, ry = fx - x0, fy - y0
        assert rx.contains(0.0) and ry.contains(0.0)
        assert rx.width < 1e-10 and ry.width < 1e-10

    def test_eigenvalues_match_reference_decimals(self):
        # the reference decimals carry 10 significant digits
        eig = eigen_data()
        assert abs(eig["lam"].mid - LAM) < 5e-10
        assert abs(eig["mu"].mid - MU) < 5e-12
        assert eig["lam"].width < 1e-11
        assert eig["mu"].width < 1e-11

    def test_eigenvector_residuals(self):
        # DH(z0) u0 - lam u0 with the reference eigenvalue as input stays
        # below 1e-6 componentwise; same for s0, mu.
        eig = eigen_data()
        x0 = eig["x0"]
        for vec, val in ((eig["u0"], LAM), (eig["s0"], MU)):
            rx = (-2.0 * x0) * vec[0] + B0 * vec[1] - val * vec[0]
            ry = vec[0] - val * vec[1]
            assert rx.mag < 1e-6
            assert ry.mag < 1e-6

    def test_reference_eigenvector_components(self):
        eig = eigen_data()
        u0, s0 = eig["u0_mid"], eig["s0_mid"]
        assert abs(u0[0] - 0.9680131177714217873) < 1e-15
        assert abs(u0[1] - 0.250899589123719882) < 1e-15
        assert abs(s0[0] + 0.07752307795993337433) < 1e-15
        assert abs(s0[1] + 0.996990557820693689) < 1e-15


class TestSeedQuality:
    def test_reference_norm_bounds(self):
        back, forward = seed_quality()
        assert back <= 5.2e-5
        assert forward <= 1.2e-5

    def test_tangent_alignment(self):
        # The 14-step image of the unstable direction is microradian-close
        # to the stable direction; the exact value is seed-representation
        # sensitive, so only the magnitude scale is asserted.
        u, s = tangent_alignment()
        assert abs(u) < 5e-6
        assert 0.999999 < s <= 1.0 + 1e-12


class TestSeedOrbitPrecision:
    """The decimal seed orbit is search data: only its binary64 roundings
    are used, and they must not depend on the working precision or on the
    caller's decimal context."""

    @staticmethod
    def _binary64_orbit():
        orbit = [tuple(float(x) for x in p) for p in henon._highprec_orbit(14)]
        return orbit, tangent_alignment()

    def test_roundings_are_the_same_at_twice_the_digits(self, monkeypatch):
        orbit, alignment = self._binary64_orbit()
        assert len(orbit) == 15
        digits = henon._DIGITS
        monkeypatch.setattr(henon, "_DIGITS", 2 * digits)
        last = henon._highprec_orbit(14)[-1][0]
        assert len(last.as_tuple().digits) > digits
        assert self._binary64_orbit() == (orbit, alignment)

    def test_callers_decimal_context_is_ignored(self, henon_chain):
        alignment = tangent_alignment()
        floor6 = decimal.Context(prec=6, rounding=decimal.ROUND_FLOOR)
        with decimal.localcontext(floor6):
            chain = build_chain()
            assert tangent_alignment() == alignment
        for s, t in zip(chain.sets, henon_chain.sets):
            assert s.center == t.center, s.name
            assert s.coord == t.coord, s.name

    def test_seed_constants_are_the_reference_decimals(self):
        reprs = [repr(c) for c in (A0, B0, SEED_U_COEFF, SEED_S_COEFF)]
        assert reprs == [
            "1.3145271093265", "-0.3", "0.0001993152279412426", "2.50404e-11"
        ]


class TestChainData:
    def test_determinism(self, henon_chain):
        again = build_chain()
        for s, t in zip(again.sets, henon_chain.sets):
            assert s.center == t.center
            assert s.coord == t.coord

    def test_diameter_table_row9(self):
        d9 = DIAM_ROWS[9]
        assert d9 == (0.5, 1.25, 0.25, 1.01)
        chain_set = build_chain().sets[9]
        assert chain_set.unstable == (0, 2)
        assert chain_set.diam[0] == 0.5e-5
        assert chain_set.diam[3] == 1.01 * 1e-5

    def test_unstable_axis_split(self, henon_chain):
        for i, h in enumerate(henon_chain.sets):
            assert h.unstable == ((0, 3) if i <= 8 else (0, 2))

    def test_form_signs_follow_axes(self, henon_chain):
        for h, q in zip(henon_chain.sets, henon_chain.forms):
            assert q.unstable == h.unstable

    def test_step_enclosures_are_thin(self, henon_chain):
        for img in _step_images(henon_chain):
            assert max(img[k].width for k in range(3)) < 1e-12

    def test_orbit_consistency_interior(self, henon_chain):
        # The one-step image of each orbit center lands inside the next
        # orbit-centered set with positive margin (i = 1..13).
        images = _step_images(henon_chain)
        for i in range(1, 14):
            mid = _mids(images[i - 1])
            z = to_normalized(henon_chain.sets[i + 1], mid)
            for c in z:
                assert c.mag < 1.0

    def test_orbit_consistency_endpoint(self, henon_chain):
        # N15 is pinned at the fixed point, not at the 15th orbit point; the
        # image of c14 must enter through its stable direction (the covering
        # takes care of the expanding ones).
        mid = _mids(_step_images(henon_chain)[13])
        z = to_normalized(henon_chain.sets[15], mid)
        assert z[1].mag < 1.0  # stable axis
        assert z[3].mag < 1.0  # parameter axis

    def test_frames_have_reference_structure(self, henon_chain):
        # Unit planar columns; the slope column is -(1 + w^2) e_w at the
        # center's slope w, dw/dt of w = cot t, so that the local tangent
        # coordinate is an angle.
        for h in henon_chain.sets:
            m, w = h.coord, h.center[2]
            assert m[0][2] == m[0][3] == 0.0
            assert m[1][2] == m[1][3] == 0.0
            assert m[2] == (0.0, 0.0, -(1.0 + w * w), 0.0)
            assert m[3] == (0.0, 0.0, 0.0, 1.0)
            for j in (0, 1):
                assert abs(math.hypot(m[0][j], m[1][j]) - 1.0) < 1e-15

    def test_orbit_width_check_aborts_build(self, monkeypatch):
        monkeypatch.setattr("tangency.henon.ORBIT_WIDTH_MAX", 1e-300)
        with pytest.raises(VerificationInconclusive) as exc:
            build_chain()
        assert exc.value.stage == "chain-build"
        assert exc.value.locus == "orbit step 1"

    def test_param_radius_scales_only_parameter_column(self):
        base = build_chain()
        scaled = build_chain(param_radius=2e-5)
        for h1, h2 in zip(base.sets, scaled.sets):
            assert h2.diam[3] == pytest.approx(2.0 * h1.diam[3])
            assert h2.diam[:3] == h1.diam[:3]


class TestProofStages:
    def test_all_coverings_certified(self, henon_proof):
        stages = henon_proof[0]
        assert len(stages["covering"]) == 15
        for c in stages["covering"]:
            assert c.min_exit_margin() > 0.0
            assert c.entry_margin > 0.0
            assert c.grid == 1

    def test_switch_link_correspondence(self, henon_proof):
        stages = henon_proof[0]
        c8 = stages["covering"][8]
        pairing = {i: j for i, j, _ in c8.correspondence}
        assert pairing == {0: 2, 3: 0}

    def test_all_link_correspondences(self, henon_proof):
        # (source axis, target axis, sign) per link; N10=>N11 reverses the
        # first unstable axis.
        start = ((0, 0, 1), (3, 3, 1))
        switch = ((0, 2, 1), (3, 0, 1))
        end = ((0, 0, 1), (2, 2, 1))
        flipped = ((0, 0, -1), (2, 2, 1))
        expected = [start] * 8 + [switch, end, flipped] + [end] * 4
        stages = henon_proof[0]
        assert [c.correspondence for c in stages["covering"]] == expected
        assert stages["stable_disk"].covering.correspondence == end
        assert stages["unstable_disk"].covering.correspondence == ((1, 1, 1), (2, 2, 1))

    def test_all_cone_links_certified(self, henon_proof):
        stages = henon_proof[0]
        assert len(stages["cones"]) == 15
        for c in stages["cones"]:
            assert c.rump.positive_definite
            assert len(c.rump.vertex_margins) == 8
            assert c.rump.min_margin() > 0.0

    def test_stable_disk_constants_in_bands(self, henon_proof):
        stages = henon_proof[0]
        c = stages["stable_disk"].constants
        assert c.a_lower >= 0.9 * 0.099394300936541294
        assert c.m_upper <= 1.2 * 0.084042214456891598
        assert c.l_upper <= 1.5 * 0.0070394636406844067
        assert c.gamma_check > 0.0
        assert stages["stable_disk"].comparison_lower > 1.0
        assert stages["stable_disk"].param_coefficient == 2.0 * 1.5**-6

    def test_unstable_disk_constants_in_bands(self, henon_proof):
        stages = henon_proof[0]
        c = stages["unstable_disk"].constants
        assert c.a_lower >= 0.9 * 0.1877584261322994
        assert c.m_upper <= 1.2 * 0.2795983187542756
        assert c.l_upper <= 1.5 * 0.015049353557694945
        assert stages["unstable_disk"].comparison_lower > 1.0
        assert stages["unstable_disk"].param_coefficient == 2.0 * 1.5**-8

    def test_delta_alpha_consistency(self, henon_proof):
        stages = henon_proof[0]
        for disk, alpha in (
            (stages["stable_disk"], 0.3 / LAM**2),
            (stages["unstable_disk"], MU**2),
        ):
            gamma_sq = disk.constants.gamma ** 2
            lo, hi = disk.constants.delta
            assert lo <= gamma_sq / alpha <= hi

    def test_conclusion_statement(self, henon_proof):
        extras = henon_proof[2]
        s = extras["conclusion"]["statement"]
        assert "1.3145271093265" in s
        assert "1e-05" in s
        assert "-0.3" in s

    def test_projected_sets_are_minors(self, henon_chain):
        for side, idx in (("stable", 15), ("unstable", 0)):
            ntilde, qtilde, param, p_coeff = projected_disk_data(
                henon_chain, side
            )
            big = henon_chain.sets[idx]
            assert ntilde.diam == big.diam[:3]
            assert ntilde.center == big.center[:3]
            assert param[0] <= A0 <= param[1]
            assert p_coeff == abs(FORM_ROWS[idx][3])

    @pytest.mark.parametrize("side, idx", [("stable", 15), ("unstable", 0)])
    def test_disk_parameter_interval_is_the_sets_outward_entry(
        self, henon_chain, side, idx
    ):
        # The disk's parameter pair holds the set's exact parameter range
        # [A0 - d, A0 + d], in rationals, and is the set's own box entry.
        big = henon_chain.sets[idx]
        lo, hi = param = projected_disk_data(henon_chain, side)[2]
        a, d = Fraction(big.center[3]), Fraction(big.diam[3])
        assert a == Fraction(A0)
        assert Fraction(lo) <= a - d and a + d <= Fraction(hi)
        assert param == big.box()[3]


class TestPerturbations:
    def test_inflated_radius_fails_loudly(self):
        with pytest.raises(VerificationInconclusive) as err:
            run_proof(HenonConfig(param_radius=1e-3))
        assert err.value.stage in ("covering", "cones", "manifold")

    def test_grid_two_reproduces_with_margins(self, henon_proof, henon_proof_grid2):
        for c1, c2 in zip(henon_proof[0]["covering"], henon_proof_grid2[0]["covering"]):
            assert c2.correspondence == c1.correspondence
            # refinement keeps success and (up to midpoint rounding noise)
            # only tightens the margins
            assert c2.min_exit_margin() > 0.0 and c2.entry_margin > 0.0
            assert c2.min_exit_margin() >= c1.min_exit_margin() - 1e-9
            assert c2.entry_margin >= c1.entry_margin - 1e-9

    def test_determinism_of_full_run(self, henon_proof):
        assert _serialized(henon_proof) == _serialized(run_proof())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HenonConfig(param_radius=0.0).validate()
        with pytest.raises(ValueError):
            HenonConfig(grid=0).validate()
        for bad in (
            {"param_radius": "1e-5"},
            {"param_radius": float("nan")},
            {"grid": True},
            {"grid": 1.5},
            {"grid": "2"},
            {"correspondences": [1]},
            {"correspondences": {"0": [[0, 0, 1], [3, 3, 1]]}},
            {"correspondences": {99: [[0, 0, 1], [3, 3, 1]]}},
            # pairing axis 0 alone would leave N0=>N1's parameter walls unchecked
            {"correspondences": {0: [[0, 0, 1]]}},
        ):
            with pytest.raises(ValueError):
                HenonConfig(**bad).validate()


class TestSharedJacobian:
    """The cones read the Jacobian the covering check enclosed."""

    def test_derivative_calls_at_grid_one(self, monkeypatch):
        # 15 links x (4 walls + 1 interior box) + 2 disk self-coverings x 5;
        # the cones and the disk constants take none of their own.
        from tangency import henon, manifold

        where = ["chain"]
        calls = []

        def tagging(fn, tag):
            def wrapped(*args, **kwargs):
                outer, where[0] = where[0], tag
                try:
                    return fn(*args, **kwargs)
                finally:
                    where[0] = outer

            return wrapped

        orig = ChartMap.derivative

        def counting(self, *args):
            calls.append(where[0])
            return orig(self, *args)

        monkeypatch.setattr(ChartMap, "derivative", counting)
        monkeypatch.setattr(henon, "verify_disk", tagging(manifold.verify_disk, "disk"))
        monkeypatch.setattr(
            manifold, "check_covering", tagging(manifold.check_covering, "self-covering")
        )
        run_proof()
        assert len(calls) == 85
        assert calls.count("self-covering") == 10
        assert "disk" not in calls  # verify_disk calls none of its own

    def test_tangent_jets_at_grid_one(self, monkeypatch, henon_proof):
        # One per interior sub-box: 15 links and 2 disk self-coverings, 17.
        # A wall sub-box is enclosed on its paired target row only, and only
        # target axis 2 reads the slope: the 2 walls of the source axis
        # paired with it, on each of the 7 links N8=>N9 through N14=>N15 and
        # on each of the 2 disks.  17 + 2 * 7 + 2 * 2 = 35.
        stages = henon_proof[0]
        slope_links = [
            f"{c.source}=>{c.target}"
            for c in stages["covering"]
            if any(j == 2 for _, j, _ in c.correspondence)
        ]
        assert slope_links == [f"N{k}=>N{k + 1}" for k in range(8, 15)]
        for disk in (stages["stable_disk"], stages["unstable_disk"]):
            assert [j for _, j, _ in disk.covering.correspondence].count(2) == 1
        calls = []
        orig = ChartMap._tangent_row

        def counting(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(ChartMap, "_tangent_row", staticmethod(counting))
        run_proof()
        assert len(calls) == 17 + 2 * 7 + 2 * 2 == 35

    def test_grid_two_cone_pivots_no_lower(self, henon_proof, henon_proof_grid2):
        # The hull of the sub-box Jacobians lies inside the whole-set one.
        pivots1 = [c.rump.min_margin() for c in henon_proof[0]["cones"]]
        pivots2 = [c.rump.min_margin() for c in henon_proof_grid2[0]["cones"]]
        assert all(p2 >= p1 for p1, p2 in zip(pivots1, pivots2))
        assert any(p2 > p1 for p1, p2 in zip(pivots1, pivots2))

    @staticmethod
    def _assert_rows_enclosed(right, left, local, rows):
        """Each exact row i of D·right lies in row i of left·L, taken in
        exact rational interval arithmetic (rows maps i to row i of D; right
        is the 4x4 source frame, left the target frame)."""
        local = IntervalMatrix.from_pairs(local)
        for i, row in rows.items():
            for j in range(4):
                exact = sum(row[k] * Fraction(right[k][j]) for k in range(4))
                lo = hi = Fraction(0)
                for k in range(len(left)):
                    m = Fraction(left[i][k])
                    ends = (m * Fraction(local[k, j].lo), m * Fraction(local[k, j].hi))
                    lo += min(ends)
                    hi += max(ends)
                assert lo <= exact <= hi, (i, j)

    @pytest.mark.parametrize("grid", [1, 2])
    @settings(max_examples=60, deadline=None)
    @given(
        link=st.integers(0, 14),
        z=st.tuples(*[st.fractions(-1, 1, max_denominator=1 << 20)] * 4),
    )
    def test_jacobian_encloses_exact_planar_rows(
        self, henon_proof, henon_proof_grid2, grid, link, z
    ):
        # At a point of the source h-set, computed exactly in rationals, the
        # planar rows of D(x, y, t, a) are (-2x, b, 0, 1) and (1, 0, 0, 0),
        # b being the binary64 value the map evaluates with.  The local
        # Jacobian L encloses M_tgt^-1 D M_src, so the planar rows of M_tgt L,
        # taken in exact rational interval arithmetic, hold those of D M_src.
        stages, _, extras = henon_proof if grid == 1 else henon_proof_grid2
        src, tgt = extras["hsets"][link], extras["hsets"][link + 1]
        x = exact_point(src, z)[0]
        rows = {0: (-2 * x, Fraction(B0), 0, 1), 1: (1, 0, 0, 0)}
        self._assert_rows_enclosed(src.coord, tgt.coord, stages["covering"][link].local_jacobian,
                                   rows)

    @pytest.mark.parametrize("grid", [1, 2])
    @settings(max_examples=60, deadline=None)
    @given(
        link=st.integers(0, 14),
        z=st.tuples(*[st.fractions(-1, 1, max_denominator=1 << 20)] * 4),
    )
    def test_jacobian_encloses_exact_slope_row(
        self, henon_proof, henon_proof_grid2, grid, link, z
    ):
        # The image slope of [(w, 1)] is w' = b/w - 2x, so at a point of the
        # source h-set, exact in rationals, the slope row of D(x, y, w, a) is
        # (-2, 0, -b/w^2, 0); row 2 of M_tgt L holds row 2 of D M_src.
        stages, _, extras = henon_proof if grid == 1 else henon_proof_grid2
        src, tgt = extras["hsets"][link], extras["hsets"][link + 1]
        w = exact_point(src, z)[2]
        rows = {2: (-2, 0, -Fraction(B0) / (w * w), 0)}
        self._assert_rows_enclosed(src.coord, tgt.coord, stages["covering"][link].local_jacobian,
                                   rows)

    @pytest.mark.parametrize("grid", [1, 2])
    @pytest.mark.parametrize("side", ["stable", "unstable"])
    @settings(max_examples=60, deadline=None)
    @given(z=st.tuples(*[st.fractions(-1, 1, max_denominator=1 << 20)] * 3))
    def test_disk_jacobian_encloses_exact_rows(
        self, henon_proof, henon_proof_grid2, henon_chain, grid, side, z
    ):
        # A disk's self-covering maps the projected set N~ to itself with the
        # parameter as a fourth input, so L encloses M~^-1 D (M~ + 1), and
        # M~ L holds D (M~ + 1) on all three rows, its last column being
        # D's parameter column.  D does not depend on a.  The stable disk
        # runs the forward map, the unstable one the inverse
        # (x, y) -> (y, (x - a + y^2)/b), whose slope image is
        # w' = b/(w + 2y).
        stages = (henon_proof if grid == 1 else henon_proof_grid2)[0]
        disk = stages[f"{side}_disk"]
        ntilde = projected_disk_data(henon_chain, side)[0]
        rows = dict(enumerate(_EXACT_DISK_JACOBIAN[side](exact_point(ntilde, z))))
        right = [[*row, 0] for row in ntilde.coord] + [[0, 0, 0, 1]]
        self._assert_rows_enclosed(right, ntilde.coord, disk.covering.local_jacobian, rows)


def _exact_samples(jac, left, right, rng, count=6):
    """Exact matrices D inside the interval matrix jac: for each entry of
    left . D . right, the two vertices of jac that extremize it (the entry is
    linear in D), then count random vertices and count random points."""
    lo = [[Fraction(e.lo) for e in row] for row in jac.rows]
    hi = [[Fraction(e.hi) for e in row] for row in jac.rows]
    rows, cols = jac.nrows, jac.ncols

    def vertex(upper):
        return [[hi[r][k] if upper(r, k) else lo[r][k] for k in range(cols)]
                for r in range(rows)]

    def point():
        step = Fraction(1, 1 << 20)
        return [[lo[r][k] + (hi[r][k] - lo[r][k]) * step * rng.randrange(1 << 20)
                 for k in range(cols)] for r in range(rows)]

    for i in range(rows):
        for j in range(cols):
            for sign in (1, -1):
                yield vertex(lambda r, k: sign * left[i][r] * right[k][j] > 0)
    for _ in range(count):
        yield vertex(lambda r, k: rng.random() < 0.5)
        yield point()


def _check_local_frame(jac, src_coord, tgt_coord, local, cone_v, q_src, q_tgt, rng):
    """Every exact D in jac has M_tgt^-1 D M_src (and M_tgt^-1 times any
    parameter column of D) in local, and L^T Q_M L - Q_N in cone_v, with the
    exact inverse of the float target frame.  local and cone_v are rows of
    (lo, hi) pairs, as the certificates hold them."""
    local, cone_v = IntervalMatrix.from_pairs(local), IntervalMatrix.from_pairs(cone_v)
    n = len(src_coord)
    left = frac_inverse(tgt_coord)
    right = [[Fraction(src_coord[k][j]) if k < n and j < n else Fraction(int(k == j))
              for j in range(jac.ncols)] for k in range(jac.ncols)]
    for d in _exact_samples(jac, left, right, rng):
        exact = frac_matmul(frac_matmul(left, d), right)
        for i in range(n):
            for j in range(jac.ncols):
                assert contains_fraction(local[i, j], exact[i][j]), ("L", i, j)
        for i in range(n):
            for j in range(n):
                v = sum(exact[k][i] * Fraction(q_tgt.coeffs[k]) * exact[k][j]
                        for k in range(n))
                v -= Fraction(q_src.coeffs[i]) if i == j else 0
                assert contains_fraction(cone_v[i, j], v), ("V", i, j)


class TestExactRationalMargins:
    """The coverings' exit and entry margins against exact rationals
    (conftest.assert_exact_margins), on the 15 links and both disks'
    self-coverings at grids 1 and 2.  The links map by the closed form of
    the forward map, (x, y, w, a) -> (a - x^2 + b y, x, b/w - 2x, a), b
    being the binary64 value the map evaluates with.  A disk maps (x, y, w)
    at every corner and a few seeded points of its parameter interval: the
    stable one by the forward map, the unstable one by the inverse
    (x, y) -> (y, (x - a + y^2)/b), whose slope image is b/(w + 2y)."""

    @pytest.mark.parametrize("grid", [1, 2])
    def test_margins_hold_at_exact_points(self, henon_proof, henon_proof_grid2,
                                          grid, rng):
        stages, _, extras = henon_proof if grid == 1 else henon_proof_grid2
        for link, cov in enumerate(stages["covering"]):
            assert_exact_margins(cov, extras["hsets"][link], extras["hsets"][link + 1],
                                 _exact_forward, grid, rng)

    @pytest.mark.parametrize("grid", [1, 2])
    @pytest.mark.parametrize("side", ["stable", "unstable"])
    def test_disk_margins_hold_at_exact_points(self, henon_proof, henon_proof_grid2,
                                               henon_chain, grid, side, rng):
        stages = (henon_proof if grid == 1 else henon_proof_grid2)[0]
        cov = stages[f"{side}_disk"].covering
        ntilde, _, param, _ = projected_disk_data(henon_chain, side)
        params = exact_sample_points([(Fraction(param[0]), Fraction(param[1]))], rng,
                                     extra=2)
        image = _exact_forward if side == "stable" else _exact_inverse
        assert_exact_margins(cov, ntilde, ntilde, lambda p: image(p)[:3], grid, rng,
                             params)


def _exact_forward(p):
    x, y, w, a = p
    b = Fraction(B0)
    return [a - x * x + b * y, x, b / w - 2 * x, a]


def _exact_inverse(p):
    x, y, w, a = p
    b = Fraction(B0)
    return [y, (x - a + y * y) / b, b / (w + 2 * y), a]


def _exact_forward_disk_jacobian(p):
    """d(x', y', w')/d(x, y, w, a) of _exact_forward at p = (x, y, w, ...)."""
    x, _, w = p[:3]
    b = Fraction(B0)
    return [(-2 * x, b, 0, 1), (1, 0, 0, 0), (-2, 0, -b / (w * w), 0)]


def _exact_inverse_disk_jacobian(p):
    """d(x', y', w')/d(x, y, w, a) of _exact_inverse at p = (x, y, w, ...)."""
    _, y, w = p[:3]
    b = Fraction(B0)
    s = w + 2 * y
    return [(0, 1, 0, 0), (1 / b, 2 * y / b, 0, -1 / b),
            (0, -2 * b / (s * s), -b / (s * s), 0)]


_EXACT_DISK_JACOBIAN = {"stable": _exact_forward_disk_jacobian,
                        "unstable": _exact_inverse_disk_jacobian}


class TestExactRationalDiskImages:
    """Both disks' DiskMap image and Jacobian enclosures against exact
    rationals, at grids 1 and 2.  Every corner and a few seeded points of
    every wall and interior sub-box of the disk's self-covering, each with
    the ends and a seeded point of the parameter interval, map by the closed
    forms of TestExactRationalMargins, the stable disk's forward and the
    unstable disk's inverse: the image lies in DiskMap.apply's and
    DiskMap.derivative's image of the sub-box, and d(x, y, w)/d(x, y, w, a)
    in derivative's Jacobian of it."""

    @pytest.mark.parametrize("grid", [1, 2])
    @pytest.mark.parametrize("side, direction", [("stable", "forward"),
                                                 ("unstable", "inverse")])
    def test_enclosures_hold_at_exact_points(self, henon_chain, grid, side, direction,
                                             rng):
        ntilde, _, param, _ = projected_disk_data(henon_chain, side)
        disk_map = DiskMap(ChartMap(evaluator(henon_family(), direction)), param)
        image = _exact_forward if side == "stable" else _exact_inverse
        jacobian = _EXACT_DISK_JACOBIAN[side]
        params = exact_sample_points([(Fraction(param[0]), Fraction(param[1]))], rng,
                                     extra=1)
        for zbox in covering_boxes(ntilde, grid):
            box = ntilde.from_normalized(zbox[0])
            applied = IntervalVector.from_pairs(disk_map.apply(box))
            value, jac = disk_map.derivative(box)
            value, jac = IntervalVector.from_pairs(value), IntervalMatrix.from_pairs(jac)
            ends = [(Fraction(lo), Fraction(hi)) for lo, hi in zbox[0]]
            for z in exact_sample_points(ends, rng):
                for a in params:
                    p = exact_point(ntilde, z) + a
                    where = (side, [str(e) for e in z], str(a[0]))
                    for i, exact in enumerate(image(p)[:3]):
                        assert contains_fraction(applied[i], exact), (where, i)
                        assert contains_fraction(value[i], exact), (where, i)
                    for i, row in enumerate(jacobian(p)):
                        for j, exact in enumerate(row):
                            assert contains_fraction(jac[i, j], exact), (where, i, j)


class TestExactRationalConeMatrices:
    """Each cone certificate's V against exact rationals at grid 1: at every
    corner and a few seeded points of the source set, exact in rationals,
    the exact Jacobian (TestExactRationalMargins' closed forms) in the local
    frames gives L^T Q_M L - Q_N (conftest.assert_exact_cone_matrix) in V.
    The 15 links' V is over (x, y, w, a); a disk's is over (x, y, w), its
    cone derivative, at the ends and a seeded point of the parameter
    interval."""

    def test_chain_links(self, henon_proof, rng):
        stages, _, extras = henon_proof
        cube = [(Fraction(-1), Fraction(1))] * 4
        for link, cone in enumerate(stages["cones"]):
            src, tgt = extras["hsets"][link], extras["hsets"][link + 1]
            inverse = frac_inverse(tgt.coord)
            for z in exact_sample_points(cube, rng):
                d = _exact_forward_disk_jacobian(exact_point(src, z)) + [(0, 0, 0, 1)]
                assert_exact_cone_matrix(cone.matrix, d, src.coord, inverse,
                                         extras["forms"][link], extras["forms"][link + 1],
                                         (cone.link, [str(e) for e in z]))

    @pytest.mark.parametrize("side", ["stable", "unstable"])
    def test_disks(self, henon_proof, henon_chain, side, rng):
        cone = henon_proof[0][f"{side}_disk"].cone
        ntilde, qtilde, param, _ = projected_disk_data(henon_chain, side)
        inverse = frac_inverse(ntilde.coord)
        params = exact_sample_points([(Fraction(param[0]), Fraction(param[1]))], rng,
                                     extra=1)
        for z in exact_sample_points([(Fraction(-1), Fraction(1))] * 3, rng):
            for a in params:
                rows = _EXACT_DISK_JACOBIAN[side](exact_point(ntilde, z) + a)
                assert_exact_cone_matrix(cone.matrix, [row[:3] for row in rows],
                                         ntilde.coord, inverse, qtilde, qtilde,
                                         (side, [str(e) for e in z], str(a[0])))


class TestLocalFrameOracle:
    """The certificates' local-frame derivatives and cone matrices against
    exact rationals, at grid 1, where each covering's one interior sub-box
    is its whole source set."""

    def test_chain_links(self, henon_proof, rng):
        stages, _, extras = henon_proof
        chart = ChartMap(henon_family()[0])
        for link, (cov, cone) in enumerate(zip(stages["covering"], stages["cones"])):
            src, tgt = extras["hsets"][link], extras["hsets"][link + 1]
            jac = IntervalMatrix.from_pairs(chart.derivative(src.box())[1])
            _check_local_frame(jac, src.coord, tgt.coord, cov.local_jacobian,
                               cone.matrix, extras["forms"][link], extras["forms"][link + 1], rng)

    @pytest.mark.parametrize("side, direction", [("stable", "forward"),
                                                 ("unstable", "inverse")])
    def test_disks(self, henon_proof, henon_chain, rng, side, direction):
        # The parameter column of D is checked against the local Jacobian's
        # last column, M^-1 dF/da.
        disk = henon_proof[0][f"{side}_disk"]
        ntilde, qtilde, param, _ = projected_disk_data(henon_chain, side)
        box4 = ntilde.box() + (param,)
        chart = ChartMap(evaluator(henon_family(), direction))
        d4 = IntervalMatrix.from_pairs(chart.derivative(box4)[1])
        _check_local_frame(IntervalMatrix(d4.rows[:3]), ntilde.coord, ntilde.coord,
                           disk.covering.local_jacobian, disk.cone.matrix,
                           qtilde, qtilde, rng)


class TestOnePassImage:
    """The covering check's hull image is the value part of the derivative
    jets: it encloses the exact image, and it is what apply computes."""

    @pytest.mark.parametrize("grid", [1, 2])
    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, 15),
        box=st.integers(0, 47),
        u=st.tuples(*[st.fractions(0, 1, max_denominator=1 << 20)] * 4),
    )
    def test_image_encloses_exact_henon_image(self, henon_chain, grid, index, box, u):
        # A point of a wall or interior sub-box of an h-set, exact in
        # rationals, maps to x' = a - x^2 + b y, y' = x, a' = a, b being the
        # binary64 value the map evaluates with, and its direction (w, 1) to
        # Df (w, 1) = (b - 2 x w, w), whose slope (the fiber row) is
        # (b - 2 x w) / w.
        src = henon_chain.sets[index]
        boxes = covering_boxes(src, grid)
        zbox = boxes[box % len(boxes)]
        z = [Fraction(lo) + (Fraction(hi) - Fraction(lo)) * w
             for (lo, hi), w in zip(zbox[0], u)]
        x, y, w, a = (
            Fraction(src.center[i])
            + sum(Fraction(src.coord[i][j]) * Fraction(src.diam[j]) * z[j] for j in range(4))
            for i in range(4)
        )
        image = IntervalVector.from_pairs(
            ChartMap(henon_family()[0]).derivative(src.from_normalized(zbox[0]))[0])
        b = Fraction(B0)
        exact = {0: a - x * x + b * y, 1: x, 2: (b - 2 * x * w) / w, 3: a}
        for axis, value in exact.items():
            assert contains_fraction(image[axis], value), axis

    @pytest.mark.parametrize("grid", [1, 2])
    def test_image_is_apply_bit_for_bit(self, henon_chain, grid):
        chart = ChartMap(henon_family()[0])
        for src in henon_chain.sets:
            for zbox in covering_boxes(src, grid):
                p = src.from_normalized(zbox[0])
                image, _ = chart.derivative(p)
                assert repr(image) == repr(chart.apply(p)), src.name  # every bit

    @pytest.mark.parametrize("grid", [1, 2])
    @pytest.mark.parametrize("side, direction", [("stable", "forward"),
                                                 ("unstable", "inverse")])
    def test_disk_image_is_apply3_bit_for_bit(self, henon_chain, grid, side, direction):
        # The disk's (x, y, t) map, manifold.DiskMap (formerly
        # ChartMap.apply3), is the chart map over box x param: its image and
        # Jacobian are entries and rows 0-2 of derivative's, and its value
        # is apply's.
        chart = ChartMap(evaluator(henon_family(), direction))
        ntilde, _, param, _ = projected_disk_data(henon_chain, side)
        fmap = DiskMap(chart, param)
        for zbox in covering_boxes(ntilde, grid):
            v3 = ntilde.from_normalized(zbox[0])
            image, jacobian = fmap.derivative(v3)
            v4 = v3 + (param,)
            image4, jacobian4 = chart.derivative(v4)
            # repr of the float pairs: every bit, signed zeros included
            assert repr(image) == repr(image4[:3])
            assert repr(jacobian) == repr(jacobian4[:3])
            assert repr(fmap.apply(v3)) == repr(chart.apply(v4)[:3])


class TestCorrespondenceOverride:
    def test_explicit_pairings_reproduce_certificate(self, henon_proof):
        stages = henon_proof[0]
        pairings = {
            idx: [list(c) for c in cov.correspondence]
            for idx, cov in enumerate(stages["covering"])
        }
        explicit = run_proof(HenonConfig(correspondences=pairings))
        assert _serialized(henon_proof) == _serialized(explicit)

    def test_flipped_signs_inconclusive_at_their_link(self, henon_proof):
        stages = henon_proof[0]
        flipped = [(i, j, -sign) for i, j, sign in stages["covering"][10].correspondence]
        with pytest.raises(VerificationInconclusive) as err:
            run_proof(HenonConfig(correspondences={10: flipped}))
        assert err.value.stage == "covering"
        assert err.value.locus == "N10=>N11"
        certified = err.value.certified["covering"]
        assert [c.to_dict() for c in certified] == [
            c.to_dict() for c in stages["covering"][:10]
        ]
