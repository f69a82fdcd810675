"""Angle-chart projectivization: directions, extended map, derivatives."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from tangency.interval import Interval, IntervalError
from tangency.linalg import IntervalVector
from tangency.projective import (
    ChartError,
    ChartMap,
    PlanarMapFamily,
    direction_to_angle,
)
from conftest import PI_BOUNDS, atan_bounds, check_inverse_consistency, pairs_hex


def box(x, y, t, a):
    return IntervalVector([x, y, t, a])


def linear_family(lam, mu):
    """Planar linear map with eigenvalues lam, mu and eigenvectors at 45
    degrees (both eigendirections inside the angle chart)."""
    p = 0.5 * (lam + mu)
    q = 0.5 * (lam - mu)

    def forward(x, y, a):
        return p * x + q * y, q * x + p * y

    det = lam * mu
    ip, iq = p / det, -q / det

    def inverse(x, y, a):
        return ip * x + iq * y, iq * x + ip * y

    return PlanarMapFamily(name="linear45", forward=forward, inverse=inverse)


def axis_family(lam, mu):
    """Diagonal planar map (eigenvectors on the axes; the unstable
    eigendirection is the excluded chart point, deliberately)."""

    def forward(x, y, a):
        return lam * x, mu * y

    def inverse(x, y, a):
        return x / lam, y / mu

    return PlanarMapFamily(name="diag", forward=forward, inverse=inverse)


class TestDirectionToAngle:
    def test_vertical(self):
        t = direction_to_angle(IntervalVector([0.0, 1.0]))
        assert Fraction(t.lo) <= PI_BOUNDS[0] / 2 <= PI_BOUNDS[1] / 2 <= Fraction(t.hi)

    def test_projective_identification(self):
        t1 = direction_to_angle(IntervalVector([1.0, 1.0]))
        t2 = direction_to_angle(IntervalVector([-1.0, -1.0]))
        assert t1 == t2
        assert Fraction(t1.lo) <= PI_BOUNDS[0] / 4 <= Fraction(t1.hi)

    def test_unstable_eigendirection_value(self):
        from tangency.henon import eigen_data

        u0 = eigen_data()["u0_mid"]
        t = direction_to_angle(IntervalVector([u0[0], u0[1]]))
        # independent oracle: atan of the component ratio
        lo, hi = atan_bounds(Fraction(u0[1]) / Fraction(u0[0]))
        assert Fraction(t.lo) <= lo and hi <= Fraction(t.hi)
        assert abs(t.mid - 0.25365) < 1e-4

    def test_zero_vector_rejected(self):
        with pytest.raises(ChartError):
            direction_to_angle(IntervalVector([Interval(-1, 1), Interval(-1, 1)]))

    def test_horizontal_direction_rejected(self):
        with pytest.raises(ChartError):
            direction_to_angle(IntervalVector([1.0, Interval(-1e-12, 1e-12)]))

    def test_round_trip(self):
        t = direction_to_angle(IntervalVector([0.3, 0.9]))
        # (cos t, sin t) is in the same projective class: its cross product
        # with the input encloses 0
        cross = Interval(0.3) * t.sin() - Interval(0.9) * t.cos()
        assert cross.contains(0.0)


class TestChartDomain:
    def test_apply_and_derivative_reject_t_touching_0_or_pi(self):
        chart = ChartMap(linear_family(2.0, 0.5), "forward")
        for t in (0.0, Interval(-0.1, 0.5), math.pi, Interval(3.0, 3.2)):
            for evaluate in (chart.apply, chart.derivative):
                with pytest.raises(ChartError, match="leaves the chart"):
                    evaluate(box(0.0, 0.0, t, 0.0))
        chart.apply(box(0.0, 0.0, 1.5, 0.0))
        chart.derivative(box(0.0, 0.0, 1.5, 0.0))

    def test_image_angle_leaving_the_chart_is_rejected(self):
        # The diagonal family maps slope-1 directions to slope mu/lam: with
        # mu/lam = 1e-40 the image angle encloses the excluded t = 0.
        chart = ChartMap(axis_family(1e20, 1e-20), "forward")
        p = box(0.0, 0.0, math.pi / 4, 0.0)
        for evaluate in (chart.apply, chart.derivative):
            with pytest.raises(ChartError, match="leaves the chart"):
                evaluate(p)


class TestApply:
    def test_eigendirection_fixed_vertical(self):
        # Direction pi/2 is the mu-eigendirection of the diagonal family.
        fam = axis_family(2.0, 0.5)
        chart = ChartMap(fam, "forward")
        p = box(0.0, 0.0, 1.5707963267948966, 0.0)
        q = chart.apply(p)
        assert q[2].contains(p[2])
        assert q[0].contains(0.0) and q[1].contains(0.0)

    def test_slope_scaling_law(self):
        # For the diagonal family, tan t' = (mu/lam) tan t.
        lam, mu = 2.0, 0.5
        fam = axis_family(lam, mu)
        chart = ChartMap(fam, "forward")
        t_in = direction_to_angle(IntervalVector([1.0, 1.0]))  # slope 1
        q = chart.apply(box(0.3, -0.2, t_in, 0.0))
        slope = q[2].sin() / q[2].cos()
        assert slope.contains(mu / lam)

    def test_projective_consistency_of_apply(self):
        fam = linear_family(3.0, 0.25)
        chart = ChartMap(fam, "forward")
        v = (0.4, 0.7)
        t_plus = direction_to_angle(IntervalVector(v))
        t_minus = direction_to_angle(IntervalVector([-v[0], -v[1]]))
        assert t_plus == t_minus
        q1 = chart.apply(box(0.1, 0.2, t_plus, 0.0))
        q2 = chart.apply(box(0.1, 0.2, t_minus, 0.0))
        assert q1[2] == q2[2]

    def test_henon_fixed_point_containment(self):
        from tangency.henon import A0, eigen_data, henon_family

        eig = eigen_data()
        x0 = eig["x0"].mid
        t_u = direction_to_angle(IntervalVector(list(eig["u0_mid"])))
        chart = ChartMap(henon_family(), "forward")
        q = chart.apply(box(x0, x0, t_u, A0))
        assert abs(q[0].mid - x0) < 1e-13
        assert abs(q[1].mid - x0) < 1e-13
        assert abs(q[2].mid - t_u.mid) < 1e-12

    def test_semigroup_containment_on_thin_box(self):
        fam = linear_family(2.0, 0.5)
        chart = ChartMap(fam, "forward")
        eps = 1e-9
        p = box(
            Interval(0.1 - eps, 0.1 + eps),
            Interval(0.2 - eps, 0.2 + eps),
            Interval(0.8 - eps, 0.8 + eps),
            0.0,
        )
        twice = chart.apply(chart.apply(p))
        mid_path = chart.apply(chart.apply(box(0.1, 0.2, 0.8, 0.0)))
        for i in range(3):
            assert twice[i].contains(mid_path[i].mid)


class TestDerivative:
    def test_linearization_entries_unstable_chart(self):
        # At the unstable eigendirection the angle-angle entry of the
        # extended-map derivative is mu/lam.
        lam, mu = 3.0, 0.4
        fam = linear_family(lam, mu)
        chart = ChartMap(fam, "forward")
        t_u = direction_to_angle(IntervalVector([1.0, 1.0]))
        _, d = chart.derivative(box(0.0, 0.0, t_u, 0.0))
        assert d[2, 2].contains(mu / lam)
        # parameter-independent family: last column is (0, 0, 0, 1)
        for i in range(3):
            assert d[i, 3].contains(0.0) and d[i, 3].width < 1e-12
        assert d[3, 3] == Interval(1.0)

    def test_linearization_entries_stable_chart(self):
        lam, mu = 3.0, 0.4
        fam = linear_family(lam, mu)
        chart = ChartMap(fam, "forward")
        t_s = direction_to_angle(IntervalVector([-1.0, 1.0]))
        _, d = chart.derivative(box(0.0, 0.0, t_s, 0.0))
        assert d[2, 2].contains(lam / mu)

    def test_henon_tangent_entry(self):
        from tangency.henon import A0, eigen_data, henon_family

        eig = eigen_data()
        x0 = eig["x0"].mid
        t_u = direction_to_angle(IntervalVector(list(eig["u0_mid"])))
        chart = ChartMap(henon_family(), "forward")
        _, d = chart.derivative(box(x0, x0, t_u, A0))
        ratio = eig["mu"] / eig["lam"]
        assert d[2, 2].intersects(ratio)

    def test_derivative_contains_finite_differences(self):
        from tangency.henon import A0, henon_family

        chart = ChartMap(henon_family(), "forward")
        base = (-1.9, -1.8, 0.9, A0)
        h = 1e-6
        _, d = chart.derivative(box(*base))

        def apply_pt(coords):
            return [c.mid for c in chart.apply(box(*coords))]

        for j in range(4):
            up = list(base)
            dn = list(base)
            up[j] += h
            dn[j] -= h
            fu, fd = apply_pt(up), apply_pt(dn)
            for i in range(4):
                fd_est = (fu[i] - fd[i]) / (2 * h)
                enc = d[i, j]
                assert enc.lo - 1e-6 <= fd_est <= enc.hi + 1e-6, (i, j)


class TestOutputsRead:
    """The chart map computes only what the outputs asked for read."""

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_parameter_row_evaluates_no_f(self, monkeypatch, direction):
        from tangency.henon import A0, henon_family

        chart = ChartMap(henon_family(), direction)
        p = box(Interval(-1.91, -1.89), Interval(-1.81, -1.79),
                Interval(0.8, 0.9), Interval(A0 - 1e-5, A0 + 1e-5))
        full_image, full_jac = chart.derivative(p)

        def refuse(self):
            raise AssertionError("f evaluated")

        monkeypatch.setattr(ChartMap, "_evaluator", refuse)
        image, jac = chart.derivative(p, (3,))
        assert pairs_hex(image.pairs) == pairs_hex([full_image.pairs[3]])
        assert [pairs_hex(r) for r in jac.pairs] == [pairs_hex(full_jac.pairs[3])]
        assert jac[0, 3] == Interval(1.0)
        assert all(jac[0, k] == Interval(0.0) for k in range(3))
        with pytest.raises(AssertionError, match="f evaluated"):
            chart.derivative(p, (0, 3))

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_apply_without_angle_is_the_full_apply(self, rng, direction):
        # Without the angle, f runs on value-only jets (no variables); x, y
        # and a are the full apply's bit for bit, on random boxes.
        from tangency.henon import A0, henon_family

        henon = henon_family()
        seen = []

        def spy(evaluate):
            def run(x, y, a):
                seen.append(x.n)
                return evaluate(x, y, a)

            return run

        family = PlanarMapFamily("spied", spy(henon.forward), spy(henon.inverse))
        chart = ChartMap(family, direction)
        compared = 0
        for _ in range(200):
            center = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5),
                      rng.uniform(0.3, 2.8), A0 + rng.uniform(-1e-3, 1e-3))
            radii = [rng.choice((0.0, 1e-9, 1e-5, 1e-2)) * rng.random()
                     for _ in range(4)]
            p = box(*[Interval(c - r, c + r) for c, r in zip(center, radii)])
            try:
                full = chart.apply(p)
            except ChartError:  # the image direction left the chart
                continue
            for outputs in ((0, 1, 3), (0, 1), (0, 3), (1,), (3,)):
                del seen[:]
                image = chart.apply(p, outputs)
                assert seen == [0]
                assert pairs_hex(image.pairs) == pairs_hex(
                    full.pairs[k] for k in outputs
                )
            compared += 1
        assert compared > 150


class TestFamilyInverse:
    def test_henon_inverse_consistency(self):
        from tangency.henon import A0, henon_family

        fam = henon_family()
        defect = check_inverse_consistency(
            fam, (Interval(-1.91, -1.89), Interval(-1.81, -1.79), Interval(A0))
        )
        assert defect == 0.0

    def test_flipped_family(self):
        # The inverse orientation is the forward orientation of the family
        # with its evaluators swapped.
        fam = linear_family(2.0, 0.5)
        flipped = PlanarMapFamily(name="flipped", forward=fam.inverse,
                                  inverse=fam.forward)
        p = box(0.25, 0.125, 0.7, 0.0)
        q1, d1 = ChartMap(fam, "inverse").derivative(p)
        q2, d2 = ChartMap(flipped, "forward").derivative(p)
        assert q1 == q2 == ChartMap(fam, "inverse").apply(p)
        assert d1.pairs == d2.pairs

    def test_missing_inverse_rejected(self):
        fam = PlanarMapFamily(name="fwd-only", forward=lambda x, y, a: (x, y))
        with pytest.raises(IntervalError):
            ChartMap(fam, "inverse")


def test_projective_imports_nothing_from_covering():
    # The chart map hands plain IntervalVector boxes to its callers, and the
    # covering checker takes it as it is.
    import tangency.projective as projective

    tree = ast.parse(Path(projective.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "tangency.jets" in imported  # the walk sees the module's imports
    assert not any(m == "tangency.covering" or m.startswith("tangency.covering.")
                   for m in imported)


# -- the pair route against the jet route, bit for bit ------------------------


def _dense_family():
    """A polynomial family whose second derivatives in x, y and a are all
    nonzero, so that every term of the angle row's gradient counts."""

    def forward(x, y, a):
        return x * y * a + x.sqr() + 0.5 * y, y.sqr() * a + x * a - 0.25 * x * y

    def inverse(x, y, a):
        return y * a - x.sqr() * y + 0.75 * x, x * y + y.sqr() * a + 0.5 * x

    return PlanarMapFamily("dense", forward, inverse)


def _in_chart(t):
    from tangency.interval import PI

    return t.lo > 0.0 and t.hi < PI.lo


def _oracle_angle(vx, vy):
    """The image angle pi/2 - atan(vx/vy) of a direction enclosure of jets
    or Intervals, through their own arithmetic, and whether the flip to the
    upper half plane was taken; None when the chart is left."""
    from tangency.interval import HALF_PI
    from tangency.jets import Jet

    lo, hi = vy.value_pair if isinstance(vy, Jet) else (vy.lo, vy.hi)
    if lo <= 0.0 <= hi:
        return None, None
    flip = hi < 0.0
    if flip:
        vx, vy = -vx, -vy
    if isinstance(vx, Jet):
        angle = Jet.constant(HALF_PI, vx.n, order=1) - (vx / vy).atan()
        if not _in_chart(angle.value):
            return None, flip
        return (angle.value_pair, angle.grad_pairs), flip
    angle = HALF_PI - (vx / vy).atan()
    return ((angle.lo, angle.hi) if _in_chart(angle) else None), flip


def _jet_route(chart, v):
    """derivative's and apply's outputs over the chart box v as the jets
    compute them: f on Jet.variable jets; the angle row from order-1 jets
    over (x, y, t, a), through Jet.sincos, jet division and Jet.atan; apply's
    angle from Interval cos, sin, division and atan.  Returns the
    derivative's (value, row) pairs, apply's image pairs (each None where
    the chart is left) and the flips taken."""
    from tangency.jets import Jet

    evaluate = chart._evaluator()
    x, y, t, a = v
    fx, fy = evaluate(*(Jet.variable(i, c, 3, order=2) for i, c in enumerate((x, y, a))))

    def placed(g):
        return g[0], g[1], (0.0, 0.0), g[2]

    def row_jet(f, i):
        return Jet(f.grad_pairs[i], placed(f.hess_row_pairs(i)))

    f1x, f1y, f2x, f2y = (row_jet(f, i) for f in (fx, fy) for i in (0, 1))
    st, ct = Jet.variable(2, t, 4, order=1).sincos()
    angle_row, row_flip = _oracle_angle(f1x * ct + f1y * st, f2x * ct + f2y * st)
    rows = None if angle_row is None else [
        (fx.value_pair, placed(fx.grad_pairs)),
        (fy.value_pair, placed(fy.grad_pairs)),
        angle_row,
        (v.pairs[3], ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))),
    ]

    gx, gy = evaluate(Jet.variable(0, x, 2, order=1), Jet.variable(1, y, 2, order=1),
                      Jet.constant(a, 2, order=1))
    ct, st = t.cos(), t.sin()
    angle, image_flip = _oracle_angle(
        *(Interval(*g.grad_pairs[0]) * ct + Interval(*g.grad_pairs[1]) * st
          for g in (gx, gy))
    )
    image = None if angle is None else [gx.value_pair, gy.value_pair, angle, v.pairs[3]]
    return rows, image, (row_flip, image_flip)


def _compare_routes(chart, v):
    """Assert derivative's and apply's outputs over v are the jet route's bit
    for bit, a ChartError where the jet route leaves the chart; return the
    flips the jet route took."""
    rows, image, flips = _jet_route(chart, v)
    if rows is None:
        with pytest.raises(ChartError):
            chart.derivative(v)
    else:
        value, jacobian = chart.derivative(v)
        assert pairs_hex(value.pairs) == pairs_hex(r[0] for r in rows)
        assert [pairs_hex(r) for r in jacobian.pairs] == [pairs_hex(r[1]) for r in rows]
    if image is None:
        with pytest.raises(ChartError):
            chart.apply(v)
    else:
        assert pairs_hex(chart.apply(v).pairs) == pairs_hex(image)
    return flips


class TestPairRouteOracle:
    """ChartMap's angle row and image angle, computed on (lo, hi) pairs,
    are the jet route's bit for bit: the angle's value and all four of its
    derivative entries, and every other output."""

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_henon_sub_boxes(self, henon_chain, direction):
        from tangency.henon import henon_family
        from tangency.kernels import upward

        from conftest import covering_boxes

        chart = ChartMap(henon_family(), direction)
        compared = 0
        with upward():
            for grid in (1, 2):
                for h in henon_chain.sets:
                    for z in covering_boxes(h, grid):
                        box = h.from_normalized(z)
                        mid = IntervalVector([Interval(e.mid) for e in box])
                        _compare_routes(chart, box)
                        _compare_routes(chart, mid)
                        compared += 1
        assert compared == len(henon_chain.sets) * (4 + 1 + 4 * 8 + 16)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_disk_boxes_with_their_parameter_interval(self, henon_chain, direction):
        from tangency.henon import henon_family, projected_disk_data
        from tangency.kernels import upward

        from conftest import covering_boxes

        chart = ChartMap(henon_family(), direction)
        with upward():
            for side in ("stable", "unstable"):
                ntilde, _, param, _ = projected_disk_data(henon_chain, side)
                for grid in (1, 2):
                    for z in covering_boxes(ntilde, grid):
                        box = ntilde.from_normalized(z)
                        assert box.dim == 3
                        _compare_routes(chart, IntervalVector(list(box) + [param]))

    @pytest.mark.parametrize("family", ["henon", "dense"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_random_chart_boxes(self, rng, family, direction):
        # 200 seeded boxes, thin and thick, with image directions above and
        # below the horizontal (the flip); where the jet route leaves the
        # chart, the pair route must raise ChartError.
        from tangency.henon import A0, henon_family
        from tangency.kernels import upward

        fam = henon_family() if family == "henon" else _dense_family()
        chart = ChartMap(fam, direction)
        flips = []
        with upward():
            for _ in range(200):
                center = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5),
                          rng.uniform(0.05, 3.09), A0 + rng.uniform(-1e-3, 1e-3))
                radii = [rng.choice((0.0, 1e-9, 1e-5, 1e-2)) * rng.random()
                         for _ in range(4)]
                v = box(*[Interval(c - r, c + r) for c, r in zip(center, radii)])
                flips += _compare_routes(chart, v)
        assert flips.count(True) >= 40 and flips.count(False) >= 40
