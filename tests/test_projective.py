"""Slope-chart projectivization: directions, extended map, derivatives."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from tangency.interval import Interval, IntervalError, as_pair, pair_mid
from linalg_oracle import IntervalMatrix, IntervalVector
from tangency.projective import ChartError, ChartMap
from conftest import check_inverse_consistency, contains_fraction, evaluator, pairs_hex
from jet_oracle import Jet, henon_expressions, planar_evaluators

# The chart map returns pairs; these read them as Intervals.
vec = IntervalVector.from_pairs
mat = IntervalMatrix.from_pairs


def box(x, y, t, a):
    """The chart box (x, y, t, a) as the map protocol takes it: checked
    (lo, hi) pairs."""
    return IntervalVector([x, y, t, a]).pairs


def linear_family(lam, mu):
    """Planar linear map with eigenvalues lam, mu and eigenvectors at 45
    degrees, the slopes 1 and -1 (both eigendirections inside the chart),
    as a pair of evaluators on the jet route."""
    p = 0.5 * (lam + mu)
    q = 0.5 * (lam - mu)

    def forward(x, y, a):
        return p * x + q * y, q * x + p * y

    det = lam * mu
    ip, iq = p / det, -q / det

    def inverse(x, y, a):
        return ip * x + iq * y, iq * x + ip * y

    return planar_evaluators(forward, inverse)


def _exact_eigenvalues(lam, mu):
    """The eigenvalues p + q and p - q of linear_family(lam, mu), whose
    entries p and q are rounded, as Fractions."""
    p, q = Fraction(0.5 * (lam + mu)), Fraction(0.5 * (lam - mu))
    return p + q, p - q


def axis_family(lam, mu):
    """Diagonal planar map (eigenvectors on the axes; the unstable
    eigendirection is the excluded chart point, deliberately).  It maps the
    slope w to (lam/mu) w."""

    def forward(x, y, a):
        return lam * x, mu * y

    def inverse(x, y, a):
        return x / lam, y / mu

    return planar_evaluators(forward, inverse)


class TestChartDomain:
    def test_apply_and_derivative_accept_every_finite_slope(self):
        # Every finite slope is a direction of the chart: only an image
        # direction can leave it.
        chart = ChartMap(linear_family(2.0, 0.5)[0])
        for w in (0.0, Interval(-0.1, 0.5), -1e6, Interval(3.0, 1e8)):
            chart.apply(box(0.0, 0.0, w, 0.0))
            chart.derivative(box(0.0, 0.0, w, 0.0))

    def test_image_slope_leaving_the_chart_is_rejected(self):
        # Df = [[2, 1], [1, 2]] maps (w, 1) to (2w + 1, w + 2), horizontal
        # at w = -2: a slope box around -2, or -2 itself, leaves the chart.
        chart = ChartMap(linear_family(3.0, 1.0)[0])
        for w in (Interval(-2.1, -1.9), -2.0):
            for evaluate in (chart.apply, chart.derivative):
                with pytest.raises(ChartError, match="leaves the slope chart"):
                    evaluate(box(0.0, 0.0, w, 0.0))
        assert chart.apply(box(0.0, 0.0, -1.0, 0.0))[2] == (-1.0, -1.0)

    def test_overflowing_slope_and_slope_row_raise(self):
        # Henon: (w_x, w_y) = (-2x w + b0, w).  At x = 10, w = 1e308 the
        # image slope overflows; at x = 1, w = 1e-300 it is about 3e299, but
        # its w-derivative (-2 - q) / w overflows.  Either is an error, never
        # a non-finite pair.
        from tangency.henon import A0, henon_family

        chart = ChartMap(henon_family()[0])
        p = box(10.0, 0.0, 1e308, A0)
        with pytest.raises(IntervalError, match="non-finite"):
            chart.apply(p)
        with pytest.raises(IntervalError, match="non-finite"):
            chart.apply(p, (2,))
        p = box(1.0, 0.0, 1e-300, A0)
        lo, hi = chart.apply(p)[2]
        assert -4e299 < lo <= hi < -2e299
        with pytest.raises(IntervalError, match="non-finite"):
            chart.derivative(p)
        with pytest.raises(IntervalError, match="non-finite"):
            chart.derivative(p, (2,))


class TestApply:
    def test_eigendirection_fixed_vertical(self):
        # Slope 0, the vertical, is the mu-eigendirection of the diagonal
        # family.
        chart = ChartMap(axis_family(2.0, 0.5)[0])
        p = box(0.0, 0.0, 0.0, 0.0)
        q = vec(chart.apply(p))
        assert q[2].contains(Interval(*p[2]))
        assert q[0].contains(0.0) and q[1].contains(0.0)

    def test_slope_scaling_law(self):
        # For the diagonal family, w' = (lam/mu) w.
        lam, mu = 2.0, 0.5
        chart = ChartMap(axis_family(lam, mu)[0])
        q = vec(chart.apply(box(0.3, -0.2, 1.0, 0.0)))
        assert q[2].contains(lam / mu)
        q = vec(chart.apply(box(0.3, -0.2, Interval(-0.5, 0.25), 0.0)))
        assert q[2] == Interval(-2.0, 1.0)

    def test_projective_consistency_of_apply(self):
        # v and -v have one slope, and the image slope encloses that of
        # Df v for either representative.
        chart = ChartMap(linear_family(3.0, 0.25)[0])
        v = (0.4, 0.7)
        w_plus = Interval(v[0]) / Interval(v[1])
        w_minus = Interval(-v[0]) / Interval(-v[1])
        assert w_plus == w_minus
        q = vec(chart.apply(box(0.1, 0.2, w_plus, 0.0)))
        p, r = Fraction(1.625), Fraction(1.375)  # Df = [[p, r], [r, p]]
        for sign in (1, -1):
            vx, vy = sign * Fraction(v[0]), sign * Fraction(v[1])
            assert contains_fraction(q[2], (p * vx + r * vy) / (r * vx + p * vy))

    def test_henon_fixed_point_containment(self):
        from tangency.henon import A0, eigen_data, henon_family

        eig = eigen_data()
        x0 = eig["x0"].mid
        u0 = eig["u0_mid"]
        w_u = Interval(u0[0]) / Interval(u0[1])
        chart = ChartMap(henon_family()[0])
        q = vec(chart.apply(box(x0, x0, w_u, A0)))
        assert abs(q[0].mid - x0) < 1e-13
        assert abs(q[1].mid - x0) < 1e-13
        assert abs(q[2].mid - w_u.mid) < 1e-12
        assert abs(w_u.mid - eig["lam"].mid) < 1e-12

    def test_semigroup_containment_on_thin_box(self):
        chart = ChartMap(linear_family(2.0, 0.5)[0])
        eps = 1e-9
        p = box(
            Interval(0.1 - eps, 0.1 + eps),
            Interval(0.2 - eps, 0.2 + eps),
            Interval(0.8 - eps, 0.8 + eps),
            0.0,
        )
        twice = vec(chart.apply(chart.apply(p)))
        mid_path = vec(chart.apply(chart.apply(box(0.1, 0.2, 0.8, 0.0))))
        for i in range(3):
            assert twice[i].contains(mid_path[i].mid)


class TestDerivative:
    def test_linearization_entries_unstable_chart(self):
        # At the unstable eigendirection, slope 1, the slope-slope entry of
        # the extended-map derivative is det Df / lam^2 = mu/lam.
        lam, mu = 3.0, 0.4
        chart = ChartMap(linear_family(lam, mu)[0])
        d = mat(chart.derivative(box(0.0, 0.0, 1.0, 0.0))[1])
        lam_x, mu_x = _exact_eigenvalues(lam, mu)
        assert contains_fraction(d[2, 2], mu_x / lam_x)
        # parameter-independent family: last column is (0, 0, 0, 1)
        for i in range(3):
            assert d[i, 3].contains(0.0) and d[i, 3].width < 1e-12
        assert d[3, 3] == Interval(1.0)

    def test_linearization_entries_stable_chart(self):
        lam, mu = 3.0, 0.4
        chart = ChartMap(linear_family(lam, mu)[0])
        d = mat(chart.derivative(box(0.0, 0.0, -1.0, 0.0))[1])
        lam_x, mu_x = _exact_eigenvalues(lam, mu)
        assert contains_fraction(d[2, 2], lam_x / mu_x)

    def test_henon_tangent_entry(self):
        from tangency.henon import A0, eigen_data, henon_family

        eig = eigen_data()
        x0 = eig["x0"].mid
        u0 = eig["u0_mid"]
        chart = ChartMap(henon_family()[0])
        d = mat(chart.derivative(box(x0, x0, Interval(u0[0]) / Interval(u0[1]), A0))[1])
        ratio = eig["mu"] / eig["lam"]
        assert d[2, 2].intersects(ratio)

    def test_derivative_contains_finite_differences(self):
        from tangency.henon import A0, henon_family

        chart = ChartMap(henon_family()[0])
        base = (-1.9, -1.8, 0.9, A0)
        h = 1e-6
        d = mat(chart.derivative(box(*base))[1])

        def apply_pt(coords):
            return [pair_mid(*c) for c in chart.apply(box(*coords))]

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

        chart = ChartMap(evaluator(henon_family(), direction))
        p = box(Interval(-1.91, -1.89), Interval(-1.81, -1.79),
                Interval(0.8, 0.9), Interval(A0 - 1e-5, A0 + 1e-5))
        full_image, full_jac = chart.derivative(p)

        def refuse(x, y, a, order):
            raise AssertionError("f evaluated")

        monkeypatch.setattr(chart, "f", refuse)
        image, jac = chart.derivative(p, (3,))
        assert pairs_hex(image) == pairs_hex([full_image[3]])
        assert [pairs_hex(r) for r in jac] == [pairs_hex(full_jac[3])]
        assert jac[0][3] == (1.0, 1.0)
        assert all(jac[0][k] == (0.0, 0.0) for k in range(3))
        with pytest.raises(AssertionError, match="f evaluated"):
            chart.derivative(p, (0, 3))

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_parameter_image_evaluates_no_f(self, direction):
        # The thin image of a parameter wall: apply on a alone returns the
        # box's parameter pair, bit for bit, and never calls f.
        from tangency.henon import A0

        def refuse(x, y, a, order):
            raise AssertionError("f evaluated")

        chart = ChartMap(evaluator((refuse, refuse), direction))
        for a in (Interval(A0), Interval(A0 - 1e-5, A0 + 1e-5), Interval(-0.0, 0.0)):
            p = box(Interval(-1.91, -1.89), Interval(-1.81, -1.79),
                    Interval(0.8, 0.9), a)
            image = chart.apply(p, (3,))
            assert pairs_hex(image) == pairs_hex([p[3]])
            with pytest.raises(AssertionError, match="f evaluated"):
                chart.apply(p, (0, 3))

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_apply_without_angle_is_the_full_apply(self, rng, direction):
        # Without the slope, f runs at order 0 (values only), and on a
        # alone not at all; x, y and a are the full apply's bit for bit, on
        # random boxes.
        from tangency.henon import A0, henon_family

        seen = []

        def spy(evaluate):
            def run(x, y, a, order):
                seen.append(order)
                return evaluate(x, y, a, order)

            return run

        chart = ChartMap(spy(evaluator(henon_family(), direction)))
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
                assert seen == ([] if outputs == (3,) else [0])
                assert pairs_hex(image) == pairs_hex(full[k] for k in outputs)
            compared += 1
        assert compared > 150


class TestFamilyInverse:
    def test_henon_inverse_consistency(self):
        from tangency.henon import A0

        defect = check_inverse_consistency(
            *henon_expressions(), (Interval(-1.91, -1.89), Interval(-1.81, -1.79), Interval(A0))
        )
        assert defect == 0.0


def test_projective_imports_nothing_from_covering():
    # The chart map takes and returns tuples of (lo, hi) pairs, and the
    # covering checker takes it as it is; it builds no vector or matrix.
    import tangency.projective as projective

    tree = ast.parse(Path(projective.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "tangency.kernels" in imported  # the walk sees the module's imports
    assert not any(m == "tangency.covering" or m.startswith("tangency.covering.")
                   for m in imported)
    assert not any(m == "tangency.linalg" or m.startswith("tangency.linalg.")
                   for m in imported)


# -- the pair route against the jet route, bit for bit ------------------------


def _dense_family():
    """A polynomial family whose second derivatives in x, y and a are all
    nonzero, so that every term of the slope row's gradient counts, as
    expressions on jets."""

    def forward(x, y, a):
        return x * y * a + x.sqr() + 0.5 * y, y.sqr() * a + x * a - 0.25 * x * y

    def inverse(x, y, a):
        return y * a - x.sqr() * y + 0.75 * x, x * y + y.sqr() * a + 0.5 * x

    return forward, inverse


def _oracle_slope(vx, vy):
    """The image slope vx / vy of a direction enclosure of jets or
    Intervals, through their own division, and whether vy is negative;
    None when vy contains 0 and the chart is left."""
    lo, hi = vy.value_pair if isinstance(vy, Jet) else (vy.lo, vy.hi)
    if lo <= 0.0 <= hi:
        return None, None
    slope = vx / vy
    if isinstance(slope, Jet):
        return (slope.value_pair, slope.grad_pairs), hi < 0.0
    return (slope.lo, slope.hi), hi < 0.0


def _jet_route(expression, v):
    """The chart map's derivative and apply outputs over the chart box v as
    the jets compute them: the planar map's expression on Jet.variable
    jets; the slope row from order-1 jets over (x, y, w, a), through jet
    products and jet division; apply's slope from Interval products and
    division.  Returns the derivative's (value, row) pairs, apply's image
    pairs (each None where the chart is left) and whether each route's w_y
    was negative."""
    evaluate = expression
    x, y, w, a = (Interval(*e) for e in v)
    fx, fy = evaluate(*(Jet.variable(i, c, 3, order=2) for i, c in enumerate((x, y, a))))

    def placed(g):
        return g[0], g[1], (0.0, 0.0), g[2]

    def row_jet(f, i):
        return Jet(f.grad_pairs[i], placed(f.hess_row_pairs(i)))

    f1x, f1y, f2x, f2y = (row_jet(f, i) for f in (fx, fy) for i in (0, 1))
    wj = Jet.variable(2, w, 4, order=1)
    slope_row, row_below = _oracle_slope(f1x * wj + f1y, f2x * wj + f2y)
    rows = None if slope_row is None else [
        (fx.value_pair, placed(fx.grad_pairs)),
        (fy.value_pair, placed(fy.grad_pairs)),
        slope_row,
        (v[3], ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))),
    ]

    gx, gy = evaluate(Jet.variable(0, x, 2, order=1), Jet.variable(1, y, 2, order=1),
                      Jet.constant(a, 2, order=1))
    slope, image_below = _oracle_slope(
        *(Interval(*g.grad_pairs[0]) * w + Interval(*g.grad_pairs[1]) for g in (gx, gy))
    )
    image = None if slope is None else [gx.value_pair, gy.value_pair, slope, v[3]]
    return rows, image, (row_below, image_below)


def _compare_routes(chart, expression, v):
    """Assert derivative's and apply's outputs over v are the jet route's of
    the expression bit for bit, a ChartError where the jet route leaves the
    chart; return whether the jet route's w_y was negative, per route."""
    rows, image, below = _jet_route(expression, v)
    if rows is None:
        with pytest.raises(ChartError):
            chart.derivative(v)
    else:
        value, jacobian = chart.derivative(v)
        assert pairs_hex(value) == pairs_hex(r[0] for r in rows)
        assert [pairs_hex(r) for r in jacobian] == [pairs_hex(r[1]) for r in rows]
    if image is None:
        with pytest.raises(ChartError):
            chart.apply(v)
    else:
        assert pairs_hex(chart.apply(v)) == pairs_hex(image)
    return below


class TestPairRouteOracle:
    """ChartMap's outputs, from the maps' closed forms and the slope row and
    image slope written out on (lo, hi) pairs, are the jet route's of the
    maps' expressions bit for bit: the slope's value and all four of its
    derivative entries, and every other output."""

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_henon_sub_boxes(self, henon_chain, direction):
        from tangency.henon import henon_family
        from tangency.kernels import upward

        from conftest import covering_boxes

        chart = ChartMap(evaluator(henon_family(), direction))
        expression = evaluator(henon_expressions(), direction)
        compared = 0
        with upward():
            for grid in (1, 2):
                for h in henon_chain.sets:
                    for z in covering_boxes(h, grid):
                        box = h.from_normalized(z[0])
                        mid = tuple([(pair_mid(*e),) * 2 for e in box])
                        _compare_routes(chart, expression, box)
                        _compare_routes(chart, expression, mid)
                        compared += 1
        assert compared == len(henon_chain.sets) * (4 + 1 + 4 * 8 + 16)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_disk_boxes_with_their_parameter_interval(self, henon_chain, direction):
        from tangency.henon import henon_family, projected_disk_data
        from tangency.kernels import upward

        from conftest import covering_boxes

        chart = ChartMap(evaluator(henon_family(), direction))
        expression = evaluator(henon_expressions(), direction)
        with upward():
            for side in ("stable", "unstable"):
                ntilde, _, param, _ = projected_disk_data(henon_chain, side)
                for grid in (1, 2):
                    for z in covering_boxes(ntilde, grid):
                        box = ntilde.from_normalized(z[0])
                        assert len(box) == 3
                        _compare_routes(chart, expression, box + (as_pair(param),))

    @pytest.mark.parametrize("family", ["henon", "dense"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_random_chart_boxes(self, rng, family, direction):
        # 200 seeded boxes, thin and thick, with image directions whose w_y
        # is positive and negative; where the jet route leaves the chart,
        # the pair route must raise ChartError.
        from tangency.henon import A0, henon_family
        from tangency.kernels import upward

        expressions = henon_expressions() if family == "henon" else _dense_family()
        chart = ChartMap(evaluator(henon_family() if family == "henon"
                                   else planar_evaluators(*expressions), direction))
        expression = evaluator(expressions, direction)
        below = []
        with upward():
            for _ in range(200):
                center = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5),
                          rng.uniform(-4.0, 4.0), A0 + rng.uniform(-1e-3, 1e-3))
                radii = [rng.choice((0.0, 1e-9, 1e-5, 1e-2)) * rng.random()
                         for _ in range(4)]
                v = box(*[Interval(c - r, c + r) for c, r in zip(center, radii)])
                below += _compare_routes(chart, expression, v)
        assert below.count(True) >= 40 and below.count(False) >= 40


# -- the slope row against exact rationals ------------------------------------


def _exact_henon(direction, x, y, w, a):
    """The extended Henon map's image (x', y', w', a) and its derivative
    rows over (x, y, w, a) at an exact rational point, from closed forms:
    forward, Df (w, 1) = (b - 2 x w, w), so w' = b / w - 2 x; inverse,
    Df (w, 1) = (1, (w + 2 y) / b), so w' = b / (w + 2 y).  b is the binary64
    B0 the family evaluates with."""
    from tangency.henon import B0

    b = Fraction(B0)
    if direction == "forward":
        image = (a - x * x + b * y, x, b / w - 2 * x, a)
        rows = ((-2 * x, b, 0, 1), (1, 0, 0, 0), (-2, 0, -b / w**2, 0), (0, 0, 0, 1))
    else:
        d = w + 2 * y
        image = (y, (x - a + y * y) / b, b / d, a)
        rows = ((0, 1, 0, 0), (1 / b, 2 * y / b, 0, -1 / b),
                (0, -2 * b / d**2, -b / d**2, 0), (0, 0, 0, 1))
    return image, rows


def _sample_points(rng, box, count):
    """count float points of the box, (lo, hi) pairs, seeded, corners
    included with the rest uniform."""
    pairs = box
    points = [tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)]
    while len(points) < count:
        points.append(tuple(
            min(max(lo + rng.random() * (hi - lo), lo), hi) for lo, hi in pairs
        ))
    return points


def _assert_exact_in(image, jacobian, exact_image, exact_rows, what):
    image, jacobian = vec(image), mat(jacobian)
    for k in range(4):
        assert contains_fraction(image[k], exact_image[k]), (what, k)
        for j in range(4):
            assert contains_fraction(jacobian[k, j], Fraction(exact_rows[k][j])), (what, k, j)


class TestExactRationalSlopeRow:
    """At exact rational points of the Henon chain's sets and of the grid-2
    wall sub-boxes of N0=>N1 and N9=>N10, forward and inverse, the exact
    image, slope w' included, lies in apply's and derivative's image, and
    the exact derivative, the row d w' / d(x, y, w, a) included, in
    derivative's: over the thin point box and over the box it was drawn
    from."""

    @staticmethod
    def _boxes(chain):
        boxes = [(h.name, h.box()) for h in chain.sets]
        for src in (chain.sets[0], chain.sets[9]):
            for axis in src.unstable:
                for side in (1, -1):
                    boxes += [(f"{src.name} wall z_{axis}={side:+d}",
                               src.from_normalized(z[0]))
                              for z in src.walls(axis, side, 2)]
        return boxes

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_exact_points_lie_in_the_enclosures(self, henon_chain, rng, direction):
        from tangency.henon import henon_family
        from tangency.kernels import upward

        chart = ChartMap(evaluator(henon_family(), direction))
        boxes = self._boxes(henon_chain)
        assert len(boxes) == 16 + 2 * 2 * 2 * 8
        checked = 0
        with upward():
            for name, wide in boxes:
                wide_image, wide_jacobian = chart.derivative(wide)
                for point in _sample_points(rng, wide, 6):
                    exact = _exact_henon(direction, *map(Fraction, point))
                    thin = IntervalVector(list(point)).pairs
                    image, jacobian = chart.derivative(thin)
                    _assert_exact_in(image, jacobian, *exact, (name, point))
                    _assert_exact_in(wide_image, wide_jacobian, *exact, (name, point))
                    applied = vec(chart.apply(thin))
                    assert all(contains_fraction(applied[k], exact[0][k])
                               for k in range(4)), (name, point)
                    checked += 1
        assert checked == 6 * len(boxes)
