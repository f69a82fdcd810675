"""Angle-chart projectivization: directions, extended map, derivatives."""

import math
from fractions import Fraction

import pytest

from tangency.interval import Interval, IntervalError
from tangency.linalg import IntervalVector
from tangency.projective import (
    ChartError,
    ChartMap,
    ChartPoint,
    PlanarMapFamily,
    angle_to_direction,
    check_inverse_consistency,
    direction_to_angle,
)
from conftest import PI_BOUNDS, atan_bounds


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
        v = angle_to_direction(t)
        # same projective class: cross product with the input encloses 0
        cross = Interval(0.3) * v[1] - Interval(0.9) * v[0]
        assert cross.contains(0.0)


class TestChartPoint:
    def test_chart_bounds_enforced(self):
        with pytest.raises(ChartError):
            ChartPoint.make(0, 0, 0.0, 0)
        with pytest.raises(ChartError):
            ChartPoint.make(0, 0, math.pi, 0)
        ChartPoint.make(0, 0, 1.5, 0)


class TestApply:
    def test_eigendirection_fixed_vertical(self):
        # Direction pi/2 is the mu-eigendirection of the diagonal family.
        fam = axis_family(2.0, 0.5)
        chart = ChartMap(fam, "forward")
        p = ChartPoint.make(0.0, 0.0, 1.5707963267948966, 0.0)
        q = chart.apply(p)
        assert q.t.contains(Interval(p.t.lo, p.t.hi))
        assert q.x.contains(0.0) and q.y.contains(0.0)

    def test_slope_scaling_law(self):
        # For the diagonal family, tan t' = (mu/lam) tan t.
        lam, mu = 2.0, 0.5
        fam = axis_family(lam, mu)
        chart = ChartMap(fam, "forward")
        t_in = direction_to_angle(IntervalVector([1.0, 1.0]))  # slope 1
        q = chart.apply(ChartPoint.make(0.3, -0.2, t_in, 0.0))
        slope = q.t.sin() / q.t.cos()
        assert slope.contains(mu / lam)

    def test_projective_consistency_of_apply(self):
        fam = linear_family(3.0, 0.25)
        chart = ChartMap(fam, "forward")
        v = (0.4, 0.7)
        t_plus = direction_to_angle(IntervalVector(v))
        t_minus = direction_to_angle(IntervalVector([-v[0], -v[1]]))
        assert t_plus == t_minus
        q1 = chart.apply(ChartPoint.make(0.1, 0.2, t_plus, 0.0))
        q2 = chart.apply(ChartPoint.make(0.1, 0.2, t_minus, 0.0))
        assert q1.t == q2.t

    def test_henon_fixed_point_containment(self):
        from tangency.henon import A0, eigen_data, henon_family

        eig = eigen_data()
        x0 = eig["x0"].mid
        t_u = direction_to_angle(IntervalVector(list(eig["u0_mid"])))
        chart = ChartMap(henon_family(), "forward")
        p = ChartPoint.make(x0, x0, t_u, A0)
        q = chart.apply(p)
        assert abs(q.x.mid - x0) < 1e-13
        assert abs(q.y.mid - x0) < 1e-13
        assert abs(q.t.mid - t_u.mid) < 1e-12

    def test_semigroup_containment_on_thin_box(self):
        fam = linear_family(2.0, 0.5)
        chart = ChartMap(fam, "forward")
        eps = 1e-9
        p = ChartPoint.make(
            Interval(0.1 - eps, 0.1 + eps),
            Interval(0.2 - eps, 0.2 + eps),
            Interval(0.8 - eps, 0.8 + eps),
            0.0,
        )
        twice = chart.apply(chart.apply(p))
        mid_path = chart.apply(
            chart.apply(ChartPoint.make(0.1, 0.2, 0.8, 0.0))
        )
        assert twice.x.contains(mid_path.x.mid)
        assert twice.y.contains(mid_path.y.mid)
        assert twice.t.contains(mid_path.t.mid)


class TestDerivative:
    def test_linearization_entries_unstable_chart(self):
        # At the unstable eigendirection the angle-angle entry of the
        # extended-map derivative is mu/lam.
        lam, mu = 3.0, 0.4
        fam = linear_family(lam, mu)
        chart = ChartMap(fam, "forward")
        t_u = direction_to_angle(IntervalVector([1.0, 1.0]))
        p = ChartPoint.make(0.0, 0.0, t_u, 0.0)
        _, d = chart.derivative(p)
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
        p = ChartPoint.make(0.0, 0.0, t_s, 0.0)
        _, d = chart.derivative(p)
        assert d[2, 2].contains(lam / mu)

    def test_henon_tangent_entry(self):
        from tangency.henon import A0, eigen_data, henon_family

        eig = eigen_data()
        x0 = eig["x0"].mid
        t_u = direction_to_angle(IntervalVector(list(eig["u0_mid"])))
        chart = ChartMap(henon_family(), "forward")
        _, d = chart.derivative(ChartPoint.make(x0, x0, t_u, A0))
        ratio = eig["mu"] / eig["lam"]
        assert d[2, 2].intersects(ratio)

    def test_derivative_contains_finite_differences(self):
        from tangency.henon import A0, henon_family

        chart = ChartMap(henon_family(), "forward")
        base = (-1.9, -1.8, 0.9, A0)
        h = 1e-6
        _, d = chart.derivative(ChartPoint.make(*base))

        def apply_pt(coords):
            q = chart.apply(ChartPoint.make(*coords))
            return (q.x.mid, q.y.mid, q.t.mid, q.a.mid)

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


class TestFamilyInverse:
    def test_henon_inverse_consistency(self):
        from tangency.henon import A0, henon_family

        fam = henon_family()
        defect = check_inverse_consistency(
            fam, (Interval(-1.91, -1.89), Interval(-1.81, -1.79), Interval(A0))
        )
        assert defect == 0.0

    def test_flipped_family(self):
        fam = linear_family(2.0, 0.5)
        flipped = fam.flipped()
        chart_fwd = ChartMap(fam, "inverse")
        chart_flip = ChartMap(flipped, "forward")
        p = ChartPoint.make(0.25, 0.125, 0.7, 0.0)
        q1 = chart_fwd.apply(p)
        q2 = chart_flip.apply(p)
        assert q1.x == q2.x and q1.t == q2.t

    def test_missing_inverse_rejected(self):
        fam = PlanarMapFamily(name="fwd-only", forward=lambda x, y, a: (x, y))
        with pytest.raises(IntervalError):
            ChartMap(fam, "inverse")
