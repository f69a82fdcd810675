"""Manifold-disk constants: expansion bound, parameter bounds, Gamma, delta."""

import math

import pytest

from tangency.covering import VerificationInconclusive
from tangency.hset import HSet, QuadraticForm
from tangency.interval import Interval
from tangency.linalg import IntervalMatrix, IntervalVector
from tangency.manifold import (
    choose_gamma,
    eigen_lower_bound,
    mixed_derivative_bound,
    stable_parameter_bound,
    verify_disk,
)
from tangency.projective import ChartMap, PlanarMapFamily


def saddle_family(lam=2.0, mu=0.4, coupling=0.0):
    """Planar saddle with 45-degree eigenvectors and optional additive
    parameter coupling on the first coordinate."""
    p = 0.5 * (lam + mu)
    q = 0.5 * (lam - mu)

    def forward(x, y, a):
        fx = p * x + q * y
        if coupling:
            fx = fx + coupling * a
        return fx, q * x + p * y

    det = lam * mu
    ip, iq = p / det, -q / det

    def inverse(x, y, a):
        xx = x
        if coupling:
            xx = x - coupling * a
        return ip * xx + iq * y, iq * xx + ip * y

    return PlanarMapFamily(name="saddle45", forward=forward, inverse=inverse)


ROOT2 = math.sqrt(0.5)
FRAME3 = ((ROOT2, -ROOT2, 0.0), (ROOT2, ROOT2, 0.0), (0.0, 0.0, 1.0))


def _disk_inputs(coupling=0.0, diam=(0.1, 0.1, 0.1)):
    lam, mu = 2.0, 0.4
    fam = saddle_family(lam, mu, coupling)
    chart = ChartMap(fam, "forward")
    t_u = math.atan2(1.0, 1.0)  # unstable eigendirection angle pi/4
    ntilde = HSet("D", (0.0, 0.0, t_u), FRAME3, diam, (0,))
    qtilde = QuadraticForm((1.0, -1.0, -1.0), (0,))
    return chart, ntilde, qtilde


class TestEigenLowerBound:
    def test_diagonal_point_matrix(self):
        v = IntervalMatrix(
            [
                [Interval(2.0), Interval(0.0), Interval(0.0)],
                [Interval(0.0), Interval(3.0), Interval(0.0)],
                [Interval(0.0), Interval(0.0), Interval(5.0)],
            ]
        )
        a, a_fail = eigen_lower_bound(v, tol=1e-9)
        assert 2.0 - 1e-6 <= a <= 2.0
        assert a_fail > a

    def test_bracketing_property(self):
        from tangency.cones import rump_positive_definite

        v = IntervalMatrix(
            [
                [Interval(1.4, 1.6), Interval(-0.1, 0.1)],
                [Interval(-0.1, 0.1), Interval(0.9, 1.1)],
            ]
        )
        a, a_fail = eigen_lower_bound(v, tol=1e-9)
        eye = IntervalMatrix.identity(2)
        assert rump_positive_definite(v - eye.scale(a)).positive_definite
        assert not rump_positive_definite(v - eye.scale(a_fail)).positive_definite

    def test_indefinite_rejected(self):
        v = IntervalMatrix(
            [[Interval(1.0), Interval(0.0)], [Interval(0.0), Interval(-1.0)]]
        )
        with pytest.raises(VerificationInconclusive):
            eigen_lower_bound(v)


class TestParameterBounds:
    def test_parameter_independent_map_gives_zero(self):
        chart, ntilde, qtilde = _disk_inputs(coupling=0.0)
        from tangency.projective import ChartPoint

        box3 = ntilde.box()
        p4 = ChartPoint(box3[0], box3[1], box3[2], Interval(-0.01, 0.01))
        _, d4 = chart.derivative(p4)
        p_chart = IntervalVector([d4[i, 3] for i in range(3)])
        p_local = ntilde.inv_coord.mat_vec(p_chart)
        j_chart = IntervalMatrix([[d4[i, j] for j in range(3)] for i in range(3)])
        j_local = ntilde.inv_coord.mat_mul(j_chart).mat_mul(ntilde.coord_matrix())
        m = mixed_derivative_bound(j_local, p_local, qtilde.coeffs)
        el = stable_parameter_bound(p_local, qtilde.beta_norm(), ntilde.stable)
        assert m == 0.0
        assert el == 0.0

    def test_monotone_under_box_shrink(self):
        chart, big, qtilde = _disk_inputs(coupling=0.2)
        small = HSet("Ds", big.center, FRAME3, (0.05, 0.05, 0.05), (0,))
        from tangency.projective import ChartPoint

        vals = {}
        for name, h, c in (
            ("big", big, Interval(-0.02, 0.02)),
            ("small", small, Interval(-0.01, 0.01)),
        ):
            box3 = h.box()
            p4 = ChartPoint(box3[0], box3[1], box3[2], c)
            _, d4 = chart.derivative(p4)
            p_local = h.inv_coord.mat_vec(
                IntervalVector([d4[i, 3] for i in range(3)])
            )
            j_local = h.inv_coord.mat_mul(
                IntervalMatrix([[d4[i, j] for j in range(3)] for i in range(3)])
            ).mat_mul(h.coord_matrix())
            vals[name] = (
                mixed_derivative_bound(j_local, p_local, qtilde.coeffs),
                stable_parameter_bound(p_local, qtilde.beta_norm(), h.stable),
            )
        assert vals["small"][0] <= vals["big"][0] + 1e-12
        assert vals["small"][1] <= vals["big"][1] + 1e-12


class TestChooseGamma:
    def test_linear_case_bound(self):
        gamma, check = choose_gamma(2.0, 1.0, 0.0)
        assert abs(gamma - 0.99) < 1e-12
        assert check > 0.0

    def test_quadratic_case(self):
        gamma, check = choose_gamma(0.0993943, 0.0840422, 0.00703946)
        assert 0.5 < gamma < 0.578
        assert check > 0.0

    def test_no_parameter_dependence(self):
        gamma, check = choose_gamma(1.5, 0.0, 0.0)
        assert gamma == 1.0
        assert check > 0.0

    def test_requires_positive_a(self):
        with pytest.raises(VerificationInconclusive):
            choose_gamma(0.0, 1.0, 1.0)


class TestVerifyDisk:
    def test_parameter_independent_contraction_side(self):
        # M = L = 0; Gamma = 1; delta = 1/||alpha||; comparison with p = 2.
        chart, ntilde, qtilde = _disk_inputs(coupling=0.0)
        cert = verify_disk(
            "stable", ntilde, qtilde, chart, Interval(-0.01, 0.01), 2.0
        )
        assert cert.constants.m_upper == 0.0
        assert cert.constants.l_upper == 0.0
        assert cert.constants.gamma == 1.0
        assert cert.passed
        assert cert.comparison_lower > 1.0

    def test_parameter_coupled_side(self):
        chart, ntilde, qtilde = _disk_inputs(coupling=0.1)
        cert = verify_disk(
            "stable", ntilde, qtilde, chart, Interval(-0.005, 0.005), 4.0
        )
        assert cert.constants.m_upper > 0.0
        assert cert.constants.l_upper > 0.0
        assert cert.constants.a_lower > 0.0
        assert cert.passed

    def test_delta_consistency(self):
        chart, ntilde, qtilde = _disk_inputs(coupling=0.1)
        cert = verify_disk(
            "stable", ntilde, qtilde, chart, Interval(-0.005, 0.005), 4.0
        )
        gamma_sq = cert.constants.gamma ** 2
        lo, hi = cert.constants.delta
        assert lo <= gamma_sq / qtilde.alpha_norm() <= hi

    def test_failing_comparison_raises(self):
        chart, ntilde, qtilde = _disk_inputs(coupling=0.0)
        with pytest.raises(VerificationInconclusive):
            verify_disk(
                "stable", ntilde, qtilde, chart, Interval(-0.01, 0.01), 1e-9
            )


class TestDiskDerivative:
    @pytest.mark.parametrize("side, direction", [("stable", "forward"),
                                                 ("unstable", "inverse")])
    def test_chart_block_equals_derivative3(self, henon_chain, side, direction):
        # verify_disk reads the cone derivative off the (x, y, t) block of the
        # 4x4 chart derivative; it must be the 3x3 derivative, bit for bit.
        from tangency.henon import henon_family, projected_disk_data
        from tangency.projective import ChartPoint

        chart = ChartMap(henon_family(), direction)
        ntilde, _, param, _ = projected_disk_data(henon_chain, side)
        box3 = ntilde.box()
        _, d4 = chart.derivative(ChartPoint(box3[0], box3[1], box3[2], param))
        _, d3 = chart.derivative3(box3, param)
        for i in range(3):
            for j in range(3):
                assert repr(d4[i, j]) == repr(d3[i, j])  # repr keeps every bit
