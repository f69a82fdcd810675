"""Manifold-disk constants: expansion bound, parameter bounds, Gamma, delta."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tangency import cones, manifold
from tangency.cones import check_cone_link, cone_matrix, rump_positive_definite, vertex_signs
from tangency.covering import VerificationInconclusive
from tangency.hset import HSet, QuadraticForm
from tangency.interval import Interval, IntervalError, as_pair
from linalg_oracle import IntervalMatrix, IntervalVector, frame, inv_coord, local_derivative
from tangency.manifold import (
    _jacobi_min_eigenvalue,
    choose_gamma,
    eigen_lower_bound,
    mixed_derivative_bound,
    stable_parameter_bound,
    verify_disk,
)
from tangency.projective import ChartMap
from conftest import evaluator, flipped_form, pairs_hex
from jet_oracle import planar_evaluators


def saddle_family(lam=2.0, mu=0.4, coupling=0.0):
    """Planar saddle with 45-degree eigenvectors and optional additive
    parameter coupling on the first coordinate, as a pair of evaluators on
    the jet route."""
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

    return planar_evaluators(forward, inverse)


ROOT2 = math.sqrt(0.5)
# The slope column is -(1 + w^2) e_w at the unstable eigendirection's slope
# w = 1, so the local tangent coordinate is an angle, as in the Henon frames.
FRAME3 = ((ROOT2, -ROOT2, 0.0), (ROOT2, ROOT2, 0.0), (0.0, 0.0, -2.0))


def _disk_inputs(coupling=0.0, diam=(0.1, 0.1, 0.1)):
    lam, mu = 2.0, 0.4
    chart = ChartMap(saddle_family(lam, mu, coupling)[0])
    w_u = 1.0  # unstable eigendirection (1, 1)
    ntilde = HSet("D", (0.0, 0.0, w_u), FRAME3, diam, (0,))
    qtilde = QuadraticForm((1.0, -1.0, -1.0), (0,))
    return chart, ntilde, qtilde


INTERVAL_2X2 = IntervalMatrix(
    [
        [Interval(1.4, 1.6), Interval(-0.1, 0.1)],
        [Interval(-0.1, 0.1), Interval(0.9, 1.1)],
    ]
)
# Reference bracket for INTERVAL_2X2 from a bisection over Rump tests to 1e-10:
# V - a I passes the test at its lower end and fails at its upper end.
BISECTED_2X2 = (0.880741759581724, 0.8807417596457524)


def _exact_pd(rows):
    """Positive definiteness of a symmetric Fraction matrix by exact LDL^T."""
    a = [list(row) for row in rows]
    n = len(a)
    for j in range(n):
        if a[j][j] <= 0:
            return False
        for i in range(j + 1, n):
            f = a[i][j] / a[j][j]
            for k in range(j, n):
                a[i][k] -= f * a[j][k]
    return True


def _exact_vertices(v):
    """Rohn's 2^(n-1) vertex matrices of a symmetric interval matrix, exact:
    entry lo where z_i z_j = +1 (the whole diagonal), hi where -1."""
    n = len(v)
    for z in vertex_signs(n):
        yield [
            [Fraction(v[i][j][0] if z[i] * z[j] > 0 else v[i][j][1]) for j in range(n)]
            for i in range(n)
        ]


def _shifted(m, s):
    """m - s I."""
    return [
        [e - (s if i == j else 0) for j, e in enumerate(row)] for i, row in enumerate(m)
    ]


def _counting_rump(monkeypatch):
    """The matrices of every Rump test run through cones (the cone
    certificates) or manifold (the A tests)."""
    calls = []

    def counting(a):
        calls.append(a)
        return rump_positive_definite(a)

    monkeypatch.setattr(cones, "rump_positive_definite", counting)
    monkeypatch.setattr(manifold, "rump_positive_definite", counting)
    return calls


class TestEigenLowerBound:
    def test_diagonal_point_matrix(self):
        v = IntervalMatrix(
            [
                [Interval(2.0), Interval(0.0), Interval(0.0)],
                [Interval(0.0), Interval(3.0), Interval(0.0)],
                [Interval(0.0), Interval(0.0), Interval(5.0)],
            ]
        )
        a = eigen_lower_bound(v.pairs)
        assert 2.0 - 1e-8 <= a < 2.0

    def test_bracketing_property(self, monkeypatch):
        # One Rump test certifies A, within 1e-8 relative of the bisected
        # value and inside its bracket.
        certified, failed = BISECTED_2X2
        calls = _counting_rump(monkeypatch)
        a = eigen_lower_bound(INTERVAL_2X2.pairs)
        assert len(calls) == 1
        eye = IntervalMatrix.identity(2)
        assert rump_positive_definite((INTERVAL_2X2 - eye.scale(a)).pairs).positive_definite
        assert abs(a - certified) <= 1e-8 * certified
        assert a < failed

    def test_indefinite_rejected(self):
        v = IntervalMatrix(
            [[Interval(1.0), Interval(0.0)], [Interval(0.0), Interval(-1.0)]]
        )
        with pytest.raises(VerificationInconclusive):
            eigen_lower_bound(v.pairs)

    def test_overshooting_estimate_is_shrunk(self, monkeypatch):
        # A 5% overshoot fails the first test and is rescued by one shrink.
        estimate = manifold.min_vertex_eigenvalue(INTERVAL_2X2.pairs)
        monkeypatch.setattr(manifold, "min_vertex_eigenvalue", lambda v: 1.05 * estimate)
        calls = _counting_rump(monkeypatch)
        a = eigen_lower_bound(INTERVAL_2X2.pairs)
        assert len(calls) == 2
        assert a < BISECTED_2X2[0]
        eye = IntervalMatrix.identity(2)
        assert rump_positive_definite((INTERVAL_2X2 - eye.scale(a)).pairs).positive_definite

    def test_overshooting_estimate_raises_after_bounded_tries(self, monkeypatch):
        monkeypatch.setattr(manifold, "min_vertex_eigenvalue", lambda v: 100.0)
        calls = _counting_rump(monkeypatch)
        with pytest.raises(VerificationInconclusive, match="no expansion bound"):
            eigen_lower_bound(INTERVAL_2X2.pairs)
        assert len(calls) == manifold.A_TRIES

    def test_jacobi_matches_eigvalsh(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            for _ in range(100):
                a = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
                a = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
                want = np.linalg.eigvalsh(np.array(a)).min()
                assert abs(_jacobi_min_eigenvalue(a) - want) <= 1e-13


class TestCertifiedA:
    """A against exact rationals: by Rohn's vertex theorem the vertex
    matrices of V_eps attain its smallest eigenvalue, so A is a lower bound
    of it iff every exact V_z - A I is positive definite."""

    @pytest.mark.parametrize("side", ["stable", "unstable"])
    def test_a_below_exact_vertex_spectra(self, henon_proof, henon_chain, side):
        from tangency.henon import projected_disk_data

        disk = getattr(henon_proof[0], f"{side}_disk")
        _, qtilde, _, _ = projected_disk_data(henon_chain, side)
        j_local = tuple(row[:3] for row in disk.covering.local_jacobian)
        v_eps = cone_matrix(j_local, qtilde, qtilde, inflate_src=manifold.INFLATION)
        a = Fraction(disk.constants.a_lower)
        vertices = list(_exact_vertices(v_eps))
        assert all(_exact_pd(_shifted(m, a)) for m in vertices)
        # and A is tight: 1e-8 relative above it some vertex is not definite
        above = a * (1 + Fraction(1, 10**8))
        assert not all(_exact_pd(_shifted(m, above)) for m in vertices)

    @pytest.mark.parametrize("side, direction", [("stable", "forward"),
                                                 ("unstable", "inverse")])
    def test_two_rump_tests_per_disk(self, henon_chain, monkeypatch, side, direction):
        # the cone test and the A test
        from tangency.henon import henon_family, projected_disk_data

        calls = _counting_rump(monkeypatch)
        ntilde, qtilde, param, p_coeff = projected_disk_data(henon_chain, side)
        chart = ChartMap(evaluator(henon_family(), direction))
        assert verify_disk(side, ntilde, qtilde, chart, param, p_coeff).passed
        assert len(calls) == 2

    def test_epsilon_is_the_inflation_applied(self, henon_proof):
        for disk in (henon_proof[0].stable_disk, henon_proof[0].unstable_disk):
            eps = disk.constants.epsilon
            assert Fraction(eps) == Fraction(manifold.INFLATION) - 1
            assert abs(eps - 1e-6) <= 1e-6 * 1e-9


def _disk_rows(j_local, p_local):
    """The rows of pairs d z'/d(z, lambda): j_local's rows, each with its
    entry of p_local appended, as a disk's local_jacobian holds them."""
    return tuple(row + (p,) for row, p in zip(j_local.pairs, p_local.pairs))


def _matrix_hex(rows):
    return [pairs_hex(row) for row in rows]


def _rump_hex(rump):
    return rump.positive_definite, [
        (z, None if m is None else m.hex()) for z, m in rump.vertex_margins
    ]


class TestDiskCone:
    """A disk's cone certificate is cones.check_cone_link's of its
    self-covering, whose 3x4 local Jacobian the cone matrix reads whole."""

    @pytest.mark.parametrize("side", ["stable", "unstable"])
    def test_cone_is_check_cone_link(self, henon_proof, henon_chain, side):
        from tangency.henon import projected_disk_data
        from tangency.kernels import upward

        disk = getattr(henon_proof[0], f"{side}_disk")
        _, qtilde, _, _ = projected_disk_data(henon_chain, side)
        with upward():
            want = check_cone_link(disk.covering, qtilde, qtilde)
        assert disk.cone.link == want.link == f"{disk.set_name}=>{disk.set_name}"
        assert _matrix_hex(disk.cone.matrix) == _matrix_hex(want.matrix)
        assert _rump_hex(disk.cone.rump) == _rump_hex(want.rump)
        assert disk.cone.to_dict() == want.to_dict()

    @pytest.mark.parametrize("inflate", [1.0, manifold.INFLATION])
    @pytest.mark.parametrize("side", ["stable", "unstable"])
    def test_cone_matrix_reads_the_first_columns(self, henon_proof, henon_chain, side,
                                                 inflate):
        from tangency.henon import projected_disk_data
        from tangency.kernels import upward

        jacobian = getattr(henon_proof[0], f"{side}_disk").covering.local_jacobian
        _, qtilde, _, _ = projected_disk_data(henon_chain, side)
        assert (len(jacobian), len(jacobian[0])) == (3, 4)
        first3 = tuple(row[:3] for row in jacobian)
        first2 = tuple(row[:2] for row in jacobian)
        with upward():
            assert _matrix_hex(cone_matrix(jacobian, qtilde, qtilde, inflate)) == (
                _matrix_hex(cone_matrix(first3, qtilde, qtilde, inflate)))
            with pytest.raises(IntervalError, match="shape mismatch"):
                cone_matrix(first2, qtilde, qtilde, inflate)

    @pytest.mark.parametrize("side, direction", [("stable", "forward"),
                                                 ("unstable", "inverse")])
    def test_failing_form_ends_at_cones(self, henon_chain, side, direction):
        # The self-covering passes (it reads no form); the cone test of the
        # flipped form fails, at the cones stage and the self-covering's link.
        from tangency.henon import henon_family, projected_disk_data
        from tangency.kernels import upward

        ntilde, qtilde, param, p_coeff = projected_disk_data(henon_chain, side)
        chart = ChartMap(evaluator(henon_family(), direction))
        with upward(), pytest.raises(VerificationInconclusive) as exc:
            verify_disk(side, ntilde, flipped_form(qtilde), chart, param, p_coeff)
        assert (exc.value.stage, exc.value.locus) == ("cones", f"{ntilde.name}=>{ntilde.name}")
        assert exc.value.detail == "interval matrix not certified positive definite"


class TestParameterBounds:
    def test_parameter_independent_map_gives_zero(self):
        chart, ntilde, qtilde = _disk_inputs(coupling=0.0)
        box4 = ntilde.box() + (as_pair(Interval(-0.01, 0.01)),)
        d4 = IntervalMatrix.from_pairs(chart.derivative(box4)[1])
        p_chart = IntervalVector([d4[i, 3] for i in range(3)])
        p_local = inv_coord(ntilde).mat_vec(p_chart)
        j_chart = IntervalMatrix([[d4[i, j] for j in range(3)] for i in range(3)])
        j_local = inv_coord(ntilde).mat_mul(j_chart).mat_mul(frame(ntilde))
        rows = _disk_rows(j_local, p_local)
        m = mixed_derivative_bound(rows, qtilde.coeffs)
        el = stable_parameter_bound(rows, qtilde.beta_norm(), ntilde.stable)
        assert m == 0.0
        assert el == 0.0

    def test_monotone_under_box_shrink(self):
        chart, big, qtilde = _disk_inputs(coupling=0.2)
        small = HSet("Ds", big.center, FRAME3, (0.05, 0.05, 0.05), (0,))

        vals = {}
        for name, h, c in (
            ("big", big, Interval(-0.02, 0.02)),
            ("small", small, Interval(-0.01, 0.01)),
        ):
            d4 = IntervalMatrix.from_pairs(chart.derivative(h.box() + (as_pair(c),))[1])
            p_local = inv_coord(h).mat_vec(
                IntervalVector([d4[i, 3] for i in range(3)])
            )
            j_local = inv_coord(h).mat_mul(
                IntervalMatrix([[d4[i, j] for j in range(3)] for i in range(3)])
            ).mat_mul(frame(h))
            rows = _disk_rows(j_local, p_local)
            vals[name] = (
                mixed_derivative_bound(rows, qtilde.coeffs),
                stable_parameter_bound(rows, qtilde.beta_norm(), h.stable),
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
    def test_self_covering_jacobian_is_derivative_rows(
        self, henon_proof, henon_chain, side, direction
    ):
        # At grid 1 the disk's one enclosure pass is derivative over the
        # whole box x parameter: its local Jacobian is rows 0-2 of that 4x4
        # in the local frame, parameter column included.
        from tangency.henon import henon_family, projected_disk_data

        disk = getattr(henon_proof[0], f"{side}_disk")
        chart = ChartMap(evaluator(henon_family(), direction))
        ntilde, _, param, _ = projected_disk_data(henon_chain, side)
        d4 = IntervalMatrix.from_pairs(chart.derivative(ntilde.box() + (as_pair(param),))[1])
        want = local_derivative(ntilde, ntilde, IntervalMatrix(d4.rows[:3]))
        assert _matrix_hex(disk.covering.local_jacobian) == _matrix_hex(want.pairs)
