"""Analytic model suite: chain construction, cone schemes, transversality."""

import random
from fractions import Fraction

import pytest

from tangency.cones import check_cone_link, rump_positive_definite
from tangency.covering import VerificationInconclusive, check_chain, check_covering
from tangency.interval import Interval, IntervalError
from tangency.linalg import IntervalVector
from tangency.toy import (
    ToyParams,
    build_toy_chain,
    linear_end_map,
    linear_link_indices,
    linear_start_map,
    switch_cone_blocks,
    switch_map,
    transversality_determinant,
)
from conftest import covering_boxes, frac_det


class TestParams:
    def test_defaults_valid(self):
        ToyParams().validate()

    def test_invalid_rejected(self):
        with pytest.raises(IntervalError):
            ToyParams(lam=0.9).validate()
        with pytest.raises(IntervalError):
            ToyParams(mu=1.1).validate()
        with pytest.raises(IntervalError):
            ToyParams(delta=1.5).validate()
        with pytest.raises(IntervalError):
            ToyParams(eps=0.5).validate()


class TestChainCovering:
    def test_default_chain_certifies(self):
        chain = build_toy_chain()
        certs = check_chain(list(chain.sets), list(chain.maps), grid=1)
        assert len(certs) == chain.n_links
        assert all(c.min_exit_margin() > 0 for c in certs)

    def test_random_valid_params_certify(self, rng):
        for _ in range(6):
            params = ToyParams(
                lam=rng.choice([-1, 1]) * rng.uniform(1.4, 3.0),
                mu=rng.choice([-1, 1]) * rng.uniform(0.1, 0.7),
                delta=rng.uniform(0.3, 0.7),
                eps=rng.uniform(0.005, 0.05),
            )
            chain = build_toy_chain(params)
            certs = check_chain(list(chain.sets), list(chain.maps), grid=1)
            assert len(certs) == chain.n_links

    def test_orientation_flag_recorded(self):
        chain = build_toy_chain()
        assert any("opposite" in f for f in chain.flags)


class TestLinearMaps:
    def test_start_map_values_exact_on_dyadics(self):
        fmap = linear_start_map(ToyParams())
        out = fmap.apply(IntervalVector([0.5, 0.25, 1.0, 0.125]))
        assert out[0] == Interval(1.0)
        assert out[1] == Interval(0.125)
        assert out[2] == Interval(0.25)
        assert out[3] == Interval(0.125)

    def test_end_map_slope_expansion(self):
        fmap = linear_end_map(ToyParams())
        out = fmap.apply(IntervalVector([0.0, 0.0, 0.25, 0.0]))
        assert out[2] == Interval(1.0)  # (lam/mu) w = 4 * 0.25

    def test_switch_derivative_matches_closed_form(self):
        # Centered at the tangency point, in ambient (x, y, v, a) source
        # order and (x, y, w, a) target order: rows of DF.
        fmap = switch_map(ToyParams())
        _, d = fmap.derivative(
            IntervalVector([Interval(1.0), Interval(0.0), Interval(0.0),
                            Interval(0.0)])
        )
        expected = [
            [0.0, 1.0, 0.0, 1.0],   # d(x')= 2(x-1) dx + dy + da
            [-1.0, 0.0, 0.0, 0.0],  # d(y')= -dx
            [-2.0, 0.0, -1.0, 0.0], # d(w')= -2 dx - dv
            [0.0, 0.0, 0.0, 1.0],   # d(a')= da
        ]
        for i in range(4):
            for j in range(4):
                assert d[i, j].contains(expected[i][j]), (i, j)
                assert d[i, j].width < 1e-14


class TestOnePassImage:
    @pytest.mark.parametrize("grid", [1, 2])
    def test_image_is_the_map_bit_for_bit(self, grid):
        # The covering check's hull image is the value part of the jets.
        chain = build_toy_chain()
        for idx, fmap in enumerate(chain.maps):
            src = chain.sets[idx]
            for zbox in covering_boxes(src, grid):
                box = src.from_normalized(zbox)
                image, _ = fmap.derivative(box)
                assert repr(image) == repr(fmap.apply(box)), idx  # every bit


def cone_link(chain, idx):
    """The cone check of link idx, on the local Jacobian of its covering."""
    cert = check_covering(chain.sets[idx], chain.sets[idx + 1], chain.maps[idx])
    return check_cone_link(cert, chain.forms[idx], chain.forms[idx + 1])


class TestConeSchemes:
    def test_reference_scheme_passes_on_all_linear_links(self):
        chain = build_toy_chain()
        for idx in linear_link_indices(chain):
            cert = cone_link(chain, idx)
            assert cert.rump.positive_definite

    def test_beta_equality_fails(self):
        # beta_{i+1} = beta_i makes the parameter pivot exactly zero.
        chain = build_toy_chain(beta_growth=1.0)
        idx = 0
        with pytest.raises(VerificationInconclusive, match="^cones: "):
            cone_link(chain, idx)

    def test_beta_strictness_is_sharp(self):
        # any strict growth passes, equality fails: exactness of the kernels
        chain_eq = build_toy_chain(beta_growth=1.0)
        chain_up = build_toy_chain(beta_growth=1.0 + 1e-9)
        idx = 1
        with pytest.raises(VerificationInconclusive, match="^cones: "):
            cone_link(chain_eq, idx)
        cert = cone_link(chain_up, idx)
        assert cert.rump.positive_definite

    def test_d_equality_fails_on_end_links(self):
        chain = build_toy_chain(d_growth=1.0)
        idx = chain.k + 1  # first chain-end link
        with pytest.raises(VerificationInconclusive, match="^cones: "):
            cone_link(chain, idx)

    def test_d_drift_reversed_fails(self):
        # growing the parameter coefficient toward the chain end reverses the
        # certifiable strictness and must fail
        chain = build_toy_chain(d_growth=1.0 / 1.05)
        idx = chain.k + 1
        with pytest.raises(VerificationInconclusive, match="^cones: "):
            cone_link(chain, idx)


class TestSwitchBlocks:
    def test_reference_coefficients(self):
        q1, q2 = switch_cone_blocks()
        assert rump_positive_definite(q1).positive_definite
        assert rump_positive_definite(q2).positive_definite

    def test_boundary_gamma(self):
        _, q2 = switch_cone_blocks(gamma=3.0)
        assert not rump_positive_definite(q2).positive_definite


class TestTransversalityDeterminant:
    def test_unit_case(self):
        assert transversality_determinant(1.0, 1.0, 123.456).contains(1.0)

    def test_product_identity_case(self):
        d = transversality_determinant(2.0, 3.0, 7.0)
        assert d.contains(6.0)
        # cofactor-expansion oracle over exact rationals
        m = [
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 2, 0],
            [0, 0, 7, 3],
        ]
        assert Fraction(d.lo) <= frac_det(m) <= Fraction(d.hi)

    def test_degenerate_tangency(self):
        d = transversality_determinant(0.0, 5.0, 1.0)
        assert d.contains(0.0)

    def test_identity_residual_random(self, rng):
        # full 1e3-triple version runs in the acceptance suite
        for _ in range(100):
            ga = rng.uniform(-10, 10)
            gtt = rng.uniform(-10, 10)
            gta = rng.uniform(-100, 100)
            det = transversality_determinant(ga, gtt, gta)
            residual = det - Interval(ga) * Interval(gtt)
            assert residual.contains(0.0)
