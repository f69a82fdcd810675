"""Analytic model suite: chain construction, cone schemes, transversality."""

import itertools
import random
import struct
from fractions import Fraction

import pytest

from tangency import kernels
from tangency.cones import check_cone_link, rump_positive_definite
from tangency.covering import VerificationInconclusive, check_chain, check_covering
from tangency.hset import QuadraticForm
from tangency.interval import Interval, IntervalError
from linalg_oracle import IntervalMatrix, IntervalVector
from tangency.toy import (
    FLAGS,
    K,
    ToyChain,
    ToyParams,
    build_toy_chain,
    check_toy,
    linear_end_map,
    linear_link_indices,
    linear_start_map,
    switch_cone_blocks,
    switch_map,
    switch_transversality,
)
from conftest import (
    assert_exact_cone_matrix, assert_exact_margins, covering_boxes, exact_point,
    exact_sample_points,
)
from jet_oracle import Jet, on_pairs, switch_expression


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

    @pytest.mark.parametrize("lam, mu", [(1e300, 1e-10), (-1e300, 1e-10), (2.0, 5e-324)])
    def test_non_finite_slope_coefficient_rejected(self, lam, mu):
        # lam/mu overflows: the linear end map's slope coefficient.
        with pytest.raises(IntervalError, match="lam/mu"):
            ToyParams(lam=lam, mu=mu).validate()


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
        assert any("opposite" in f for f in FLAGS)


class TestLinearMaps:
    def test_start_map_values_exact_on_dyadics(self):
        fmap = linear_start_map(ToyParams())
        out = fmap.apply(IntervalVector([0.5, 0.25, 1.0, 0.125]).pairs)
        assert out == ((1.0, 1.0), (0.125, 0.125), (0.25, 0.25), (0.125, 0.125))

    def test_end_map_slope_expansion(self):
        fmap = linear_end_map(ToyParams())
        out = fmap.apply(IntervalVector([0.0, 0.0, 0.25, 0.0]).pairs)
        assert out[2] == (1.0, 1.0)  # (lam/mu) w = 4 * 0.25

    def test_switch_derivative_matches_closed_form(self):
        # Centered at the tangency point, in ambient (x, y, v, a) source
        # order and (x, y, w, a) target order: rows of DF.
        fmap = switch_map()
        d = IntervalMatrix.from_pairs(
            fmap.derivative(IntervalVector([1.0, 0.0, 0.0, 0.0]).pairs)[1])
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
                box = src.from_normalized(zbox[0])
                image, _ = fmap.derivative(box)
                assert repr(image) == repr(fmap.apply(box)), idx  # every bit


class _IntervalRouteMap:
    """The toy maps as they ran on Intervals, kept as the oracle of the
    pair route: the image from Interval values, the image enclosure and the
    Jacobian from order-1 Jet.variable jets, on IntervalVector boxes."""

    def __init__(self, evaluator):
        self._evaluator = evaluator

    def _outputs(self, args, outputs):
        outs = self._evaluator(*args)
        return outs if outputs is None else [outs[k] for k in outputs]

    def apply(self, box, outputs=None):
        return IntervalVector(self._outputs(box.entries, outputs))

    def derivative(self, box, outputs=None):
        jets = [Jet.variable(i, box[i], 4, order=1) for i in range(4)]
        outs = self._outputs(jets, outputs)
        return (IntervalVector.from_pairs([out.value_pair for out in outs]),
                IntervalMatrix.from_pairs([out.grad_pairs for out in outs]))


def _oracle_maps(params):
    """(start, end, switch) on the Interval route: the linear maps written
    out here, the switch map's expression from the tests' oracle module."""
    lam, mu = params.lam, params.mu

    def diagonal(ratio):
        return _IntervalRouteMap(lambda x, y, v, a: (lam * x, mu * y, ratio * v, a))

    return diagonal(mu / lam), diagonal(lam / mu), _IntervalRouteMap(switch_expression)


def _bits(pairs):
    return b"".join(struct.pack("<dd", lo, hi) for lo, hi in pairs)


def _random_entry(rng):
    """A box entry: wide, thin, an exact zero or one with signed zeros."""
    x, y = sorted(rng.uniform(-2.0, 2.0) for _ in range(2))
    return rng.choice([
        (x, y), (x, x), (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (-0.0, abs(y)),
        (-abs(x), -0.0), (0.0, abs(y)), (-abs(x), 0.0), (-x, -x),
    ])


_OUTPUT_SETS = [None] + [
    c for r in range(1, 5) for c in itertools.combinations(range(4), r)
]


class TestPairRouteOracle:
    """The toy maps on pairs against the Interval route they replaced, bit
    for bit: image and Jacobian, every increasing subset of outputs."""

    def test_maps_match_the_interval_route(self, rng):
        for trial in range(40):
            params = ToyParams(
                lam=rng.choice([-1, 1]) * rng.uniform(1.1, 5.0),
                mu=rng.choice([-1, 1]) * rng.uniform(0.05, 0.95),
            )
            maps = (linear_start_map(params), linear_end_map(params), switch_map())
            for fmap, oracle in zip(maps, _oracle_maps(params)):
                for _ in range(5):
                    box = IntervalVector.from_pairs(
                        [_random_entry(rng) for _ in range(4)])
                    for outputs in _OUTPUT_SETS:
                        n = 4 if outputs is None else len(outputs)
                        image = fmap.apply(box.pairs, outputs)
                        value, jac = fmap.derivative(box.pairs, outputs)
                        want_value, want_jac = oracle.derivative(box, outputs)
                        assert len(image) == len(value) == len(jac) == n
                        assert _bits(image) == _bits(value)
                        assert _bits(image) == _bits(oracle.apply(box, outputs).pairs)
                        assert _bits(value) == _bits(want_value.pairs)
                        for row, want in zip(jac, want_jac.pairs):
                            assert _bits(row) == _bits(want), (trial, outputs)

    def test_chain_maps_match_on_the_covering_boxes(self):
        # The boxes check_covering evaluates, at grid 2, on every link.
        params = ToyParams(lam=-3.0, mu=-0.4)
        chain = build_toy_chain(params)
        start, end, switch = _oracle_maps(params)
        oracles = [start] * chain.k + [switch] + [end] * chain.s
        with kernels.upward():
            for idx, (fmap, oracle) in enumerate(zip(chain.maps, oracles)):
                src = chain.sets[idx]
                for zbox in covering_boxes(src, 2):
                    box = src.from_normalized(zbox[0])
                    value, jac = fmap.derivative(box)
                    want_value, want_jac = oracle.derivative(IntervalVector.from_pairs(box))
                    assert _bits(value) == _bits(want_value.pairs), idx
                    assert all(_bits(r) == _bits(w)
                               for r, w in zip(jac, want_jac.pairs)), idx

    def test_non_finite_coefficient_refused_when_the_map_is_built(self):
        params = ToyParams(lam=1e300, mu=1e-10)  # not validated
        linear_start_map(params)  # mu/lam is finite
        with pytest.raises(IntervalError):
            linear_end_map(params)

    @pytest.mark.parametrize("lam", [2.0, -2.5])
    def test_chain_checks_construct_no_interval(self, monkeypatch, lam):
        chain = build_toy_chain(ToyParams(lam=lam))
        made = []
        init = Interval.__init__

        def counted(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(Interval, "__init__", counted)
        with kernels.upward():
            certs = check_chain(list(chain.sets), list(chain.maps), grid=1)
            for idx in linear_link_indices(chain):
                check_cone_link(certs[idx], chain.forms[idx], chain.forms[idx + 1])
        assert made == []


def cone_link(chain, idx, forms=None):
    """The cone check of link idx, on the local Jacobian of its covering,
    with the chain's forms or the (source, target) forms given."""
    cert = check_covering(chain.sets[idx], chain.sets[idx + 1], chain.maps[idx])
    return check_cone_link(cert, *(forms or chain.forms[idx:idx + 2]))


def n_form(beta, gamma=4.0):
    """A chain-start form (1, -gamma, -2, beta) on (x, y, v, a)."""
    return QuadraticForm((1.0, -gamma, -2.0, beta), (0, 3))


def m_form(d, b=1.0):
    """A chain-end form (1, -1, b, -d) on (x, y, w, a)."""
    return QuadraticForm((1.0, -1.0, b, -d), (0, 2))


def with_forms(chain, replaced):
    """chain with the forms at the indices of replaced ({index: form})."""
    forms = tuple(replaced.get(i, q) for i, q in enumerate(chain.forms))
    return ToyChain(chain.sets, forms, chain.maps, chain.k, chain.s)


class TestConeSchemes:
    def test_reference_scheme_passes_on_all_linear_links(self):
        chain = build_toy_chain()
        for idx in linear_link_indices(chain):
            cert = cone_link(chain, idx)
            assert cert.rump.positive_definite

    def test_beta_equality_fails(self):
        # beta_{i+1} = beta_i makes the parameter pivot exactly zero.
        chain = build_toy_chain()
        with pytest.raises(VerificationInconclusive, match="^cones: "):
            cone_link(chain, 0, (n_form(0.25), n_form(0.25)))

    def test_beta_strictness_is_sharp(self):
        # any strict growth passes, equality fails: exactness of the kernels
        chain = build_toy_chain()
        idx = 1
        with pytest.raises(VerificationInconclusive, match="^cones: "):
            cone_link(chain, idx, (n_form(0.25), n_form(0.25)))
        growth = 1.0 + 1e-9
        cert = cone_link(chain, idx, (n_form(0.25 * growth ** (idx - K)),
                                      n_form(0.25 * growth ** (idx + 1 - K))))
        assert cert.rump.positive_definite

    def test_d_equality_fails_on_end_links(self):
        chain = build_toy_chain()
        idx = chain.k + 1  # first chain-end link, M_s => M_(s-1)
        with pytest.raises(VerificationInconclusive, match="^cones: "):
            cone_link(chain, idx, (m_form(0.5), m_form(0.5)))

    def test_d_drift_reversed_fails(self):
        # growing the parameter coefficient toward the chain end reverses the
        # certifiable strictness and must fail
        chain = build_toy_chain()
        idx = chain.k + 1
        with pytest.raises(VerificationInconclusive, match="^cones: "):
            cone_link(chain, idx, (m_form(0.5), m_form(0.5 * (1.0 / 1.05) ** -1)))


class TestSwitchBlocks:
    def test_reference_coefficients(self):
        chain = build_toy_chain()
        q1, q2 = switch_cone_blocks(chain.forms[chain.k], chain.forms[chain.k + 1])
        assert rump_positive_definite(q1).positive_definite
        assert rump_positive_definite(q2).positive_definite

    def test_boundary_gamma(self):
        _, q2 = switch_cone_blocks(n_form(0.25, gamma=3.0), m_form(0.5))
        assert not rump_positive_definite(q2).positive_definite

    def test_default_blocks_bit_for_bit(self):
        chain = build_toy_chain()
        with kernels.upward():
            blocks = switch_cone_blocks(chain.forms[chain.k], chain.forms[chain.k + 1])
        want = (((2.0, 2.0), (2.0, 3.0)), ((0.25, 1.0), (1.0, 5.0)))
        for block, rows in zip(blocks, want):
            assert [_bits(row) for row in block] == [
                _bits((v, v) for v in row) for row in rows]

    def test_inexact_entries_enclose_the_exact_blocks(self):
        # No diagonal entry's exact value is a binary64, so one float per
        # entry, rounded upward or not, cannot hold it.
        q_n = QuadraticForm((0.1, -0.3, -0.1, 0.3), (0, 3))
        q_m = QuadraticForm((0.1, -0.1, 0.3, -0.3), (0, 2))
        (n_x, n_y, n_v, n_a), (m_x, m_y, m_w, m_a) = (
            [Fraction(c) for c in q.coeffs] for q in (q_n, q_m))
        exact = ([[4 * m_w + m_y - n_x, 2 * m_w], [2 * m_w, m_w - n_v]],
                 [[m_x + m_a - n_a, m_x], [m_x, m_x - n_y]])
        with kernels.upward():
            blocks = switch_cone_blocks(q_n, q_m)
        for block, want in zip(blocks, exact):
            for i, (row, want_row) in enumerate(zip(block, want)):
                for (lo, hi), value in zip(row, want_row):
                    assert Fraction(lo) <= value <= Fraction(hi), value
                assert Fraction(float(want_row[i])) != want_row[i]

    def test_blocks_follow_the_chain_forms(self, monkeypatch):
        # check_toy reads the blocks off N_k's and M_s's forms: N_k's a
        # coefficient (beta) moves Q2 alone, M_s's w coefficient (B) Q1
        # alone.  Every other stage still certifies.
        from tangency import toy

        chain = build_toy_chain()
        default = check_toy(ToyParams())[0]["switch_blocks"]
        for replaced, moved in (({chain.k: n_form(0.28125)}, "Q2"),
                                ({chain.k + 1: m_form(0.5, b=2.0)}, "Q1")):
            monkeypatch.setattr(toy, "build_toy_chain",
                                lambda params: with_forms(chain, replaced))
            blocks = check_toy(ToyParams())[0]["switch_blocks"]
            for name, result in blocks.items():
                assert result.positive_definite
                same = result.vertex_margins == default[name].vertex_margins
                assert same is (name != moved), (replaced, name)

    def test_failed_blocks_keep_earlier_stages(self, monkeypatch):
        from tangency import toy

        chain = build_toy_chain()
        monkeypatch.setattr(toy, "build_toy_chain", lambda params: with_forms(
            chain, {chain.k: n_form(0.25, gamma=3.0)}))
        with pytest.raises(VerificationInconclusive) as err:
            check_toy(ToyParams())
        assert err.value.stage == "toy-switch"
        certified = err.value.certified
        assert list(certified) == ["covering", "cones_linear_links", "switch_blocks"]
        assert len(certified["covering"]) == chain.n_links
        assert len(certified["cones_linear_links"]) == len(linear_link_indices(chain))
        assert certified["switch_blocks"]["Q1"].positive_definite
        assert not certified["switch_blocks"]["Q2"].positive_definite


def _seeded_draws(count):
    """The defaults, then count draws of random.Random(7) over the benchmark
    toy workload's ranges."""
    rng = random.Random(7)
    return [ToyParams()] + [
        ToyParams(lam=rng.uniform(1.5, 4.0), mu=rng.uniform(0.2, 0.6),
                  delta=rng.uniform(0.3, 0.7), eps=rng.uniform(0.005, 0.05))
        for _ in range(count)
    ]


class TestSwitchTransversality:
    """The transversality stage against the switch map's closed form: on
    W^u (y = 0) the switch link sends x of N_k at parameter a to
    g = (x - 1)^2 + a, so g_t = 2 (x - 1), g_a = 1, g_tt = 2, g_ta = 0 and
    g_a g_tt - g_t g_ta = 2 at every point."""

    def test_encloses_the_exact_values(self, rng):
        for params in _seeded_draws(30):
            chain = build_toy_chain(params)
            with kernels.upward():
                stage = switch_transversality(chain)
                box = chain.sets[chain.k].box()
            assert (stage["x"], stage["a"]) == (list(box[0]), list(box[3]))
            ends = [tuple(map(Fraction, stage[name])) for name in ("x", "a")]
            for x, _a in exact_sample_points(ends, rng):
                exact = {"g_t": 2 * (x - 1), "g_a": 1, "g_tt": 2, "g_ta": 0}
                exact["det"] = exact["g_a"] * exact["g_tt"] - exact["g_t"] * exact["g_ta"]
                for name, value in exact.items():
                    lo, hi = stage[name]
                    assert Fraction(lo) <= value <= Fraction(hi), (params, name, x)
            assert stage["det"][0] > 0.0

    def test_no_quadratic_term_is_inconclusive(self, monkeypatch):
        from tangency import toy

        def flat(x, y, v, a):
            # switch_evaluator without (x - 1)^2: W^u crosses W^s nowhere
            # quadratically, so g_tt = 0 and the determinant is 0.
            return (y + a, 2.0 - x, -2.0 * (x - 1.0) - v, a)

        monkeypatch.setattr(toy, "switch_evaluator", on_pairs(flat, 4, (0,)))
        with pytest.raises(VerificationInconclusive) as err:
            check_toy(ToyParams())
        assert (err.value.stage, err.value.locus) == ("toy-transversality", "N4")
        certified = err.value.certified
        assert list(certified) == ["covering", "cones_linear_links", "switch_blocks",
                                   "transversality"]
        chain = build_toy_chain()
        assert len(certified["covering"]) == chain.n_links
        assert len(certified["cones_linear_links"]) == len(linear_link_indices(chain))
        assert certified["transversality"]["det"] == [0.0, 0.0]


class TestEndLength:
    def test_cap_ends_inconclusive_at_chain_build(self):
        # 0.99^200 is about 0.13, far above the last entry check's target.
        with pytest.raises(VerificationInconclusive) as err:
            build_toy_chain(ToyParams(mu=0.99))
        assert (err.value.stage, err.value.locus) == ("chain-build", "chain end length")
        assert "s = 200" in err.value.detail
        assert err.value.certified == {}

    @pytest.mark.parametrize("mu", [0.97, -0.97])
    def test_below_the_cap_builds(self, mu):
        chain = build_toy_chain(ToyParams(mu=mu))
        assert chain.s <= 200


def _closed_forms(chain, params):
    """Per link of chain, built from params, the closed form of its map on
    a list of Fractions and of its Jacobian: (x, y, v, a) -> (lam x, mu y,
    c v, a), c being the binary64 mu/lam (start links) or lam/mu (end
    links) the map multiplies by, and the switch ((x - 1)^2 + y + a, 2 - x,
    -2 (x - 1) - v, a)."""
    lam, mu = params.lam, params.mu

    def diagonal(c):
        coefs = (Fraction(lam), Fraction(mu), Fraction(c), 1)
        jacobian = [[coefs[i] if i == j else 0 for j in range(4)] for i in range(4)]
        return (lambda p: [coef * x for coef, x in zip(coefs, p)],
                lambda p: jacobian)

    def switch(p):
        x, y, v, a = p
        return [(x - 1) ** 2 + y + a, 2 - x, -2 * (x - 1) - v, a]

    def switch_jacobian(p):
        return [[2 * (p[0] - 1), 1, 0, 1], [-1, 0, 0, 0], [-2, 0, -1, 0], [0, 0, 0, 1]]

    return ([diagonal(mu / lam)] * chain.k + [(switch, switch_jacobian)]
            + [diagonal(lam / mu)] * chain.s)


def _assert_enclosed(pairs, exact, where):
    for i, ((lo, hi), value) in enumerate(zip(pairs, exact, strict=True)):
        assert Fraction(lo) <= value <= Fraction(hi), (where, i)


class TestExactRationalMargins:
    """The toy coverings' exit and entry margins against exact rationals
    (conftest.assert_exact_margins) on every link at grids 1 and 2, the
    links mapping by _closed_forms."""

    @pytest.mark.parametrize("grid", [1, 2])
    @pytest.mark.parametrize("lam, mu", [(2.0, 0.5), (-3.0, -0.4)])
    def test_margins_hold_at_exact_points(self, grid, lam, mu, rng):
        params = ToyParams(lam=lam, mu=mu, grid=grid)
        chain = build_toy_chain(params)
        coverings = check_toy(params)[0]["covering"]
        images = [image for image, _ in _closed_forms(chain, params)]
        assert len(coverings) == len(images) == chain.n_links
        for link, (cov, image) in enumerate(zip(coverings, images)):
            assert_exact_margins(cov, chain.sets[link], chain.sets[link + 1], image,
                                 grid, rng)


class TestExactRationalConeMatrices:
    """Each linear link's cone certificate against exact rationals: at every
    corner and a few seeded points of the link's source set, the exact
    Jacobian (_closed_forms) gives D^T Q_M D - Q_N in V
    (conftest.assert_exact_cone_matrix; the toy frames are the identity)."""

    @pytest.mark.parametrize("lam, mu", [(2.0, 0.5), (-3.0, -0.4)])
    def test_cone_matrices_hold_at_exact_points(self, lam, mu, rng):
        params = ToyParams(lam=lam, mu=mu)
        chain = build_toy_chain(params)
        cones = check_toy(params)[0]["cones_linear_links"]
        links = linear_link_indices(chain)
        assert len(cones) == len(links) == chain.n_links - 1
        closed = _closed_forms(chain, params)
        identity = [[int(i == j) for j in range(4)] for i in range(4)]
        cube = [(Fraction(-1), Fraction(1))] * 4
        for cone, link in zip(cones, links):
            src = chain.sets[link]
            assert [list(row) for row in src.coord] == identity
            for z in exact_sample_points(cube, rng):
                d = closed[link][1](exact_point(src, z))
                assert_exact_cone_matrix(cone.matrix, d, identity, identity,
                                         chain.forms[link], chain.forms[link + 1],
                                         (cone.link, [str(e) for e in z]))


class TestExactRationalImages:
    """The toy maps' image and Jacobian enclosures, and each covering's
    local_jacobian, against exact rationals.  Every corner and a few seeded
    points of every wall and interior sub-box of every link, at grids 1 and
    2, map by _closed_forms: each lies in apply's and derivative's image of
    the sub-box, and its Jacobian in derivative's Jacobian of the sub-box
    and in the link's local_jacobian.  The toy sets have the identity
    frame, so local_jacobian encloses the Jacobian itself."""

    @pytest.mark.parametrize("grid", [1, 2])
    @pytest.mark.parametrize("lam, mu", [(2.0, 0.5), (-3.0, -0.4)])
    def test_enclosures_hold_at_exact_points(self, grid, lam, mu, rng):
        params = ToyParams(lam=lam, mu=mu, grid=grid)
        chain = build_toy_chain(params)
        coverings = check_toy(params)[0]["covering"]
        closed = _closed_forms(chain, params)
        assert len(coverings) == len(closed) == chain.n_links
        identity = [[int(i == j) for j in range(4)] for i in range(4)]
        for link, (cov, fmap, (image, jacobian)) in enumerate(
                zip(coverings, chain.maps, closed)):
            src = chain.sets[link]
            assert [list(row) for row in src.coord] == identity
            for zbox in covering_boxes(src, grid):
                box = src.from_normalized(zbox[0])
                applied = fmap.apply(box)
                value, jac = fmap.derivative(box)
                ends = [(Fraction(lo), Fraction(hi)) for lo, hi in zbox[0]]
                for z in exact_sample_points(ends, rng):
                    p = exact_point(src, z)
                    where = (cov.source, [str(e) for e in z])
                    _assert_enclosed(applied, image(p), where)
                    _assert_enclosed(value, image(p), where)
                    for rows in (jac, cov.local_jacobian):
                        for row, exact_row in zip(rows, jacobian(p), strict=True):
                            _assert_enclosed(row, exact_row, where)
