"""The maps' closed forms against the jet route, bit for bit.

``henon.henon_family`` and ``toy.switch_evaluator`` evaluate the Henon
maps and the toy's switch map in closed form on ``(lo, hi)`` pairs.  The
oracle is the same maps written as expressions and run on the tests' jets
(``jet_oracle.on_pairs``): at every order, every value, gradient entry and
Hessian row is compared as packed binary64 bits, so signed zeros count, and
an overflow must raise ``IntervalError`` on both routes.  The chart map
calls its evaluator once per ``apply`` or ``derivative`` call, at the order
the jets were seeded with, and the calls of a whole proof are counted.
"""

import random
import struct
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import covering_boxes, evaluator
from jet_oracle import henon_expressions, on_pairs, seed_jets, switch_expression
from tangency import kernels
from tangency.henon import B0, HenonConfig, henon_family, projected_disk_data, run_proof
from tangency.interval import Interval, IntervalError, as_pair, pair_mid
from tangency.linalg import _det
from tangency.projective import ChartMap
from tangency.toy import (
    ToyParams,
    build_toy_chain,
    switch_evaluator,
    switch_transversality,
)

DIRECTIONS = ("forward", "inverse")


def _bits(data):
    """The floats of nested tuples of (lo, hi) pairs, packed: two results
    are equal bit for bit, signed zeros included, iff their packings are."""
    if isinstance(data, float):
        return struct.pack("<d", data)
    return b"(" + b",".join(_bits(d) for d in data) + b")"


def _assert_same(closed, oracle, args):
    """closed(*args, order) is oracle(*args, order) bit for bit at every
    order, or both raise IntervalError."""
    for order in (0, 1, 2):
        try:
            want = oracle(*args, order)
        except IntervalError:
            with pytest.raises(IntervalError):
                closed(*args, order)
            continue
        got = closed(*args, order)
        assert _bits(got) == _bits(want), (args, order)


def _henon_routes(direction, b0=B0):
    """(closed form, jet route) of the Henon map in direction at b0."""
    return (evaluator(henon_family(b0), direction),
            on_pairs(evaluator(henon_expressions(b0), direction), 3, (0, 1)))


def _switch_oracle():
    return on_pairs(switch_expression, 4, (0,))


def _midpoint(box):
    return tuple([(pair_mid(*e),) * 2 for e in box])


class TestHenonChain:
    @pytest.mark.parametrize("grid", [1, 2])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_every_covering_sub_box_and_its_midpoint(self, henon_chain, grid, direction):
        closed, oracle = _henon_routes(direction)
        compared = 0
        with kernels.upward():
            for h in henon_chain.sets:
                for z in covering_boxes(h, grid):
                    box = h.from_normalized(z[0])
                    for x, y, _, a in (box, _midpoint(box)):
                        _assert_same(closed, oracle, (x, y, a))
                    compared += 1
        assert compared == len(henon_chain.sets) * len(covering_boxes(henon_chain.sets[0], grid))

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_disk_boxes_with_their_parameter_interval(self, henon_chain, direction):
        closed, oracle = _henon_routes(direction)
        with kernels.upward():
            for side in ("stable", "unstable"):
                ntilde, _, param, _ = projected_disk_data(henon_chain, side)
                boxes = [ntilde.box()] + [
                    ntilde.from_normalized(z[0])
                    for grid in (1, 2) for z in covering_boxes(ntilde, grid)]
                for x, y, _ in boxes:
                    _assert_same(closed, oracle, (x, y, as_pair(param)))


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -0.3, 1e-300, 3.0])
_FLOATS = st.one_of(_SPECIAL, st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def box_entries(draw):
    """A checked (lo, hi) pair: an exact zero of either sign or a signed-zero
    end, a thin pair, a pair that straddles 0, or any ordered pair."""
    lo, hi = sorted((draw(_FLOATS), draw(_FLOATS)))
    mag = abs(draw(_FLOATS))
    kind = draw(st.sampled_from(
        ["zero", "neg_zero", "signed_zeros", "zero_lo", "zero_hi", "neg_zero_hi",
         "thin", "straddle", "any"]))
    return {
        "zero": (0.0, 0.0),
        "neg_zero": (-0.0, -0.0),
        "signed_zeros": (-0.0, 0.0),
        "zero_lo": (-0.0, mag),
        "zero_hi": (-mag, -0.0),
        "neg_zero_hi": (-mag, 0.0),
        "thin": (lo, lo),
        "straddle": (-mag - 0.25, abs(hi) + 0.5),
        "any": (lo, hi),
    }[kind]


# b0 as the binary64 -0.3, as the one-ulp enclosure of -3/10, and of both signs.
_B0S = [B0, Interval(Fraction(-3, 10)), 0.7, Interval(1.0, 1.5)]


class TestBoxStrategy:
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(x=box_entries(), y=box_entries(), a=box_entries(),
           b0=st.sampled_from(_B0S), direction=st.sampled_from(DIRECTIONS))
    @example(x=(-0.0, -0.0), y=(-0.0, 0.0), a=(0.0, 0.0), b0=B0, direction="forward")
    @example(x=(-0.0, 0.0), y=(-0.0, -0.0), a=(-0.0, -0.0), b0=B0, direction="inverse")
    def test_henon_maps(self, x, y, a, b0, direction):
        closed, oracle = _henon_routes(direction, b0)
        with kernels.upward():
            _assert_same(closed, oracle, (x, y, a))

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(x=box_entries(), y=box_entries(), v=box_entries(), a=box_entries())
    @example(x=(1.0, 1.0), y=(-0.0, -0.0), v=(-0.0, 0.0), a=(-0.0, -0.0))
    @example(x=(-0.0, 2.0), y=(0.0, 0.0), v=(-0.0, -0.0), a=(-1.0, -0.0))
    def test_switch_map(self, x, y, v, a):
        with kernels.upward():
            _assert_same(switch_evaluator, _switch_oracle(), (x, y, v, a))


class TestOverflow:
    """A box whose image overflows raises IntervalError on both routes, at
    every order."""

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_henon_box(self, direction):
        closed, oracle = _henon_routes(direction)
        big = (1e200, 2e200)
        with kernels.upward():
            for order in (0, 1, 2):
                for route in (closed, oracle):
                    with pytest.raises(IntervalError):
                        route(big, big, (1.0, 1.0), order)

    def test_switch_box(self):
        big = (-1e200, 1e200)
        with kernels.upward():
            for order in (0, 1, 2):
                for route in (switch_evaluator, _switch_oracle()):
                    with pytest.raises(IntervalError):
                        route(big, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0), order)


def _seed7_draws(count):
    """The defaults, (lam, mu) = (-3, -0.4), and count draws of
    random.Random(7) over the benchmark toy workload's ranges."""
    rng = random.Random(7)
    return [ToyParams(), ToyParams(lam=-3.0, mu=-0.4)] + [
        ToyParams(lam=rng.uniform(1.5, 4.0), mu=rng.uniform(0.2, 0.6),
                  delta=rng.uniform(0.3, 0.7), eps=rng.uniform(0.005, 0.05))
        for _ in range(count)
    ]


def _jet_transversality(chain):
    """switch_transversality on order-2 jets over (x, a): the jet route."""
    box = chain.sets[chain.k].box()
    jx, ja, jy, jv = seed_jets((box[0], box[3], (0.0, 0.0), (0.0, 0.0)), 2, 2)
    g = switch_expression(jx, jy, jv, ja)[0]
    (g_t, g_a), (g_tt, g_ta) = g.grad_pairs, g.hess_row_pairs(0)
    det = _det(((g_a, g_t), (g_ta, g_tt)))
    return {name: list(pair) for name, pair in (
        ("x", box[0]), ("a", box[3]), ("g_t", g_t), ("g_a", g_a),
        ("g_tt", g_tt), ("g_ta", g_ta), ("det", det))}


class TestSwitchMap:
    def test_switch_link_sub_boxes_and_transversality(self):
        oracle = _switch_oracle()
        draws = _seed7_draws(30)
        with kernels.upward():
            for params in draws:
                chain = build_toy_chain(params)
                src = chain.sets[chain.k]
                for grid in (1, 2):
                    for z in covering_boxes(src, grid):
                        box = src.from_normalized(z[0])
                        for b in (box, _midpoint(box)):
                            _assert_same(switch_evaluator, oracle, b)
                got, want = switch_transversality(chain), _jet_transversality(chain)
                assert list(got) == list(want)
                for name in got:
                    assert _bits(tuple(got[name])) == _bits(tuple(want[name])), (params, name)
        assert len(draws) == 32


class TestEvaluatorCalls:
    """The chart maps of one run_proof() call their evaluators once per
    apply or derivative call, at the order the jets were seeded with: the
    counts by order are the jet route's."""

    @pytest.mark.parametrize("grid, want", [
        (1, {0: 34, 1: 83, 2: 35}),
        (2, {0: 256, 1: 654, 2: 384}),
    ])
    def test_calls_by_order(self, monkeypatch, grid, want):
        counts = {0: 0, 1: 0, 2: 0}
        init = ChartMap.__init__

        def counting_init(self, f):
            def counted(x, y, a, order):
                counts[order] += 1
                return f(x, y, a, order)

            init(self, counted)

        monkeypatch.setattr(ChartMap, "__init__", counting_init)
        run_proof(HenonConfig(grid=grid))
        assert counts == want
