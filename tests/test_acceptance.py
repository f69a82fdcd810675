"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success; a failure reads as the usual
pytest assertion with the criterion number in the test name.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from tangency.cones import check_cone_link, rump_positive_definite
from tangency.covering import VerificationInconclusive, check_chain, check_covering
from tangency.hset import QuadraticForm
from tangency.interval import Interval, IntervalError
from tangency.toy import (
    ToyParams,
    build_toy_chain,
    check_toy,
    linear_link_indices,
    switch_cone_blocks,
)
from conftest import contains_fraction, random_float
from jet_oracle import Jet

STABLE_A = 0.099394300936541294
STABLE_M = 0.084042214456891598
STABLE_L = 0.0070394636406844067
UNSTABLE_A = 0.1877584261322994
UNSTABLE_M = 0.2795983187542756
UNSTABLE_L = 0.015049353557694945


def _report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_covering_chain_reproduction(henon_proof):
    cert, elapsed = henon_proof
    assert len(cert.coverings) == 15
    for c in cert.coverings:
        assert c.grid == 1
        assert c.min_exit_margin() > 0.0
        assert c.entry_margin > 0.0
    assert elapsed <= 10.0
    _report(
        f"1 PASS: 15/15 covering relations certified with grid 1 "
        f"in {elapsed:.2f} s (<= 10 s)"
    )


def test_criterion_2_cone_chain_reproduction(henon_proof):
    cert, _ = henon_proof
    assert len(cert.cones) == 15
    worst = None
    for c in cert.cones:
        assert c.rump.positive_definite
        assert len(c.rump.vertex_margins) == 8
        for _z, pivot in c.rump.vertex_margins:
            assert pivot is not None and pivot > 0.0
        m = c.rump.min_margin()
        worst = m if worst is None else min(worst, m)
    _report(
        f"2 PASS: 15/15 cone matrices positive definite via 8 vertex "
        f"Cholesky factorizations each (smallest certified pivot {worst:.3g})"
    )


def test_criterion_3_stable_manifold_constants(henon_proof):
    cert, _ = henon_proof
    c = cert.stable_disk.constants
    assert c.a_lower >= 0.9 * STABLE_A
    assert c.m_upper <= 1.2 * STABLE_M
    assert c.l_upper <= 1.5 * STABLE_L
    assert c.gamma > 0.0 and c.gamma_check > 0.0
    assert cert.stable_disk.param_coefficient == 2.0 * 1.5**-6
    assert cert.stable_disk.comparison_lower > 1.0
    _report(
        "3 PASS: stable side A >= %.12g, M <= %.12g, L <= %.12g, "
        "Gamma = %.6g, 2(1.5)^-6 delta >= %.6g > 1"
        % (c.a_lower, c.m_upper, c.l_upper, c.gamma,
           cert.stable_disk.comparison_lower)
    )


def test_criterion_4_unstable_manifold_constants(henon_proof):
    cert, _ = henon_proof
    c = cert.unstable_disk.constants
    assert c.a_lower >= 0.9 * UNSTABLE_A
    assert c.m_upper <= 1.2 * UNSTABLE_M
    assert c.l_upper <= 1.5 * UNSTABLE_L
    assert c.gamma > 0.0 and c.gamma_check > 0.0
    assert cert.unstable_disk.param_coefficient == 2.0 * 1.5**-8
    assert cert.unstable_disk.comparison_lower > 1.0
    _report(
        "4 PASS: unstable side A >= %.12g, M <= %.12g, L <= %.12g, "
        "Gamma = %.6g, 2(1.5)^-8 delta >= %.6g > 1"
        % (c.a_lower, c.m_upper, c.l_upper, c.gamma,
           cert.unstable_disk.comparison_lower)
    )


def test_criterion_5_seed_quality_bounds():
    from tangency.henon import seed_quality

    back, forward = seed_quality()
    assert back <= 5.2e-5
    assert forward <= 1.2e-5
    _report(
        f"5 PASS: ||H^-1(z1) - z0|| <= {back:.6g} (<= 5.2e-5), "
        f"||H^14(z1) - z0|| <= {forward:.6g} (<= 1.2e-5)"
    )


def test_criterion_6_toy_oracle_suite():
    # (a) the full chain certifies
    chain = build_toy_chain()
    certs = check_chain(list(chain.sets), list(chain.maps), grid=1)
    assert len(certs) == chain.n_links

    # (b) cone certificates pass exactly for strictly drifting coefficient
    # schemes and fail at equality, on both chain halves: the chain's forms,
    # then each link's target form set equal to its source form (a chain
    # half's forms differ only in their a coefficient)
    def cone_outcome(idx, q_src, q_tgt):
        cert = check_covering(chain.sets[idx], chain.sets[idx + 1], chain.maps[idx])
        try:
            check_cone_link(cert, q_src, q_tgt)
            return True
        except VerificationInconclusive:
            return False

    start_idx, end_idx = 0, chain.k + 1
    for idx in (start_idx, end_idx):
        assert cone_outcome(idx, chain.forms[idx], chain.forms[idx + 1]) is True
        assert cone_outcome(idx, chain.forms[idx], chain.forms[idx]) is False
    for idx in linear_link_indices(chain):
        check_cone_link(certs[idx], chain.forms[idx], chain.forms[idx + 1])

    # (c) the switch blocks of N_k's and M_s's forms, at
    # (alpha, beta, gamma, delta) = (1, 1/4, 4, 2), and with gamma = 3
    q_n, q_m = chain.forms[chain.k], chain.forms[chain.k + 1]
    assert q_n.coeffs == (1.0, -4.0, -2.0, 0.25)
    q1, q2 = switch_cone_blocks(q_n, q_m)
    assert rump_positive_definite(q1).positive_definite
    assert rump_positive_definite(q2).positive_definite
    _, q2_bad = switch_cone_blocks(QuadraticForm((1.0, -3.0, -2.0, 0.25), (0, 3)), q_m)
    assert not rump_positive_definite(q2_bad).positive_definite
    _report(
        f"6 PASS: toy chain of {chain.n_links} coverings certified; cone "
        "schemes pass iff coefficient drift is strict; switch blocks "
        "positive definite at (1, 1/4, 4, 2) and fail at gamma = 3"
    )


def test_criterion_7_switch_map_transversality():
    # The determinant g_a g_tt - g_t g_ta of check-toy's transversality
    # stage, read off the switch map's order-2 jets over N_k's (x, a) box,
    # is 2 on the toy: it encloses 2 and excludes 0 at the defaults, at
    # grid 2, at (lam, mu) = (-3, -0.4) and on 30 seeded draws of the
    # benchmark's parameter ranges.
    rng = random.Random(7)
    runs = [(ToyParams(), 1), (ToyParams(), 2), (ToyParams(lam=-3.0, mu=-0.4), 1)]
    runs += [(ToyParams(lam=rng.uniform(1.5, 4.0), mu=rng.uniform(0.2, 0.6),
                        delta=rng.uniform(0.3, 0.7), eps=rng.uniform(0.005, 0.05)), 1)
             for _ in range(30)]
    for params, grid in runs:
        lo, hi = check_toy(params, grid)[0]["transversality"]["det"]
        assert 0.0 < lo <= 2.0 <= hi, (params, grid)
    _report(
        f"7 PASS: switch-map transversality determinant encloses 2 and "
        f"excludes 0 on {len(runs)} check-toy runs"
    )


def test_criterion_8a_interval_point_soundness():
    rng = random.Random(987654)
    violations = 0
    checked = 0
    for _ in range(100_000):
        a, b = random_float(rng), random_float(rng)
        x, y = Interval(a), Interval(b)
        fa, fb = Fraction(a), Fraction(b)
        try:
            pairs = [
                (x + y, fa + fb),
                (x - y, fa - fb),
                (x * y, fa * fb),
            ]
            if b != 0.0:
                pairs.append((x / y, fa / fb))
        except IntervalError:
            continue  # loud overflow
        for enc, exact in pairs:
            checked += 1
            if not contains_fraction(enc, exact):
                violations += 1
    assert checked >= 100_000
    assert violations == 0
    _report(
        f"8a PASS: point soundness on {checked} rational-checked operations, "
        "0 violations"
    )


def test_criterion_8b_inclusion_monotonicity():
    rng = random.Random(555)
    checked = 0
    for _ in range(20_000):
        lo = random_float(rng, 100)
        hi = lo + abs(random_float(rng, 2))
        big_x = Interval(min(lo, hi), max(lo, hi))
        lo2 = random_float(rng, 100)
        hi2 = lo2 + abs(random_float(rng, 2))
        big_y = Interval(min(lo2, hi2), max(lo2, hi2))
        w = rng.random() * 0.5
        small_x = Interval(
            big_x.lo + w * (big_x.hi - big_x.lo),
            big_x.hi - w * 0.5 * (big_x.hi - big_x.lo),
        )
        small_y = Interval(
            big_y.lo + w * 0.5 * (big_y.hi - big_y.lo),
            big_y.hi - w * (big_y.hi - big_y.lo),
        )
        try:
            pairs = [
                ((small_x + small_y), (big_x + big_y)),
                ((small_x - small_y), (big_x - big_y)),
                ((small_x * small_y), (big_x * big_y)),
                (small_x.sqr(), big_x.sqr()),
            ]
            if not big_y.contains_zero():
                pairs.append((small_x / small_y, big_x / big_y))
        except IntervalError:
            continue
        for small, big in pairs:
            checked += 1
            assert small.is_subset(big)
    assert checked > 50_000
    _report(
        f"8b PASS: inclusion monotonicity on {checked} nested-interval checks"
    )


def test_criterion_8c_jet_finite_difference_corpus():
    from test_jets import CORPUS, _central_grad_hess

    rng = random.Random(13579)
    h = 1e-5
    count = 0
    for fn, xdom, ydom in CORPUS:
        x0 = rng.uniform(xdom[0] + 0.2, xdom[1] - 0.2)
        y0 = rng.uniform(ydom[0] + 0.2, ydom[1] - 0.2)
        eps = 2 * h
        xj = Jet.variable(0, Interval(x0 - eps, x0 + eps), 2)
        yj = Jet.variable(1, Interval(y0 - eps, y0 + eps), 2)
        out = fn(xj, yj)
        grad_fd, hess_fd = _central_grad_hess(fn, x0, y0, h)
        for i in range(2):
            assert out.grad[i].lo - 1e-7 <= grad_fd[i] <= out.grad[i].hi + 1e-7
            for j in range(2):
                assert (
                    out.hess[i][j].lo - 1e-4
                    <= hess_fd[i][j]
                    <= out.hess[i][j].hi + 1e-4
                )
        count += 1
    assert count == 50
    _report(
        "8c PASS: jet gradients/Hessians contain central finite differences "
        "on the 50-expression corpus"
    )


def test_criterion_8d_rump_vs_eigenvalue_oracle():
    rng = random.Random(24680)
    from itertools import product

    confirmed_true = 0
    confirmed_false = 0
    for _ in range(1000):
        n = rng.choice([2, 3])
        c = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                c[i][j] = c[j][i]
            c[i][i] += rng.uniform(0.0, 2.5 * n)
        r = [[rng.uniform(0.0, 0.4) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                r[i][j] = r[j][i]
        rows = [
            [Interval(c[i][j] - r[i][j], c[i][j] + r[i][j]) for j in range(n)]
            for i in range(n)
        ]
        res = rump_positive_definite([[(e.lo, e.hi) for e in row] for row in rows])
        vertex_eigs = []
        for tail in product((1, -1), repeat=n - 1):
            z = (1,) + tail
            v = np.array(
                [
                    [c[i][j] - z[i] * z[j] * r[i][j] for j in range(n)]
                    for i in range(n)
                ]
            )
            vertex_eigs.append(np.linalg.eigvalsh(v).min())
        if res.positive_definite:
            # no certified-true case with a sampled counterexample
            assert all(e > 0.0 for e in vertex_eigs)
            # dense sampling of point matrices inside the enclosure
            for _ in range(10):
                pt = np.array(
                    [
                        [
                            c[i][j] + rng.uniform(-1, 1) * r[i][j]
                            for j in range(n)
                        ]
                        for i in range(n)
                    ]
                )
                pt = 0.5 * (pt + pt.T)
                assert np.linalg.eigvalsh(pt).min() > 0.0
            confirmed_true += 1
        else:
            # inconclusive verdicts coincide with a (near-)indefinite vertex
            assert min(vertex_eigs) < 1e-8
            confirmed_false += 1
    assert confirmed_true > 0 and confirmed_false > 0
    _report(
        f"8d PASS: Rump reduction agreed with the eigenvalue oracle on 1000 "
        f"random symmetric interval matrices ({confirmed_true} certified, "
        f"{confirmed_false} inconclusive)"
    )
