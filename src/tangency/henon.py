"""Certification data and proof driver for the Henon family.

Verifies, rigorously in interval arithmetic, that the family
H_a(x, y) = (a - x^2 + b0 y, x) with b0 = -0.3 has, for some parameter in
a0 +- 1e-5 with a0 = 1.3145271093265, a quadratic homoclinic tangency of the
fixed-point manifolds that unfolds generically.  The certificate consists of
a 16-set heteroclinic chain of covering relations for the projectivized
extended map, cone conditions along the chain, and disk parameterizations of
the center-stable/center-unstable manifolds at both chain ends.

The chain centers and frames are regenerated from a reference seed point by
tangent-direction propagation; the box diameters and cone-form coefficients
are fixed tables.
"""

from __future__ import annotations

import decimal
import math

from tangency import kernels as _k
from tangency.cones import check_cone_chain
from tangency.covering import (
    VerificationInconclusive,
    check_chain,
    checked_correspondence,
    run_stages,
)
from tangency.hset import HSet, QuadraticForm, _check_grid
from tangency.interval import Interval, IntervalError, as_pair, check_pairs
from tangency.linalg import norm_upper
from tangency.manifold import verify_disk
from tangency.projective import ChartMap
from tangency.record import Record

A0 = 1.3145271093265
B0 = -0.3
PARAM_RADIUS = 1e-5
# Widest (x, y, w) enclosure of one orbit step that build_chain accepts.
ORBIT_WIDTH_MAX = 1e-9

# Approximate eigenvalues of DH at the fixed point; exact-by-fiat inputs to
# the cone-form tables below (their quality is certified a posteriori).
LAM = 3.858169402
MU = 0.07775708341

SEED_U_COEFF = 0.0001993152279412426
SEED_S_COEFF = 2.50404e-11

# Per-set box half-diameters in units of 1e-5 ambient (parameter column in
# units of the parameter radius): (unstable, stable, tangent, parameter).
DIAM_ROWS = (
    (7.0, 1.0, 2.0, 1.01**8),
    (1.0, 1.0, 2.0, 1.01**7),
    (1.0, 1.0, 2.0, 1.01**6),
    (1.0, 1.0, 2.0, 1.01**5),
    (1.0, 1.0, 2.0, 1.01**4),
    (1.0, 1.0, 2.0, 1.01**3),
    (1.0, 1.0, 2.0, 1.01**2),
    (1.0, 1.0, 2.0, 1.01),
    (1.0, 1.0, 2.0, 1.0),
    (0.5, 1.25, 0.25, 1.01),
    (0.75, 1.25, 0.25, 1.01**2),
    (1.0, 1.25, 0.25, 1.01**3),
    (1.0, 1.25, 0.25, 1.01**4),
    (1.0, 1.25, 0.25, 1.01**5),
    (1.0, 1.25, 0.25, 1.01**6),
    (1.0, 2.0, 0.25, 1.01**7),
)

# Cone-form coefficients per set (unstable, stable, tangent, parameter).
FORM_ROWS = (
    (3.0 / LAM**2, -(MU**2), -((MU / LAM) ** 2), 2.0 * 1.5**-8),
    (1.0 / LAM**2, -0.1, -0.5, 2.0 * 1.5**-7),
    (1.0 / LAM**2, -0.1, -1.0, 2.0 * 1.5**-6),
    (1.0 / LAM**2, -0.1, -1.0, 2.0 * 1.5**-5),
    (1.0 / LAM**2, -0.1, -1.0, 2.0 * 1.5**-4),
    (1.0 / LAM**2, -0.1, -1.0, 2.0 * 1.5**-3),
    (1.0 / LAM**2, -0.1, -1.0, 2.0 * 1.5**-2),
    (1.0 / LAM**2, -0.1, -1.0, 2.0 * 1.5**-1),
    (0.5 / LAM**2, -1.0, -1.0, 2.0),
    (100.0 / LAM**2, -0.1, 100.0 * (MU / LAM) ** 2, -2.0),
    (40.0 / LAM**2, -0.1, (MU / LAM) ** 2, -2.0 * 1.5**-1),
    (10.0 / LAM**2, -0.1, (MU / LAM) ** 2, -2.0 * 1.5**-2),
    (1.0 / LAM**2, -0.1, (MU / LAM) ** 2, -2.0 * 1.5**-3),
    (1.0 / LAM**2, -0.1, (MU / LAM) ** 2, -2.0 * 1.5**-4),
    (1.0 / LAM**2, -0.1, (MU / LAM) ** 2, -2.0 * 1.5**-5),
    (0.3 / LAM**2, -0.1, (MU / LAM) ** 2, -2.0 * 1.5**-6),
)

N_SETS = 16


def _unstable_axes(i):
    # Expanding directions: (u, a) on the way out, (u, t) on the way back.
    return (0, 3) if i <= 8 else (0, 2)


_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)
_ZERO_ROW = (_ZERO, _ZERO, _ZERO)


def henon_family(b0=B0):
    """The Henon family's (forward, inverse) evaluators at b = b0, the maps
    (a - x^2 + b y, x) and (y, (x - a + y^2) / b) in closed form.

    Each is f(x, y, a, order) on checked (lo, hi) pairs and returns, per
    image coordinate, a tuple of its value pair, at order >= 1 its gradient
    over (x, y, a), and at order 2 its Hessian rows over x and over y.  The
    closed forms make the kernel calls that second-order forward-mode
    differentiation of the two expressions makes on operands that depend on
    the box, in the same order, so their bits are that route's, signed
    zeros included, at every order (the tests keep the route as their
    oracle); a kernel call on an exact 0 or 1 whose result is provably
    known is left out (2x times a unit gradient is 2x, times a zero one 0).
    b is as_pair(b0), so b0 may also be an Interval; it must exclude 0.
    The entries that do not depend on the box, 1/b, -1/b and 2/b among
    them, are enclosed here, once, in an upward block.  Each evaluator
    checks the pairs it computes before it returns them; the box's pairs
    are checked by whoever built the box.
    """
    b = as_pair(b0)
    if b[0] <= 0.0 <= b[1]:
        raise IntervalError("b0 must be nonzero for invertibility")
    imul, iadd, isub, idiv, isqr = _k.imul, _k.iadd, _k.isub, _k.idiv, _k.isqr
    with _k.upward():
        inv_b, neg_inv_b, two_inv_b = check_pairs(
            (idiv(_ONE, b), idiv((-1.0, -1.0), b), idiv((2.0, 2.0), b)))
    zero_rows = (_ZERO_ROW, _ZERO_ROW)
    forward_rows = ((((-2.0, -2.0), _ZERO, _ZERO), _ZERO_ROW), zero_rows)
    inverse_rows = (zero_rows, (_ZERO_ROW, (_ZERO, two_inv_b, _ZERO)))
    forward_grads = (_ONE, _ZERO, _ZERO)
    inverse_grads = (_ZERO, _ONE, _ZERO)

    def forward(x, y, a, order):
        if not order:
            value = iadd(isub(a, isqr(x)), imul(y, b))
            return (check_pairs((value,))[0],), (x,)
        two_x = imul((2.0, 2.0), x)
        diff = isub(a, isqr(x))
        d_x = isub(_ZERO, two_x)
        value, d_x = check_pairs((iadd(diff, imul(y, b)), d_x))
        outs = (value, (d_x, b, _ONE)), (x, forward_grads)
        if order == 2:
            return tuple([out + (rows,) for out, rows in zip(outs, forward_rows)])
        return outs

    def inverse(x, y, a, order):
        if not order:
            value = idiv(iadd(isub(x, a), isqr(y)), b)
            return (y,), (check_pairs((value,))[0],)
        diff = isub(x, a)
        two_y = imul((2.0, 2.0), y)
        value = idiv(iadd(diff, isqr(y)), b)
        value, d_y = check_pairs((value, idiv(two_y, b)))
        outs = (y, inverse_grads), (value, (inv_b, d_y, neg_inv_b))
        if order == 2:
            return tuple([out + (rows,) for out, rows in zip(outs, inverse_rows)])
        return outs

    return forward, inverse


def fixed_point():
    """Enclosure of the fixed point x = y = (b - sqrt((b-1)^2 + 4a) - 1)/2
    at a = A0, b = B0."""
    a = Interval(A0)
    b = Interval(B0)
    root = ((b - 1.0).sqr() + 4.0 * a).sqrt()
    x = (b - root - 1.0) * 0.5
    return x, x


def eigen_data():
    """Rigorous eigen-system of DH_{a0} at the fixed point.

    Returns a dict with interval eigenvalues lam/mu, interval unit
    eigenvectors u0/s0 as tuples of Intervals (the s0 sign matches the
    reference seed convention: second component negative), and their float
    midpoints.
    """
    with _k.upward():
        x0, _ = fixed_point()
        disc = (x0.sqr() + B0).sqrt()
        lam = -x0 + disc
        mu = -x0 - disc
        # Unstable direction (lam, 1)/|.|, stable -(mu, 1)/|.|
        un = (lam.sqr() + 1.0).sqrt()
        u0 = (lam / un, Interval(1.0) / un)
        sn = (mu.sqr() + 1.0).sqrt()
        s0 = (-(mu / sn), -(Interval(1.0) / sn))
    return {
        "x0": x0,
        "lam": lam,
        "mu": mu,
        "u0": u0,
        "s0": s0,
        "u0_mid": (u0[0].mid, u0[1].mid),
        "s0_mid": (s0[0].mid, s0[1].mid),
    }


# -- float-level helpers for the frame/center propagation -------------------


def _dh(z):
    return ((-2.0 * z[0], B0), (1.0, 0.0))


def _unit(v):
    """v / |v|, signed so that its second component (if zero, its first) is
    positive."""
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        raise IntervalError("zero direction vector")
    out = (v[0] / n, v[1] / n)
    if out[1] < 0.0 or (out[1] == 0.0 and out[0] < 0.0):
        out = (-out[0], -out[1])
    return out


def _mat_vec2(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _solve2(m, v):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0.0:
        raise IntervalError("singular 2x2 system in direction pullback")
    return (
        (m[1][1] * v[0] - m[0][1] * v[1]) / det,
        (-m[1][0] * v[0] + m[0][0] * v[1]) / det,
    )


def _slope_of(v):
    """The chart slope v_x / v_y of the direction v."""
    vx, vy = v
    if vy == 0.0:
        raise IntervalError("direction on the excluded chart point")
    return vx / vy


def _tangent_vec(w):
    """The unit direction of slope w, with positive second component."""
    return _unit((w, 1.0))


def _frame_tangent(w):
    """The frame's tangent-column entry -(1 + w^2) at a center slope w:
    dw/dt of w = cot t, so that, to first order at the center, the local
    tangent coordinate is the angle t - t_c, the unit that the diameter and
    cone-form tables are written in."""
    return -(1.0 + w * w)


class HenonChain(Record):
    __slots__ = ("sets", "forms")

    def __init__(self, sets, forms):
        self._set(sets, forms)


def build_chain(param_radius=PARAM_RADIUS):
    """Construct the 16 h-sets and cone forms of the heteroclinic chain.

    Centers c_2..c_14 are the binary64 roundings of the seed orbit and its
    tangent direction under the projectivized map, computed in decimal at
    _DIGITS digits (see _highprec_orbit for why binary64 center generation
    cannot work here); frames follow the reference propagation rules, in
    round-to-nearest.  The rigorous one-step chart enclosure of every center
    c_1..c_14 is checked, in a kernels.upward() block, and dropped: one
    wider than ORBIT_WIDTH_MAX in x, y or w aborts the build.  float() of a
    Decimal parses a string, so the centers are converted before that block.
    """
    eig = eigen_data()
    x0m = eig["x0"].mid
    z0 = (x0m, x0m)
    u0 = eig["u0_mid"]
    s0 = eig["s0_mid"]

    chart = ChartMap(henon_family()[0])

    w_u = _slope_of(u0)
    w_s = _slope_of(s0)

    centers4 = [None] * N_SETS
    centers4[0] = (z0[0], z0[1], w_u, A0)
    centers4[15] = (z0[0], z0[1], w_s, A0)
    orbit_hp = _highprec_orbit(13)
    for i in range(1, 15):
        zx, zy, vx, vy = orbit_hp[i - 1]
        w_i = _slope_of((float(vx), float(vy)))
        centers4[i] = (float(zx), float(zy), w_i, A0)

    with _k.upward():
        for i in range(1, 15):
            img = chart.apply(tuple([as_pair(c) for c in centers4[i]]))
            width = max(_k.sub_up(hi, lo) for lo, hi in img[:3])
            if width > ORBIT_WIDTH_MAX:
                raise VerificationInconclusive(
                    "chain-build",
                    f"orbit step {i}",
                    f"enclosure width {width} exceeds {ORBIT_WIDTH_MAX}",
                )

    z_pts = [(c[0], c[1]) for c in centers4[1:15]]
    z_pts.append(z0)  # z_15 = z_0

    # Frame columns u_i, s_i per the propagation rules.
    u_vecs = [None] * N_SETS
    s_vecs = [None] * N_SETS
    u_vecs[0] = u_vecs[1] = u_vecs[15] = u0
    s_vecs[0] = s_vecs[1] = s_vecs[15] = s0
    tangent = [None] * N_SETS
    for i in range(1, 15):
        tangent[i] = _tangent_vec(centers4[i][2])
    tangent[15] = _tangent_vec(w_s)

    for i in range(2, 9):
        u_vecs[i] = tangent[i]
    for i in range(9, 15):
        s_vecs[i] = tangent[i]

    def z_at(i):
        return z_pts[i - 1]

    # s_i for 2..8: pull the orthogonal of the next tangent back through PH.
    for i in range(2, 9):
        w = tangent[i + 1]
        perp = (-w[1], w[0])
        s_vecs[i] = _unit(_solve2(_dh(z_at(i)), perp))

    # u_i for 9..14: push the stable direction forward through PH.
    u_vecs[9] = _unit(_mat_vec2(_dh(z_at(8)), s_vecs[8]))
    for i in range(9, 14):
        u_vecs[i + 1] = _unit(_mat_vec2(_dh(z_at(i)), u_vecs[i]))

    frames = []
    for i in range(N_SETS):
        u, s = u_vecs[i], s_vecs[i]
        frames.append(
            (
                (u[0], s[0], 0.0, 0.0),
                (u[1], s[1], 0.0, 0.0),
                (0.0, 0.0, _frame_tangent(centers4[i][2]), 0.0),
                (0.0, 0.0, 0.0, 1.0),
            )
        )

    scale = 1e-5
    sets = []
    forms = []
    for i in range(N_SETS):
        d = DIAM_ROWS[i]
        diam = (d[0] * scale, d[1] * scale, d[2] * scale, d[3] * param_radius)
        sets.append(
            HSet(f"N{i}", centers4[i], frames[i], diam, _unstable_axes(i))
        )
        forms.append(QuadraticForm(FORM_ROWS[i], _unstable_axes(i)))

    return HenonChain(sets=tuple(sets), forms=tuple(forms))


def projected_disk_data(chain, side):
    """3D projected h-set, 3D form, parameter pair and 4D-form parameter
    coefficient for one disk side ("stable" at N15, "unstable" at N0): the
    set's center, frame and diameters on (x, y, w), and its outward
    parameter entry, the (lo, hi) pair of its box."""
    if side == "stable":
        idx = 15
        unstable3 = (0, 2)
        coeffs3 = FORM_ROWS[15][:3]
    elif side == "unstable":
        idx = 0
        unstable3 = (1, 2)
        coeffs3 = tuple(-c for c in FORM_ROWS[0][:3])
    else:
        raise IntervalError(f"unknown disk side {side!r}")
    big = chain.sets[idx]
    frame3 = [row[:3] for row in big.coord[:3]]
    ntilde = HSet(f"Ntilde{idx}", big.center[:3], frame3, big.diam[:3], unstable3)
    qtilde = QuadraticForm(coeffs3, unstable3)
    with _k.upward():
        param = big.box()[3]
    return ntilde, qtilde, param, abs(FORM_ROWS[idx][3])


class HenonConfig(Record):
    """The settable values of run_proof, FIELDS, which a --config file may
    set; correspondences maps a link index to [[src_axis, tgt_axis, sign],
    ...], overriding detection.  Unlike the other records, a config is
    mutable and so unhashable."""

    __slots__ = FIELDS = ("param_radius", "grid", "correspondences")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, param_radius=PARAM_RADIUS, grid=1, correspondences=None):
        self._set(param_radius, grid, correspondences)

    def validate(self):
        """Raise ValueError unless every field has its type and range."""
        if type(self.param_radius) not in (int, float) or not (
            0.0 < self.param_radius <= 1e-2
        ):
            raise ValueError("param_radius must be a number in (0, 1e-2]")
        _check_grid(self.grid)
        if self.correspondences is not None:
            if not isinstance(self.correspondences, dict):
                raise ValueError("correspondences must map link indices to pairings")
            for link, pairing in self.correspondences.items():
                if type(link) is not int or link not in range(N_SETS - 1):
                    raise ValueError(f"link index {link!r} not in 0..{N_SETS - 2}")
                checked_correspondence(
                    _unstable_axes(link), _unstable_axes(link + 1), pairing
                )
        return self


def run_proof(config=None):
    """The full certification: (certificates by report stage, timings,
    the VERIFIED report's further keys: conclusion, hsets, forms).  The
    chain, the chart maps and the disks' projected sets are built to
    nearest; then covering.run_stages runs the covering, cone and disk
    stages (both disks timed as "disks") and raises on the first
    inconclusive one."""
    config = (config or HenonConfig()).validate()

    def build():
        chain = build_chain(param_radius=config.param_radius)
        chart, inv_chart = map(ChartMap, henon_family())

        def disk(side, cmap):
            ntilde, qtilde, param, p_coeff = projected_disk_data(chain, side)
            return (f"{side}_disk", "disks", "manifold", f"{side} disk in {ntilde.name}",
                    lambda done: verify_disk(side, ntilde, qtilde, cmap, param, p_coeff,
                                             config.grid))

        return chain, [
            ("covering", "covering", "covering", "chain", lambda done: check_chain(
                list(chain.sets), [chart] * (N_SETS - 1),
                grid=config.grid, correspondences=config.correspondences)),
            ("cones", "cones", "cones", "chain",
             lambda done: check_cone_chain(list(chain.forms), done["covering"])),
            disk("stable", chart), disk("unstable", inv_chart)]

    chain, certified, timings = run_stages(build)
    conclusion = {
        "family": "henon",
        "a_center": A0,
        "a_radius": config.param_radius,
        "b": B0,
        "fixed_point_formula": "x = y = (b - sqrt((b-1)^2 + 4a) - 1)/2",
        "statement": (
            "quadratic homoclinic tangency unfolding generically verified "
            f"for a in {A0} +- {config.param_radius:g}, b = {B0}"
        ),
        "requires": [
            "covering-chain",
            "cone-chain",
            "stable-disk",
            "unstable-disk",
        ],
    }
    return certified, timings, {"conclusion": conclusion, "hsets": chain.sets,
                                "forms": chain.forms}


# -- seed-quality evaluations -------------------------------------------------


def seed_quality():
    """Rigorous norms ||H^-1(z1) - z0|| and ||H^14(z1) - z0||."""
    chain_eig = eigen_data()
    x0 = chain_eig["x0"]
    u0 = chain_eig["u0_mid"]
    s0 = chain_eig["s0_mid"]
    z1x = x0.mid + SEED_U_COEFF * u0[0] + SEED_S_COEFF * s0[0]
    z1y = x0.mid + SEED_U_COEFF * u0[1] + SEED_S_COEFF * s0[1]
    forward, inverse = henon_family()
    a = as_pair(A0)

    (bx,), (by,) = inverse(as_pair(z1x), as_pair(z1y), a, 0)
    back = norm_upper([as_pair(Interval(*bx) - x0), as_pair(Interval(*by) - x0)])

    fx, fy = as_pair(z1x), as_pair(z1y)
    for _ in range(14):
        (fx,), (fy,) = forward(fx, fy, a, 0)
    forw = norm_upper([as_pair(Interval(*fx) - x0), as_pair(Interval(*fy) - x0)])
    return back, forw


# -- the seed orbit in extended precision -------------------------------------
#
# Search data, not certificate data: build_chain takes only the binary64
# rounding of each orbit entry, and tangent_alignment is a diagnostic, so
# plain decimal arithmetic at _DIGITS significant digits suffices.

_DIGITS = 80


def _digits_context():
    """A fresh round-half-even context of _DIGITS digits, so the caller's
    decimal context cannot change the orbit."""
    return decimal.localcontext(
        decimal.Context(prec=_DIGITS, rounding=decimal.ROUND_HALF_EVEN)
    )


def _highprec_seed_data():
    """The seed constants and point as Decimals, in the current context.

    Returns (a0, b0, u0, s0, z1): the exact decimals of A0, B0, the unit
    eigenvectors (s0 with the reference sign, second component negative)
    and the reference homoclinic seed z1 built from SEED_U_COEFF and
    SEED_S_COEFF.
    """
    a0, b0, cu, cs = (
        decimal.Decimal(repr(c)) for c in (A0, B0, SEED_U_COEFF, SEED_S_COEFF)
    )
    # x0 = (b - sqrt((b-1)^2 + 4a) - 1)/2, lam/mu = -x0 +- sqrt(x0^2 + b)
    x0 = (b0 - ((b0 - 1) * (b0 - 1) + 4 * a0).sqrt() - 1) / 2
    disc = (x0 * x0 + b0).sqrt()
    lam = disc - x0
    mu = -x0 - disc
    un = (lam * lam + 1).sqrt()
    u0 = (lam / un, 1 / un)
    sn = (mu * mu + 1).sqrt()
    s0 = (-mu / sn, -1 / sn)
    z1 = (x0 + cu * u0[0] + cs * s0[0], x0 + cu * u0[1] + cs * s0[1])
    return a0, b0, u0, s0, z1


def _highprec_orbit(steps=14):
    """Positions and tangent directions of the seed orbit at _DIGITS digits.

    Returns a list of (zx, zy, vx, vy) Decimal tuples for orbit indices
    1..steps+1 (index 1 is the seed with direction u0).  The arrival
    direction is hypersensitive to the seed representation (the per-step
    angle derivative det DH / ||DH v||^2 spikes where the tangent crosses
    the contracted axis, net amplification ~1e10), so binary64 propagation
    -- or binary64-rounded seeds -- would land the final tangent thousands
    of target-set widths away; the exact decimal seed at extended precision
    is what the reference chain data corresponds to.
    """
    with _digits_context():
        a0, b0, u0, _, z1 = _highprec_seed_data()
        zx, zy = z1
        vx, vy = u0
        out = [(zx, zy, vx, vy)]
        for _ in range(steps):
            vx, vy = -2 * zx * vx + b0 * vy, vx
            zx, zy = a0 - zx * zx + b0 * zy, zx
            out.append((zx, zy, vx, vy))
    return out


def tangent_alignment():
    """Eigenbasis components of the 14-step image of the unstable direction.

    Evaluates M^-1 pi_t(PH^14(z1, [u0])), M = [u0, s0], for the exact seed
    at _DIGITS digits, normalised by |pi_t|.  Returns the floats (u, s), with
    the sign fixed so the s-component is positive.
    """
    _, _, vx, vy = _highprec_orbit(14)[-1]
    with _digits_context():
        _, _, u0, s0, _ = _highprec_seed_data()
        scale = (u0[0] * s0[1] - u0[1] * s0[0]) * (vx * vx + vy * vy).sqrt()
        u = (s0[1] * vx - s0[0] * vy) / scale
        s = (u0[0] * vy - u0[1] * vx) / scale
        if s < 0:
            u, s = -u, -s
    return float(u), float(s)
