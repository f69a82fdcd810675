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

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from tangency import kernels as _k
from tangency.cones import check_cone_chain
from tangency.covering import (
    VerificationInconclusive,
    check_chain,
    checked_correspondence,
)
from tangency.hset import HSet, QuadraticForm
from tangency.interval import Interval, IntervalError
from tangency.linalg import IntervalVector
from tangency.manifold import verify_disk
from tangency.projective import ChartMap, PlanarMapFamily

A0 = 1.3145271093265
B0 = -0.3
PARAM_RADIUS = 1e-5
# Widest (x, y, t) enclosure of one orbit step that build_chain accepts.
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


def henon_family(b0=B0):
    """The Henon family as jet/interval evaluators (b is frozen)."""
    if b0 == 0.0:
        raise IntervalError("b0 must be nonzero for invertibility")

    def forward(x, y, a):
        return a - x.sqr() + b0 * y, x

    def inverse(x, y, a):
        return y, (x - a + y.sqr()) / b0

    return PlanarMapFamily(name="henon", forward=forward, inverse=inverse)


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
    eigenvectors u0/s0 (the s0 sign matches the reference seed convention:
    second component negative), and their float midpoints.
    """
    with _k.upward():
        x0, _ = fixed_point()
        disc = (x0.sqr() + B0).sqrt()
        lam = -x0 + disc
        mu = -x0 - disc
        # Unstable direction (lam, 1)/|.|, stable -(mu, 1)/|.|
        un = (lam.sqr() + 1.0).sqrt()
        u0 = IntervalVector([lam / un, Interval(1.0) / un])
        sn = (mu.sqr() + 1.0).sqrt()
        s0 = IntervalVector([-(mu / sn), -(Interval(1.0) / sn)])
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


def _angle_of(v):
    vx, vy = v
    if vy < 0.0 or (vy == 0.0 and vx < 0.0):
        vx, vy = -vx, -vy
    if vy == 0.0:
        raise IntervalError("direction on the excluded chart point")
    return math.atan2(vy, vx)


def _tangent_vec(t):
    return (math.cos(t), math.sin(t))


@dataclass(frozen=True)
class HenonChain:
    sets: tuple
    forms: tuple
    eigen: dict = field(compare=False)


def build_chain(param_radius=PARAM_RADIUS):
    """Construct the 16 h-sets and cone forms of the heteroclinic chain.

    Centers c_2..c_14 are the midpoints of 240-bit enclosures of the seed
    orbit and its tangent direction under the projectivized map (see
    _highprec_orbit for why binary64 center generation cannot work here);
    frames follow the reference propagation rules, in round-to-nearest.  The
    rigorous one-step chart enclosure of every center c_1..c_14 is checked,
    in a kernels.upward() block, and dropped: one wider than ORBIT_WIDTH_MAX
    in x, y or t aborts the build.
    """
    eig = eigen_data()
    x0m = eig["x0"].mid
    z0 = (x0m, x0m)
    u0 = eig["u0_mid"]
    s0 = eig["s0_mid"]

    family = henon_family()
    chart = ChartMap(family, "forward")

    t_u = _angle_of(u0)
    t_s = _angle_of(s0)

    centers4 = [None] * N_SETS
    centers4[0] = (z0[0], z0[1], t_u, A0)
    centers4[15] = (z0[0], z0[1], t_s, A0)
    orbit_hp = _highprec_orbit(13)
    for i in range(1, 15):
        zx, zy, vx, vy = orbit_hp[i - 1]
        t_i = _angle_of((_fp_to_float(vx), _fp_to_float(vy)))
        centers4[i] = (_fp_to_float(zx), _fp_to_float(zy), t_i, A0)

    with _k.upward():
        for i in range(1, 15):
            img = chart.apply(IntervalVector(centers4[i]))
            width = max(img[k].width for k in range(3))
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
    tangent[15] = _tangent_vec(t_s)

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
                (0.0, 0.0, 1.0, 0.0),
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

    return HenonChain(sets=tuple(sets), forms=tuple(forms), eigen=eig)


def projected_disk_data(chain, side):
    """3D projected h-set, 3D form, parameter interval and 4D-form parameter
    coefficient for one disk side ("stable" at N15, "unstable" at N0)."""
    eig = chain.eigen
    u0 = eig["u0_mid"]
    s0 = eig["s0_mid"]
    frame3 = (
        (u0[0], s0[0], 0.0),
        (u0[1], s0[1], 0.0),
        (0.0, 0.0, 1.0),
    )
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
    center3 = big.center[:3]
    diam3 = big.diam[:3]
    ntilde = HSet(f"Ntilde{idx}", center3, frame3, diam3, unstable3)
    qtilde = QuadraticForm(coeffs3, unstable3)
    param = Interval(A0 - big.diam[3], A0 + big.diam[3])
    p_coeff = abs(FORM_ROWS[idx][3])
    return ntilde, qtilde, param, p_coeff


@dataclass(frozen=True)
class TangencyCertificate:
    coverings: tuple
    cones: tuple
    stable_disk: object
    unstable_disk: object
    conclusion: dict
    timings: dict = field(compare=False)
    hsets: tuple = ()
    forms: tuple = ()

    def to_dict(self):
        return {
            "type": "tangency",
            "coverings": [c.to_dict() for c in self.coverings],
            "cones": [c.to_dict() for c in self.cones],
            "stable_disk": self.stable_disk.to_dict(),
            "unstable_disk": self.unstable_disk.to_dict(),
            "hsets": [h.to_dict() for h in self.hsets],
            "forms": [q.to_dict() for q in self.forms],
            "conclusion": dict(self.conclusion),
            "timings": dict(self.timings),
        }


@dataclass
class HenonConfig:
    param_radius: float = PARAM_RADIUS
    grid: int = 1
    # link index -> [[src_axis, tgt_axis, sign], ...], overriding detection
    correspondences: dict | None = None

    def validate(self):
        """Raise ValueError unless every field has its type and range."""
        if type(self.param_radius) not in (int, float) or not (
            0.0 < self.param_radius <= 1e-2
        ):
            raise ValueError("param_radius must be a number in (0, 1e-2]")
        if type(self.grid) is not int or self.grid < 1:
            raise ValueError("grid must be an integer >= 1")
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
    """Execute the full certification; returns a TangencyCertificate.

    The chain and the disks' projected sets are built to nearest; the
    covering, cone and disk stages run in one kernels.upward() block.
    Any inconclusive stage raises VerificationInconclusive carrying the
    failure locus and, in ``certified``, every certificate found before it
    by report stage ("covering", "cones", "stable_disk", "unstable_disk").
    """
    config = (config or HenonConfig()).validate()
    timings = {}
    t0 = time.perf_counter()
    chain = build_chain(param_radius=config.param_radius)
    family = henon_family()
    chart = ChartMap(family, "forward")
    inv_chart = ChartMap(family, "inverse")
    disks = [(side, cmap, projected_disk_data(chain, side))
             for side, cmap in (("stable", chart), ("unstable", inv_chart))]
    timings["build"] = time.perf_counter() - t0

    certified = {}
    try:
        with _k.upward():
            t0 = time.perf_counter()
            certified["covering"] = check_chain(
                list(chain.sets), [chart] * (N_SETS - 1),
                grid=config.grid, correspondences=config.correspondences,
            )
            timings["covering"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            certified["cones"] = check_cone_chain(list(chain.forms), certified["covering"])
            timings["cones"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            for side, cmap, (ntilde, qtilde, param, p_coeff) in disks:
                certified[f"{side}_disk"] = verify_disk(
                    side, ntilde, qtilde, cmap, param, p_coeff, config.grid
                )
            timings["disks"] = time.perf_counter() - t0
    except VerificationInconclusive as exc:
        exc.certified = {**certified, **exc.certified}
        raise

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
    return TangencyCertificate(
        coverings=tuple(certified["covering"]),
        cones=tuple(certified["cones"]),
        stable_disk=certified["stable_disk"],
        unstable_disk=certified["unstable_disk"],
        conclusion=conclusion,
        timings=timings,
        hsets=chain.sets,
        forms=chain.forms,
    )


# -- seed-quality evaluations -------------------------------------------------


def seed_quality():
    """Rigorous norms ||H^-1(z1) - z0|| and ||H^14(z1) - z0||."""
    chain_eig = eigen_data()
    x0 = chain_eig["x0"]
    u0 = chain_eig["u0_mid"]
    s0 = chain_eig["s0_mid"]
    z1x = x0.mid + SEED_U_COEFF * u0[0] + SEED_S_COEFF * s0[0]
    z1y = x0.mid + SEED_U_COEFF * u0[1] + SEED_S_COEFF * s0[1]
    family = henon_family()
    a = Interval(A0)

    bx, by = family.inverse(Interval(z1x), Interval(z1y), a)
    back = IntervalVector([bx - x0, by - x0]).norm_upper()

    fx, fy = Interval(z1x), Interval(z1y)
    for _ in range(14):
        fx, fy = family.forward(fx, fy, a)
    forw = IntervalVector([fx - x0, fy - x0]).norm_upper()
    return back, forw


# -- high-precision scaled-integer intervals for the alignment diagnostic ----
#
# The arrival direction of the 14-step image of [u0] is hypersensitive to the
# seed: the per-step angle derivative is det(DH)/||DH v||^2, which spikes
# where the direction crosses the contracted axis, so binary64-rounded seeds
# shift the answer by ~1e-2.  The reference diagnostic refers to the exact
# algebraic seed; reproducing it takes extended precision, supplied here by
# directed-rounding intervals over integers scaled by 2^-_FP_BITS.

_FP_BITS = 240


def _fp_from_fraction(fr, bits=_FP_BITS):
    num, den = fr.numerator, fr.denominator
    lo = (num << bits) // den
    return lo, lo if (num << bits) % den == 0 else lo + 1


def _fp_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _fp_sub(a, b):
    return a[0] - b[1], a[1] - b[0]


def _fp_shift(p, bits=_FP_BITS):
    # floor/ceil of p / 2^bits
    lo = p[0] >> bits
    hi = -((-p[1]) >> bits)
    return lo, hi


def _fp_mul(a, b, bits=_FP_BITS):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _fp_shift((min(prods), max(prods)), bits)


def _fp_div(a, b, bits=_FP_BITS):
    # Requires 0 outside b.
    if b[0] <= 0 <= b[1]:
        raise IntervalError("scaled-integer division by zero-containing value")
    cands = []
    for num in (a[0], a[1]):
        for den in (b[0], b[1]):
            q, r = divmod(num << bits, den)
            cands.append(q)
            cands.append(q if r == 0 else q + 1)
    return min(cands), max(cands)


def _fp_sqrt(a, bits=_FP_BITS):
    if a[0] < 0:
        raise IntervalError("scaled-integer sqrt of negative value")
    lo = math.isqrt(a[0] << bits)
    hi_base = math.isqrt(a[1] << bits)
    hi = hi_base if hi_base * hi_base == (a[1] << bits) else hi_base + 1
    return lo, hi


def _fp_to_float(a, bits=_FP_BITS):
    return float(Fraction(a[0] + a[1], 2 << bits))


def _highprec_seed_data():
    """Exact-decimal seed constants enclosed at 240 bits.

    Returns (a0, b0, x0, u0, s0, z1) as scaled-integer intervals; the
    eigenvectors are unit, s0 carries the reference sign (second component
    negative), and z1 is the reference homoclinic seed.
    """
    one = _fp_from_fraction(Fraction(1))
    a0 = _fp_from_fraction(Fraction(13145271093265, 10**13))
    b0 = _fp_from_fraction(Fraction(-3, 10))
    cu = _fp_from_fraction(Fraction(1993152279412426, 10**19))
    cs = _fp_from_fraction(Fraction(250404, 10**16))

    # x0 = (b - sqrt((b-1)^2 + 4a) - 1)/2, lam/mu = -x0 +- sqrt(x0^2 + b)
    root = _fp_sqrt(
        _fp_add(
            _fp_mul(_fp_sub(b0, one), _fp_sub(b0, one)),
            _fp_mul(_fp_from_fraction(Fraction(4)), a0),
        )
    )
    x0 = _fp_div(_fp_sub(_fp_sub(b0, root), one), _fp_from_fraction(Fraction(2)))
    disc = _fp_sqrt(_fp_add(_fp_mul(x0, x0), b0))
    lam = _fp_sub(disc, x0)
    zero = _fp_from_fraction(Fraction(0))
    mu = _fp_sub(_fp_sub(zero, x0), disc)

    un = _fp_sqrt(_fp_add(_fp_mul(lam, lam), one))
    u0 = (_fp_div(lam, un), _fp_div(one, un))
    sn = _fp_sqrt(_fp_add(_fp_mul(mu, mu), one))
    s0 = (_fp_sub(zero, _fp_div(mu, sn)), _fp_sub(zero, _fp_div(one, sn)))

    z1 = (
        _fp_add(x0, _fp_add(_fp_mul(cu, u0[0]), _fp_mul(cs, s0[0]))),
        _fp_add(x0, _fp_add(_fp_mul(cu, u0[1]), _fp_mul(cs, s0[1]))),
    )
    return a0, b0, x0, u0, s0, z1


def _highprec_orbit(steps=14):
    """Positions and tangent directions of the seed orbit at 240 bits.

    Returns a list of (zx, zy, vx, vy) scaled-integer interval tuples for
    orbit indices 1..steps+1 (index 1 is the seed with direction u0).  The
    arrival direction is hypersensitive to the seed representation (the
    per-step angle derivative det DH / ||DH v||^2 spikes where the tangent
    crosses the contracted axis, net amplification ~1e10), so binary64
    propagation -- or binary64-rounded seeds -- would land the final tangent
    thousands of target-set widths away; the exact-decimal seed at extended
    precision is what the reference chain data corresponds to.
    """
    a0, b0, _, u0, _, z1 = _highprec_seed_data()
    zx, zy = z1
    vx, vy = u0
    minus_two = _fp_from_fraction(Fraction(-2))
    out = [(zx, zy, vx, vy)]
    for _ in range(steps):
        vx, vy = (
            _fp_add(_fp_mul(_fp_mul(minus_two, zx), vx), _fp_mul(b0, vy)),
            vx,
        )
        zx, zy = _fp_add(_fp_sub(a0, _fp_mul(zx, zx)), _fp_mul(b0, zy)), zx
        out.append((zx, zy, vx, vy))
    return out


def tangent_alignment():
    """Eigenbasis components of the 14-step image of the unstable direction.

    Evaluates M^-1 pi_t(PH^14(z1, [u0])), M = [u0, s0], for the exact seed
    in the 240-bit engine.  Returns float bounds ((u_lo, u_hi), (s_lo, s_hi))
    with the sign fixed so the s-component is positive.
    """
    _, _, _, u0, s0, _ = _highprec_seed_data()
    _, _, vx, vy = _highprec_orbit(14)[-1]

    det = _fp_sub(_fp_mul(u0[0], s0[1]), _fp_mul(u0[1], s0[0]))
    comp_u = _fp_div(_fp_sub(_fp_mul(s0[1], vx), _fp_mul(s0[0], vy)), det)
    comp_s = _fp_div(_fp_sub(_fp_mul(u0[0], vy), _fp_mul(u0[1], vx)), det)
    norm = _fp_sqrt(_fp_add(_fp_mul(vx, vx), _fp_mul(vy, vy)))
    out_u = _fp_div(comp_u, norm)
    out_s = _fp_div(comp_s, norm)
    if out_s[1] < 0:
        out_u = (-out_u[1], -out_u[0])
        out_s = (-out_s[1], -out_s[0])
    scale = float(1 << _FP_BITS)
    return (
        (out_u[0] / scale, out_u[1] / scale),
        (out_s[0] / scale, out_s[1] / scale),
    )
