"""Shared oracles and fixtures.

The rational oracles here are deliberately independent of the library's own
elementary-function machinery: pi from Stormer's decomposition rather than
the library's Machin formula, and sin and cos from their series at a
reduced argument, all evaluated in exact Fraction arithmetic with explicit
tail bounds.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest


# -- exact rational enclosures ------------------------------------------------


def atan_series_bounds(x, n_terms=60):
    """Rational bounds on atan(x) for |x| <= 3/4, alternating-series tail.

    Summation stops early once the next term is below 2**-200 |x|, so a
    tiny x costs a term or two instead of n_terms huge rationals."""
    assert abs(x) <= Fraction(3, 4)
    x2 = x * x
    s = Fraction(0)
    p = x
    sign = 1
    small = abs(x) / 2**200
    n = 0
    while n < n_terms and abs(p) >= small:
        s += sign * p / (2 * n + 1)
        p *= x2
        sign = -sign
        n += 1
    tail = abs(p) / (2 * n + 1)
    return s - tail, s + tail


def stormer_pi_bounds():
    """pi = 24 atan(1/8) + 8 atan(1/57) + 4 atan(1/239)."""
    a8 = atan_series_bounds(Fraction(1, 8), 36)
    a57 = atan_series_bounds(Fraction(1, 57), 20)
    a239 = atan_series_bounds(Fraction(1, 239), 16)
    lo = 24 * a8[0] + 8 * a57[0] + 4 * a239[0]
    hi = 24 * a8[1] + 8 * a57[1] + 4 * a239[1]
    return lo, hi


def dyadic_outward(bounds, bits=300):
    """Bounds rounded outward to multiples of 2**-bits: short denominators
    keep every oracle that uses them fast, and 2**-300 is far below the
    precision any binary64 test can see."""
    scale = 2**bits
    return (Fraction(math.floor(bounds[0] * scale), scale),
            Fraction(math.ceil(bounds[1] * scale), scale))


PI_BOUNDS = dyadic_outward(stormer_pi_bounds())


def _sin_series_bounds(r, n_terms=16):
    """Rational bounds on sin(r) for |r| <= 1, factorial tail."""
    r2 = r * r
    s = Fraction(0)
    p = r
    sign = 1
    for n in range(n_terms):
        s += sign * p / math.factorial(2 * n + 1)
        p *= r2
        sign = -sign
    tail = abs(p) / math.factorial(2 * n_terms + 1)
    return s - tail, s + tail


def _cos_series_bounds(r, n_terms=16):
    r2 = r * r
    s = Fraction(0)
    p = Fraction(1)
    sign = 1
    for n in range(n_terms):
        s += sign * p / math.factorial(2 * n)
        p *= r2
        sign = -sign
    tail = abs(p) / math.factorial(2 * n_terms)
    return s - tail, s + tail


def sincos_bounds(x):
    """Rational bounds on (sin x, cos x) for a float x of moderate size."""
    q = Fraction(x)
    k = int(round(x / (math.pi / 2)))
    half_pi = (PI_BOUNDS[0] / 2, PI_BOUNDS[1] / 2)
    r_lo = q - k * half_pi[1 if k >= 0 else 0]
    r_hi = q - k * half_pi[0 if k >= 0 else 1]
    mid = (r_lo + r_hi) / 2
    slack = (r_hi - r_lo) / 2  # |sin'|, |cos'| <= 1
    s = _sin_series_bounds(mid)
    c = _cos_series_bounds(mid)
    s = (s[0] - slack, s[1] + slack)
    c = (c[0] - slack, c[1] + slack)
    table = {
        0: (s, c),
        1: (c, (-s[1], -s[0])),
        2: ((-s[1], -s[0]), (-c[1], -c[0])),
        3: ((-c[1], -c[0]), s),
    }
    return table[k % 4]


def frac_matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def frac_inverse(m):
    """Exact inverse of a nonsingular matrix of rationals or floats
    (Gauss-Jordan elimination over Fractions)."""
    n = len(m)
    a = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [e / p for e in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [e - f * pc for e, pc in zip(a[r], a[col])]
    return [row[n:] for row in a]


def frac_det(m):
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    out = Fraction(0)
    for j in range(n):
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = Fraction(m[0][j]) * frac_det(minor)
        out += term if j % 2 == 0 else -term
    return out


def contains_fraction(interval, fr):
    return Fraction(interval.lo) <= fr <= Fraction(interval.hi)


def pairs_hex(pairs):
    """(lo, hi) float pairs as float.hex strings: equal iff equal bit for
    bit, signed zeros included."""
    return [(lo.hex(), hi.hex()) for lo, hi in pairs]


def encloses_bounds(interval, bounds):
    """The interval contains the whole rational interval ``bounds``."""
    return Fraction(interval.lo) <= bounds[0] and bounds[1] <= Fraction(interval.hi)


def covering_boxes(src, grid):
    """The normalized sub-boxes check_covering evaluates: every wall sub-box
    of every unstable axis and the interior sub-boxes."""
    walls = [
        w for i in src.unstable for side in (1, -1) for w in src.walls(i, side, grid)
    ]
    return walls + list(src.subboxes(grid))


def exact_point(src, z):
    """The point of the h-set src at normalized coordinates z, exact."""
    n = len(src.center)
    return [
        Fraction(src.center[i]) + sum(
            Fraction(src.coord[i][j]) * Fraction(src.diam[j]) * z[j] for j in range(n)
        )
        for i in range(n)
    ]


def exact_sample_points(ends, rng, extra=4):
    """The corners of the box of rational (lo, hi) ends and extra seeded
    points of it."""
    points = [list(c) for c in itertools.product(*(sorted(set(e)) for e in ends))]
    step = Fraction(1, 1 << 20)
    for _ in range(extra):
        points.append([lo + (hi - lo) * step * rng.randrange((1 << 20) + 1)
                       for lo, hi in ends])
    return points


def assert_exact_cone_matrix(v, d, src_coord, tgt_inverse, q_src, q_tgt, where):
    """The cone matrix v holds L^T Q_M L - Q_N, exactly: L = M_tgt^-1 d M_src
    is the local-frame derivative of d, the exact n x n derivative at a point
    of the source set, tgt_inverse the exact inverse of the float target
    frame (frac_inverse), and the forms' coefficients are Fractions.  v is
    rows of (lo, hi) pairs, as a cone certificate holds it."""
    n = len(src_coord)
    local = frac_matmul(frac_matmul(tgt_inverse, d), src_coord)
    for i in range(n):
        for j in range(n):
            exact = sum(local[k][i] * Fraction(q_tgt.coeffs[k]) * local[k][j]
                        for k in range(n))
            exact -= Fraction(q_src.coeffs[i]) if i == j else 0
            lo, hi = v[i][j]
            assert Fraction(lo) <= exact <= Fraction(hi), (where, i, j)


def assert_exact_margins(cov, src, tgt, image, grid, rng, params=((),)):
    """The exit and entry margins of the covering certificate cov of src over
    tgt against exact rationals.  Every corner and a few seeded points of
    each wall and interior sub-box of src at the grid, each followed by each
    tuple of params (the parameter values of a map that holds the parameter
    apart), map by image, the closed form of the map on a list of Fractions,
    and are normalized with the exact inverse of tgt's float frame.  On the
    wall z_i = +-1 paired with target axis j and sign s, s z'_j lies beyond
    +-1 by at least the wall's exit margin; inside, every stable z'_j lies
    within 1 of 0 by at least the entry margin."""
    inverse = frac_inverse(tgt.coord)

    def normalized_images(zbox):
        ends = [(Fraction(lo), Fraction(hi)) for lo, hi in zbox[0]]
        for z in exact_sample_points(ends, rng):
            for extra in params:
                diff = [p - Fraction(c) for p, c in
                        zip(image(exact_point(src, z) + list(extra)), tgt.center)]
                yield [sum(m * d for m, d in zip(row, diff)) / Fraction(r)
                       for row, r in zip(inverse, tgt.diam)]

    for i, j, sign in cov.correspondence:
        for side in (1, -1):
            margin = Fraction(cov.exit_margins[(i, side)])
            for wall in src.walls(i, side, grid):
                for zn in normalized_images(wall):
                    assert sign * zn[j] * side - 1 >= margin, (cov.source, i, side)
    entry = Fraction(cov.entry_margin)
    for zbox in src.subboxes(grid):
        for zn in normalized_images(zbox):
            for j in tgt.stable:
                assert 1 - abs(zn[j]) >= entry, (cov.source, j)


class PointShiftedMap:
    """A deliberately inconsistent map: fmap, but every image of a thin box
    (all widths zero) moves by shift in each output.  The enclosure pass
    (hull image and derivative) is fmap's own, so mean-value and hull images
    disagree."""

    def __init__(self, fmap, shift):
        self.fmap = fmap
        self.shift = shift

    def apply(self, box, outputs=None):
        from tangency.interval import Interval
        from linalg_oracle import IntervalVector

        img = self.fmap.apply(box, outputs)
        if any(hi > lo for lo, hi in box):
            return img
        shift = IntervalVector([Interval(self.shift)] * len(img))
        return (IntervalVector.from_pairs(img) + shift).pairs

    def derivative(self, box, outputs=None):
        return self.fmap.derivative(box, outputs)


class IdentityMap:
    """The identity map on boxes of dimension n: returns exactly the
    outputs asked for."""

    def __init__(self, n):
        self.n = n

    def apply(self, box, outputs=None):
        keep = range(self.n) if outputs is None else outputs
        return tuple([box[k] for k in keep])

    def derivative(self, box, outputs=None):
        from linalg_oracle import IntervalMatrix

        keep = range(self.n) if outputs is None else outputs
        eye = IntervalMatrix.identity(self.n).pairs
        return self.apply(box, outputs), tuple([eye[k] for k in keep])


class CountingMap:
    """fmap, counting its apply and derivative calls in ``calls`` and
    recording the outputs each call asked for in ``outputs``."""

    def __init__(self, fmap):
        self.fmap = fmap
        self.calls = {"apply": 0, "derivative": 0}
        self.outputs = {"apply": [], "derivative": []}

    def apply(self, box, outputs=None):
        self.calls["apply"] += 1
        self.outputs["apply"].append(outputs)
        return self.fmap.apply(box, outputs)

    def derivative(self, box, outputs=None):
        self.calls["derivative"] += 1
        self.outputs["derivative"].append(outputs)
        return self.fmap.derivative(box, outputs)


class FixedMap:
    """A map of the map protocol that returns the same enclosures for every
    box: the thin image ``value``, the hull image ``image`` and the Jacobian
    ``jac``, each on the outputs asked for.  It feeds the covering's one
    pass inputs no real map gives, dense Jacobians among them."""

    def __init__(self, value, image, jac):
        self.value, self.image, self.jac = value, image, jac

    def _keep(self, outputs):
        return range(self.value.dim) if outputs is None else outputs

    def apply(self, box, outputs=None):
        return tuple([self.value.pairs[k] for k in self._keep(outputs)])

    def derivative(self, box, outputs=None):
        keep = self._keep(outputs)
        return (tuple([self.image.pairs[k] for k in keep]),
                tuple([self.jac.pairs[k] for k in keep]))


def one_pass_cases(chain):
    """(src, tgt, map) of every link of the Henon chain, both disk
    self-coverings and every link of the default toy chain."""
    from tangency.henon import henon_family, projected_disk_data
    from tangency.manifold import DiskMap
    from tangency.projective import ChartMap
    from tangency.toy import ToyParams, build_toy_chain

    forward, inverse = henon_family()
    chart = ChartMap(forward)
    cases = [(s, t, chart) for s, t in zip(chain.sets, chain.sets[1:])]
    for side, f in (("stable", forward), ("unstable", inverse)):
        ntilde, _, param, _ = projected_disk_data(chain, side)
        cases.append((ntilde, ntilde, DiskMap(ChartMap(f), param)))
    toy = build_toy_chain(ToyParams())
    return cases + list(zip(toy.sets, toy.sets[1:], toy.maps))


def matrix_from_normalized(h, z):
    """c + M (d . z) of the (lo, hi) pairs z through IntervalVector and
    IntervalMatrix products."""
    from tangency import kernels
    from linalg_oracle import IntervalVector, center_vec, frame

    scaled = IntervalVector.from_pairs([kernels.imul((d, d), zi) for d, zi in zip(h.diam, z)])
    return center_vec(h) + frame(h).mat_vec(scaled)


def one_pass_oracle(src, tgt, fmap, zbox):
    """The covering's evaluation of the sub-box zbox, (box, mid,
    delta_terms) of hset, of src under fmap, through the IntervalVector and
    IntervalMatrix products and the frame changes of linalg_oracle, on
    every output and every target row: (image, local), image a list of
    (lo, hi) pairs, one per target row, and local the rows of
    linalg_oracle.local_derivative over zbox's ambient box.

    The ambient boxes are c + M (d . z) by mat_vec, handed to fmap as their
    pairs, and fmap's pairs are wrapped by from_pairs; the thin image of the
    midpoint and the hull image are linalg_oracle.to_normalized's; S is
    local_derivative's first src.n columns times d_src / d_tgt, entry by
    entry; the mean-value image thin + S.mat_vec(z - mid z) is intersected
    with the hull image."""
    from tangency import kernels
    from linalg_oracle import IntervalMatrix, IntervalVector, local_derivative, to_normalized

    box, mid, _ = zbox
    value = IntervalVector.from_pairs(fmap.apply(matrix_from_normalized(src, mid).pairs))
    image, jac = fmap.derivative(matrix_from_normalized(src, box).pairs)
    hull = to_normalized(tgt, IntervalVector.from_pairs(image)).pairs
    local = local_derivative(src, tgt, IntervalMatrix.from_pairs(jac)).pairs
    scaled = IntervalMatrix.from_pairs([
        [kernels.idiv(kernels.imul(e, (d_src, d_src)), (d_tgt, d_tgt))
         for e, d_src in zip(row, src.diam)]
        for row, d_tgt in zip(local, tgt.diam)
    ])
    delta = IntervalVector.from_pairs(box) - IntervalVector.from_pairs(mid)
    mean_value = (to_normalized(tgt, value) + scaled.mat_vec(delta)).pairs
    out = []
    for (m_lo, m_hi), (h_lo, h_hi) in zip(mean_value, hull):
        assert m_lo <= h_hi and h_lo <= m_hi
        out.append((max(m_lo, h_lo), min(m_hi, h_hi)))
    return out, local


def evaluator(family, direction):
    """The "forward" or "inverse" evaluator of a family's (forward, inverse)
    pair, for tests parameterized by the direction's name."""
    forward, inverse = family
    return {"forward": forward, "inverse": inverse}[direction]


def flipped_form(q):
    """The cone form q with every coefficient negated and its unstable and
    stable axes swapped: a self-covering's cone matrix under it is minus
    that under q, so its cone test fails."""
    from tangency.hset import QuadraticForm

    return QuadraticForm(tuple(-c for c in q.coeffs),
                         tuple(i for i in range(q.n) if i not in q.unstable))


def check_inverse_consistency(forward, inverse, box):
    """Map the box through the inverse expression on jets and its image
    midpoint back through the forward one (jet_oracle.henon_expressions, for
    instance); the largest componentwise distance by which the round trip
    misses the box midpoint, 0.0 when every component re-encloses it."""
    from jet_oracle import Jet, as_interval

    x, y, a = (as_interval(c) for c in box)
    xj = Jet.variable(0, x, 2, order=1)
    yj = Jet.variable(1, y, 2, order=1)
    aj = Jet.constant(a, 2, order=1)
    ix, iy = inverse(xj, yj, aj)
    rx, ry = forward(
        Jet.constant(ix.value, 2, order=1), Jet.constant(iy.value, 2, order=1), aj
    )
    defect = 0.0
    for got, want in ((rx.value, x), (ry.value, y)):
        if not got.contains(want.mid):
            defect = max(
                defect, abs(got.mid - want.mid) - 0.5 * got.width - 0.5 * want.width
            )
    return defect


# -- random float generation --------------------------------------------------


def random_float(rng, span=300):
    w = rng.random()
    if w < 0.2:
        return float(rng.randint(-30, 30))
    if w < 0.4:
        return rng.uniform(-100.0, 100.0)
    m = rng.uniform(-1.0, 1.0)
    return m * (2.0 ** rng.randint(-span, span))


@pytest.fixture()
def rng(request):
    # Seeded per test so outcomes never depend on suite ordering.
    return random.Random(f"tangency::{request.node.name}")


# -- expensive shared runs ----------------------------------------------------


@pytest.fixture(scope="session")
def henon_proof():
    """run_proof()'s (stages, timings, extras) at grid 1."""
    from tangency.henon import run_proof

    return run_proof()


@pytest.fixture(scope="session")
def henon_proof_grid2():
    from tangency.henon import HenonConfig, run_proof

    return run_proof(HenonConfig(grid=2))


@pytest.fixture(scope="session")
def henon_chain():
    from tangency.henon import build_chain

    return build_chain()
