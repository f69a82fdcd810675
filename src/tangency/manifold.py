"""Center-(un)stable manifolds as disks: Lipschitz parameter dependence.

Certifies that the invariant manifold of the chart fixed point, over a whole
interval of parameters, is a vertical/horizontal disk of the projected 3D
h-set satisfying cone conditions.  The certificate consists of

1. a self-covering of the projected set under the map with the parameter as
   one interval enclosure,
2. a cone certificate for the 3D form over set x parameters,
3. constants A (uniform expansion lower bound), M (mixed z/parameter
   derivative bound) and L (stable-block parameter-derivative bound),
4. a coefficient Gamma with A - 2 M Gamma - L Gamma^2 > 0 certified, and
5. delta = Gamma^2 / ||alpha|| with the final comparison
   delta * |parameter coefficient of the 4D form| > 1.

The self-covering runs the chart map on (x, y, w) boxes times the parameter
interval (DiskMap), on the outputs each sub-box's target rows read, and
every derivative the disk needs comes from its one enclosure pass per
sub-box: its certificate's local_jacobian is d(x, y, w)/d(x, y, w, a) in the
local frame of the projected set, whose first three columns are the cone
derivative and whose last is the parameter column of M and L.  The cone
certificate is check_cone_link's of the self-covering: a cone that fails
ends the disk at stage "cones", a failure in its constants at "manifold"
(an IntervalError there through the disk's entry in covering.run_stages).
No frame change happens here.  A is a float eigenvalue estimate certified
by one Rump test.  The constants below are fixed, not configuration.
"""

from __future__ import annotations

import math

from tangency import kernels as _k
from tangency.cones import (
    check_cone_link,
    cone_matrix,
    midrad_split,
    rump_positive_definite,
    vertex_signs,
)
from tangency.covering import VerificationInconclusive, check_covering
from tangency.interval import Interval, IntervalError, as_pair, check_pairs
from tangency.linalg import norm_upper
from tangency.record import Record

# A's form inflates Q_N by (1 + epsilon); the reported epsilon, INFLATION - 1.0,
# is exact by Sterbenz's lemma.  A and Gamma shrink by SHRINK on failure.
INFLATION = 1.0 + 1e-6
GAMMA_SAFETY = 0.99
SHRINK = 0.9
A_TRIES = 8


class DiskConstants(Record):
    """gamma_check: a certified lower bound of A - 2 M Gamma - L Gamma^2;
    delta: certified interval bounds (lo, hi) of Gamma^2 / ||alpha||."""

    __slots__ = ("a_lower", "m_upper", "l_upper", "gamma", "gamma_check", "delta",
                 "epsilon")

    def __init__(self, a_lower, m_upper, l_upper, gamma, gamma_check, delta, epsilon):
        self._set(a_lower, m_upper, l_upper, gamma, gamma_check, delta, epsilon)

    def to_dict(self):
        return {
            "A_lower": self.a_lower,
            "M_upper": self.m_upper,
            "L_upper": self.l_upper,
            "Gamma": self.gamma,
            "Gamma_check_lower": self.gamma_check,
            "delta": list(self.delta),
            "epsilon": self.epsilon,
        }


class DiskCertificate(Record):
    """side: "stable" or "unstable"; covering and cone: the self-covering's
    CoveringCertificate and ConeCertificate; comparison_lower: a certified
    lower bound of delta * |param_coefficient|."""

    __slots__ = ("side", "set_name", "constants", "covering", "cone",
                 "param_coefficient", "comparison_lower")
    _uncompared = ("covering", "cone")

    def __init__(self, side, set_name, constants, covering, cone,
                 param_coefficient=0.0, comparison_lower=0.0):
        self._set(side, set_name, constants, covering, cone, param_coefficient,
                  comparison_lower)

    @property
    def passed(self):
        return self.comparison_lower > 1.0

    def to_dict(self):
        return {
            "type": "disk",
            "side": self.side,
            "set": self.set_name,
            "constants": self.constants.to_dict(),
            "self_covering": self.covering.to_dict(),
            "cone": self.cone.to_dict(),
            "param_coefficient": self.param_coefficient,
            "comparison_lower": self.comparison_lower,
            "passed": self.passed,
        }


def _jacobi_min_eigenvalue(a):
    """Smallest eigenvalue of a symmetric float matrix (list of rows) by
    cyclic Jacobi rotations: an estimate, not an enclosure."""
    a = [list(row) for row in a]
    n = len(a)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(60):
        # Weyl: the diagonal lies within the off-diagonal norm of the spectrum.
        if math.hypot(*(a[p][q] for p, q in pairs)) <= 1e-17 * max(
            abs(a[i][i]) for i in range(n)
        ):
            break
        for p, q in pairs:
            if a[p][q] != 0.0:
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for row in a:
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                rp, rq = a[p], a[q]
                a[p] = [c * x - s * y for x, y in zip(rp, rq)]
                a[q] = [s * x + c * y for x, y in zip(rp, rq)]
                a[p][q] = a[q][p] = 0.0
    return min(a[i][i] for i in range(n))


def min_vertex_eigenvalue(v):
    """Float estimate of the smallest eigenvalue over the 2^(n-1) Rump vertex
    matrices C - D(z) R D(z) of the symmetric interval matrix v, rows of
    (lo, hi) pairs.  By Rohn's vertex theorem they attain the smallest
    eigenvalue over all of v."""
    n = len(v)
    c, r = midrad_split(v)
    return min(
        _jacobi_min_eigenvalue(
            [[c[i][j] - z[i] * z[j] * r[i][j] for j in range(n)] for i in range(n)]
        )
        for z in vertex_signs(n)
    )


def eigen_lower_bound(v, locus="manifold"):
    """Certified A > 0 with v - A I positive definite, v rows of (lo, hi)
    pairs: the vertex estimate of the smallest eigenvalue, scaled by
    1 - 1e-9, certified by one Rump test.  A failed test shrinks A by
    SHRINK, up to A_TRIES tests in all.  v - A I takes A times every entry
    of I, zeros included, then each difference, each checked."""
    alpha = min_vertex_eigenvalue(v) * (1.0 - 1e-9)
    if not alpha > 0.0:
        raise VerificationInconclusive(
            "manifold", locus, "no positive expansion bound certifiable (A <= 0)"
        )
    n = len(v)
    eye = [[(1.0, 1.0) if i == j else (0.0, 0.0) for j in range(n)] for i in range(n)]
    imul, isub = _k.imul, _k.isub
    for _ in range(A_TRIES):
        c = as_pair(alpha)
        scaled = [check_pairs([imul(c, e) for e in row]) for row in eye]
        shifted = [check_pairs([isub(a, b) for a, b in zip(ra, rb)])
                   for ra, rb in zip(v, scaled)]
        if rump_positive_definite(shifted).positive_definite:
            return alpha
        alpha *= SHRINK
    raise VerificationInconclusive(
        "manifold", locus, f"no expansion bound certified in {A_TRIES} Rump tests"
    )


def mixed_derivative_bound(rows, coeffs):
    """M: upper bound of sum_i |a_i| ||d z'_i/d z|| |d z'_i/d lambda|.

    rows are d z'/d(z, lambda) as rows of (lo, hi) pairs, one per
    coefficient, the lambda entry last."""
    acc = Interval(0.0)
    for row, c in zip(rows, coeffs):
        row_norm = norm_upper(row[:-1])
        acc = acc + Interval(abs(c)) * Interval(row_norm) * Interval(Interval(*row[-1]).mag)
    return acc.hi


def stable_parameter_bound(rows, beta_norm, stable_axes):
    """L: ||beta|| times the squared norm bound of the stable parameter
    entries, the lambda entries of the stable rows of rows (as in
    mixed_derivative_bound)."""
    acc = Interval(0.0)
    for i in stable_axes:
        acc = acc + Interval(Interval(*rows[i][-1]).mag).sqr()
    return (Interval(beta_norm) * acc).hi


def choose_gamma(a_lower, m_upper, l_upper, locus="manifold"):
    """Near-optimal Gamma with eq. A - 2 M Gamma - L Gamma^2 > 0 re-verified.

    The closed-form positive root is shrunk by GAMMA_SAFETY and then the
    inequality is re-checked in interval arithmetic with A as a lower and
    M, L as upper bounds; on failure Gamma shrinks further.
    """
    if a_lower <= 0.0:
        raise VerificationInconclusive("manifold", locus, "A must be positive")
    if l_upper > 0.0:
        root = (-m_upper + math.sqrt(m_upper * m_upper + a_lower * l_upper)) / l_upper
        gamma = GAMMA_SAFETY * root
    elif m_upper > 0.0:
        gamma = GAMMA_SAFETY * a_lower / (2.0 * m_upper)
    else:
        gamma = 1.0
    for _ in range(80):
        check = (
            Interval(a_lower)
            - Interval(2.0) * Interval(m_upper) * Interval(gamma)
            - Interval(l_upper) * Interval(gamma).sqr()
        )
        if check.lo > 0.0 and gamma > 0.0:
            return gamma, check.lo
        gamma *= SHRINK
    raise VerificationInconclusive(
        "manifold", locus, "no Gamma satisfying the quadratic bound was certified"
    )


class DiskMap:
    """chart_map on (x, y, w) boxes, the parameter held in the checked
    (lo, hi) pair param.

    Each box, a tuple of checked (lo, hi) pairs, with param appended, goes through chart_map.apply or chart_map.derivative on the
    outputs asked for, every output (x, y, w) by default.  A Jacobian row
    is then d(x, y, w)/d(x, y, w, a) for its output, whose last column
    verify_disk reads as the parameter column.
    """

    def __init__(self, chart_map, param):
        self.chart_map = chart_map
        self.param = param

    def _lifted(self, box, outputs):
        return box + (self.param,), (0, 1, 2) if outputs is None else outputs

    def apply(self, box, outputs=None):
        return self.chart_map.apply(*self._lifted(box, outputs))

    def derivative(self, box, outputs=None):
        return self.chart_map.derivative(*self._lifted(box, outputs))


def verify_disk(side, ntilde, qtilde, chart_map, param, param_coefficient, grid=1):
    """Full disk certificate for one side (see module docstring).

    chart_map is the chart map of the side's own map: the unstable side
    passes the inverse map's; param is the parameter's checked (lo, hi)
    pair.
    """
    locus = f"{side} disk in {ntilde.name}"
    if ntilde.n != 3 or qtilde.n != 3:
        raise IntervalError("verify_disk expects 3D projected sets and forms")

    covering_cert = check_covering(
        ntilde, ntilde, DiskMap(chart_map, param), grid=grid
    )
    cone_cert = check_cone_link(covering_cert, qtilde, qtilde)

    jacobian = covering_cert.local_jacobian
    v_eps = cone_matrix(jacobian, qtilde, qtilde, inflate_src=INFLATION)
    a_lower = eigen_lower_bound(v_eps, locus=locus)

    m_upper = mixed_derivative_bound(jacobian, qtilde.coeffs)
    l_upper = stable_parameter_bound(jacobian, qtilde.beta_norm(), ntilde.stable)

    gamma, gamma_check = choose_gamma(a_lower, m_upper, l_upper, locus=locus)

    delta = Interval(gamma).sqr() / Interval(qtilde.alpha_norm())
    comparison = delta * Interval(abs(float(param_coefficient)))
    constants = DiskConstants(
        a_lower=a_lower,
        m_upper=m_upper,
        l_upper=l_upper,
        gamma=gamma,
        gamma_check=gamma_check,
        delta=(delta.lo, delta.hi),
        epsilon=INFLATION - 1.0,
    )
    cert = DiskCertificate(
        side=side,
        set_name=ntilde.name,
        constants=constants,
        covering=covering_cert,
        cone=cone_cert,
        param_coefficient=float(param_coefficient),
        comparison_lower=comparison.lo,
    )
    if not cert.passed:
        raise VerificationInconclusive(
            "manifold",
            locus,
            f"final comparison delta*|p| > 1 failed (lower bound {comparison.lo})",
        )
    return cert
