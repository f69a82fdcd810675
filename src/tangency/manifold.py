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
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

from tangency.cones import ConeCertificate, cone_matrix, rump_positive_definite
from tangency.covering import CoveringCertificate, VerificationInconclusive, check_covering
from tangency.hset import local_derivative
from tangency.interval import Interval, IntervalError
from tangency.linalg import IntervalMatrix, IntervalVector
from tangency.projective import ChartPoint


@dataclass(frozen=True)
class DiskConstants:
    a_lower: float
    a_fail: float  # bisection bracket: a_lower certified, a_fail not
    m_upper: float
    l_upper: float
    gamma: float
    gamma_check: float  # certified lower bound of A - 2 M Gamma - L Gamma^2
    delta: tuple  # certified interval bounds (lo, hi) of Gamma^2 / ||alpha||
    epsilon: float

    def to_dict(self):
        return {
            "A_lower": self.a_lower,
            "A_bracket_fail": self.a_fail,
            "M_upper": self.m_upper,
            "L_upper": self.l_upper,
            "Gamma": self.gamma,
            "Gamma_check_lower": self.gamma_check,
            "delta": list(self.delta),
            "epsilon": self.epsilon,
        }


@dataclass(frozen=True)
class DiskCertificate:
    side: str  # "stable" | "unstable"
    set_name: str
    constants: DiskConstants
    covering: CoveringCertificate = field(compare=False)
    cone: ConeCertificate = field(compare=False)
    param_coefficient: float = 0.0
    comparison_lower: float = 0.0  # certified lower bound of delta * |coeff|

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


def eigen_lower_bound(v, tol=1e-10, locus="manifold"):
    """Largest certified alpha with V - alpha I positive definite.

    Returns (alpha, alpha_fail): alpha passed the Rump test, alpha_fail did
    not; their gap is at most tol.  Raises when not even alpha = 0 passes.
    """
    n = v.nrows
    eye = IntervalMatrix.identity(n)

    def passes(alpha):
        shifted = v - eye.scale(alpha)
        return rump_positive_definite(shifted).positive_definite

    if not passes(0.0):
        raise VerificationInconclusive(
            "manifold", locus, "no positive expansion bound certifiable (A <= 0)"
        )
    hi = min(v[i, i].hi for i in range(n))  # min eigenvalue <= min diagonal
    if hi <= 0.0 or passes(hi):
        # Defensive: the diagonal bound must fail; widen until it does.
        hi = max(hi, tol)
        while passes(hi):
            hi *= 2.0
            if hi > 1e300:
                raise IntervalError("eigen_lower_bound: unbounded bisection")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def mixed_derivative_bound(j_local, p_local, coeffs):
    """M: upper bound of sum_i |a_i| ||d z'_i/d z|| |d z'_i/d lambda|."""
    acc = Interval(0.0)
    for i, c in enumerate(coeffs):
        row_norm = j_local.row(i).norm_upper()
        p_mag = p_local[i].mag
        acc = acc + Interval(abs(c)) * Interval(row_norm) * Interval(p_mag)
    return acc.hi


def stable_parameter_bound(p_local, beta_norm, stable_axes):
    """L: ||beta|| times the squared norm bound of the stable parameter rows."""
    acc = Interval(0.0)
    for i in stable_axes:
        acc = acc + Interval(p_local[i].mag).sqr()
    return (Interval(beta_norm) * acc).hi


def choose_gamma(a_lower, m_upper, l_upper, safety=0.99, locus="manifold"):
    """Near-optimal Gamma with eq. A - 2 M Gamma - L Gamma^2 > 0 re-verified.

    The closed-form positive root is shrunk by the safety factor and then the
    inequality is re-checked in interval arithmetic with A as a lower and
    M, L as upper bounds; on failure Gamma shrinks further.
    """
    if a_lower <= 0.0:
        raise VerificationInconclusive("manifold", locus, "A must be positive")
    if l_upper > 0.0:
        root = (-m_upper + math.sqrt(m_upper * m_upper + a_lower * l_upper)) / l_upper
        gamma = safety * root
    elif m_upper > 0.0:
        gamma = safety * a_lower / (2.0 * m_upper)
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
        gamma *= 0.9
    raise VerificationInconclusive(
        "manifold", locus, "no Gamma satisfying the quadratic bound was certified"
    )


def verify_disk(
    side,
    ntilde,
    qtilde,
    chart_map,
    param,
    param_coefficient,
    grid=1,
    epsilon=1e-6,
    a_tol=1e-10,
    gamma_safety=0.99,
):
    """Full disk certificate for one side (see module docstring).

    chart_map must already be oriented: the unstable side passes the
    inverse-oriented map.  The 4x4 chart derivative is enclosed once, over
    the set box times the parameter interval: its (x, y, t) block is the
    cone derivative, and its parameter column feeds the M and L bounds.
    """
    locus = f"{side} disk in {ntilde.name}"
    if ntilde.n != 3 or qtilde.n != 3:
        raise IntervalError("verify_disk expects 3D projected sets and forms")

    fmap = chart_map.as_vec_map3(param)
    covering_cert = check_covering(ntilde, ntilde, fmap, grid=grid)

    box3 = ntilde.box()
    _, d4 = chart_map.derivative(ChartPoint(box3[0], box3[1], box3[2], param))
    deriv3 = IntervalMatrix([[d4[i, j] for j in range(3)] for i in range(3)])
    v_cone = cone_matrix(ntilde, ntilde, qtilde, qtilde, deriv3)
    rump = rump_positive_definite(v_cone)
    if not rump.positive_definite:
        raise VerificationInconclusive(
            "manifold", locus, "cone matrix not certified positive definite"
        )
    cone_cert = ConeCertificate(link=f"{ntilde.name}=>{ntilde.name}", matrix=v_cone, rump=rump)

    v_eps = cone_matrix(
        ntilde, ntilde, qtilde, qtilde, deriv3, inflate_src=1.0 + epsilon
    )
    a_lower, a_fail = eigen_lower_bound(v_eps, tol=a_tol, locus=locus)

    # Parameter-derivative enclosures in the local frame of ntilde.
    j_local = local_derivative(ntilde, ntilde, deriv3)
    p_local = ntilde.inv_coord.mat_vec(IntervalVector([d4[i, 3] for i in range(3)]))

    m_upper = mixed_derivative_bound(j_local, p_local, qtilde.coeffs)
    l_upper = stable_parameter_bound(p_local, qtilde.beta_norm(), ntilde.stable)

    gamma, gamma_check = choose_gamma(
        a_lower, m_upper, l_upper, safety=gamma_safety, locus=locus
    )

    alpha_norm = qtilde.alpha_norm()
    delta = Interval(gamma).sqr() / Interval(alpha_norm)
    comparison = delta * Interval(abs(float(param_coefficient)))
    constants = DiskConstants(
        a_lower=a_lower,
        a_fail=a_fail,
        m_upper=m_upper,
        l_upper=l_upper,
        gamma=gamma,
        gamma_check=gamma_check,
        delta=(delta.lo, delta.hi),
        epsilon=epsilon,
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
