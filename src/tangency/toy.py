"""Analytically solvable model with a quadratic tangency unfolding generically.

The planar model is linear, (x, y) -> (lam x, mu y) with |lam| > 1 > |mu|,
near the fixed point, and acts as (1 + x, y) -> (x^2 + y + a, 1 - x) near the
tangency point (1, 0).  Projectivized in slope charts, the dynamics and the
whole heteroclinic chain construction have closed forms, which makes this
module the oracle corpus for the covering and cone machinery: every
certificate produced here is checkable against explicit inequalities.
check_toy runs the model's certificate suite (covering chain, linear-link
cones, switch blocks built from N_k's and M_s's cone forms, transversality),
as henon.run_proof runs the Henon proof.

Chart/coordinate conventions (4D ambient):

* chain-start sets N_0..N_k use (x, y, v, a), v the slope of [(1, v)];
  unstable axes (x, a);
* chain-end sets M_s..M_0 use (x, y, w, a), w the slope of [(w, 1)];
  unstable axes (x, w);
* the switch map takes N-coordinates to M-coordinates.
"""

from __future__ import annotations

import math

from tangency import kernels as _k
from tangency.cones import check_cone_link, rump_positive_definite
from tangency.covering import VerificationInconclusive, certify_each, check_chain, run_stages
from tangency.hset import Frame, HSet, QuadraticForm, _check_grid
from tangency.interval import IntervalError, check_pairs
from tangency.linalg import _det, checked_rows
from tangency.record import Record


class ToyParams(Record):
    """grid: the covering stage's wall subdivision count per axis."""

    __slots__ = ("lam", "mu", "delta", "eps", "grid")

    def __init__(self, lam=2.0, mu=0.5, delta=0.5, eps=0.01, grid=1):
        self._set(lam, mu, delta, eps, grid)

    def validate(self):
        # Each range test is negated, so NaN (false in every comparison) fails.
        if not 1.0 < abs(self.lam) < math.inf:
            raise IntervalError("finite |lam| > 1 required")
        if not 0.0 < abs(self.mu) < 1.0:
            raise IntervalError("0 < |mu| < 1 required")
        # The slope coefficients of the linear maps; lam/mu may overflow.
        if not math.isfinite(self.lam / self.mu) or not math.isfinite(self.mu / self.lam):
            raise IntervalError("finite lam/mu and mu/lam required")
        if not 0.0 < self.delta < 1.0:
            raise IntervalError("delta in (0, 1) required")
        if not 0.0 < self.eps < 0.2:
            raise IntervalError("eps in (0, 0.2) required")
        _check_grid(self.grid)
        return self


_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)

# The chain-start length, and the growth of the forms' parameter
# coefficients along the chain (strict growth is what the linear links'
# cone pivots on the a axis certify).
K = 4
FORM_GROWTH = 1.05

FLAGS = (
    "reference chain-end size recursion is indexed opposite to the chain "
    "direction; sizes here follow the chain direction",
)


class _DiagonalMap:
    """The linear map (x0, x1, x2, a) -> (c0 x0, c1 x1, c2 x2, a) as a map
    of the covering protocol, on (lo, hi) pairs: each output asked for is
    imul(box[k], (c_k, c_k)), the a entry passes through, and the image is
    checked once, the a entry with it.  The Jacobian is constant; its rows,
    (c_k, c_k) on the diagonal and (1, 1) for a, are exact pairs built once
    per map with no kernel call (the chain is built to nearest), after the
    coefficients are checked."""

    def __init__(self, coefs):
        self._coefs = check_pairs(tuple((c, c) for c in coefs))
        self._rows = tuple(
            tuple(d if j == i else _ZERO for j in range(4))
            for i, d in enumerate(self._coefs + (_ONE,))
        )

    def apply(self, box, outputs=None):
        coefs, imul = self._coefs, _k.imul
        return check_pairs(tuple([
            box[k] if k == 3 else imul(box[k], coefs[k])
            for k in (range(4) if outputs is None else outputs)
        ]))

    def derivative(self, box, outputs=None):
        """apply's image, bit for bit, and the constant Jacobian rows."""
        rows = self._rows if outputs is None else tuple([self._rows[k] for k in outputs])
        return self.apply(box, outputs), rows


class _SwitchMap:
    """A 4-scalar evaluator f(x, y, v, a, order) on pairs (switch_evaluator)
    as a map of the covering protocol: one call at order 0 for apply's
    image, one at order 1 for derivative's image (apply's bits) and
    Jacobian, on the outputs asked for; f checks what it computes."""

    def __init__(self, evaluator):
        self._evaluator = evaluator

    def _outputs(self, box, order, outputs):
        outs = self._evaluator(*box, order)
        return outs if outputs is None else [outs[k] for k in outputs]

    def apply(self, box, outputs=None):
        return tuple([out[0] for out in self._outputs(box, 0, outputs)])

    def derivative(self, box, outputs=None):
        outs = self._outputs(box, 1, outputs)
        return tuple([value for value, _ in outs]), tuple([grad for _, grad in outs])


def linear_start_map(params):
    """Projectivized linear dynamics near (p, E^u): (x,y,v,a) coordinates."""
    return _DiagonalMap((params.lam, params.mu, params.mu / params.lam))


def linear_end_map(params):
    """Projectivized linear dynamics near (p, E^s): (x,y,w,a) coordinates."""
    return _DiagonalMap((params.lam, params.mu, params.lam / params.mu))


_NEG_ONE = (-1.0, -1.0)
_ZERO_ROW = (_ZERO, _ZERO, _ZERO, _ZERO)
# The gradients over (x, y, v, a) that do not depend on the box, of y', w'
# and a', and the Hessian rows over x of x', y', w' and a', one per output.
_SWITCH_GRADS = ((_NEG_ONE, _ZERO, _ZERO, _ZERO),
                 ((-2.0, -2.0), _ZERO, _NEG_ONE, _ZERO),
                 (_ZERO, _ZERO, _ZERO, _ONE))
_SWITCH_ROWS = ((((2.0, 2.0), _ZERO, _ZERO, _ZERO),),
                (_ZERO_ROW,), (_ZERO_ROW,), (_ZERO_ROW,))


def switch_evaluator(x, y, v, a, order):
    """The tangency-neighborhood map from N- to M-coordinates in closed form
    on checked (lo, hi) pairs.

    Planar action (1 + x, y) -> (x^2 + y + a, 1 - x); the slope v of [(1, v)]
    maps to the slope w = -(2x + v) of [(w, 1)] since the image direction is
    (2x + v, -1).  With u = x - 1 the image is (u^2 + y + a, 2 - x,
    -2 u - v, a).  Per output the evaluator returns a tuple of its value
    pair, at order >= 1 its gradient over (x, y, v, a), and at order 2 its
    Hessian row over x, in a 1-tuple.  The kernel calls are those that
    forward-mode differentiation of the same expression makes on operands
    that depend on the box, so the bits are that route's; u is checked
    before it enters a product, and every other pair computed before it is
    returned.
    """
    isub, imul, iadd = _k.isub, _k.imul, _k.iadd
    (u,) = check_pairs((isub(x, _ONE),))
    if order:
        (two_u,) = check_pairs((imul((2.0, 2.0), u),))
    values = check_pairs((
        iadd(iadd(_k.isqr(u), y), a),
        isub((2.0, 2.0), x),
        isub(imul(u, (-2.0, -2.0)), v),
    ))
    if not order:
        return (values[0],), (values[1],), (values[2],), (a,)
    grads = ((two_u, _ONE, _ZERO, _ONE),) + _SWITCH_GRADS
    outs = tuple(zip(values + (a,), grads))
    if order == 2:
        return tuple([out + (rows,) for out, rows in zip(outs, _SWITCH_ROWS)])
    return outs


def switch_map():
    """switch_evaluator as a map of the covering protocol."""
    return _SwitchMap(switch_evaluator)


class ToyChain(Record):
    """sets: N_0..N_k, M_s..M_0; maps: one map per link, of the covering
    module's map protocol."""

    __slots__ = ("sets", "forms", "maps", "k", "s")

    def __init__(self, sets, forms, maps, k, s):
        self._set(sets, forms, maps, k, s)

    @property
    def n_links(self):
        return len(self.sets) - 1


def _chain_sizes(params, k):
    lam_abs = abs(params.lam)
    delta = params.delta
    x_sizes = [0.0] * (k + 1)
    x_sizes[k] = delta / 2.0
    shrink = max(0.8, 1.1 / lam_abs)
    for i in range(k - 1, 0, -1):
        x_sizes[i] = x_sizes[i + 1] * shrink
    return x_sizes


def _pick_end_length(params):
    # |mu|^s must be well below (1 - |mu|) * ybar for the last entry check;
    # past s = 200 the chain is not built.
    mu_abs = abs(params.mu)
    ybar = (0.5 + params.eps) * params.delta
    target = 0.45 * (1.0 - mu_abs) * ybar
    s = 4
    while mu_abs**s >= target:
        if s == 200:
            raise VerificationInconclusive(
                "chain-build", "chain end length",
                f"at s = {s}, |mu|^s = {mu_abs**s!r} is not below the "
                f"entry target {target!r}")
        s += 1
    return s


def build_toy_chain(params=None):
    """Concrete h-sets, cone forms and per-link maps for the full chain.

    The reference inequality system pins the switch-link sizes; the interior
    sizes are geometric choices satisfying the strict wall inequalities for
    any valid parameters.  The reference size recursions for the chain-end
    sets are indexed opposite to the chain direction; the geometry here
    follows the chain direction and the mismatch is recorded as a flag
    rather than reinterpreted silently.
    """
    params = (params or ToyParams()).validate()
    lam, mu = params.lam, params.mu
    delta, eps = params.delta, params.eps
    k, s = K, _pick_end_length(params)

    # Start sets N_0..N_k along the unstable axis, centers lam^(i-k).
    x_sizes = _chain_sizes(params, k)
    y_size = delta / 3.0
    v_size = (1.0 - eps) * delta / 2.0
    centers_x = [0.0] * (k + 1)
    centers_x[k] = 1.0
    for i in range(k - 1, 0, -1):
        centers_x[i] = centers_x[i + 1] / lam
    x_sizes[0] = 1.1 * (abs(centers_x[1]) + x_sizes[1]) / abs(lam)

    n_sets = []
    n_forms = []
    # Every set has the identity frame: one Frame, shared.
    eye4 = Frame([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    for i in range(k + 1):
        diam = (x_sizes[i], y_size, v_size, delta * 1.1 ** (k - i))
        n_sets.append(
            HSet(f"N{i}", (centers_x[i], 0.0, 0.0, 0.0), eye4, diam, (0, 3))
        )
        beta_i = 0.25 * FORM_GROWTH ** (i - k)
        n_forms.append(QuadraticForm((1.0, -4.0, -2.0, beta_i), (0, 3)))

    # End sets M_s..M_0 along the stable axis, centers mu^(s-j) (0 for M_0).
    xbar = delta / 3.0
    ybar = (0.5 + eps) * delta
    wbar = (1.0 - eps) * delta / 2.0
    centers_y = [0.0] * (s + 1)
    centers_y[s] = 1.0
    for j in range(s - 1, 0, -1):
        centers_y[j] = centers_y[j + 1] * mu
    m_sets = []
    m_forms = []
    for j in range(s, -1, -1):
        diam = (xbar, ybar, wbar, (1.0 + eps) * delta * 1.1 ** (s - j))
        m_sets.append(
            HSet(f"M{j}", (0.0, centers_y[j], 0.0, 0.0), eye4, diam, (0, 2))
        )
        d_j = 0.5 * FORM_GROWTH ** (j - s)
        m_forms.append(QuadraticForm((1.0, -1.0, 1.0, -d_j), (0, 2)))

    start = linear_start_map(params)
    end = linear_end_map(params)
    switch = switch_map()
    maps = [start] * k + [switch] + [end] * s

    return ToyChain(
        sets=tuple(n_sets + m_sets),
        forms=tuple(n_forms + m_forms),
        maps=tuple(maps),
        k=k,
        s=s,
    )


def linear_link_indices(chain):
    """Indices of the chain links with linear dynamics (all but the switch)."""
    return [i for i in range(chain.n_links) if i != chain.k]


def switch_cone_blocks(q_n, q_m):
    """The two 2x2 blocks deciding the switch-link cone condition at the
    tangency point x = 1, read off N_k's form q_n on (x, y, v, a) and M_s's
    form q_m on (x, y, w, a).

    With q_n = alpha x^2 - gamma y^2 - delta v^2 + beta a^2 and
    q_m = A x^2 - C y^2 + B w^2 - D a^2, the cone matrix of the switch
    derivative at x = 1 splits into its (x, v) and (a, y) blocks

        [[4B - C - alpha, 2B], [2B, B + delta]]   and
        [[A - D - beta, A], [A, A + gamma]].

    Each entry is enclosed by the interval kernels on the signed
    coefficients: q_m's are added and q_n's subtracted (4B + (-C) - alpha).
    Each block is rows of (lo, hi) pairs, checked.
    """
    n_x, n_y, n_v, n_a = ((c, c) for c in q_n.coeffs)
    m_x, m_y, m_w, m_a = ((c, c) for c in q_m.coeffs)
    two_b = _k.imul((2.0, 2.0), m_w)
    q1 = ((_k.isub(_k.iadd(_k.imul((4.0, 4.0), m_w), m_y), n_x), two_b),
          (two_b, _k.isub(m_w, n_v)))
    q2 = ((_k.isub(_k.iadd(m_x, m_a), n_a), m_x),
          (m_x, _k.isub(m_x, n_y)))
    return checked_rows(q1), checked_rows(q2)


def switch_transversality(chain):
    """The transversality of W^u and W^s at the switch link, read off the
    switch map: Theorem 2.1's generic unfolding.

    W^u runs through N_k, the set the switch link leaves, on y = 0 with
    slope v = 0, and the switch map sends its point at x, at parameter a,
    to x' = g(x, a); W^s is x' = 0.  switch_evaluator at order 2 on N_k's
    outward box in x and a gives g_t and g_a (t = x) from x''s gradient
    and g_tt and g_ta from its Hessian row over x.  The tangency,
    g = g_t = 0, unfolds generically iff the determinant of
    d(g, g_t)/d(a, t), g_a g_tt - g_t g_ta, is nonzero on the box.  Returns
    the box and the enclosures as [lo, hi] lists.
    """
    box = chain.sets[chain.k].box()
    _, (g_t, _, _, g_a), ((g_tt, _, _, g_ta),) = switch_evaluator(
        box[0], _ZERO, _ZERO, box[3], 2)[0]
    det = _det(((g_a, g_t), (g_ta, g_tt)))
    return {name: list(pair) for name, pair in (
        ("x", box[0]), ("a", box[3]), ("g_t", g_t), ("g_a", g_a),
        ("g_tt", g_tt), ("g_ta", g_ta), ("det", det))}


def check_toy(params):
    """The model's certificate suite: (certificates by report stage,
    timings, {}), the shape of henon.run_proof's result; a toy report has
    no further keys.  The chain is built to nearest; then
    covering.run_stages runs the covering stage at params.grid, the
    linear-link cone, switch-block and transversality stages, and raises
    on the first inconclusive one.  The switch-block and transversality
    stages keep their own certificates when they fail."""

    def build():
        chain = build_toy_chain(params)
        switch_locus, switch_set = "tangency-point cone blocks", chain.sets[chain.k].name

        def switch_blocks(done):
            blocks = {name: rump_positive_definite(q) for name, q in zip(
                ("Q1", "Q2"), switch_cone_blocks(*chain.forms[chain.k:chain.k + 2]))}
            if not all(r.positive_definite for r in blocks.values()):
                raise VerificationInconclusive("toy-switch", switch_locus,
                                               "not positive definite", {"switch_blocks": blocks})
            return blocks

        def transversality(done):
            stage = switch_transversality(chain)
            if not stage["det"][0] > 0.0:
                raise VerificationInconclusive(
                    "toy-transversality", switch_set,
                    f"determinant lower bound {stage['det'][0]!r} is not above 0",
                    {"transversality": stage})
            return stage

        return chain, [
            ("covering", "covering", "covering", "chain",
             lambda done: check_chain(list(chain.sets), list(chain.maps), grid=params.grid)),
            ("cones_linear_links", "cones_linear_links", "cones", "chain",
             lambda done: certify_each("cones_linear_links", check_cone_link, [
                 (done["covering"][i], chain.forms[i], chain.forms[i + 1])
                 for i in linear_link_indices(chain)])),
            ("switch_blocks", "switch_blocks", "toy-switch", switch_locus, switch_blocks),
            ("transversality", "transversality", "toy-transversality", switch_set,
             transversality)]

    _, certified, timings = run_stages(build)
    return certified, timings, {}
