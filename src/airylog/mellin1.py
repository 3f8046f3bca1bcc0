"""Incomplete Mellin transforms of Ai and Ai' with their polynomial
ladders and generating functions.

The central objects:

* the derivative polynomials P_k, Q_k with  d^k Ai/dz^k = P_k Ai + Q_k Ai',
  generated by P_{k+1} = P_k' + z Q_k, Q_{k+1} = Q_k' + P_k (exact integer
  coefficients; the three-term recurrences serve as cross-checks);
* their generating functions xi(t,z), lambda(t,z), which translate Airy
  data from z to z+t, and the z-derivative ladders xi^(i), lambda^(i)
  needed by the small-a machinery of :mod:`airylog.stieltjes1`;
* the transforms I_n(a) = int_a^inf z^n Ai dz and the primed variant,
  reduced exactly (rational Laurent coefficients) onto the irreducible
  base set {I_0, I_-1, I_-2, Ai(a), Ai'(a)} via the third-order recurrence;
  the explicit 3k-family formulas provide an independent second route.

Empty-sum convention: any family sum with a negative upper limit is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .airy import airy, scorer_gi
from .ddreal import (
    XReal,
    dd_add,
    dd_div,
    dd_div_f,
    dd_ln,
    dd_mul,
    dd_mul_f,
    dd_powi,
    dd_sub,
    EULER_GAMMA,
    LN3,
    PI,
    SQRT3,
)
from .errors import DomainError
from .kernel import (
    AI0,
    AIP0,
    GAMMA_1_3,
    GAMMA_2_3,
    SMALLA_PAST_N,
    hyp,
    poly_add,
    poly_deriv,
    poly_eval_dd,
    poly_scale,
    poly_shift,
)
from .results import TransformResult

_F13 = Fraction(1, 3)
_F23 = Fraction(2, 3)
_F43 = Fraction(4, 3)
_F53 = Fraction(5, 3)
_F73 = Fraction(7, 3)


# -- polynomial ladders ------------------------------------------------------

@dataclass(frozen=True)
class PQPoly:
    """P_k, Q_k as integer coefficient lists (low power first)."""

    P: tuple
    Q: tuple


@lru_cache(maxsize=None)
def pq_row(k: int) -> PQPoly:
    """P_k, Q_k for 0 <= k <= 120, from row k - 1 by the first-order
    recurrences P_k = P_{k-1}' + z Q_{k-1}, Q_k = Q_{k-1}' + P_{k-1}."""
    if not 0 <= k <= 120:
        raise DomainError("pq_row supports 0 <= k <= 120")
    if k == 0:
        return PQPoly((1,), (0,))
    prev = pq_row(k - 1)
    return PQPoly(poly_add(poly_deriv(prev.P), poly_shift(prev.Q)),
                  poly_add(poly_deriv(prev.Q), prev.P))


def amatrix_row(k: int) -> tuple:
    """Coefficient row A[k][i] of z^4 F_k(z) = z(2P_k - Q_{k+1}) + 3Q_k,
    0 <= k <= 119.

    Reconstructed directly from the ladder; the printed rows and the
    closed first-column entries 3^{k+1}Gamma(k+2/3)/Gamma(2/3) are test
    fixtures for it.
    """
    row, nxt = pq_row(k), pq_row(k + 1)
    inner = poly_add(poly_scale(row.P, 2), poly_scale(nxt.Q, -1))
    return poly_add(poly_shift(inner), poly_scale(row.Q, 3))


# -- generating functions ----------------------------------------------------

def genfunc_xi(t: float, z: float) -> XReal:
    """xi(t,z) = pi[Bi'(z)Ai(z+t) - Ai'(z)Bi(z+t)]; xi(0,z) = 1."""
    s0 = airy(z)
    s1 = airy(z + t)
    return PI * (s0.bip * s1.ai - s0.aip * s1.bi)


def genfunc_lambda(t: float, z: float) -> XReal:
    """lambda(t,z) = pi[Ai(z)Bi(z+t) - Bi(z)Ai(z+t)]; lambda(0,z) = 0."""
    s0 = airy(z)
    s1 = airy(z + t)
    return PI * (s0.ai * s1.bi - s0.bi * s1.ai)


def xi_lambda_derivs(a: float):
    """z-derivatives xi^(i)(-a, 0), lambda^(i)(-a, 0) for i = 0 ..
    6 + SMALLA_PAST_N, the orders a small-a sum reads.

    Assembled from the ladder values P_j(0), Q_j(0) (exact integers) and
    P_{i-j}(-a), Q_{i-j}(-a) through the binomial translation identity;
    reproduces the printed i <= 3 instances exactly.
    """
    orders = range(6 + SMALLA_PAST_N + 1)
    st = airy(-a)
    jm = dd_sub(dd_mul(SQRT3.pair, st.ai.pair), st.bi.pair)
    jp = dd_add(dd_mul(SQRT3.pair, st.ai.pair), st.bi.pair)
    jmp = dd_sub(dd_mul(SQRT3.pair, st.aip.pair), st.bip.pair)
    jpp = dd_add(dd_mul(SQRT3.pair, st.aip.pair), st.bip.pair)
    ma = (-a, 0.0)
    pz = [poly_eval_dd(pq_row(m).P, ma) for m in orders]
    qz = [poly_eval_dd(pq_row(m).Q, ma) for m in orders]
    # minus-combo and plus-combo per order m
    minus = [dd_add(dd_mul(pz[m], jm), dd_mul(qz[m], jmp)) for m in orders]
    plus = [dd_add(dd_mul(pz[m], jp), dd_mul(qz[m], jpp)) for m in orders]
    a0p, ap0p = AI0.pair, AIP0.pair
    xs, ls = [], []
    for i in orders:
        xi_acc = (0.0, 0.0)
        lam_acc = (0.0, 0.0)
        for j in range(i + 1):
            b = float(math.comb(i, j))
            row, nxt = pq_row(j), pq_row(j + 1)
            p0_next, q0_next = nxt.P[0], nxt.Q[0]
            p0, q0 = row.P[0], row.Q[0]
            m = minus[i - j]
            p = plus[i - j]
            if p0_next:
                xi_acc = dd_add(xi_acc, dd_mul_f(dd_mul(a0p, m), b * p0_next))
            if q0_next:
                xi_acc = dd_sub(xi_acc, dd_mul_f(dd_mul(ap0p, p), b * q0_next))
            if p0:
                lam_acc = dd_sub(lam_acc, dd_mul_f(dd_mul(a0p, m), b * p0))
            if q0:
                lam_acc = dd_add(lam_acc, dd_mul_f(dd_mul(ap0p, p), b * q0))
        xs.append(XReal.from_pair(dd_mul(PI.pair, xi_acc)))
        ls.append(XReal.from_pair(dd_mul(PI.pair, lam_acc)))
    return xs, ls


# -- irreducible base transforms ---------------------------------------------

def I0_hyp(a: float, tol: float = 1e-30) -> XReal:
    """I_0(a) = int_a^inf Ai = 1/3 - Ai(0) a 1F2(1/3;2/3,4/3;a^3/9)
    - Ai'(0) (a^2/2) 1F2(2/3;4/3,5/3;a^3/9)."""
    ap = (float(a), 0.0)
    z3 = XReal.from_pair(dd_div_f(dd_powi(ap, 3), 9.0))
    h1 = hyp((_F13,), (_F23, _F43), z3, tol=tol)
    h2 = hyp((_F23,), (_F43, _F53), z3, tol=tol)
    t1 = dd_mul(dd_mul(AI0.pair, ap), h1.pair)
    t2 = dd_mul_f(dd_mul(dd_mul(AIP0.pair, dd_powi(ap, 2)), h2.pair), 0.5)
    third = dd_div_f((1.0, 0.0), 3.0)
    return XReal.from_pair(dd_sub(dd_sub(third, t1), t2))


def I0_scorer(a: float) -> XReal:
    """Second route: I_0(a) = pi[Ai(a)Gi'(a) - Ai'(a)Gi(a)]."""
    st = airy(a)
    gi, gip = scorer_gi(a)
    return PI * (st.ai * gip - st.aip * gi)


def Im1_hyp(a: float, tol: float = 1e-28) -> XReal:
    """I_{-1}(a) = int_a^inf Ai/z dz.

    -Ai'(0) a 1F2(1/3;4/3,4/3;.) - (Ai(0)/18) a^3 2F3(1,1;2,2,5/3;.)
    - (Ai(0)/6) [6 ln a - ln 3 + 4 gamma + sqrt(3) pi / 3], arg a^3/9.
    """
    if not a > 0.0:
        raise DomainError("I_{-1} needs a > 0")
    ap = (float(a), 0.0)
    z3 = XReal.from_pair(dd_div_f(dd_powi(ap, 3), 9.0))
    h1 = hyp((_F13,), (_F43, _F43), z3, tol=tol)
    h2 = hyp((1, 1), (2, 2, _F53), z3, tol=tol)
    const = dd_add(
        dd_sub(dd_mul_f(dd_ln(ap), 6.0), LN3.pair),
        dd_add(dd_mul_f(EULER_GAMMA.pair, 4.0),
               dd_div_f(dd_mul(SQRT3.pair, PI.pair), 3.0)),
    )
    t1 = dd_mul(dd_mul(AIP0.pair, ap), h1.pair)
    t2 = dd_div_f(dd_mul(dd_mul(AI0.pair, dd_powi(ap, 3)), h2.pair), 18.0)
    t3 = dd_div_f(dd_mul(AI0.pair, const), 6.0)
    return XReal.from_pair(dd_sub(dd_sub(dd_mul_f(t1, -1.0), t2), t3))


def Im2_hyp(a: float, tol: float = 1e-28) -> XReal:
    """I_{-2}(a) = int_a^inf Ai/z^2 dz.

    (Ai(0)/a) 1F2(-1/3;2/3,2/3;.) - (Ai'(0)/36) a^3 2F3(1,1;2,2,7/3;.)
    - (Ai'(0)/6) [6 ln a - ln 3 + 4 gamma - 6 - sqrt(3) pi / 3], arg a^3/9.
    """
    if not a > 0.0:
        raise DomainError("I_{-2} needs a > 0")
    ap = (float(a), 0.0)
    z3 = XReal.from_pair(dd_div_f(dd_powi(ap, 3), 9.0))
    h1 = hyp((Fraction(-1, 3),), (_F23, _F23), z3, tol=tol)
    h2 = hyp((1, 1), (2, 2, _F73), z3, tol=tol)
    const = dd_add(
        dd_sub(dd_mul_f(dd_ln(ap), 6.0), LN3.pair),
        dd_sub(dd_mul_f(EULER_GAMMA.pair, 4.0),
               dd_add((6.0, 0.0), dd_div_f(dd_mul(SQRT3.pair, PI.pair), 3.0))),
    )
    t1 = dd_div(dd_mul(AI0.pair, h1.pair), ap)
    t2 = dd_div_f(dd_mul(dd_mul(AIP0.pair, dd_powi(ap, 3)), h2.pair), 36.0)
    t3 = dd_div_f(dd_mul(AIP0.pair, const), 6.0)
    return XReal.from_pair(dd_sub(dd_sub(t1, t2), t3))


# -- exact reduction to the base set ----------------------------------------

@dataclass(frozen=True)
class Reduction:
    """I_m(a) = alpha I_0 + beta I_{-1} + gamma I_{-2} + u(a) Ai + v(a) Ai'
    with exact rational Laurent coefficients u, v (dicts power -> Fraction).
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    u: dict
    v: dict


def _laurent_scaled(d: dict, s: Fraction) -> dict:
    return {p: c * s for p, c in d.items() if c} if s else {}


def _laurent_addto(d: dict, p: int, c: Fraction):
    d[p] = d.get(p, Fraction(0)) + c


@lru_cache(maxsize=None)
def reduce_In(m: int) -> Reduction:
    """Exact reduction of I_m, any -60 <= m <= 80."""
    if m > 80 or m < -60:
        raise DomainError("reduce_In supports -60 <= m <= 80")
    if m == 0:
        return Reduction(Fraction(1), Fraction(0), Fraction(0), {}, {})
    if m == -1:
        return Reduction(Fraction(0), Fraction(1), Fraction(0), {}, {})
    if m == -2:
        return Reduction(Fraction(0), Fraction(0), Fraction(1), {}, {})
    if m >= 1:
        # I_m = (m-1)(m-2) I_{m-3} + (m-1) a^{m-2} Ai - a^{m-1} Ai'
        base = reduce_In(m - 3)
        s = Fraction((m - 1) * (m - 2))
        u = _laurent_scaled(base.u, s)
        v = _laurent_scaled(base.v, s)
        if m > 1:
            _laurent_addto(u, m - 2, Fraction(m - 1))
        _laurent_addto(v, m - 1, Fraction(-1))
        return Reduction(s * base.alpha, s * base.beta, s * base.gamma, u, v)
    # m <= -3: I_{n-3} = [I_n + a^{n-1} Ai' - (n-1) a^{n-2} Ai]/((n-1)(n-2))
    n = m + 3
    base = reduce_In(n)
    den = Fraction((n - 1) * (n - 2))
    u = _laurent_scaled(base.u, 1 / den)
    v = _laurent_scaled(base.v, 1 / den)
    _laurent_addto(u, n - 2, Fraction(-(n - 1)) / den)
    _laurent_addto(v, n - 1, Fraction(1) / den)
    return Reduction(base.alpha / den, base.beta / den, base.gamma / den, u, v)


@lru_cache(maxsize=None)
def reduce_Iprime(m: int) -> Reduction:
    """Exact reduction of I'_m = int_a^inf z^m Ai' dz."""
    if m == 0:
        return Reduction(Fraction(0), Fraction(0), Fraction(0),
                         {0: Fraction(-1)}, {})
    if m >= 1:
        base = reduce_In(m - 1)
        u = _laurent_scaled(base.u, Fraction(-m))
        v = _laurent_scaled(base.v, Fraction(-m))
        _laurent_addto(u, m, Fraction(-1))
        return Reduction(-m * base.alpha, -m * base.beta, -m * base.gamma, u, v)
    if m == -1:
        # I'_{-1} = I_{-2} - Ai/a
        return Reduction(Fraction(0), Fraction(0), Fraction(1),
                         {-1: Fraction(-1)}, {})
    # m <= -2:  I'_{-n} = [Ai'/a^{n-1} + I_{-n+2}]/(n-1),  n = -m
    n = -m
    base = reduce_In(-n + 2)
    den = Fraction(n - 1)
    u = _laurent_scaled(base.u, 1 / den)
    v = _laurent_scaled(base.v, 1 / den)
    _laurent_addto(v, -(n - 1), 1 / den)
    return Reduction(base.alpha / den, base.beta / den, base.gamma / den, u, v)


def eval_laurent_dd(d: dict, a_pair):
    acc = (0.0, 0.0)
    for p, c in d.items():
        if not c:
            continue
        term = dd_powi(a_pair, p)
        if abs(c.numerator) <= 2**53 and abs(c.denominator) <= 2**53:
            term = dd_div_f(dd_mul_f(term, float(c.numerator)),
                            float(c.denominator))
        else:
            term = dd_mul(term, XReal.from_fraction(c).pair)
        acc = dd_add(acc, term)
    return acc


class BaseValues:
    """I_0, I_{-1}, I_{-2}, Ai, Ai' at a fixed a > 0, computed once, and
    each reduced transform I_m, I'_m, computed on first use and kept per
    instance; a <= 0 raises :class:`DomainError` (from :func:`Im1_hyp`)."""

    def __init__(self, a: float, tol: float = 1e-28):
        self.a = float(a)
        self.a_pair = (float(a), 0.0)
        st = airy(a)
        self.ai = st.ai.pair
        self.aip = st.aip.pair
        self.I0 = I0_hyp(a, tol).pair
        self.Im1 = Im1_hyp(a, tol).pair
        self.Im2 = Im2_hyp(a, tol).pair
        self._memo = {}

    def I(self, m: int):
        """I_m(a) as a dd pair, by :func:`reduce_In`."""
        return self._reduced(reduce_In, m)

    def Iprime(self, m: int):
        """I'_m(a) as a dd pair, by :func:`reduce_Iprime`."""
        return self._reduced(reduce_Iprime, m)

    def _reduced(self, reduce, m: int):
        val = self._memo.get((reduce, m))
        if val is None:
            val = self._memo[reduce, m] = self._evaluate(reduce(m))
        return val

    def _evaluate(self, red: Reduction):
        acc = (0.0, 0.0)
        for coeff, base in ((red.alpha, self.I0), (red.beta, self.Im1),
                            (red.gamma, self.Im2)):
            if coeff:
                acc = dd_add(acc, dd_mul(base,
                                         XReal.from_fraction(coeff).pair))
        if red.u:
            acc = dd_add(acc, dd_mul(self.ai,
                                     eval_laurent_dd(red.u, self.a_pair)))
        if red.v:
            acc = dd_add(acc, dd_mul(self.aip,
                                     eval_laurent_dd(red.v, self.a_pair)))
        return acc


# -- the public transform operations ----------------------------------------

def _family_In(n: int, base: BaseValues) -> XReal:
    """Explicit 3k/3k+1/3k+2 family formulas for I_n, n >= 0 (second
    route; the factorial-index misprints of the printed negative families
    are documented in the validation report)."""
    a = base.a_pair
    k, mu = divmod(n, 3)
    a3 = dd_powi(a, 3)
    if mu == 0:
        # (3k)!/(3^k k!) {I0 + a Ai sum - a^2 Ai' sum}
        pref = Fraction(math.factorial(3 * k), 3 ** k * math.factorial(k))
        s1 = (0.0, 0.0)
        s2 = (0.0, 0.0)
        t = (1.0, 0.0)  # (3a^3)^l l! / (3l+1)!
        t2 = (0.5, 0.0)  # (3a^3)^l l! / (3l+2)!
        for l in range(k):
            s1 = dd_add(s1, t)
            s2 = dd_add(s2, t2)
            r = float((l + 1) * 3)
            t = dd_mul(dd_mul_f(t, r / float((3 * l + 2) * (3 * l + 3) * (3 * l + 4))), a3)
            t2 = dd_mul(dd_mul_f(t2, r / float((3 * l + 3) * (3 * l + 4) * (3 * l + 5))), a3)
        inner = dd_add(base.I0, dd_mul(dd_mul(a, base.ai), s1))
        inner = dd_sub(inner, dd_mul(dd_mul(dd_powi(a, 2), base.aip), s2))
        return XReal.from_pair(dd_mul(inner, XReal.from_fraction(pref).pair))
    if mu == 1:
        # 3^{2k} k! Gamma(k+2/3) {(a^2/3) Ai sum_{l<k} (a^3/9)^l/(l! G(l+5/3))
        #                         - Ai' sum_{l<=k} (a^3/9)^l/(l! G(l+2/3))}
        s1 = (0.0, 0.0)
        s2 = (0.0, 0.0)
        t1 = (1.0, 0.0)  # ratio chain for G(l+5/3): value (a^3/9)^l/(l! (5/3)_l)
        t2 = (1.0, 0.0)  # for G(l+2/3): (a^3/9)^l/(l! (2/3)_l)
        a39 = dd_div_f(a3, 9.0)
        for l in range(k + 1):
            if l < k:
                s1 = dd_add(s1, t1)
            s2 = dd_add(s2, t2)
            t1 = dd_div_f(dd_mul_f(dd_mul(t1, a39), 3.0), float((l + 1) * (3 * l + 5)))
            t2 = dd_div_f(dd_mul_f(dd_mul(t2, a39), 3.0), float((l + 1) * (3 * l + 2)))
        # prefactor 3^{2k} k! Gamma(k+2/3); the Gamma ratios relative to
        # the l = 0 anchors are folded into the running chains
        g23 = GAMMA_2_3.pair
        g53 = dd_mul_f(g23, 2.0 / 3.0)  # G(5/3) = (2/3) G(2/3)
        gk23 = g23
        for l in range(k):
            gk23 = dd_mul_f(gk23, l + 2.0 / 3.0)
        pref = 3.0 ** (2 * k) * math.factorial(k)
        part1 = dd_mul(dd_mul_f(dd_mul(dd_powi(a, 2), base.ai), 1.0 / 3.0),
                       dd_mul(s1, dd_div(gk23, g53)))
        part2 = dd_mul(base.aip, dd_mul(s2, dd_div(gk23, g23)))
        return XReal.from_pair(dd_mul_f(dd_sub(part1, part2), pref))
    # mu == 2: 3^{2k} k! Gamma(k+4/3) {3 Ai sum/G(l+1/3) - a Ai' sum/G(l+4/3)}
    g13 = GAMMA_1_3.pair
    g43 = dd_mul_f(g13, 1.0 / 3.0)
    gk43 = g43
    for l in range(k):
        gk43 = dd_mul_f(gk43, l + 4.0 / 3.0)
    s1 = (0.0, 0.0)
    s2 = (0.0, 0.0)
    t1 = (1.0, 0.0)  # (a^3/9)^l/(l! (1/3)_l)
    t2 = (1.0, 0.0)  # (a^3/9)^l/(l! (4/3)_l)
    a39 = dd_div_f(a3, 9.0)
    for l in range(k + 1):
        s1 = dd_add(s1, t1)
        s2 = dd_add(s2, t2)
        t1 = dd_div_f(dd_mul_f(dd_mul(t1, a39), 3.0), float((l + 1) * (3 * l + 1)))
        t2 = dd_div_f(dd_mul_f(dd_mul(t2, a39), 3.0), float((l + 1) * (3 * l + 4)))
    pref = 3.0 ** (2 * k) * math.factorial(k)
    part1 = dd_mul_f(dd_mul(base.ai, dd_mul(s1, dd_div(gk43, g13))), 3.0)
    part2 = dd_mul(dd_mul(a, base.aip), dd_mul(s2, dd_div(gk43, g43)))
    return XReal.from_pair(dd_mul_f(dd_sub(part1, part2), pref))


def _base(name: str, n: int, a: float) -> BaseValues:
    """The base values at a, after the range checks every route shares."""
    if not -60 <= n <= 80:
        raise DomainError(f"{name} supports -60 <= n <= 80")
    if not a > 0.0:
        raise DomainError(f"{name} needs a > 0")
    return BaseValues(a, 1e-18)


def mellin_closed(n: int, a: float) -> TransformResult:
    """I_n(a) for -60 <= n <= 80, a > 0, by the recurrence reduction, with
    err_est = 1e-14 max(1, |value|).

    Measured against 40-digit quadrature, n in [-3, 6]: the error stays
    below 5% of err_est up to a = 8.5.  Beyond, every n whose reduction
    carries I_0, I_{-1} or I_{-2} (n <= 0, n = 3, 6, ...) loses digits to
    the cancellation in their series and exceeds err_est; the worst
    error / err_est is 1.3 at a = 9, 30 at a = 10, 1.5e3 at a = 11,
    1.3e4 at a = 12 and 1e6 at a = 13 (n = 6; n = 0 gives 0.03, 0.75, 39,
    320 and 2.5e4).  n = 1, 2, 4, 5, ... reduce onto Ai and Ai' alone and
    stay far inside err_est.
    """
    val = XReal.from_pair(_base("mellin_closed", n, a).I(n))
    return TransformResult(val, "recurrence", 1e-14 * max(1.0, abs(float(val))))


def mellin_family(n: int, a: float) -> TransformResult:
    """I_n(a) for 0 <= n <= 80, a > 0, by the explicit 3k-family formulas
    (the second route), with err_est = 1e-13."""
    if n < 0:
        raise DomainError("mellin_family supports n >= 0")
    return TransformResult(_family_In(n, _base("mellin_family", n, a)),
                           "family", 1e-13)


def mellin_prime(n: int, a: float) -> TransformResult:
    """I'_n(a) from the integration-by-parts relations, with the err_est
    of :func:`mellin_closed`.  I'_n reduces onto I_{n-1} (n >= 1) or
    I_{n+2} (n <= -2) and carries its measured accuracy: for n = 1 and
    n = -2 (both through I_0) the error / err_est is 0.03 at a = 9, 0.75
    at a = 10 and 39 at a = 11."""
    val = XReal.from_pair(_base("mellin_prime", n, a).Iprime(n))
    return TransformResult(val, "recurrence", 1e-14 * max(1.0, abs(float(val))))
