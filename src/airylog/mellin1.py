"""Incomplete Mellin transforms of Ai and Ai' with their polynomial
ladders and the z-derivatives of their generating functions.

The central objects:

* the derivative polynomials P_k, Q_k with  d^k Ai/dz^k = P_k Ai + Q_k Ai',
  generated by P_{k+1} = P_k' + z Q_k, Q_{k+1} = Q_k' + P_k (exact integer
  coefficients; the three-term recurrences serve as cross-checks);
* their generating functions xi(t,z) = pi[Bi'(z)Ai(z+t) - Ai'(z)Bi(z+t)]
  = sum_k P_k(z) t^k/k! and lambda(t,z) = pi[Ai(z)Bi(z+t) -
  Bi(z)Ai(z+t)] = sum_k Q_k(z) t^k/k!, which translate Airy data from z
  to z+t, held only as the z-derivative ladders xi^(i), lambda^(i)
  needed by the small-a machinery of :mod:`airylog.stieltjes1`;
* the transforms I_n(a) = int_a^inf z^n Ai dz and the primed variant,
  reduced exactly onto the irreducible base set {I_0, I_-1, I_-2, Ai(a),
  Ai'(a)} via the third-order recurrence, the Ai and Ai' coefficients
  exact rational polynomials in a (n >= 0) or 1/a (n < 0), held and
  evaluated as ``kernel``'s coefficient tuples; the explicit 3k-family
  formulas build the same reduction a second way, from their Gamma ratios
  as rational Pochhammer products.

Empty-sum convention: any family sum with a negative upper limit is 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .airy import JPair, airy
from .ddreal import (
    XReal,
    dd_add,
    dd_div,
    dd_div_f,
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
    SMALLA_PAST_N,
    hyp_params,
    hyp_sum,
    ln_point,
    poly_add,
    poly_deriv,
    poly_eval_dd,
    poly_scale,
    poly_shift,
    power_range_check,
)
from .results import Domain, TransformResult, per_request

#: the pFq terms (c, k, d, F) of I_0, I_-1 and I_-2 (:func:`I_hyp`), which
#: ``kernel.hyp_sum`` sums at a^3/9; the closed form of bigI_1 sums the
#: same six parameter sets at -a^3/9
I_TERMS = {
    0: ((-AI0, 1, None, hyp_params("1/3", "2/3 4/3")),
        (-AIP0, 2, 2.0, hyp_params("2/3", "4/3 5/3"))),
    -1: ((-AIP0, 1, None, hyp_params("1/3", "4/3 4/3")),
         (-AI0, 3, 18.0, hyp_params("1 1", "2 2 5/3"))),
    -2: ((AI0, -1, None, hyp_params("-1/3", "2/3 2/3")),
         (-AIP0, 3, 36.0, hyp_params("1 1", "2 2 7/3"))),
}
_PI_SQRT3_3 = dd_div_f(dd_mul(SQRT3.pair, PI.pair), 3.0)
#: the weight and the constant part (4 gamma + sqrt(3) pi / 3 and
#: 4 gamma - 6 - sqrt(3) pi / 3) of the log terms of I_-1 and I_-2
_LOG_TERMS = {
    -1: (AI0.pair, dd_add(dd_mul_f(EULER_GAMMA.pair, 4.0), _PI_SQRT3_3)),
    -2: (AIP0.pair, dd_sub(dd_mul_f(EULER_GAMMA.pair, 4.0),
                           dd_add((6.0, 0.0), _PI_SQRT3_3))),
}

#: the domains of the recurrence routes and of the 3k-family formulas
MELLIN = Domain(k_lo=-60, k_hi=80)
FAMILY = Domain(k_lo=0, k_hi=80)


# -- polynomial ladders ------------------------------------------------------

class PQPoly(NamedTuple):
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


# -- generating-function derivatives -----------------------------------------

def xi_lambda_derivs(a: float):
    """z-derivatives xi^(i)(-a, 0), lambda^(i)(-a, 0) for i = 0 ..
    6 + SMALLA_PAST_N, the orders a small-a sum reads.

    Assembled from the ladder values P_j(0), Q_j(0) (exact integers) and
    P_{i-j}(-a), Q_{i-j}(-a) through the binomial translation identity;
    reproduces the printed i <= 3 instances exactly.
    """
    orders = range(6 + SMALLA_PAST_N + 1)
    jm, jp, jmp, jpp = (j.pair for j in JPair.of(airy(-a)))
    ma = (-a, 0.0)
    pz = [poly_eval_dd(pq_row(m).P, ma) for m in orders]
    qz = [poly_eval_dd(pq_row(m).Q, ma) for m in orders]
    # Ai(0) times the minus-combo and Ai'(0) times the plus-combo per order m
    a0p, ap0p = AI0.pair, AIP0.pair
    minus = [dd_mul(a0p, dd_add(dd_mul(pz[m], jm), dd_mul(qz[m], jmp)))
             for m in orders]
    plus = [dd_mul(ap0p, dd_add(dd_mul(pz[m], jp), dd_mul(qz[m], jpp)))
            for m in orders]
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
                xi_acc = dd_add(xi_acc, dd_mul_f(m, b * p0_next))
            if q0_next:
                xi_acc = dd_sub(xi_acc, dd_mul_f(p, b * q0_next))
            if p0:
                lam_acc = dd_sub(lam_acc, dd_mul_f(m, b * p0))
            if q0:
                lam_acc = dd_add(lam_acc, dd_mul_f(p, b * q0))
        xs.append(XReal.from_pair(dd_mul(PI.pair, xi_acc)))
        ls.append(XReal.from_pair(dd_mul(PI.pair, lam_acc)))
    return xs, ls


# -- irreducible base transforms ---------------------------------------------

def I_hyp(m: int, a: float, tol: float) -> XReal:
    """I_m(a) = int_a^inf z^m Ai dz for m in {0, -1, -2}, a > 0: the pFq
    terms of :data:`I_TERMS`, each F at a^3/9, summed to ``tol`` after 1/3
    for m = 0, then less the log term for m < 0:

      I_0    = 1/3 - Ai(0) a 1F2(1/3;2/3,4/3) - (Ai'(0)/2) a^2 1F2(2/3;4/3,5/3),
      I_{-1} = -Ai'(0) a 1F2(1/3;4/3,4/3) - (Ai(0)/18) a^3 2F3(1,1;2,2,5/3)
               - (Ai(0)/6) [6 ln a - ln 3 + 4 gamma + sqrt(3) pi / 3],
      I_{-2} = (Ai(0)/a) 1F2(-1/3;2/3,2/3) - (Ai'(0)/36) a^3 2F3(1,1;2,2,7/3)
               - (Ai'(0)/6) [6 ln a - ln 3 + 4 gamma - 6 - sqrt(3) pi / 3].
    """
    if m not in I_TERMS or not a > 0.0:
        raise DomainError(f"I_hyp needs m in {{0, -1, -2}} and a > 0, "
                          f"not m = {m!r}, a = {a!r}")
    ap = (float(a), 0.0)
    z3 = XReal.from_pair(dd_div_f(dd_powi(ap, 3), 9.0))
    acc = hyp_sum(I_TERMS[m], ap, z3, tol,
                  dd_div_f((1.0, 0.0), 3.0) if m == 0 else (0.0, 0.0))
    if m < 0:
        weight, const = _LOG_TERMS[m]
        log = dd_add(dd_sub(dd_mul_f(ln_point(ap[0]), 6.0), LN3.pair), const)
        acc = dd_sub(acc, dd_div_f(dd_mul(weight, log), 6.0))
    return XReal.from_pair(acc)


# -- exact reduction to the base set ----------------------------------------

class Reduction(NamedTuple):
    """I_m(a) = alpha I_0 + beta I_{-1} + gamma I_{-2} + u Ai + v Ai'
    with exact rational coefficients: u and v are coefficient tuples (low
    power first, () for none) in a for m >= 0 and in 1/a for m < 0."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    u: tuple
    v: tuple


def _scaled_plus(red: Reduction, s: Fraction, du: tuple,
                 dv: tuple) -> Reduction:
    """s * red, plus du Ai + dv Ai'."""
    return Reduction(s * red.alpha, s * red.beta, s * red.gamma,
                     poly_add(poly_scale(red.u, s), du),
                     poly_add(poly_scale(red.v, s), dv))


@lru_cache(maxsize=None)
def reduce_In(m: int) -> Reduction:
    """Exact reduction of I_m, any integer m in MELLIN's range."""
    if not (isinstance(m, int) and MELLIN.k_lo <= m <= MELLIN.k_hi):
        raise DomainError("reduce_In supports integers -60 <= m <= 80")
    if -2 <= m <= 0:
        return Reduction(Fraction(m == 0), Fraction(m == -1),
                         Fraction(m == -2), (), ())
    if m >= 1:
        # I_m = (m-1)(m-2) I_{m-3} + (m-1) a^{m-2} Ai - a^{m-1} Ai'
        du = (0,) * (m - 2) + (m - 1,) if m > 1 else ()
        return _scaled_plus(reduce_In(m - 3), Fraction((m - 1) * (m - 2)),
                            du, (0,) * (m - 1) + (-1,))
    # m <= -3: I_{n-3} = [I_n + a^{n-1} Ai' - (n-1) a^{n-2} Ai]/((n-1)(n-2)),
    # in powers of 1/a
    n = m + 3
    s = 1 / Fraction((n - 1) * (n - 2))
    return _scaled_plus(reduce_In(n), s, (0,) * (2 - n) + (-(n - 1) * s,),
                        (0,) * (1 - n) + (s,))


@lru_cache(maxsize=None)
def reduce_Iprime(m: int) -> Reduction:
    """Exact reduction of I'_m = int_a^inf z^m Ai' dz, by reduce_In's rows,
    any integer m in MELLIN's range."""
    if not (isinstance(m, int) and MELLIN.k_lo <= m <= MELLIN.k_hi):
        raise DomainError("reduce_Iprime supports integers -60 <= m <= 80")
    if m >= 0:
        # I'_m = -m I_{m-1} - a^m Ai
        return _scaled_plus(reduce_In(m - 1), Fraction(-m),
                            (0,) * m + (-1,), ())
    if m == -1:
        # I'_{-1} = I_{-2} - Ai/a
        return Reduction(Fraction(0), Fraction(0), Fraction(1), (0, -1), ())
    # m <= -2:  I'_{-n} = [Ai'/a^{n-1} + I_{-n+2}]/(n-1),  n = -m
    s = 1 / Fraction(-m - 1)
    return _scaled_plus(reduce_In(m + 2), s, (), (0,) * (-m - 1) + (s,))


@lru_cache(maxsize=None)
def reduce_family(n: int) -> Reduction:
    """Exact reduction of I_n, 0 <= n <= 80, by the explicit 3k-family
    formulas (the second route; the factorial-index misprints of the
    printed negative families are documented in the validation report):

      I_3k   = (3k)!/(3^k k!) {I_0 + Ai sum_{l<k} 3^l l! a^{3l+1}/(3l+1)!
                                   - Ai' sum_{l<k} 3^l l! a^{3l+2}/(3l+2)!},
      I_3k+1 = 3^{2k} k! {Ai sum_{l<k} G(k+2/3)/G(l+5/3) a^{3l+2}/(3 9^l l!)
                          - Ai' sum_{l<=k} G(k+2/3)/G(l+2/3) a^{3l}/(9^l l!)},
      I_3k+2 = 3^{2k} k! {3 Ai sum_{l<=k} G(k+4/3)/G(l+1/3) a^{3l}/(9^l l!)
                          - Ai' sum_{l<=k} G(k+4/3)/G(l+4/3) a^{3l+1}/(9^l l!)},

    each Gamma ratio G(j+c)/G(l+c) the rational product (l+c)_{j-l}."""
    if not (isinstance(n, int) and FAMILY.k_lo <= n <= FAMILY.k_hi):
        raise DomainError("reduce_family supports integers 0 <= n <= 80")
    k, mu = divmod(n, 3)
    u, v = [0] * max(n - 1, 0), [0] * n
    if mu == 0:
        alpha = Fraction(math.factorial(3 * k), 3 ** k * math.factorial(k))
        for l in range(k):
            t = alpha * 3 ** l * math.factorial(l)
            u[3 * l + 1] = t / math.factorial(3 * l + 1)
            v[3 * l + 2] = -t / math.factorial(3 * l + 2)
        return Reduction(alpha, Fraction(0), Fraction(0), tuple(u), tuple(v))
    c = Fraction(3 - mu, 3)

    def ratio(lo: int, hi: int) -> Fraction:
        """G(hi + c) / G(lo + c) = (lo + c)_{hi - lo}."""
        return math.prod((j + c for j in range(lo, hi)), start=Fraction(1))

    for l in range(k + 1):
        t = Fraction(3 ** (2 * k) * math.factorial(k),
                     9 ** l * math.factorial(l))
        if mu == 1:
            if l < k:
                u[3 * l + 2] = t / 3 * ratio(l + 1, k)
            v[3 * l] = -t * ratio(l, k)
        else:
            u[3 * l] = 3 * t * ratio(l, k + 1)
            v[3 * l + 1] = -t * ratio(l + 1, k + 1)
    return Reduction(Fraction(0), Fraction(0), Fraction(0), tuple(u), tuple(v))


class BaseValues:
    """I_0, I_{-1}, I_{-2}, Ai, Ai' at a fixed a > 0, computed once, and
    each reduced transform I_m, I'_m, computed on first use and kept per
    instance; a <= 0 raises :class:`DomainError` (from :func:`I_hyp`)."""

    def __init__(self, a: float, tol: float):
        self.a = float(a)
        self.a_pair = (float(a), 0.0)
        self.inv_a = dd_div((1.0, 0.0), self.a_pair)
        st = airy(a)
        self.ai = st.ai.pair
        self.aip = st.aip.pair
        self.I0, self.Im1, self.Im2 = (I_hyp(m, a, tol).pair
                                       for m in (0, -1, -2))
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
            val = self._memo[reduce, m] = self._evaluate(
                reduce(m), self.a_pair if m >= 0 else self.inv_a)
        return val

    def _evaluate(self, red: Reduction, x_pair):
        """The reduction at a, its u and v evaluated at x_pair (a or 1/a)."""
        acc = (0.0, 0.0)
        for coeff, base in ((red.alpha, self.I0), (red.beta, self.Im1),
                            (red.gamma, self.Im2)):
            if coeff:
                acc = dd_add(acc, dd_mul(base,
                                         XReal.from_fraction(coeff).pair))
        for poly, base in ((red.u, self.ai), (red.v, self.aip)):
            if poly:
                acc = dd_add(acc, dd_mul(base, poly_eval_dd(poly, x_pair)))
        return acc


@per_request
def base_values(a: float, tol: float) -> BaseValues:
    """:class:`BaseValues` at a with its I_0, I_{-1}, I_{-2} summed to
    ``tol``, built once per point and tolerance within a request scope."""
    return BaseValues(a, tol)


# -- the public transform operations ----------------------------------------

def _base(name: str, domain: Domain, n: int, a: float) -> BaseValues:
    """The base values at a, after the route's domain check."""
    domain.check(name, n, a)
    power_range_check(name, n, a, -n)
    return base_values(a, 1e-18)


def mellin_closed(n: int, a: float) -> TransformResult:
    """I_n(a) on MELLIN (-60 <= n <= 80, a > 0) by the recurrence
    reduction, with err_est = 1e-14 max(1, |value|).

    Measured against 40-digit quadrature, n in [-3, 6]: the error stays
    below 5% of err_est up to a = 8.5.  Beyond, every n whose reduction
    carries I_0, I_{-1} or I_{-2} (n <= 0, n = 3, 6, ...) loses digits to
    the cancellation in their series and exceeds err_est; the worst
    error / err_est is 1.3 at a = 9, 30 at a = 10, 1.5e3 at a = 11,
    1.3e4 at a = 12 and 1e6 at a = 13 (n = 6; n = 0 gives 0.03, 0.75, 39,
    320 and 2.5e4).  n = 1, 2, 4, 5, ... reduce onto Ai and Ai' alone and
    stay far inside err_est.
    """
    val = XReal.from_pair(_base("mellin_closed", MELLIN, n, a).I(n))
    return TransformResult(val, "recurrence", 1e-14 * max(1.0, abs(float(val))))


def mellin_family(n: int, a: float) -> TransformResult:
    """I_n(a) on FAMILY (0 <= n <= 80, a > 0) by the explicit 3k-family
    formulas (the second route), with err_est = 1e-13.  Their exact
    reduction is the recurrence's, so the value is that of
    :func:`mellin_closed` to the last bit."""
    val = _base("mellin_family", FAMILY, n, a)._reduced(reduce_family, n)
    return TransformResult(XReal.from_pair(val), "family", 1e-13)


def mellin_prime(n: int, a: float) -> TransformResult:
    """I'_n(a) from the integration-by-parts relations, with the err_est
    of :func:`mellin_closed`.  I'_n reduces onto I_{n-1} (n >= 1) or
    I_{n+2} (n <= -2) and carries its measured accuracy: for n = 1 and
    n = -2 (both through I_0) the error / err_est is 0.03 at a = 9, 0.75
    at a = 10 and 39 at a = 11."""
    val = XReal.from_pair(_base("mellin_prime", MELLIN, n, a).Iprime(n))
    return TransformResult(val, "recurrence", 1e-14 * max(1.0, abs(float(val))))
