"""Incomplete Mellin transforms of the Airy products Ai^2, Ai'^2, AiAi'.

Naming (mirroring the Stieltjes module for Ai):

* ``calI_n(a) = int_a^inf x^n Ai Ai' dx`` -- the pivot family, a linear
  combination p_n Ai^2 + q_n Ai'^2 + r_n Ai Ai' with exact rational
  polynomial coefficients for n >= 0 (ladder from the three-term
  recurrence), and anchored on three irreducible integrals for n <= -1;
* ``i_n`` and ``i'_n`` for the Ai^2 / Ai'^2 weights, reduced onto calI by
  integration by parts;
* the j-derivative polynomial triples and their squared generating
  functions, whose z-derivatives feed the small-a expansion of the
  Stieltjes transforms of Ai^2 (:func:`Jn_smalla`).

The irreducible integrals with a 1/x weight are summed from the exact
Taylor coefficients of Ai(x)^2 (three residue classes with rational ratio
chains); each carries an additive constant fixed by the regularised
Mellin transform at s -> 0.  The printed closed forms lack these
constants (and one of them has garbled parameters); the quadrature oracle
adjudicates, see the discrepancy report.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .airy import airy
from .ddreal import (
    XReal,
    dd_add,
    dd_div_f,
    dd_mul,
    dd_mul_f,
    dd_neg,
    dd_powi,
    dd_sub,
    EULER_GAMMA,
    LN3,
    PI,
    SQRT3,
)
from .errors import DomainError, RangeError
from .kernel import (
    AI0,
    AIP0,
    ln_point,
    pochhammer,
    poly_add,
    poly_deriv,
    poly_eval_dd,
    poly_scale,
    poly_shift,
    smalla_range_check,
    smalla_sum,
)
from .mellin1 import genfunc_lambda, genfunc_xi, xi_lambda_derivs
from .results import TransformResult, per_request

# squared constants (dd)
A2 = AI0 * AI0
AAP = AI0 * AIP0
AP2 = AIP0 * AIP0

#: additive constants of the irreducible 1/x transforms (regularised
#: Mellin limits; the printed forms omit them)
L_I = -A2 * (Fraction(2, 3) * EULER_GAMMA - LN3 / 6 + SQRT3 * PI / 6)
L_IP = AP2 * (Fraction(2, 3) * EULER_GAMMA - LN3 / 6 - SQRT3 * PI / 6 + 1) * -1
L_CAL = -AAP * (Fraction(2, 3) * EULER_GAMMA + LN3 / 3)


# -- polynomial ladders -------------------------------------------------------

class PqrPoly(NamedTuple):
    """calI_n = p_n Ai^2 + q_n Ai'^2 + r_n Ai Ai' (Fraction coefficients)."""

    p: tuple
    q: tuple
    r: tuple


@lru_cache(maxsize=None)
def pqr_row(n: int) -> PqrPoly:
    """Row n of the p/q/r ladder, 0 <= n <= 60, from row n - 3 by
    2(2n-1) p_n - n(n-1)(n-2) p_{n-3} = -(n-1) a^n, and the q, r
    analogues with right sides -n a^{n-1}, n(n-1) a^{n-2}."""
    if not 0 <= n <= 60:
        raise DomainError("pqr_row supports 0 <= n <= 60")
    if n < 3:  # the seeds calI_0, calI_1, calI_2
        zero, half = Fraction(0), Fraction(-1, 2)
        return (PqrPoly((half,), (zero,), (zero,)),
                PqrPoly((zero,), (half,), (zero,)),
                PqrPoly((zero, zero, Fraction(-1, 6)),
                        (zero, Fraction(-1, 3)), (Fraction(1, 3),)))[n]
    prev = pqr_row(n - 3)
    m = Fraction(n * (n - 1) * (n - 2), 2 * (2 * n - 1))
    inv = Fraction(1, 2 * (2 * n - 1))
    p = poly_add(poly_scale(prev.p, m), (0,) * n + (-(n - 1) * inv,))
    q = poly_add(poly_scale(prev.q, m), (0,) * (n - 1) + (-n * inv,))
    r = poly_add(poly_scale(prev.r, m), (0,) * (n - 2) + (n * (n - 1) * inv,))
    return PqrPoly(p, q, r)


class PQRPoly2(NamedTuple):
    """d^j Ai^2/dx^j = P_j Ai^2 + Q_j Ai'^2 + R_j Ai Ai' (integer polys)."""

    P: tuple
    Q: tuple
    R: tuple


@lru_cache(maxsize=None)
def pqr2_row(j: int) -> PQRPoly2:
    """P_j, Q_j, R_j for 0 <= j <= 80, from row j - 1 by
    P_{j+1} = P_j' + x R_j;  Q_{j+1} = Q_j' + R_j;
    R_{j+1} = R_j' + 2 P_j + 2 x Q_j;  seeds (1, 0, 0)."""
    if not 0 <= j <= 80:
        raise DomainError("pqr2_row supports 0 <= j <= 80")
    if j == 0:
        return PQRPoly2((1,), (0,), (0,))
    prev = pqr2_row(j - 1)
    P, Q, R = prev.P, prev.Q, prev.R
    return PQRPoly2(
        poly_add(poly_deriv(P), poly_shift(R)),
        poly_add(poly_deriv(Q), R),
        poly_add(poly_deriv(R),
                 poly_add(poly_scale(P, 2), poly_shift(poly_scale(Q, 2)))))


def genfunc2(t: float, x: float):
    """(Xi, Lambda, rho)(t, x) = (xi^2, lambda^2, 2 xi lambda)."""
    xi = genfunc_xi(t, x)
    lam = genfunc_lambda(t, x)
    return xi * xi, lam * lam, 2 * xi * lam


def xi2_derivs(a: float):
    """z-derivatives at (-a, 0) of the three squared generating functions,
    by binomial convolution of the xi/lambda ladders (to the orders of
    :func:`xi_lambda_derivs`)."""
    xs, ls = xi_lambda_derivs(a)
    Xi, Lam, Rho = [], [], []
    for i in range(len(xs)):
        sx = (0.0, 0.0)
        sl = (0.0, 0.0)
        sr = (0.0, 0.0)
        for j in range(i + 1):
            b = float(math.comb(i, j))
            sx = dd_add(sx, dd_mul_f(dd_mul(xs[j].pair, xs[i - j].pair), b))
            sl = dd_add(sl, dd_mul_f(dd_mul(ls[j].pair, ls[i - j].pair), b))
            sr = dd_add(sr, dd_mul_f(dd_mul(xs[j].pair, ls[i - j].pair), b))
        Xi.append(XReal.from_pair(sx))
        Lam.append(XReal.from_pair(sl))
        Rho.append(XReal.from_pair(dd_mul_f(sr, 2.0)))
    return Xi, Lam, Rho


# -- irreducible 1/x transforms ----------------------------------------------

@per_request
def _ai2_class_chains(a3_pair, terms: int) -> tuple:
    """Per-class coefficient chains of the Taylor series of Ai(x)^2 times
    a^{3n}: c_n (A^2), d_n (2AiAi'), e_n (2Ai'^2), tuples once per request."""
    cs, ds, es = [(1.0, 0.0)], [(1.0, 0.0)], [(0.5, 0.0)]
    for n in range(terms - 1):
        cs.append(dd_div_f(dd_mul_f(dd_mul(cs[-1], a3_pair), float(12 * n + 2)),
                           float((3 * n + 1) * (3 * n + 2) * (3 * n + 3))))
        ds.append(dd_div_f(dd_mul_f(dd_mul(ds[-1], a3_pair), float(12 * n + 6)),
                           float((3 * n + 2) * (3 * n + 3) * (3 * n + 4))))
        es.append(dd_div_f(dd_mul_f(dd_mul(es[-1], a3_pair), float(12 * n + 10)),
                           float((3 * n + 3) * (3 * n + 4) * (3 * n + 5))))
    return tuple(cs), tuple(ds), tuple(es)


def _series_terms_for(a: float) -> int:
    # peak of the 4a^3/9-type series sits near sqrt(4a^3/9) triples
    peak = math.sqrt(4.0 * a ** 3 / 9.0)
    return min(200, int(3.5 * peak) + 40)


#: largest a for negative indices: against 40-digit quadrature, the worst
#: error over n in [-30, -1] is half of err_est here and passes it near 4.9
NEG_A_MAX = 4.75

_IRREDUCIBLE_A_MAX = {"i": 8.0, "iprime": NEG_A_MAX, "calI": 8.0}

#: largest a of Jn_smalla by order n: up to it the error stays below half
#: of err_est (30-digit quadrature), except n = 1's, 2.0 err_est at 3.75
J_SMALLA_A_MAX = {1: 4.0, 2: 2.15, 3: 2.2, 4: 1.8, 5: 1.65, 6: 1.85}


def irreducible_neg1(a: float, which: str) -> XReal:
    """The three irreducible 1/x transforms:

    which='i'      : int_a^inf Ai^2/x dx
    which='iprime' : int_a^inf Ai'^2/x dx
    which='calI'   : int_a^inf Ai Ai'/x dx

    Summed from the exact Taylor classes of Ai(x)^2 in double-double; the
    additive constants are the regularised Mellin limits.  Relative
    accuracy degrades with the e^{(4/3)a^{3/2}} cancellation, so each kind
    raises RangeError above its limit: a = 8 for 'i' and 'calI', NEG_A_MAX
    = 4.75 for 'iprime'.  Largest relative error against 40-digit
    quadrature, on grids no coarser than 0.5 below a = 6 and 0.1 above
    (0.05 or finer near each limit): 'i' and 'calI' 3e-15 up to a = 6 and
    3e-6 up to a = 8 (2e-11 at 7, over 1e-3 at 9); 'iprime' 5e-9 up to
    a = 4 and 6e-6 up to a = 4.75 (7e-5 at 5, 110% at 6).  :func:`calI`
    and :func:`mellin2` stop negative indices at NEG_A_MAX.
    """
    if not a > 0.0:
        raise DomainError("irreducible transforms need a > 0")
    if which not in _IRREDUCIBLE_A_MAX:
        raise DomainError(f"unknown irreducible kind {which!r}")
    if a > _IRREDUCIBLE_A_MAX[which]:
        raise RangeError(f"irreducible transform {which!r} supports only "
                         f"a <= {_IRREDUCIBLE_A_MAX[which]}")
    nterms = _series_terms_for(a)
    ap = (float(a), 0.0)
    a3 = dd_powi(ap, 3)
    cs, ds, es = _ai2_class_chains(a3, nterms + 2)
    ln_a = ln_point(ap[0])
    a2_, aap_, ap2_ = A2.pair, AAP.pair, AP2.pair
    if which == "i":
        # sum tau_m a^m / m over the three classes, m >= 1
        s0 = (0.0, 0.0)
        for n in range(nterms, 0, -1):  # A^2 class: c_n a^{3n}/(3n)
            s0 = dd_add(s0, dd_div_f(cs[n], float(3 * n)))
        s1 = (0.0, 0.0)
        for n in range(nterms, -1, -1):  # 2AAp class: d_n a^{3n+1}/(3n+1)
            s1 = dd_add(s1, dd_div_f(dd_mul(ds[n], ap), float(3 * n + 1)))
        s2 = (0.0, 0.0)
        for n in range(nterms, -1, -1):  # 2Ap2 class: e_n a^{3n+2}/(3n+2)
            s2 = dd_add(s2, dd_div_f(dd_mul(dd_mul_f(es[n], 2.0),
                                            dd_powi(ap, 2)), float(3 * n + 2)))
        tot = dd_add(dd_mul(a2_, dd_add(s0, ln_a)),
                     dd_add(dd_mul_f(dd_mul(aap_, s1), 2.0), dd_mul(ap2_, s2)))
        return XReal.from_pair(dd_sub(L_I.pair, tot))
    if which == "calI":
        # kappa_m = (m+1) tau_{m+1}/2, summed as a^m/m per residue class:
        # kappa_{3n} a^{3n}   = AAp  * d_n (3n+1)        (n >= 1)
        # kappa_{3n+1} a^{3n} = Ap2  * e_n (3n+2) * a / a^{..}
        # kappa_{3n+2}        = A2   * c_{n+1} (3n+3)/(2a)
        s0 = (0.0, 0.0)
        for n in range(nterms, 0, -1):
            s0 = dd_add(s0, dd_div_f(dd_mul_f(ds[n], float(3 * n + 1)),
                                     float(3 * n)))
        s1 = (0.0, 0.0)
        for n in range(nterms, -1, -1):
            s1 = dd_add(s1, dd_div_f(dd_mul(dd_mul_f(es[n], float(3 * n + 2)), ap),
                                     float(3 * n + 1)))
        s2 = (0.0, 0.0)
        inv_a = dd_powi(ap, -1)
        for n in range(nterms, -1, -1):
            s2 = dd_add(s2, dd_div_f(dd_mul(dd_mul_f(cs[n + 1], 0.5 * (3 * n + 3)),
                                            inv_a), float(3 * n + 2)))
        tot = dd_add(dd_mul(aap_, dd_add(s0, ln_a)),
                     dd_add(dd_mul(ap2_, s1), dd_mul(a2_, s2)))
        return XReal.from_pair(dd_sub(L_CAL.pair, tot))
    if which == "iprime":
        # nu_m a^m/m with nu_0 = A'^2:
        # nu_{3n}   = 2 A'^2 12^{n-1}(5/6)_{n-1}(3n-1)/(3n)!   (n >= 1)
        # nu_{3n+1} = A^2 12^n (1/6)_n 3n/(3n+1)!              (n >= 1)
        # nu_{3n+2} = 2 AA' 12^n (1/2)_n (3n+1)/(3n+2)!
        s0 = (0.0, 0.0)
        for n in range(nterms, 0, -1):
            # nu_{3n} a^{3n} = Ap2 * e_{n-1} a^3 (6n-2)/(3n)
            coef = dd_mul_f(es[n - 1], (6.0 * n - 2.0) / float(3 * n))
            s0 = dd_add(s0, dd_div_f(dd_mul(coef, a3), float(3 * n)))
        s1 = (0.0, 0.0)
        for n in range(nterms, 0, -1):
            coef = dd_mul_f(cs[n], float(3 * n) / float(3 * n + 1))
            s1 = dd_add(s1, dd_div_f(dd_mul(coef, ap), float(3 * n + 1)))
        s2 = (0.0, 0.0)
        for n in range(nterms, -1, -1):
            coef = dd_mul_f(ds[n], (6.0 * n + 2.0) / float(3 * n + 2))
            s2 = dd_add(s2, dd_div_f(dd_mul(coef, dd_powi(ap, 2)), float(3 * n + 2)))
        tot = dd_add(dd_mul(ap2_, dd_add(s0, ln_a)),
                     dd_add(dd_mul(a2_, s1), dd_mul(aap_, s2)))
        return XReal.from_pair(dd_sub(L_IP.pair, tot))


# -- base values and reductions ----------------------------------------------

class Ai2Base:
    """Ai^2, Ai'^2 and AiAi' at a fixed a > 0, and each product transform
    calI_n, i_n, i'_n at that a, computed on first use and kept per
    instance.  The n = -1 values are the irreducible 1/x transforms, so
    only negative indices compute them."""

    def __init__(self, a: float):
        self.a = float(a)
        self.ap = (float(a), 0.0)
        st = airy(a)
        self.ai2 = dd_mul(st.ai.pair, st.ai.pair)
        self.aip2 = dd_mul(st.aip.pair, st.aip.pair)
        self.aiaip = dd_mul(st.ai.pair, st.aip.pair)
        self._memo = {}

    def calI(self, n: int):
        """int_a^inf x^n Ai Ai' dx."""
        return self._value("calI", n)

    def i_n(self, n: int):
        """int_a^inf x^n Ai^2 dx."""
        return self._value("i", n)

    def ip_n(self, n: int):
        """int_a^inf x^n Ai'^2 dx."""
        return self._value("iprime", n)

    def _value(self, kind: str, n: int):
        val = self._memo.get((kind, n))
        if val is None:
            val = self._memo[kind, n] = self._compute(kind, n)
        return val

    def _combo(self, w2, wp2, wcross):
        return dd_add(dd_add(dd_mul(self.ai2, w2), dd_mul(self.aip2, wp2)),
                      dd_mul(self.aiaip, wcross))

    def _compute(self, kind: str, n: int):
        if n == -1:
            return irreducible_neg1(self.a, kind).pair
        if kind != "calI":
            # integration by parts onto calI_{n+1} (Ai^2) or calI_{n+2} (Ai'^2)
            shift, square = (1, self.ai2) if kind == "i" else (2, self.aip2)
            return dd_div_f(
                dd_neg(dd_add(dd_mul_f(self.calI(n + shift), 2.0),
                              dd_mul(dd_powi(self.ap, n + 1), square))),
                float(n + 1),
            )
        if n >= 0:
            row = pqr_row(n)
            return self._combo(poly_eval_dd(row.p, self.ap),
                               poly_eval_dd(row.q, self.ap),
                               poly_eval_dd(row.r, self.ap))
        if n == -2:
            # -a Ai^2 + Ai'^2 + AiAi'/a + i'_{-1}
            return dd_add(self._combo((-self.a, 0.0), (1.0, 0.0),
                                      dd_powi(self.ap, -1)), self.ip_n(-1))
        if n == -3:
            # -Ai^2/2 + Ai'^2/(2a) + AiAi'/(2a^2) + i_{-1}/2
            return dd_add(
                self._combo((-0.5, 0.0),
                            dd_mul_f(dd_powi(self.ap, -1), 0.5),
                            dd_mul_f(dd_powi(self.ap, -2), 0.5)),
                dd_mul_f(self.i_n(-1), 0.5),
            )
        # calI_{-m-3} = [(4m+2) calI_{-m} + (m+1)Ai^2/a^m
        #               + m Ai'^2/a^{m+1} + m(m+1) AiAi'/a^{m+2}]
        #               / (m(m+1)(m+2))
        m = -n - 3
        add = self._combo(
            dd_mul_f(dd_powi(self.ap, -m), float(m + 1)),
            dd_mul_f(dd_powi(self.ap, -m - 1), float(m)),
            dd_mul_f(dd_powi(self.ap, -m - 2), float(m * (m + 1))),
        )
        return dd_div_f(dd_add(dd_mul_f(self.calI(-m), float(4 * m + 2)), add),
                        float(m * (m + 1) * (m + 2)))


@per_request
def _ai2_base(a: float) -> Ai2Base:
    """:class:`Ai2Base` at a, built once per point within a request scope."""
    return Ai2Base(a)


# -- public operations ---------------------------------------------------------

def _bsums(k: int, mu: int, base: Ai2Base):
    """The three B coefficient sums for the closed-form positive route,
    normalised so the overall prefactor is (3k+mu)!/(12^{k+1} G(k+mu/3+5/6))
    with Gamma ratios relative to the l = 0 anchor."""
    a3_12 = dd_mul_f(dd_powi(base.ap, 3), 12.0)
    inv_a = dd_powi(base.ap, -1)
    s0 = (0.0, 0.0)
    s1 = (0.0, 0.0)
    s2 = (0.0, 0.0)
    if mu == 0:
        # B0 = -sum_{l=0..k} (3l-1) G(l-1/6)(12a^3)^l/(3l)!
        # B1 = -(1/a) sum_{l=1..k} G(l-1/6)(12a^3)^l/(3l-1)!
        # B2 = (1/a^2) sum_{l=1..k} G(l-1/6)(12a^3)^l/(3l-2)!
        # carry t_l = G(l-1/6)(12a^3)^l/(3l)! / G(5/6):
        t = (-6.0, 0.0)  # l=0: G(-1/6)/G(5/6) = -6
        for l in range(k + 1):
            s0 = dd_add(s0, dd_mul_f(t, -(3.0 * l - 1.0)))
            if l >= 1:
                s1 = dd_add(s1, dd_mul_f(dd_mul(t, inv_a), -(3.0 * l)))
                s2 = dd_add(s2, dd_mul_f(dd_mul(t, dd_powi(base.ap, -2)),
                                         (3.0 * l) * (3.0 * l - 1.0)))
            t = dd_mul_f(dd_mul(t, a3_12),
                         (l - 1.0 / 6.0)
                         / float((3 * l + 1) * (3 * l + 2) * (3 * l + 3)))
        return s0, s1, s2
    if mu == 1:
        # amplitudes G(l+1/6)/G(7/6), chains over (3l+1)!-type factorials
        t = (6.0, 0.0)  # G(1/6)/G(7/6) = 6
        for l in range(k + 1):
            # B0: -a sum_{l>=1} 3l G(l+1/6)(12a^3)^l/(3l+1)!
            # B1: -sum_{l>=0} G(l+1/6)(12a^3)^l/(3l)!
            # B2: (1/a) sum_{l>=1} G(l+1/6)(12a^3)^l/(3l-1)!
            s1 = dd_add(s1, dd_mul_f(t, -1.0))
            if l >= 1:
                s0 = dd_add(s0, dd_mul_f(dd_mul(t, base.ap),
                                         -3.0 * l / float(3 * l + 1)))
                s2 = dd_add(s2, dd_mul_f(dd_mul(t, inv_a), 3.0 * l))
            t = dd_mul_f(dd_mul(t, a3_12),
                         (l + 1.0 / 6.0)
                         / float((3 * l + 1) * (3 * l + 2) * (3 * l + 3)))
        return s0, s1, s2
    # mu == 2: amplitudes G(l+1/2)/G(3/2), factorials (3l+2)!-type
    t = (2.0, 0.0)  # G(1/2)/G(3/2) = 2
    for l in range(k + 1):
        # B0: -a^2 sum (3l+1) G(l+1/2)(12a^3)^l/(3l+2)!
        # B1: -a sum G(l+1/2)(12a^3)^l/(3l+1)!
        # B2: sum G(l+1/2)(12a^3)^l/(3l)!
        s0 = dd_add(s0, dd_mul_f(dd_mul(t, dd_powi(base.ap, 2)),
                                 -(3.0 * l + 1.0) / float((3 * l + 1) * (3 * l + 2))))
        s1 = dd_add(s1, dd_mul_f(dd_mul(t, base.ap), -1.0 / float(3 * l + 1)))
        s2 = dd_add(s2, t)
        t = dd_mul_f(dd_mul(t, a3_12),
                     (l + 0.5) / float((3 * l + 1) * (3 * l + 2) * (3 * l + 3)))
    return s0, s1, s2


def _check_range(name: str, n: int, a: float) -> None:
    if not -30 <= n <= 40:
        raise DomainError(f"{name} supports -30 <= n <= 40")
    if not 0.0 < a <= 13.0:
        raise DomainError(f"{name} supports 0 < a <= 13")
    if n < 0 and a > NEG_A_MAX:
        raise RangeError(f"{name} with n < 0 supports only a <= {NEG_A_MAX}")


def calI(n: int, a: float) -> TransformResult:
    """calI_n(a) = int_a^inf x^n Ai Ai' dx for -30 <= n <= 40, 0 < a <= 13,
    by the ladder, with err_est = 1e-13 max(1, |value|).

    Checked against 40-digit quadrature at a = 0.05 ... 13: for n >= 0 the
    error stays below 4% of err_est.  Negative n rest on the irreducible
    1/x transforms, whose series lose digits like e^{(4/3)a^{3/2}}; they
    are accepted up to a = NEG_A_MAX, where the error is at most half of
    err_est, and raise RangeError beyond.
    """
    _check_range("calI", n, a)
    val = XReal.from_pair(_ai2_base(a).calI(n))
    return TransformResult(val, "ladder", 1e-13 * max(1.0, abs(float(val))))


def calI_bform(n: int, a: float) -> TransformResult:
    """calI_n(a) for 0 <= n <= 40, 0 < a <= 13, by the second route: the
    closed-form solution of the three-term recurrence (Gamma-ratio
    coefficient sums), with the err_est of :func:`calI`."""
    if n < 0:
        raise DomainError("calI_bform supports n >= 0")
    _check_range("calI_bform", n, a)
    base = _ai2_base(a)
    k, mu = divmod(n, 3)
    s0, s1, s2 = _bsums(k, mu, base)
    # G(k + mu/3 + 5/6) / G(mu/3 + 5/6)
    ratio = float(pochhammer(Fraction(2 * mu + 5, 6), k))
    pref = math.factorial(3 * k + mu) / (12.0 ** (k + 1) * ratio)
    combo = dd_add(dd_add(dd_mul(base.ai2, s0), dd_mul(base.aip2, s1)),
                   dd_mul(base.aiaip, s2))
    val = XReal.from_pair(dd_mul_f(combo, pref))
    return TransformResult(val, "bform", 1e-13 * max(1.0, abs(float(val))))


def mellin2(n: int, a: float, primed: bool = False) -> TransformResult:
    """i_n(a) (Ai^2 weight) or i'_n(a) (Ai'^2 weight), with the ranges and
    err_est of :func:`calI`."""
    _check_range("mellin2", n, a)
    base = _ai2_base(a)
    pair = base.ip_n(n) if primed else base.i_n(n)
    val = XReal.from_pair(pair)
    return TransformResult(val, "vallee", 1e-13 * max(1.0, abs(float(val))))


@lru_cache(maxsize=8)
def _J_smalla_data(a: float) -> tuple:
    """The squared ladders and :class:`Ai2Base` at a, kept per process and
    point and shared by J_n for every n in [1, 6]."""
    return xi2_derivs(a), _ai2_base(a)


def Jn_smalla(n: int, a: float) -> TransformResult:
    """Stieltjes transform of Ai^2, J_n(a) = int_0^inf Ai^2/(x+a)^n dx,
    assembled from the squared generating-function derivative ladders and
    the incomplete product transforms by :func:`smalla_sum`:

        J_n = sum_{i>=0} [Xi^(i) i_{i-n} + Lam^(i) i'_{i-n}
                          + rho^(i) calI_{i-n}]/i!

    For n in [1, 6] up to a = J_SMALLA_A_MAX[n], and RangeError beyond;
    the sum runs to i = n + :data:`~airylog.kernel.SMALLA_PAST_N` (ten
    triples past i = n).  The ladders and base values at a are built once
    per process (:func:`_J_smalla_data`); the sum is redone on every call.
    """
    if not 1 <= n <= 6:
        raise DomainError("Jn_smalla supports n in [1, 6]")
    if not a > 0.0:
        raise DomainError("Jn_smalla needs a > 0")
    if a > J_SMALLA_A_MAX[n]:
        raise RangeError(f"Jn_smalla({n}, a) needs a <= {J_SMALLA_A_MAX[n]}")
    smalla_range_check("Jn_smalla", n, a)
    (Xi, Lam, Rho), base = _J_smalla_data(float(a))
    total, tail = smalla_sum((Xi, Lam, Rho),
                             (base.i_n, base.ip_n, base.calI), n)
    val = XReal.from_pair(total)
    err = 10.0 * tail + 1e-14 * abs(float(val))
    return TransformResult(val, "small_a", err)
