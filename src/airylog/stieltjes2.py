"""Stieltjes transforms of Ai^2 / Ai'^2, the third-order ODE solution for
J_1, the per-root summand of the second log-Airy integral, and its
zeta-accelerated sum.

The ODE (1/2)J''' + 2a J' + J = -(Ai'(0)^2/a + Ai(0)Ai'(0)/a^2 + Ai(0)^2/a^3)
is solved by variation of parameters over the basis Ai(-a)^2, Bi(-a)^2,
Ai(-a)Bi(-a) (Wronskian 2/pi^3):

    J_1(a)/pi^2 = Ai(-a)^2 [c1 - du1] + Bi(-a)^2 [c2 - du2]
                  + Ai(-a)Bi(-a) [c3 + 2 du3],

with du1 = int_a0^a g Bi(-z)^2 dz, du2 = int g Ai(-z)^2, du3 = int g AiBi,
g(z) = Ai'(0)^2/z + Ai(0)Ai'(0)/z^2 + Ai(0)^2/z^3.  The du integrals are
evaluated through nine hypergeometric antiderivative "masters" (argument
-4a^3/9, double-double).  Every printed intermediate of this chain was
re-derived mechanically here and cross-checked against quadrature; the
print discrepancies that surfaced (swapped/scaled u-list, the a^2 Ai Bi
term of the mixed j-bracket, the asymptotic summand coefficient -6/7 vs
-3/7) are catalogued in the discrepancy report.

Per-root evaluation switches from the closed form to the moment series
past SUMMAND_CLOSED.hi = 11.  Against 40-digit quadrature, with the oracle
seeds, the closed form's relative error at roots 6 to 9 (a = 8.49, 9.54,
10.53, 11.48) is 1.3e-12, 1.9e-12, 3.2e-12 and 1.9e-10, the moment
series' 2.0e-13, 1.8e-15, 1.3e-16 and 1.6e-16.  The overlap agreement is
part of the validation matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .airy import airy
from .ddreal import XReal, dd_mul_f, dd_powi, dd_sub, PI, SQRT3, SQRT_PI
from .errors import DomainError
from .kernel import (alternating_series, compensated_sum, hyp_params,
                     hyp_sum, ln_point)
from .mellin2 import A2, AAP, AP2, Jn_smalla
from .results import Domain, Frozen, TransformResult, TruncationConfig
from .roots import RootTable, is_root_magnitude
from .zeta import check_zeta_order, zeta_tail

#: the domains of :func:`solve_J1`, which ``transform`` prints, and of the
#: summand's closed form, which the pipelines use up to its hi
J1_CLOSED = Domain(0.2, 13.0, k_lo=1, k_hi=1)
SUMMAND_CLOSED = Domain(hi=11.0)


# -- hypergeometric antiderivative masters ------------------------------------

#: the pFq terms (c, k, d, F) of the masters (box, I, II), which
#: ``kernel.hyp_sum`` sums at -4a^3/9: each master is
#: M_mu(a) = Ai'(0)^2 G1_mu + Ai(0)Ai'(0) G2_mu + Ai(0)^2 G3_mu, with
#: Gj_mu = f a^k F(z) the antiderivative of (mu component of the Airy
#: products at -z) / z^j and its binary64 factor f folded into c
_MASTERS = (
    ((AP2 * (-1.0 / 9.0), 3, None, hyp_params("1 1 7/6", "4/3 5/3 2 2")),
     (-AAP, -1, None, hyp_params("-1/3 1/6", "1/3 2/3 2/3")),
     (A2 * (-0.5), -2, None, hyp_params("-2/3 1/6", "1/3 1/3 2/3"))),
    ((AP2, 1, None, hyp_params("1/3 1/2", "2/3 4/3 4/3")),
     (AAP * (-1.0 / 12.0), 3, None, hyp_params("1 1 3/2", "2 2 5/3 7/3")),
     (-A2, -1, None, hyp_params("-1/3 1/2", "2/3 2/3 4/3"))),
    ((AP2 * 0.5, 2, None, hyp_params("2/3 5/6", "4/3 5/3 5/3")),
     (AAP, 1, None, hyp_params("1/3 5/6", "4/3 4/3 5/3")),
     (A2 * (-1.0 / 18.0), 3, None, hyp_params("1 1 11/6", "2 2 7/3 8/3"))),
)


def _masters(a: float):
    """Log-free parts of the three masters of :data:`_MASTERS`, summed to
    1e-20, in the order (box, I, II); the omitted logarithms carry
    coefficients (Ai'(0)^2, Ai(0)Ai'(0), Ai(0)^2) respectively."""
    ap = (float(a), 0.0)
    z = XReal.from_pair(dd_mul_f(dd_powi(ap, 3), -4.0 / 9.0))
    return tuple(XReal.from_pair(hyp_sum(terms, ap, z, 1e-20, (0.0, 0.0)))
                 for terms in _MASTERS)


#: product weights (box, I, II) for the three Airy products at -z
_W_BI2 = (3 * A2, 6 * AAP, 3 * AP2)
_W_AI2 = (A2, -2 * AAP, AP2)
_W_AIBI = (SQRT3 * A2, XReal(0.0), -SQRT3 * AP2)
#: log coefficients of the masters
_LNC = (AP2, AAP, A2)


def _delta_u(masters_a, masters_a0, dlog: XReal):
    """(du1, du2, du3) between a0 and a from precomputed masters."""
    diffs = [ma - m0 + lnc * dlog
             for ma, m0, lnc in zip(masters_a, masters_a0, _LNC)]
    out = []
    for w in (_W_BI2, _W_AI2, _W_AIBI):
        acc = XReal(0.0)
        for wm, d in zip(w, diffs):
            acc = acc + wm * d
        out.append(acc)
    return tuple(out)


# -- constants of integration --------------------------------------------------

def constants_c(a0: float, J1, J2, J3):
    """Integration constants of the J_1 solution from initial data
    (J_1, J_2, J_3) at a0, as XReal values."""
    st = airy(-a0)
    ai, aip, bi, bip = st.ai, st.aip, st.bi, st.bip
    c1 = J1 * (a0 * bi * bi + bip * bip) - J2 * bi * bip + J3 * bi * bi
    c2 = J1 * (a0 * ai * ai + aip * aip) - J2 * ai * aip + J3 * ai * ai
    c3 = (-2 * J1 * (a0 * ai * bi + aip * bip)
          + J2 * (ai * bip + aip * bi) - 2 * J3 * ai * bi)
    return c1, c2, c3


#: the solutions :meth:`J1Solution.build` has returned at a root magnitude,
#: by (a0, seed source); the first one stored wins a race
_SOLUTIONS: dict = {}

#: the oracle seeds (J_1, J_2, J_3) by anchor, at float(|a_1'|) only; see
#: :meth:`J1Solution.build`
_ORACLE_SEEDS = {1.018792971647471: (XReal(0.04826441032408527),
                                     XReal(0.03654795875285435),
                                     XReal(0.02879280176458774))}


class J1Solution(Frozen):
    """ODE solution data at anchor a0: constants, masters, seeds, and ln a0
    as a dd pair.

    :meth:`build` returns one solution per root magnitude a0 and seed
    source per process, which keeps the summand at each root magnitude, so
    each is computed once per process (at other points, on every call)."""

    __slots__ = ("a0", "c1", "c2", "c3", "masters_a0", "J1_a0", "J2_a0",
                 "J3_a0", "ln_a0", "_summands")

    def __init__(self, a0: float, c1: XReal, c2: XReal, c3: XReal,
                 masters_a0: tuple, J1_a0: XReal, J2_a0: XReal, J3_a0: XReal,
                 ln_a0: tuple):
        # _summands starts empty: the summand memo, no part of the value
        super().__init__(a0, c1, c2, c3, masters_a0, J1_a0, J2_a0, J3_a0,
                         ln_a0, {})

    @classmethod
    def build(cls, a0: float, seed_source: str = "oracle") -> "J1Solution":
        """The solution anchored at a0, seeded with (J_1, J_2, J_3) at a0
        from ``seed_source``: "small_a", or "oracle" at the pipelines' anchor
        a0 = float(|a_1'|) only.  The oracle seeds are ``_ORACLE_SEEDS``, bit
        for bit ``oracle_stieltjes("Ai2", n, a0).value`` there (scipy 1.17.1
        QUADPACK at 1e-12), which a test recomputes by quadrature."""
        key = (float(a0), seed_source)
        if key in _SOLUTIONS:
            return _SOLUTIONS[key]
        if seed_source == "oracle":
            seeds = _ORACLE_SEEDS.get(key[0])
            if seeds is None:
                raise DomainError(f"no oracle seeds at a0 = {a0!r}; use "
                                  "seed_source='small_a'")
        elif seed_source == "small_a":
            seeds = [Jn_smalla(n, a0).value for n in (1, 2, 3)]
        else:
            raise DomainError(f"unknown seed source {seed_source!r}")
        c1, c2, c3 = constants_c(a0, *seeds)
        sol = cls(key[0], c1, c2, c3, _masters(a0), *seeds,
                  ln_point(key[0]))
        return _SOLUTIONS.setdefault(key, sol) if is_root_magnitude(key[0]) else sol

    def deltas(self, a: float):
        dlog = XReal.from_pair(dd_sub(ln_point(float(a)), self.ln_a0))
        return _delta_u(_masters(a), self.masters_a0, dlog)

    def summand(self, a: float) -> XReal:
        """The summand at root magnitude a: closed form up to
        SUMMAND_CLOSED.hi, moment series beyond."""
        hit = self._summands.get(a)
        if hit is None:
            hit = bigJ_closed(a, self) if a <= SUMMAND_CLOSED.hi else bigJ_asym(a).value
            if is_root_magnitude(a):
                self._summands[a] = hit
        return hit


def solve_J1(a: float, sol: J1Solution) -> TransformResult:
    """J_1(a) from the closed-form ODE solution, a in J1_CLOSED."""
    J1_CLOSED.check("solve_J1", 1, a)
    du1, du2, du3 = sol.deltas(a)
    st = airy(-a)
    val = PI * PI * (st.ai * st.ai * (sol.c1 - du1)
                     + st.bi * st.bi * (sol.c2 - du2)
                     + st.ai * st.bi * (sol.c3 + 2 * du3))
    headroom = math.exp((4.0 / 3.0) * max(a, sol.a0) ** 1.5 / 2.0)
    err = max(1.0, headroom * 1e-3) * 1e-30 + 1e-15 * abs(float(val))
    return TransformResult(val, "closed_form", err)


# -- the per-root summand -------------------------------------------------------

def _j_brackets(a: float):
    """The three quadratic brackets of the summand:

        B1 = a^2 Ai^2 - 2 Ai Ai' + a Ai'^2      (arguments -a)
        B2 = same with Bi
        B3 = a^2 Ai Bi + a Ai' Bi' - Ai' Bi - Ai Bi'

    B3's printed form has a^2 Ai Ai' in place of a^2 Ai Bi; the version
    here is the one consistent with 2a^2 J_1 - J_2 + a J_3 (oracle-checked).
    """
    st = airy(-a)
    ai, aip, bi, bip = st.ai, st.aip, st.bi, st.bip
    b1 = a * a * ai * ai - 2 * ai * aip + a * aip * aip
    b2 = a * a * bi * bi - 2 * bi * bip + a * bip * bip
    b3 = a * a * ai * bi + a * aip * bip - aip * bi - ai * bip
    return b1, b2, b3


def j_term(a: float, sol: J1Solution) -> XReal:
    """The bracket combination j(a) = 2a^2 J_1 - J_2 + a J_3 (that exact
    identity is oracle-tested), for finite a > 0 (it takes ln a)."""
    if not 0.0 < a < math.inf:
        raise DomainError("j_term needs 0 < a < inf")
    du1, du2, du3 = sol.deltas(a)
    b1, b2, b3 = _j_brackets(a)
    return b1 * (sol.c1 - du1) + b2 * (sol.c2 - du2) + b3 * (sol.c3 + 2 * du3)


def bigJ_closed(a: float, sol: J1Solution) -> XReal:
    """Summand by the closed form:
    -2Ai(0)^2/(5a) - (2/3)Ai(0)Ai'(0) - 2a Ai'(0)^2 + pi^2 j(a)."""
    if not 0.0 < a < math.inf:
        raise DomainError("bigJ_closed needs 0 < a < inf")
    j = j_term(a, sol)
    return (-2 * A2 / (5 * a) - Fraction(2, 3) * AAP - 2 * a * AP2
            + PI * PI * j)


# -- moment asymptotics ---------------------------------------------------------

def _ai2_moments() -> list:
    """int_0^inf x^m Ai^2 dx for m = 0..42; chain mu_{m+3} = mu_m
    (m+1)(m+2)(m+3)/(4m+14)."""
    out = [float(AP2), -float(AAP) / 3.0, float(A2) / 5.0]
    for m in range(40):
        out.append(out[m] * (m + 1) * (m + 2) * (m + 3) / (4 * m + 14))
    return out


@lru_cache(maxsize=None)
def _bigJ_asym_coeffs() -> tuple:
    """j(j+1)/2 mu_j - 2 mu_{j+3}: the coefficients of a^(-2-j) in the
    summand, for every j whose mu_{j+3} :func:`_ai2_moments` holds."""
    mu = _ai2_moments()
    return tuple(j * (j + 1) * mu[j] / 2.0 - 2.0 * mu[j + 3]
                 for j in range(len(mu) - 3))


def bigJ_asym(a: float) -> TransformResult:
    """Summand by the moment series
    sum_j (-1)^j [j(j+1)/2 mu_j - 2 mu_{j+3}] a^{-2-j}; 2.0e-13 relative
    at a = 8.49, 1.8e-15 at 9.54 and 1.3e-16 at 10.53 (see
    :func:`alternating_series` for the error estimate)."""
    if not a > 0.0:
        raise DomainError("bigJ_asym needs a > 0")
    val, err = alternating_series(_bigJ_asym_coeffs(), a, 2)
    return TransformResult(val, "asymptotic", err)


# -- recurrence / relation residuals -------------------------------------------

def J_recurrences(n: int, a: float, J, Jp) -> dict:
    """Residuals of the two integration-by-parts relations and the
    third-order combination, with externally supplied (oracle) values.

    ``J`` maps m -> J_m(a); ``Jp`` maps m -> J'_m(a) (Ai'^2 weight).
    """
    A2f, AAPf, AP2f = float(A2), float(AAP), float(AP2)
    r1 = ((n - 1) * J[n] + AP2f / a ** n - a * n * J[n + 1] - n * Jp[n + 1])
    r2 = (Jp[n] + AAPf / a ** n + n * A2f / (2 * a ** (n + 1)) + J[n - 1]
          - a * J[n] - n * (n + 1) / 2.0 * J[n + 2])
    r3 = ((2 * n - 1) * J[n] - 2 * a * n * J[n + 1]
          - n * (n + 1) * (n + 2) / 2.0 * J[n + 3]
          + AP2f / a ** n + n * AAPf / a ** (n + 1)
          + n * (n + 1) * A2f / (2.0 * a ** (n + 2)))
    return {"parts_first": r1, "parts_second": r2, "third_order": r3}


# -- pipeline --------------------------------------------------------------------

def bigJ_term(k: int, roots: RootTable, sol: J1Solution) -> XReal:
    """Summand at the k-th root: closed form up to SUMMAND_CLOSED.hi (3.2e-12
    relative at root 8), moment series beyond (1.6e-16 at root 9)."""
    return sol.summand(float(roots[k]))


def integral2_series(N: int, roots: RootTable, sol: J1Solution) -> XReal:
    """Plain partial sum (1/(3 Ai'(0)^2)) sum_{k<=N} bigJ(|a_k'|)."""
    if N < 1:
        raise DomainError("need N >= 1")
    if N > roots.n_max:
        raise DomainError("not enough roots tabulated")
    terms = [bigJ_term(k, roots, sol) for k in range(1, N + 1)]
    return compensated_sum(terms) / (3 * AP2)


def integral2_accelerated(cfg: TruncationConfig, roots: RootTable,
                          sol: J1Solution) -> XReal:
    """Zeta-accelerated second integral:

        (1/(3 Ai'(0)^2)) sum_{k<=N} bigJ(r_k)
        - (2/(12^{13/6} sqrt(pi) Ai'(0)^2)) *
          sum_{k<=n} (-1)^k (k+4)(k+1)!/(12^{k/3} Gamma(k/3+13/6))
                     {Z_{k+2} - Z_{k+2}(N)}.
    """
    check_zeta_order(2 + cfg.n)  # before any coefficient can overflow
    head = integral2_series(cfg.N, roots, sol)
    coeffs = [(-1) ** k * (k + 4) * math.factorial(k + 1)
              / (12.0 ** (k / 3.0) * math.gamma(k / 3.0 + 13.0 / 6.0))
              for k in range(cfg.n + 1)]
    pref = 2 / (XReal(12.0 ** (13.0 / 6.0)) * SQRT_PI * AP2)
    return head - pref * zeta_tail(coeffs, 2, cfg.N, roots)
