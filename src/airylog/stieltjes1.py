"""Generalized Stieltjes transforms of Ai and the three series pipelines
for the first log-Airy integral.

Routes implemented for bigI_k(a) = int_0^inf Ai(x)/(x+a)^k dx:

* ``small_a``  -- the generating-function expansion: bigI_n(a) =
  sum_i xi^(i)/i! I_{i-n}(a) + lambda^(i)/i! I'_{i-n}(a), with every
  incomplete Mellin transform reduced exactly onto {I_0, I_-1, I_-2,
  Ai, Ai'}.  err_est <= 1.0e-15 relative on (0, 4.5] for n = 1..6, 5.3e-8
  at a = 8 (n = 1); above 1e-6 (from a = 8.5) it raises AccuracyError.
* ``closed_form`` -- the second-order ODE solution for bigI_1 propagated
  from initial data at a0, with the H+/H- hypergeometric antiderivatives
  (double-double mandatory: the homogeneous/particular split cancels
  ~e^{(2/3)a^{3/2}} of headroom).
* ``recurrence`` -- the three-term ladder in k (ascending from
  I_0 = 1/3 and seeds at k = 1, 2; relative error grows like a^3/k^2 per
  triple step, tracked in err_est).
* ``asymptotic`` -- the moment series in 1/a, near machine accuracy for
  a >= 13 (used for the deep roots of the N = 100 sums).

The pipelines select routes by a: small_a on SMALLA (a <= 4), closed_form
up to CLOSED.hi = 13, asymptotic beyond -- each certified against the
quadrature oracle in the validation matrix.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .airy import JPair, airy
from .ddreal import XReal, dd_div_f, dd_powi, dd_sub, PI, SQRT3
from .errors import AccuracyError, DomainError, RangeError, StabilityError
from .kernel import (AI0, AIP0, alternating_series, compensated_sum,
                     hyp_params, hyp_sum, ln_point, power_range_check,
                     smalla_sum)
from .mellin1 import base_values, xi_lambda_derivs
from .results import Domain, TransformResult, TruncationConfig, per_request
from .roots import RootTable, is_root_magnitude
from .zeta import check_zeta_order, zeta_tail

#: the routes' domains; below CLOSED.lo the closed form's J_- dH_- term
#: cancels to about 1e-32/a, past its err_est.  ``transform`` prints the
#: moment series from a > 8, k >= 0; the pipelines use it past CLOSED.hi
SMALLA = Domain(hi=4.0, k_lo=1, k_hi=6)
CLOSED = Domain(1e-15, 13.0, k_lo=1, k_hi=1)
ASYMPTOTIC = Domain(math.nextafter(8.0, math.inf), k_lo=0)


# -- moments of Ai (exact chain) ---------------------------------------------

@lru_cache(maxsize=None)
def _ai_moments() -> tuple:
    """I_m(0) = int x^m Ai dx for m = 0..59, as floats, from the exact
    chain I_{m+3}(0) = (m+1)(m+2) I_m(0) with seeds 1/3, -Ai'(0), Ai(0)."""
    out = [1.0 / 3.0, -float(AIP0), float(AI0)]
    for m in range(57):
        out.append((m + 1) * (m + 2) * out[m])
    return tuple(out)


@lru_cache(maxsize=None)
def _bigI_asym_coeffs(k: int) -> tuple:
    """C(k+m-1, m) I_m(0): the coefficients of a^(-k-m) in bigI_k."""
    out = []
    binom = 1.0
    for m, mom in enumerate(_ai_moments()):
        out.append(binom * mom)
        binom *= (k + m) / (m + 1.0)
    return tuple(out)


def bigI_asym(k: int, a: float) -> TransformResult:
    """bigI_k(a) by the alternating moment series in 1/a, truncated at its
    smallest term (see :func:`alternating_series` for the error estimate).
    Intended for a >= 13, where it reaches ~1e-13 relative.  For k < 0 the
    terms grow from the first, so k < 0 raises DomainError, as does a <= 0;
    an order beyond binary64 raises RangeError."""
    if k < 0 or not a > 0.0:
        raise DomainError("bigI_asym needs k >= 0 and a > 0")
    if k > sys.float_info.max:
        raise RangeError("bigI_asym needs an order within binary64")
    val, err = alternating_series(_bigI_asym_coeffs(k), a, k)
    return TransformResult(val, "asymptotic", err)


# -- recurrence route ---------------------------------------------------------

def bigI_recurrence(k: int, a: float, seeds) -> TransformResult:
    """bigI_k by the three-term ladder, ascending from I_0 = 1/3 and
    ``seeds = (bigI_1(a), bigI_2(a))``.

    Ascent amplifies seed error by ~a^3/k^2 per triple step; err_est
    tracks the growth and a :class:`StabilityError` is raised when the
    estimate exceeds 10% of the value (deep k at large a should use the
    asymptotic route instead).
    """
    if k < 0:
        raise DomainError("bigI_recurrence needs k >= 0")
    if not a > 0.0:
        raise DomainError("bigI_recurrence needs a > 0")
    vals = {0: XReal(1.0 / 3.0), 1: XReal(seeds[0]), 2: XReal(seeds[1])}
    errs = {0: 0.0, 1: 1e-15 * abs(float(seeds[0])), 2: 1e-15 * abs(float(seeds[1]))}
    A0f, AP0f = float(AI0), float(AIP0)
    for j in range(0, k - 2):
        rhs = -AP0f / a ** (j + 1) - (j + 1) * A0f / a ** (j + 2)
        nxt = (vals[j] - a * vals[j + 1] - rhs) / ((j + 1) * (j + 2))
        vals[j + 3] = nxt
        # propagated seed error plus the rounding injected at the scale of
        # the cancelling combination (the j-th step subtracts numbers far
        # larger than its result)
        scale = abs(float(vals[j])) + a * abs(float(vals[j + 1])) + abs(rhs)
        errs[j + 3] = (errs[j] + a * errs[j + 1] + 1e-16 * scale) \
            / ((j + 1) * (j + 2))
    val = vals[k]
    err = errs[k]
    if err > 0.1 * max(1e-300, abs(float(val))):
        raise StabilityError(
            f"recurrence to k={k} at a={a} amplifies seed error beyond 10%")
    return TransformResult(val, "recurrence", err)


def ladder_residual(k: int, a: float, Ik, Ik1, Ik3) -> float:
    """Residual of the three-term ladder with externally supplied values."""
    rhs = -float(AIP0) / a ** (k + 1) - (k + 1) * float(AI0) / a ** (k + 2)
    return float(Ik) - a * float(Ik1) - (k + 1) * (k + 2) * float(Ik3) - rhs


# -- closed-form ODE route ----------------------------------------------------

#: the pFq terms (c, k, d, F) of H+ and H-, the antiderivatives of the
#: closed form, which ``kernel.hyp_sum`` sums at -a^3/9
_H_TERMS = (
    ((PI * AIP0 ** 2, 1, None, hyp_params("1/3", "4/3 4/3")),
     (PI * AIP0, 2, 6.0, hyp_params("2/3", "4/3 5/3")),
     (SQRT3, 3, 216.0, hyp_params("1 1", "2 2 7/3"))),
    ((PI * AI0, 1, 3.0, hyp_params("1/3", "2/3 4/3")),
     (-(PI * AI0 ** 2), -1, None, hyp_params("-1/3", "2/3 2/3")),
     (SQRT3, 3, 108.0, hyp_params("1 1", "2 2 5/3"))),
)


def _H(a: float) -> tuple:
    """(H+(a), H-(a)), the terms of :data:`_H_TERMS` summed to 1e-20."""
    ap = (float(a), 0.0)
    z = XReal.from_pair(dd_div_f(dd_powi(ap, 3), -9.0))
    return tuple(XReal.from_pair(hyp_sum(terms, ap, z, 1e-20, (0.0, 0.0)))
                 for terms in _H_TERMS)


@per_request
def bigI1_closed(a: float, a0: float, I1_at_a0, I2_at_a0) -> TransformResult:
    """bigI_1(a) from initial data (bigI_1, bigI_2) at a0, by the
    variation-of-parameters solution of the inhomogeneous Airy ODE.

    Double-double throughout; a value below 1e-6 of the largest
    intermediate raises :class:`AccuracyError`.  Within a request scope
    each argument tuple is evaluated once.
    """
    CLOSED.check("bigI1_closed", 1, a)
    CLOSED.check("bigI1_closed at a0", 1, a0)
    st = airy(-a)
    ja = JPair.of(st)
    j0, Hp0, Hm0, ln_a0 = _closed_anchor(a0)
    pref = PI / (2 * SQRT3)
    hom = pref * (
        XReal(float(I1_at_a0)) * (ja.jminus * j0.jplus_prime - ja.jplus * j0.jminus_prime)
        - XReal(float(I2_at_a0)) * (ja.jminus * j0.jplus - ja.jplus * j0.jminus)
    )
    Hp, Hm = _H(a)
    dHp = Hp - Hp0
    dHm = Hm - Hm0
    ai_ma = st.ai
    dlog = XReal.from_pair(dd_sub(ln_point(a), ln_a0))
    val = hom + ja.jplus * dHp + ja.jminus * dHm - ai_ma * dlog
    scale = max(abs(float(hom)), abs(float(ja.jplus * dHp)),
                abs(float(ja.jminus * dHm)), abs(float(ai_ma * dlog)))
    # cancellation floor: pFq headroom ~ e^{(2/3)a^{3/2}} over 1e-32
    headroom = math.exp((2.0 / 3.0) * max(a, a0) ** 1.5)
    err = max(scale, headroom * 0.02) * 2e-31 + 1e-16 * abs(float(val))
    if abs(float(val)) < 1e-6 * scale:
        raise AccuracyError(
            "bigI1_closed lost more than six digits to cancellation",
            best=val, err_est=err)
    return TransformResult(val, "closed_form", err)


@lru_cache(maxsize=4)
def _closed_anchor(a0: float) -> tuple:
    """The closed form's data at a0: (the JPair at a0, H+(a0), H-(a0),
    ln a0 as a dd pair), computed once per process and point (the
    pipelines anchor at |a_1'| only)."""
    return (JPair.of(airy(-a0)), *_H(a0), ln_point(a0))


def bigI_relations(a: float, I3, I4):
    """(bigI_1, bigI_2) from (bigI_3, bigI_4) by the exact ladder:

        I1 = 1/(3a) + Ai'(0)/a^2 + Ai(0)/a^3 - (2/a) I3
        I2 = 1/(3a^2) + 2Ai'(0)/a^3 + 3Ai(0)/a^4 - (2/a^2) I3 - (6/a) I4

    The I3 coefficient in the printed I2 relation reads 2/a^3; eliminating
    I1 between the k = 0 and k = 1 ladder steps gives 2/a^2, and only that
    version satisfies the ladder with quadrature values substituted (see
    the discrepancy report).
    """
    if not a > 0.0:
        raise DomainError("bigI_relations needs a > 0")
    I3x = I3 if isinstance(I3, XReal) else XReal(float(I3))
    I4x = I4 if isinstance(I4, XReal) else XReal(float(I4))
    ai = (1.0 / (3.0 * a)) + AIP0 / (a * a) + AI0 / a ** 3 - (2.0 / a) * I3x
    bi = XReal(1.0 / (3.0 * a * a)) + 2 * AIP0 / a ** 3 + 3 * AI0 / a ** 4 \
        - (2.0 / (a * a)) * I3x - (6.0 / a) * I4x
    return ai, bi


def bigI3_from_I1(a: float, I1) -> XReal:
    """bigI_3 = 1/6 + Ai'(0)/(2a) + Ai(0)/(2a^2) - (a/2) bigI_1."""
    if not a > 0.0:
        raise DomainError("bigI3_from_I1 needs a > 0")
    I1x = I1 if isinstance(I1, XReal) else XReal(float(I1))
    return XReal(1.0 / 6.0) + AIP0 / (2 * a) + AI0 / (2 * a * a) - (a / 2) * I1x


# -- small-a generating-function route ----------------------------------------

@lru_cache(maxsize=8)
def _smalla_data(a: float) -> tuple:
    """The xi/lambda ladders and :class:`BaseValues` at a, kept per process
    and point and shared by bigI_n for every n in [1, 6]."""
    return xi_lambda_derivs(a), base_values(a, 1e-28)


@per_request
def bigI_smalla(n: int, a: float) -> TransformResult:
    """bigI_n(a) assembled from I_0, I_-1, I_-2, Ai, Ai' with the
    xi/lambda derivative ladders, truncated at i = n +
    :data:`~airylog.kernel.SMALLA_PAST_N` (ten triples past i = n).

    Designed for n in [1, 6] and a <= 4; err_est <= 1.0e-15 relative on
    (0, 4.5], and one above 1e-6 |value| (from a = 8.5 for n = 1) raises
    :class:`AccuracyError`.  The ladders, base values and reduced transforms
    at a are built once per process (:func:`_smalla_data`); the sum once
    per request scope, and per call outside one.
    """
    if not (isinstance(n, int) and SMALLA.k_lo <= n <= SMALLA.k_hi):
        raise DomainError(f"bigI_smalla supports n in [{SMALLA.k_lo}, {SMALLA.k_hi}]")
    if not a > 0.0:
        raise DomainError("bigI_smalla needs a > 0")
    power_range_check("bigI_smalla", n, a, max(n - 1, 1))
    (xs, ls), base = _smalla_data(float(a))
    total, tail = smalla_sum((xs, ls), (base.I, base.Iprime), n)
    err = 10.0 * tail + 1e-15 * abs(total[0])
    val = XReal.from_pair(total)
    if err > 1e-6 * abs(float(val)):
        raise AccuracyError(
            f"bigI_smalla truncation estimate {err:.2e} is large",
            best=val, err_est=err)
    return TransformResult(val, "small_a", err)


# -- route dispatch and the series pipelines ----------------------------------

#: the TransformResult of each per-root value read in the process, by
#: (a0, k, root magnitude); the first stored wins
_VALUES: dict = {}


class StieltjesContext:
    """Initial data and route dispatch for the per-root transforms.

    Seeds bigI_1, bigI_2 at a0 = |a_1'| come from the small-a route
    through bigI_3, bigI_4 and the exact ladder relations, so the whole
    pipeline stays analytic; roots[1] above SMALLA.hi raises DomainError.

    Every result at a root magnitude is kept per process (:data:`_VALUES`),
    as are the routes' data at a point, so a second context on the same
    roots computes nothing again.  A route that loses accuracy raises
    :class:`AccuracyError`, so the memo holds only values.
    """

    def __init__(self, roots: RootTable):
        self.a0 = float(roots[1])
        if not self.a0 <= SMALLA.hi:
            raise DomainError(f"the seeds need roots[1] <= {SMALLA.hi:g}")
        self.I3_a0 = self._bigI(3, self.a0).value
        self.I4_a0 = self._bigI(4, self.a0).value
        self.I1_a0, self.I2_a0 = bigI_relations(self.a0, self.I3_a0,
                                                self.I4_a0)

    def _bigI(self, k, a: float) -> TransformResult:
        """bigI_k(a) by :meth:`_route`, kept if a is a root magnitude."""
        key = (self.a0, k, a)
        hit = _VALUES.get(key)
        if hit is None:
            hit = self._route(k, a)
            if is_root_magnitude(a):
                hit = _VALUES.setdefault(key, hit)
        return hit

    def _route(self, k, a: float) -> TransformResult:
        """bigI_k(a) by the route for a: small_a on SMALLA, the closed form
        for k in {1, 3} only up to CLOSED.hi, asymptotic beyond;
        for k = "eq8", 1/(3a) - bigI_1(a) without its leading term."""
        if k == "eq8":
            val, err = alternating_series(_ai_moments()[1:], a, 2)
            return TransformResult(val, "asymptotic", err)
        if SMALLA.holds(k, a):
            return bigI_smalla(k, a)
        if a > CLOSED.hi:
            return bigI_asym(k, a)
        if k == 1:
            return self.bigI1_closed(a)
        if k != 3:
            raise DomainError(f"no route for bigI_{k} at a = {a}")
        r = self._bigI(1, a)  # bigI_3 from bigI_1 by the ladder
        return TransformResult(bigI3_from_I1(a, r.value), "closed_form",
                               r.err_est * a)

    def bigI1_closed(self, a: float) -> TransformResult:
        """bigI_1(a) by the closed form from this context's seeds at a0."""
        return bigI1_closed(a, self.a0, self.I1_a0, self.I2_a0)

    def bigI1(self, a: float) -> TransformResult:
        return self._bigI(1, a)

    def bigI3(self, a: float) -> TransformResult:
        return self._bigI(3, a)

    def eq8_term(self, a: float) -> XReal:
        if a > CLOSED.hi:
            return self._bigI("eq8", a).value
        i1 = self.bigI1(a).value  # raises DomainError for a <= 0
        return XReal(1.0 / (3.0 * a)) - i1


def integral1_series(route: str, N: int, roots: RootTable,
                     ctx: StieltjesContext) -> XReal:
    """The two plain root-series for the first integral.

    route 'eq3': (2/Ai'(0)) sum bigI_3(|a_n'|)/|a_n'|;
    route 'eq8': (1/Ai'(0)) sum {1/(3|a_n'|) - bigI_1(|a_n'|)}.
    """
    if route not in ("eq3", "eq8"):
        raise DomainError("route must be 'eq3' or 'eq8'")
    if N < 1:
        raise DomainError("need N >= 1")
    if N > roots.n_max:
        raise DomainError("not enough roots tabulated")
    terms = []
    for n in range(1, N + 1):
        r = float(roots[n])
        if route == "eq3":
            terms.append(ctx.bigI3(r).value / r)
        else:
            terms.append(ctx.eq8_term(r))
    total = compensated_sum(terms)
    scale = (2 / AIP0) if route == "eq3" else (1 / AIP0)
    return scale * total


def integral1_accelerated(cfg: TruncationConfig, roots: RootTable,
                          ctx: StieltjesContext) -> XReal:
    """Zeta-accelerated representation of the first integral:

        (2/Ai'(0)) sum_{n<=N} bigI_3(r_n)/r_n
        + (1/(3 Ai'(0))) sum_{k<=n} (-1)^k (k+2)!/(3^{k/3} Gamma(k/3+1))
                                    {Z_{k+4} - Z_{k+4}(N)}.
    """
    check_zeta_order(4 + cfg.n)  # before any coefficient can overflow
    head = integral1_series("eq3", cfg.N, roots, ctx)
    coeffs = [(-1) ** k * math.factorial(k + 2)
              / (3.0 ** (k / 3.0) * math.gamma(k / 3.0 + 1.0))
              for k in range(cfg.n + 1)]
    return head + zeta_tail(coeffs, 4, cfg.N, roots) / (3 * AIP0)
