"""Scalar numerics kernel: the Airy constants at 0, Pochhammer,
compensated summation, the truncated moment series, exact rational
polynomials, the small-a expansion sum and the generalized
hypergeometric series engine.

Every closed form in the package funnels through :func:`hyp_pfq`.  The
series is summed in double-double by forward term-ratio recursion

    t_{k+1} = t_k * prod(a_i + k) / prod(b_j + k) * z / (k + 1),

with parameters kept as exact rationals so each ratio is applied as an
integer multiply / integer divide on the double-double accumulator.  The
alternating series in scope have non-monotone term magnitudes, so
termination requires three consecutive terms below tolerance.

Each of these exists once: every compensated binary64 sum goes
through :func:`compensated_sum` (or, for the moment series, the same
Neumaier steps written into its loop), every large-a moment series
(sum_m (-1)^m c_m a^(-p-m), truncated at its smallest term) through
:func:`alternating_series`, and every exact rational polynomial
(coefficient tuples, low power first) through the ``poly_*`` helpers,
and every small-a Stieltjes expansion (a generating-function ladder
against incomplete Mellin transforms) through :func:`smalla_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .ddreal import (
    XReal,
    dd_add,
    dd_div,
    dd_div_f,
    dd_exp,
    dd_ln,
    dd_mul,
    dd_mul_f,
    SQRT3,
)
from .errors import ConvergenceError, DomainError, RangeError

DEFAULT_MAX_TERMS = 10_000


def pochhammer(z: Fraction, n: int) -> XReal:
    """(z)_n for rational z, exact (Fraction product) before the final
    rounding to double-double."""
    if n < 0:
        raise DomainError("pochhammer needs n >= 0")
    acc = Fraction(1)
    for k in range(n):
        acc *= z + k
    return XReal.from_fraction(acc)


def compensated_sum(terms: Sequence) -> XReal:
    """Neumaier-compensated total of floats and/or XReals.

    Error <= 2 ulp of the exact sum for up to 1e6 terms; XReal inputs
    contribute both components, high first.
    """
    s = 0.0
    comp = 0.0
    for t in terms:
        if isinstance(t, XReal):
            for x in (t.hi, t.lo):
                total = s + x
                comp += (s - total) + x if abs(s) >= abs(x) else (x - total) + s
                s = total
            continue
        x = float(t)
        total = s + x
        comp += (s - total) + x if abs(s) >= abs(x) else (x - total) + s
        s = total
    return XReal(s, comp)


def alternating_series(coeffs: Sequence[float], a: float,
                       p: int) -> tuple[XReal, float]:
    """sum_m (-1)^m c_m a^(-p-m), stopped before the first term larger
    than the one before it (or at the end of ``coeffs``).

    Returns ``(value, err)``: the Neumaier-compensated sum of the kept
    terms (as :func:`compensated_sum` forms it), and the larger of the
    smallest kept term (the truncation estimate of an asymptotic series)
    and 2^-52 times the sum of the kept magnitudes (the rounding of
    coefficients and powers held in binary64).

    The sum also stops at the first kept term below a quarter ulp of the
    running sum, of its compensation and of the magnitude total.  Adding
    such a term rounds each of the three back to itself, and every later
    kept term is no larger, so the full list would give the same bits.
    Such a term is below 2^-54 times the magnitude total, so ``err`` is
    then 2^-52 times that total either way.
    """
    apow = a ** float(-p)
    best = math.inf
    s = comp = magnitude = 0.0
    sign = 1.0
    for c in coeffs:
        term = c * apow * sign
        size = abs(term)
        if size > best:
            break
        best = size
        # 4 size < ulp(v) is size < ulp(v)/4 without underflow; the first
        # test is implied by the last and skips the ulps while terms are large
        quad = 4.0 * size
        if (size < 2.0 ** -54 * magnitude and quad < math.ulp(s)
                and quad < math.ulp(comp) and quad < math.ulp(magnitude)):
            break
        total = s + term
        comp += (s - total) + term if abs(s) >= size else (term - total) + s
        s = total
        magnitude += size
        apow /= a
        sign = -sign
    return XReal(s, comp), max(best, 2.0 ** -52 * magnitude)


def smalla_range_check(name: str, n: int, a: float) -> None:
    """Raise RangeError where the small-a expansion of order n would leave
    the double-double range: it forms powers of a down to a^-(n-1) (a^-1
    for n = 1), and the Dekker split of a product overflows past 2^996.
    So a^(n-1) (a for n = 1) must be at least 2^-960."""
    floor = 2.0 ** (-960.0 / max(n - 1, 1))
    if a < floor:
        raise RangeError(f"{name} of order {n} supports only a >= {floor:.3g}")


#: terms of a small-a sum past i = n: ten triples and two more, so every
#: small-a route (n <= 6) reads its ladders to i = 6 + SMALLA_PAST_N = 38
SMALLA_PAST_N = 3 * 10 + 2


def smalla_sum(ladders, transforms, n: int) -> tuple:
    """sum_{i=0..n+SMALLA_PAST_N} sum_j ladders[j][i] transforms[j](i - n)
    / i! in double-double: the small-a expansion of a Stieltjes transform
    of order n, with ``ladders`` the z-derivatives of its generating
    functions (XReal lists) and ``transforms`` the incomplete Mellin
    transforms they pair with (index -> dd pair).

    The i! is a running binary64 product.  Returns ``(total, tail)``: the
    dd pair and the largest |term| among the last three terms, the
    truncation estimate.
    """
    last = n + SMALLA_PAST_N
    total = (0.0, 0.0)
    tail = 0.0
    fact = 1.0
    for i in range(last + 1):
        if i > 0:
            fact *= i
        term = None
        for ladder, transform in zip(ladders, transforms):
            part = dd_mul(ladder[i].pair, transform(i - n))
            term = part if term is None else dd_add(term, part)
        term = dd_div_f(term, fact)
        total = dd_add(total, term)
        if i > last - 3:
            tail = max(tail, abs(term[0]))
    return total, tail


# -- exact polynomials (coefficient tuples, low power first) ----------------

def poly_add(p, q) -> tuple:
    """p + q, with trailing zero coefficients dropped (at least one kept)."""
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
           for i in range(n)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_scale(p, s) -> tuple:
    """s * p."""
    return tuple(c * s for c in p)


def poly_mul(p, q) -> tuple:
    """p * q; zero coefficients are skipped."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def poly_deriv(p) -> tuple:
    """dp/dz."""
    return tuple(p[i] * i for i in range(1, len(p))) or (0,)


def poly_shift(p) -> tuple:
    """z * p."""
    return (0,) + tuple(p)


def poly_eval_dd(p, x_pair):
    """Horner evaluation of an int/Fraction coefficient tuple at a dd
    point.  Coefficients are rounded to dd once each: integers (up to
    2^53) exactly, other rationals by one dd division where numerator and
    denominator fit in binary64."""
    acc = (0.0, 0.0)
    for c in reversed(p):
        acc = dd_mul(acc, x_pair)
        if not c:
            continue
        num, den = c.numerator, c.denominator
        if abs(num) > 2**53 or den > 2**53:
            acc = dd_add(acc, XReal.from_fraction(Fraction(c)).pair)
        elif den == 1:
            acc = dd_add(acc, (float(num), 0.0))
        else:
            acc = dd_add(acc, dd_div_f((float(num), 0.0), float(den)))
    return acc


@dataclass(frozen=True)
class HypSeries:
    """A pFq specification: numerator/denominator parameters and argument.

    Denominator parameters must avoid non-positive integers; only p <= q+1
    occurs in this package (1F2, 2F3, 3F4), for which the series is entire.
    """

    a_params: tuple
    b_params: tuple
    z: Union[float, XReal]

    def __post_init__(self):
        for b in self.b_params:
            bf = Fraction(b)
            if bf <= 0 and bf.denominator == 1:
                raise DomainError(f"denominator parameter {b} is a non-positive integer")
        if len(self.a_params) > len(self.b_params) + 1:
            raise DomainError("p > q + 1 series diverge for z != 0")


def hyp_pfq(series: HypSeries, tol: float,
            max_terms: int | None = None) -> XReal:
    """Sum the generalized hypergeometric series by term recursion in
    double-double.

    Terminates once |t_k| < tol*|S| holds for three consecutive terms;
    the returned value then carries error <= 10*tol relative (plus the
    intrinsic cancellation floor of double-double).  Raises
    :class:`ConvergenceError` with the partial sum when the cap
    (``max_terms``, default 10000 terms) is hit.
    """
    # each ratio is num/den with num = prod(n_i + k d_i) * prod(d_j) over
    # the a_i = n_i/d_i and b_j, den = (k + 1) prod(d_i) prod(n_j + k d_j)
    a = [(f.numerator, f.denominator) for f in map(Fraction, series.a_params)]
    b = [(f.numerator, f.denominator) for f in map(Fraction, series.b_params)]
    num0 = math.prod(d for _, d in b)
    den0 = math.prod(d for _, d in a)
    cap = max_terms if max_terms is not None else DEFAULT_MAX_TERMS

    if isinstance(series.z, XReal):
        zp = series.z.pair
    else:
        zp = (float(series.z), 0.0)
    if zp[0] == 0.0 and zp[1] == 0.0:
        return XReal(1.0)

    term = (1.0, 0.0)
    total = (1.0, 0.0)
    small = 0
    for k in range(cap):
        num = num0
        for n, d in a:
            num *= n + k * d
        den = (k + 1) * den0
        for n, d in b:
            den *= n + k * d
        term = dd_mul(term, zp)
        term = dd_mul_f(term, float(num)) if abs(num) <= 2**53 else dd_mul(
            term, XReal.from_fraction(Fraction(num)).pair
        )
        term = dd_div_f(term, float(den)) if abs(den) <= 2**53 else dd_div(
            term, XReal.from_fraction(Fraction(den)).pair
        )
        total = dd_add(total, term)
        if abs(term[0]) < tol * abs(total[0]) + 1e-300:
            small += 1
            if small >= 3:
                return XReal.from_pair(total)
        else:
            small = 0
    raise ConvergenceError(
        f"pFq did not converge in {cap} terms",
        partial=XReal.from_pair(total),
        terms=cap,
    )


def hyp(a_params, b_params, z, tol: float) -> XReal:
    """Convenience wrapper: hyp((1,3),(2,3,...),z) with Fraction coercion."""
    return hyp_pfq(
        HypSeries(tuple(Fraction(x) for x in a_params),
                  tuple(Fraction(x) for x in b_params), z),
        tol=tol,
    )


# -- shared high-precision constants ----------------------------------------

#: Gamma(1/3) and Gamma(2/3) as double-double pairs, within 4e-30
#: relative of their 40-digit values (checked against mpmath in the tests)
GAMMA_1_3 = XReal(float.fromhex("0x1.56e77539482f1p+1"),
                  float.fromhex("0x1.9dd91a7d25830p-53"))
GAMMA_2_3 = XReal(float.fromhex("0x1.5aa77928c3679p+0"),
                  float.fromhex("-0x1.aa68580a47f71p-55"))

_CBRT3 = XReal.from_pair(dd_exp(dd_div_f(dd_ln((3.0, 0.0)), 3.0)))  # 3**(1/3)
#: Ai(0) = 3**(-2/3) / Gamma(2/3)
AI0 = 1 / (_CBRT3 * _CBRT3 * GAMMA_2_3)
#: Ai'(0) = -3**(-1/3) / Gamma(1/3)
AIP0 = -1 / (_CBRT3 * GAMMA_1_3)
#: Bi(0) = sqrt(3) Ai(0)
BI0 = SQRT3 * AI0
#: Bi'(0) = -sqrt(3) Ai'(0)
BIP0 = -SQRT3 * AIP0
#: eta = Ai(0)/Ai'(0)  (negative)
ETA = AI0 / AIP0
