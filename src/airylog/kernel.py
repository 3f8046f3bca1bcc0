"""Scalar numerics kernel: the Airy constants at 0, Pochhammer,
compensated summation, the truncated moment series, exact rational
polynomials, the small-a expansion sum and the generalized
hypergeometric series engine.

Every closed form's pFq part is a table of terms c a^k F(z) / d that
:func:`hyp_sum` adds up, each F through :func:`hyp` and :func:`hyp_pfq`.
The series is summed in double-double by forward term-ratio recursion

    t_{k+1} = t_k * prod(a_i + k) / prod(b_j + k) * z / (k + 1),

with the parameters exact rationals, so each ratio is an integer numerator
over an integer denominator, kept as rows of binary64 values and their
Dekker splits.  Each of the package's parameter sets is converted, checked
and bound once, at import (:func:`hyp_params`); :func:`hyp` sums it at a
call's z.  One loop body applies a row as dd_mul by z, dd_mul_f by the
numerator and dd_div_f by the denominator, then dd_add to the total, each
written out (as no other loop here is) with the operations of ``ddreal``
in their order: these sums hold most of a request's time.  A factor exact
in 26 bits splits into itself and 0.0, and the two products with that 0.0
are left out, as in ``airy._fg_series``.  A row beyond 2**53 is applied by
the exact dd products instead.  The alternating series
in scope have non-monotone term magnitudes, so termination requires three
consecutive terms below tolerance.

Each of these exists once: every compensated binary64 sum goes
through :func:`compensated_sum` (or, for the moment series, the same
Neumaier steps written into its loop), every large-a moment series
(sum_m (-1)^m c_m a^(-p-m), truncated at its smallest term) through
:func:`alternating_series`, every exact rational polynomial (the
derivative ladders, the Mellin reductions, the eta-polynomials of the
zeta closed forms) as a coefficient tuple, low power first, built by the
``poly_*`` helpers and evaluated by :func:`poly_eval_dd` alone, and
every small-a Stieltjes expansion (a generating-function ladder
against incomplete Mellin transforms) through :func:`smalla_sum`.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .ddreal import (
    XReal,
    dd_add,
    dd_div,
    dd_div_f,
    dd_exp,
    dd_from_fraction,
    dd_ln,
    dd_mul,
    dd_mul_f,
    dd_powi,
    dd_split,
    SPLITTER,
    SQRT3,
)
from .errors import ConvergenceError, DomainError, RangeError
from .results import Frozen, per_request

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
    s = comp = 0.0
    for t in terms:
        for x in (t.hi, t.lo) if isinstance(t, XReal) else (float(t),):
            total = s + x
            comp += (s - total) + x if abs(s) >= abs(x) else (x - total) + s
            s = total
    return XReal(s, comp)


def alternating_series(coeffs: Sequence[float], a: float,
                       p: int) -> tuple[XReal, float]:
    """sum_m (-1)^m c_m a^(-p-m), stopped before the first term larger
    than the one before it or not a number (or at the end of ``coeffs``).

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
    then 2^-52 times that total either way.  Raises RangeError where
    a^-p overflows.
    """
    try:
        apow = a ** float(-p)
    except OverflowError:
        raise RangeError(f"a^{-p} overflows binary64 at a = {a!r}") from None
    best = math.inf
    s = comp = magnitude = 0.0
    sign = 1.0
    for c in coeffs:
        term = c * apow * sign
        size = abs(term)
        if not size <= best:  # also a NaN: an inf coefficient times 0.0
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


def power_range_check(name: str, n: int, a: float, power: int) -> None:
    """Raise RangeError where a route of order n that forms powers of a down
    to a^-power (none for power <= 0) would leave the double-double range:
    a Dekker split overflows past 2^996, so a^power must be >= 2^-960.  The
    small-a expansions form powers down to a^-(n-1) (a^-1 for n = 1), the
    Mellin reductions of order n < 0 down to a^(n+1), held to a^|n|."""
    floor = 2.0 ** (-960.0 / power) if power > 0 else 0.0
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
    truncation estimate.  One ``ddreal`` primitive per operation: unlike
    :func:`hyp_pfq`'s, this loop is a small share of a request.
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


class _Ratios:
    """A pFq parameter set, converted and checked once, and the ratios
    t_{k+1} / (t_k z) = num_k / den_k of its terms as rows built on demand:
    num_k = prod(n_i + k d_i) prod(d_j) over the a_i = n_i/d_i and the b_j,
    den_k = (k + 1) prod(d_i) prod(n_j + k d_j).  Row k holds float(num_k),
    float(den_k) and their :func:`dd_split` halves, or (num_k, None, None,
    den_k, None, None) when either is above 2**53.  Rows are appended only.
    """

    def __init__(self, a_params: tuple, b_params: tuple):
        a = [Fraction(x) for x in a_params]
        b = [Fraction(x) for x in b_params]
        for f in b:
            if f <= 0 and f.denominator == 1:
                raise DomainError(f"denominator parameter {f} is a non-positive integer")
        if len(a) > len(b) + 1:
            raise DomainError("p > q + 1 series diverge for z != 0")
        #: p = q + 1 and no numerator parameter ends the series
        self.unit_radius = len(a) == len(b) + 1 and not any(
            f <= 0 and f.denominator == 1 for f in a)
        self._a = [(f.numerator, f.denominator) for f in a]
        self._b = [(f.numerator, f.denominator) for f in b]
        self.rows = []

    def check(self, z) -> None:
        """Raise DomainError for a p = q + 1 series at |z| >= 1."""
        if self.unit_radius and abs(z) >= 1:
            raise DomainError("p = q + 1 series diverge for |z| >= 1")

    def extend(self, k: int) -> None:
        """Append the rows up to row k."""
        with _EXTEND:
            for j in range(len(self.rows), k + 1):
                num = math.prod(d for _, d in self._b)
                den = (j + 1) * math.prod(d for _, d in self._a)
                for n, d in self._a:
                    num *= n + j * d
                for n, d in self._b:
                    den *= n + j * d
                if abs(num) > 2**53 or abs(den) > 2**53:
                    self.rows.append((num, None, None, den, None, None))
                else:
                    self.rows.append((float(num), *dd_split(float(num)),
                                      float(den), *dd_split(float(den))))


_ratios = lru_cache(_Ratios)
_EXTEND = threading.Lock()


class HypSeries(Frozen):
    """A pFq specification: numerator/denominator parameters and argument.

    Denominator parameters must avoid non-positive integers.  The series is
    entire for p <= q, the only case in this package (1F2, 2F3, 3F4).  For
    p = q + 1 it converges only for |z| < 1, unless a non-positive integer
    numerator parameter ends it; p > q + 1 diverges at every z != 0.
    Construction raises DomainError for a p = q + 1 series at |z| >= 1 and
    for every p > q + 1 series.  The constructor looks its ratio rows up
    by the parameters' hash, in a per-process cache; :func:`hyp` sums a
    bound set at another z with the same rows.
    """

    __slots__ = ("a_params", "b_params", "z", "_ratios")

    def __init__(self, a_params: tuple, b_params: tuple,
                 z: Union[float, XReal]):
        # shared by every series of this parameter set in the process
        ratios = _ratios(a_params, b_params)
        ratios.check(z)
        super().__init__(a_params, b_params, z, ratios)


def hyp_params(a: str, b: str) -> HypSeries:
    """A parameter set bound once, from its parameters written as rationals
    ("1 1 7/6", "4/3 5/3 2 2"): a series at z = 0 that :func:`hyp` sums."""
    return HypSeries(tuple(map(Fraction, a.split())),
                     tuple(map(Fraction, b.split())), 0.0)


def _exact_ratio(term, num: int, den: int):
    """term * num / den for a row beyond 2**53: a factor up to 2**53 by
    dd_mul_f or dd_div_f, a larger one by dd_mul or dd_div of its
    double-double rounding."""
    term = dd_mul_f(term, float(num)) if abs(num) <= 2**53 else dd_mul(
        term, dd_from_fraction(Fraction(num)))
    return dd_div_f(term, float(den)) if abs(den) <= 2**53 else dd_div(
        term, dd_from_fraction(Fraction(den)))


def hyp_pfq(series: HypSeries, tol: float, max_terms: int | None = None,
            z=None) -> XReal:
    """Sum the generalized hypergeometric series by term recursion in
    double-double: ``series``, or with ``z`` given, its parameter set's
    series at z, checked as the constructor checks it, with no series
    built and no parameter hashed.

    Terminates once |t_k| < tol*|S| holds for three consecutive terms.
    The rounding error of the sum is then about 2**-106 max_k |t_k|, which
    cancelling terms make far larger than 2**-106 |S|: 0.38 to 1.5 times
    that for the J_1 master series at a = 8 to 13, against mpmath at 60
    digits.  Raises :class:`ConvergenceError` with the partial sum when
    the cap (``max_terms``, default 10000 terms) is hit.
    """
    cap = max_terms if max_terms is not None else DEFAULT_MAX_TERMS
    ratios = series._ratios
    if z is None:
        z = series.z
    else:
        ratios.check(z)
    z0, z1 = (z.hi, z.lo) if isinstance(z, XReal) else (float(z), 0.0)
    if z0 == 0.0 and z1 == 0.0:
        return XReal(1.0)
    zh, zl = dd_split(z0)
    rows = ratios.rows
    t0, t1 = 1.0, 0.0  # the term
    s0, s1 = 1.0, 0.0  # the total
    small = 0
    for k in range(cap):
        if k >= len(rows):
            ratios.extend(k)
        num, nh, nl, den, dh, dl = rows[k]
        if nh is None:
            t0, t1 = _exact_ratio(dd_mul((t0, t1), (z0, z1)), num, den)
        else:
            # dd_mul(term, z)
            p = t0 * z0
            c = SPLITTER * t0
            hi = c - (c - t0)
            lo = t0 - hi
            e = ((hi * zh - p) + hi * zl + lo * zh) + lo * zl + (t0 * z1 + t1 * z0)
            t0 = p + e
            t1 = e - (t0 - p)
            # dd_mul_f(term, num)
            p = t0 * num
            c = SPLITTER * t0
            hi = c - (c - t0)
            lo = t0 - hi
            if nl:
                e = ((hi * nh - p) + hi * nl + lo * nh) + lo * nl + t1 * num
            else:  # num is its own high half: no products with nl = 0.0
                e = ((hi * num - p) + lo * num) + t1 * num
            t0 = p + e
            t1 = e - (t0 - p)
            # dd_div_f(term, den): q = t0 / den, then dd_add(term, -q den) / den
            q = t0 / den
            p = q * den
            c = SPLITTER * q
            hi = c - (c - q)
            lo = q - hi
            if dl:
                e = ((hi * dh - p) + hi * dl + lo * dh) + lo * dl
            else:  # as for num
                e = (hi * den - p) + lo * den
            a, b = t0 - p, t1 - e
            ba, bb = a - t0, b - t1
            f = (t1 - (b - bb)) + (-e - bb)
            e = (t0 - (a - ba)) + (-p - ba) + b
            u = a + e
            e = e - (u - a) + f
            a = u + e
            r = (a + (e - (a - u))) / den
            t0 = q + r
            t1 = r - (t0 - q)
        # dd_add(total, term)
        a, b = s0 + t0, s1 + t1
        ba, bb = a - s0, b - s1
        e = (s0 - (a - ba)) + (t0 - ba) + b
        u = a + e
        e = e - (u - a) + ((s1 - (b - bb)) + (t1 - bb))
        s0 = u + e
        s1 = e - (s0 - u)
        if abs(t0) < tol * abs(s0) + 1e-300:
            small += 1
            if small >= 3:
                return XReal(s0, s1)
        else:
            small = 0
    raise ConvergenceError(
        f"pFq did not converge in {cap} terms",
        partial=XReal(s0, s1),
        terms=cap,
    )


def hyp(params: HypSeries, z, tol: float) -> XReal:
    """The series of a bound parameter set at z, summed by :func:`hyp_pfq`
    to ``tol`` with the set's rows: no series is built and no parameter
    converted or hashed.  Raises DomainError for a p = q + 1 set at
    |z| >= 1."""
    return hyp_pfq(params, tol=tol, z=z)


def hyp_sum(terms, ap, z, tol: float, acc):
    """``acc`` plus the pFq terms of a closed form at z, in double-double,
    added one at a time in the order of ``terms``.

    Each term (c, k, d, F) is an XReal coefficient c, a nonzero power k of
    a (``ap``, a dd pair), a binary64 divisor d or None, and a parameter
    set F bound by :func:`hyp_params`, summed at z to ``tol`` by
    :func:`hyp`.  It is formed as (c a^k) F(z) for k > 0 and as
    (c F(z)) / a^-k for k < 0, then divided by d.  Returns the dd pair.
    """
    for c, k, d, params in terms:
        f = hyp(params, z, tol).pair
        power = dd_powi(ap, abs(k))
        t = (dd_mul(dd_mul(c.pair, power), f) if k > 0
             else dd_div(dd_mul(c.pair, f), power))
        acc = dd_add(acc, t if d is None else dd_div_f(t, d))
    return acc


@per_request
def ln_point(a: float) -> tuple:
    """ln a as a dd pair, once per binary64 a > 0 within a request scope."""
    return dd_ln((a, 0.0))


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
