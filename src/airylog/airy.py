"""Airy functions Ai, Bi, their derivatives, and the sqrt(3)*Ai(-a) +/-
Bi(-a) combinations used throughout the package.

Evaluation is by the Maclaurin pair

    Ai(x) = Ai(0) f(x) + Ai'(0) g(x),      Bi(x) = sqrt(3) [Ai(0) f - Ai'(0) g],

summed in double-double arithmetic for |x| <= 16 (the alternating series
cancels ~e^{(2/3)|x|^{3/2}} of headroom, which double-double absorbs up to
that point), and by the standard exponential asymptotic expansions for
x > 9.5 on the positive axis.  Negative-argument oscillatory asymptotics
are not implemented; every consumer stays within the series range on the
negative side.

Every function is a function of its arguments alone.  :func:`airy` is
evaluated once per point within a request scope
(:func:`airylog.results.request_scope`), which shares the
:class:`AiryState` it returns; outside a scope it computes on every call.
"""

from __future__ import annotations

from typing import NamedTuple

from .ddreal import (
    XReal,
    dd_add,
    dd_div,
    dd_div_f,
    dd_exp,
    dd_mul,
    dd_mul_f,
    dd_neg,
    dd_split,
    dd_sqrt,
    dd_sub,
    SQRT3,
    SPLITTER,
    SQRT_PI,
)
from .errors import RangeError
from .kernel import AI0, AIP0
from .results import per_request

#: switch from Maclaurin series to asymptotic expansion on the positive
#: axis; above this the Ai-side cancellation (e^{(4/3)x^{3/2}}) outruns the
#: double-double headroom.  Above it the result is up to 6e-15 relative, from
#: the binary64 2/3 in zeta (see :func:`airy`), not from truncation
X_SWITCH = 9.5
#: series supported on [-SERIES_MAX, SERIES_MAX]
SERIES_MAX = 16.0
#: asymptotics supported up to this argument
ASYM_MAX = 30.0

_SERIES_CAP = 400


class AiryState(NamedTuple):
    """Ai, Ai', Bi, Bi' bundled at a point.

    Wronskian identity: ai*bip - aip*bi = 1/pi, held to <= 1e-12 relative
    over |x| <= 15 (far better inside the series range).
    """

    ai: XReal
    aip: XReal
    bi: XReal
    bip: XReal


class JPair(NamedTuple):
    """The combinations sqrt(3)*Ai(-a) -/+ Bi(-a) and their derivatives.

    ``jminus/jplus`` hold sqrt(3)Ai(-a) -+ Bi(-a); the primed fields hold
    sqrt(3)Ai'(-a) -+ Bi'(-a) (derivatives of the Airy functions, not
    d/da of the combination).
    """

    jminus: XReal
    jplus: XReal
    jminus_prime: XReal
    jplus_prime: XReal

    @staticmethod
    def of(st: AiryState) -> "JPair":
        """The combinations at a from the Airy values ``st`` at -a."""
        sa = SQRT3 * st.ai
        sap = SQRT3 * st.aip
        return JPair(sa - st.bi, sa + st.bi, sap - st.bip, sap + st.bip)


def _fg_series(xp):
    """f, g, f', g' of the Airy Maclaurin basis at a dd argument.

    Each of the two lanes, f (i = 0) and g (i = 1), sums the terms
    t_{k+1} = t_k x^3 / (j (j + 1)), j = 3k + 2 + i, and t_{k+1} (j + 1),
    whose sum is x f' or x g'.  A lane step writes dd_mul, dd_div_f, dd_add
    and dd_mul_f out with their operations in their order (see ``ddreal``):
    x^3's split is hoisted, and a term's split serves its dd_mul_f and the
    next dd_mul.  The integer factors, below 2**26, split into themselves
    and 0.0, so the two-product terms with that 0.0 are left out: they add
    a zero to a sum that is never -0.0, which leaves it as it is.
    """
    x0, x1 = dd_mul(dd_mul(xp, xp), xp)
    xh, xl = dd_split(x0)
    # per lane: the term, its sum and the derivative sum, then the term's split
    lanes = [(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, *dd_split(1.0)),
             (*xp, *xp, *xp, *dd_split(xp[0]))]
    peak = 1.0
    for k in range(_SERIES_CAP):
        for i, (t0, t1, s0, s1, d0, d1, hi, lo) in enumerate(lanes):
            w = 3.0 * k + 3.0 + i
            n = (w - 1.0) * w
            # dd_mul(t, x^3)
            p = t0 * x0
            e = ((hi * xh - p) + hi * xl + lo * xh) + lo * xl + (t0 * x1 + t1 * x0)
            t0 = p + e
            t1 = e - (t0 - p)
            # dd_div_f(t, n): q = t0 / n, then dd_add(t, -q n) / n
            q = t0 / n
            p = q * n
            c = SPLITTER * q
            hi = c - (c - q)
            lo = q - hi
            e = (hi * n - p) + lo * n
            a, b = t0 - p, t1 - e
            ba, bb = a - t0, b - t1
            f = (t1 - (b - bb)) + (-e - bb)
            e = (t0 - (a - ba)) + (-p - ba) + b
            u = a + e
            e = e - (u - a) + f
            a = u + e
            r = (a + (e - (a - u))) / n
            t0 = q + r
            t1 = r - (t0 - q)
            # dd_add(sum, t)
            a, b = s0 + t0, s1 + t1
            ba, bb = a - s0, b - s1
            e = (s0 - (a - ba)) + (t0 - ba) + b
            u = a + e
            e = e - (u - a) + ((s1 - (b - bb)) + (t1 - bb))
            s0 = u + e
            s1 = e - (s0 - u)
            # dd_add(derivative sum, dd_mul_f(t, w))
            c = SPLITTER * t0
            hi = c - (c - t0)
            lo = t0 - hi
            p = t0 * w
            e = ((hi * w - p) + lo * w) + t1 * w
            m0 = p + e
            m1 = e - (m0 - p)
            a, b = d0 + m0, d1 + m1
            ba, bb = a - d0, b - d1
            e = (d0 - (a - ba)) + (m0 - ba) + b
            u = a + e
            e = e - (u - a) + ((d1 - (b - bb)) + (m1 - bb))
            d0 = u + e
            d1 = e - (d0 - u)
            lanes[i] = (t0, t1, s0, s1, d0, d1, hi, lo)
        m = max(abs(lanes[0][0]), abs(lanes[1][0]))
        peak = max(peak, m)
        if m < 1e-38 * peak:
            break
    (_, _, f0, f1, fp0, fp1, _, _), (_, _, g0, g1, gp0, gp1, _, _) = lanes
    if xp[0] == 0.0:
        return (f0, f1), (g0, g1), (0.0, 0.0), (1.0, 0.0)
    return (f0, f1), (g0, g1), dd_div((fp0, fp1), xp), dd_div((gp0, gp1), xp)


def _asym_uv(zeta):
    """sum (-1)^k u_k zeta^-k and the v-analogue (plus the unsigned sums)
    for the exponential Airy asymptotics; truncated at the smallest term.

    Unlike :func:`_fg_series`, one ddreal primitive per operation: only
    transforms at large a reach it, once per point above ``X_SWITCH``.
    """
    uk = (1.0, 0.0)
    su_alt = sv_alt = su = sv = zpow = (1.0, 0.0)
    best = float("inf")
    for k in range(1, 60):
        num = (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
        den = (2 * k - 1) * 216 * k
        uk = dd_div_f(dd_mul_f(uk, float(num)), float(den))
        vk = dd_div_f(dd_mul_f(uk, float(6 * k + 1)), float(1 - 6 * k))
        zpow = dd_div(zpow, zeta)
        tu = dd_mul(uk, zpow)
        tv = dd_mul(vk, zpow)
        if abs(tu[0]) > best:
            break
        best = abs(tu[0])
        sign = -1.0 if k % 2 else 1.0
        su_alt = dd_add(su_alt, dd_mul_f(tu, sign))
        sv_alt = dd_add(sv_alt, dd_mul_f(tv, sign))
        su = dd_add(su, tu)
        sv = dd_add(sv, tv)
        if best < 1e-35:
            break
    return su_alt, sv_alt, su, sv


def _airy_asym_pos(x: float) -> AiryState:
    xp = (x, 0.0)
    sq = dd_sqrt(xp)
    zeta = dd_mul_f(dd_mul(xp, sq), 2.0 / 3.0)
    x14 = dd_sqrt(sq)
    em = dd_exp(dd_neg(zeta))
    ep = dd_exp(zeta)
    su_alt, sv_alt, su, sv = _asym_uv(zeta)
    two_sqrt_pi = dd_mul_f(SQRT_PI.pair, 2.0)
    ai = dd_div(dd_mul(em, su_alt), dd_mul(two_sqrt_pi, x14))
    aip = dd_neg(dd_div(dd_mul(dd_mul(em, sv_alt), x14), two_sqrt_pi))
    bi = dd_div(dd_mul(ep, su), dd_mul(SQRT_PI.pair, x14))
    bip = dd_div(dd_mul(dd_mul(ep, sv), x14), SQRT_PI.pair)
    return AiryState(*map(XReal.from_pair, (ai, aip, bi, bip)))


@per_request
def airy(x: float) -> AiryState:
    """All four Airy values at a real point, computed in double-double,
    once per point within a request scope.

    Supported range: -16 <= x <= 30 (Maclaurin series on [-16, 9.5],
    exponential asymptotics beyond ``X_SWITCH`` = 9.5).  Largest errors
    against 40-digit mpmath at steps of 0.05, relative to the value, and for
    x < 0, where the values cross zero, to (Ai^2 + Bi^2)^{1/2} or
    (Ai'^2 + Bi'^2)^{1/2}:

        x in     [-16,-12] [-12,-8] [-8,4]   [4,8]    [8,9.5]  (9.5,30]
        Ai, Ai'  1.8e-15   1.2e-21  6.5e-26  1.9e-17  1.4e-13  6.1e-15
        Bi, Bi'  4.6e-15   1.1e-21  5.2e-27  2.3e-30  2.2e-30  6.1e-15

    The series cancels as Ai decays and, for x < 0, as its terms grow;
    above ``X_SWITCH`` the binary64 2/3 in zeta = (2/3) x^{3/2} is 5.6e-17
    off, which exp(-zeta) multiplies by zeta (truncation: 6e-19 at x = 10).
    """
    x = float(x)
    if not -SERIES_MAX <= x <= ASYM_MAX:
        raise RangeError(f"airy argument {x} outside [-16, 30]")
    if x > X_SWITCH:
        return _airy_asym_pos(x)
    xp = (x, 0.0)
    f, g, fp, gp = _fg_series(xp)
    a0, ap0 = AI0.pair, AIP0.pair
    ai = dd_add(dd_mul(a0, f), dd_mul(ap0, g))
    aip = dd_add(dd_mul(a0, fp), dd_mul(ap0, gp))
    bi = dd_mul(SQRT3.pair, dd_sub(dd_mul(a0, f), dd_mul(ap0, g)))
    bip = dd_mul(SQRT3.pair, dd_sub(dd_mul(a0, fp), dd_mul(ap0, gp)))
    return AiryState(*map(XReal.from_pair, (ai, aip, bi, bip)))

