"""Airy evaluator: constants, identities, the I_0 route, asymptotics.

scipy.special.airy serves as an independent reference implementation here;
everything else in the package is certified against quadrature built on
scipy, so this module closes the loop on the evaluator itself.  The
references written out as decimal strings are mpmath 1.3.0 values, good to
the 30 digits shown.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import airy as scipy_airy

from airylog.airy import _SERIES_CAP, JPair, _fg_series, airy
from airylog.ddreal import dd_add, dd_div, dd_div_f, dd_mul, dd_mul_f
from airylog.errors import RangeError
from airylog.mellin1 import I_hyp


def test_values_at_zero():
    st = airy(0.0)
    g23 = math.gamma(2 / 3)
    g13 = math.gamma(1 / 3)
    assert abs(float(st.ai) - 3 ** (-2 / 3) / g23) < 1e-16
    assert abs(float(st.aip) + 3 ** (-1 / 3) / g13) < 1e-16
    assert abs(float(st.bi) - math.sqrt(3) * float(st.ai)) < 1e-16
    assert abs(float(st.bip) + math.sqrt(3) * float(st.aip)) < 1e-16


def test_derivative_vanishes_at_first_root():
    assert abs(float(airy(-1.0187929716).aip)) <= 1e-9


def test_against_scipy_grid():
    xs = [x / 5.0 for x in range(-78, 100)]
    for x in xs:
        st = airy(x)
        ai, aip, bi, bip = scipy_airy(x)
        for mine, ref in ((st.ai, ai), (st.aip, aip), (st.bi, bi), (st.bip, bip)):
            assert abs(float(mine) - ref) <= 3e-13 * abs(ref) + 1e-300, x


def test_wronskian_invariant():
    rng = random.Random(7)
    for _ in range(200):
        x = rng.uniform(-15.0, 15.0)
        st = airy(x)
        w = float(st.ai * st.bip - st.aip * st.bi)
        assert abs(w - 1.0 / math.pi) <= 1e-12 / math.pi


def test_airy_equation_by_finite_differences():
    h = 1e-4
    for i in range(50):
        x = -12.0 + i * 0.48
        second = (float(airy(x + h).ai) - 2 * float(airy(x).ai)
                  + float(airy(x - h).ai)) / (h * h)
        assert abs(second - x * float(airy(x).ai)) <= 1e-6


def test_series_asymptotic_crossvalidation_band():
    # both representations hold ~1e-13 on [8.5, 9.5] around the switch;
    # they must agree to 1e-11 there (the series loses its footing above
    # 10 on the positive side, where Ai cancels e^{(4/3)x^{3/2}})
    from airylog.airy import _airy_asym_pos
    from airylog.kernel import AI0 as A0, AIP0 as AP0

    from airylog.ddreal import dd_add, dd_mul

    for x in (8.5, 9.0, 9.5):
        f, g, _, _ = _fg_series((x, 0.0))
        pair = dd_add(dd_mul(A0.pair, f), dd_mul(AP0.pair, g))
        series_ai = pair[0] + pair[1]
        asym_ai = float(_airy_asym_pos(x).ai)
        assert abs(series_ai - asym_ai) <= 1e-11 * abs(asym_ai)


def _fg_series_reference(xp):
    """_fg_series as one ddreal primitive per operation."""
    x3 = dd_mul(dd_mul(xp, xp), xp)
    tf, tg = (1.0, 0.0), xp
    f, g = tf, tg
    fp_acc, gp_acc = (0.0, 0.0), tg
    peak = 1.0
    for k in range(_SERIES_CAP):
        tf = dd_div_f(dd_mul(tf, x3), float((3 * k + 2) * (3 * k + 3)))
        tg = dd_div_f(dd_mul(tg, x3), float((3 * k + 3) * (3 * k + 4)))
        f = dd_add(f, tf)
        g = dd_add(g, tg)
        fp_acc = dd_add(fp_acc, dd_mul_f(tf, float(3 * k + 3)))
        gp_acc = dd_add(gp_acc, dd_mul_f(tg, float(3 * k + 4)))
        m = max(abs(tf[0]), abs(tg[0]))
        peak = max(peak, m)
        if m < 1e-38 * peak:
            break
    if xp[0] == 0.0:
        return f, g, (0.0, 0.0), (1.0, 0.0)
    return f, g, dd_div(fp_acc, xp), dd_div(gp_acc, xp)


def _pair_bits(pairs):
    """Each component's hex, which carries the sign of a zero."""
    return [(hi.hex(), lo.hex()) for hi, lo in pairs]


@given(st.floats(-16.0, 9.5),
       st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
@settings(max_examples=300, deadline=None)
@example(0.0, 0.0)
@example(-0.0, 0.0)
@example(-0.0, -0.0)
@example(-16.0, 0.0)
@example(9.5, 0.0)
def test_fg_series_matches_the_primitive_loop_bitwise(x, lo_ulps):
    # the series' arguments are binary64; a low part of up to half an ulp
    # checks the dd argument the signature allows
    xp = (x, lo_ulps * math.ulp(x))
    assert _pair_bits(_fg_series(xp)) == _pair_bits(_fg_series_reference(xp))


def test_range_errors():
    with pytest.raises(RangeError):
        airy(-17.0)
    with pytest.raises(RangeError):
        airy(31.0)


#: (a, I_0(a) = int_a^inf Ai dx), from mpmath 1.3.0 at mp.dps = 60 as
#: 1/3 - airyai(a, derivative=-1), which mp.quad over [a, inf] confirms
I0_REFS = (
    (0.5, "0.187380028421476155004438067053"),
    (1.0, "0.0970159914162235537314369994937"),
    (4.0, "0.000440687947211206363153856761182"),
    (8.0, "1.60908497591327065539397740637e-8"),
    (10.0, "3.41643173905400943040964991442e-11"),
    (13.0, "1.08753208798684568765783867118e-15"),
)


def test_scorer_vs_hypergeometric_route():
    # I_hyp(0, a) against 30-digit values of I_0 = pi[Ai Gi' - Ai' Gi]
    # (Scorer): 2.1e-17 relative or better up to a = 8
    for a, ref in I0_REFS[:4]:
        h = float(I_hyp(0, a, 1e-30))
        assert abs(h - float(ref)) <= 1e-10 * float(ref), a
    # deep range: the route sits on tiny values, and cancels to 1.1e-22
    # (a = 10) and 2.3e-18 (a = 13) off; agreement is absolute
    for a, ref in I0_REFS[4:]:
        h = float(I_hyp(0, a, 1e-30))
        assert abs(h - float(ref)) <= 1e-17, a


#: Bi(0) = 3^(-1/6) / Gamma(2/3), from mpmath 1.3.0 airybi(0)
BI0_REF = "0.614926627446000735150922369094"


def test_jpair_identities():
    jp0 = JPair.of(airy(-0.0))
    assert abs(float(jp0.jminus)) < 1e-16  # sqrt(3) Ai(0) = Bi(0)
    assert abs(float(jp0.jplus) - 2 * float(BI0_REF)) < 1e-15
    jp = JPair.of(airy(-2.0))
    st = airy(-2.0)
    prod = float(jp.jminus * jp.jplus)
    direct = 3 * float(st.ai) ** 2 - float(st.bi) ** 2
    assert abs(prod - direct) < 1e-14
    # reconstruction identities
    assert abs(float(jp.jplus + jp.jminus) - 2 * math.sqrt(3) * float(st.ai)) < 1e-14
    assert abs(float(jp.jplus - jp.jminus) - 2 * float(st.bi)) < 1e-14

