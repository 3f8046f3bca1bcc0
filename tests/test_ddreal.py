"""Double-double arithmetic: error-free transforms and elementary maps."""

import math
import operator
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from airylog.errors import RangeError
from airylog import ddreal
from airylog.ddreal import (
    XReal,
    dd_add,
    dd_add_f,
    dd_div,
    dd_div_f,
    dd_exp,
    dd_ln,
    dd_mul,
    dd_mul_f,
    dd_neg,
    dd_powi,
    dd_sqr,
    dd_sqrt,
    dd_sub,
    PI,
    SQRT3,
)

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)


def test_representation_invariant():
    x = XReal(1.0) / 3
    assert abs(x.lo) <= 0.5 * math.ulp(x.hi)


@given(finite, finite)
def test_add_matches_fraction(a, b):
    s = dd_add((a, 0.0), (b, 0.0))
    exact = Fraction(a) + Fraction(b)
    err = Fraction(s[0]) + Fraction(s[1]) - exact
    assert abs(err) <= abs(exact) * Fraction(1, 2 ** 100) + Fraction(1, 2 ** 1000)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_mul_matches_fraction(a, b):
    p = dd_mul((a, 0.0), (b, 0.0))
    exact = Fraction(a) * Fraction(b)
    err = Fraction(p[0]) + Fraction(p[1]) - exact
    assert abs(err) <= abs(exact) * Fraction(1, 2 ** 100) + Fraction(1, 2 ** 1000)


def test_div_roundtrip():
    x = (math.pi, 0.0)
    y = dd_div(x, (3.0, 0.0))
    back = dd_mul(y, (3.0, 0.0))
    assert abs(back[0] - math.pi) < 1e-16
    assert abs(back[0] + back[1] - math.pi) < 1e-30


def test_sqrt_squares_back():
    r = dd_sqrt((2.0, 0.0))
    sq = dd_mul(r, r)
    assert abs(sq[0] + sq[1] - 2.0) < 1e-30


def test_exp_ln_inverse():
    for v in (0.1, 1.0, 2.5, 10.0, 100.0):
        l = dd_ln((v, 0.0))
        e = dd_exp(l)
        assert abs(e[0] + e[1] - v) < 1e-28 * v


#: ln x and exp x to 36 digits for x the binary64 value of each literal
#: (mpmath 1.3.0, mp.dps = 40)
LN_ENDS = {1e-300: "-690.775527898213705180338344570100503",
           5e-324: "-744.440071921381262314107298446081634",
           1e308: "709.196208642166070688520431672224631",
           1.7976931348623157e308: "709.782712893383996732223389910657146"}
EXP_ENDS = {695.0: "6.83384182957801084376941975483524183e+301",
            709.0: "8.21840746155497218924137238659781639e+307",
            -671.0: "3.87616845552294167599908874713864210e-292",
            # where the range reduction's k ln2 once cost most (8.2e-30)
            -568.14: "1.81942036488282018405466281586877274e-247"}


def test_exp_and_ln_at_the_ends_of_binary64():
    # dd_exp returned (nan, nan) from 691 to 709, where splitting 2**k
    # overflowed; dd_ln failed below 1.4e-300 and was off by 1 at 1e308
    def rel(v, ref):
        exact = Fraction(ref)
        return abs(Fraction(v[0]) + Fraction(v[1]) - exact) / abs(exact)

    for x, ref in LN_ENDS.items():
        assert rel(dd_ln((x, 0.0)), ref) < 1e-31, x
    for x, ref in EXP_ENDS.items():
        assert rel(dd_exp((x, 0.0)), ref) < 1e-31, x
    with pytest.raises(OverflowError):
        dd_exp((709.5, 0.0))
    # -671 is the last argument whose result keeps its low part out of the
    # subnormals; below it dd_exp lost accuracy (1.1e-16 at -709) and
    # flushed to 0 past -709
    with pytest.raises(RangeError):
        dd_exp((math.nextafter(-671.0, -math.inf), 0.0))
    # dd_ln scales arguments past binary exponent +-960, so its Newton
    # steps ask dd_exp only for arguments inside that range
    ln15 = Fraction("0.405465108108164381978013115464349136572")
    ln2 = Fraction("0.693147180559945309417232121458176568076")
    for e in (-991, -961, -960, -955, 955, 960, 961, 991):
        x = math.ldexp(1.5, e - 1)  # binary exponent e
        assert rel(dd_ln((x, 0.0)), ln15 + (e - 1) * ln2) < 3e-32, e


def test_parse_and_fraction():
    x = XReal.parse("0.1")
    exact = Fraction(1, 10)
    assert abs(Fraction(x.hi) + Fraction(x.lo) - exact) < Fraction(1, 2 ** 104)
    y = XReal.from_fraction(Fraction(22, 7))
    assert abs(float(y) - 22 / 7) < 1e-15


def test_pi_constant():
    # against the series-free check sin(pi) ~ 0 via float and known digits
    assert abs(PI.hi - math.pi) <= math.ulp(math.pi)
    assert abs(float(SQRT3) ** 2 - 3.0) < 1e-15


def test_operator_coverage():
    a = XReal(1.5)
    assert float(2 - a) == 0.5
    assert float(3 / XReal(2.0)) == 1.5
    assert (-a).hi == -1.5
    assert abs(XReal(-2.0)) == 2.0
    assert XReal(2.0) ** -2 == XReal(0.25)
    assert XReal(1.0) < 2 and XReal(3.0) >= 3
    with pytest.raises(TypeError):
        a ** 0.5


def test_xreal_comparisons_follow_the_numeric_contract():
    # a NaN difference used to read as 0: NaN compared equal to anything
    # and an infinity equal to a finite value
    nan, inf = math.nan, math.inf
    assert not (XReal(nan) == 1.0 or XReal(nan) <= 1.0 or XReal(nan) >= 1.0)
    assert XReal(nan) != XReal(nan)
    assert XReal(inf) != 1.0 and XReal(inf) > 1.0 and XReal(-inf) < -1e308
    assert XReal(inf) == inf and XReal(inf, nan) == inf
    # a Fraction is compared exactly, not rounded to double-double first
    third = XReal(1.0) / 3
    assert third != Fraction(1, 3)
    assert third < Fraction(1, 3) or third > Fraction(1, 3)
    assert XReal(2.0 ** 60, 1.0) == 2 ** 60 + 1
    # an XReal hashes as the number it equals
    assert hash(XReal(1.0)) == hash(1.0) and 1.0 in {XReal(1.0)}
    assert not XReal(1.0) == "1.0"


#: binary64 parts from which one value arises as several (hi, lo) pairs
_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 0.5, 1.0 + 2.0 ** -52,
                          2.0 ** -52, -2.0 ** -52, 2.0 ** -53, -2.0 ** -53])


@given(_PARTS, _PARTS, _PARTS, _PARTS)
@example(1.0, 2.0 ** -52, 1.0 + 2.0 ** -52, 0.0)
def test_xreal_orders_and_hashes_by_its_exact_value(a, b, c, d):
    x, y = XReal(a, b), XReal(c, d)
    ex, ey = Fraction(a) + Fraction(b), Fraction(c) + Fraction(d)
    assert ((x == y, x < y, x <= y, x > y, x >= y)
            == (ex == ey, ex < ey, ex <= ey, ex > ey, ex >= ey))
    assert x == ex and hash(x) == hash(ex)
    if x == y:
        assert hash(x) == hash(y)
    if Fraction(float(ex)) == ex:
        assert x == float(ex) and hash(x) == hash(float(ex))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(_FINITE, _FINITE, st.floats(-0.5, 0.5))
@example(-2.0 ** 62, 1.0, 0.0)  # -(2**62 - 1) hashes to -1, so to -2
@example(2.0 ** -1000, 5e-324, 0.5)  # a subnormal lo, and 2**-1053
@example(-3.0, 3.0, -0.5)  # a zero value from nonzero parts
@example(1.7e308, 1.7e308, 0.0)  # parts whose float sum overflows
def test_xreal_hashes_as_the_fraction_of_its_parts(hi, lo, frac):
    # every exponent and sign of each part, and a low part within half an
    # ulp of hi, which is subnormal below 2**-969
    for x in (XReal(hi, lo), XReal(hi, frac * math.ulp(hi))):
        assert hash(x) == hash(Fraction(x.hi) + Fraction(x.lo))
    assert hash(XReal(-2.0 ** 62, 1.0)) == -2


# -- the primitives against the textbook compositions ------------------------
#
# The primitives write the error-free transforms out inline; these are the
# same steps as separate helpers (Dekker split, two_prod, Knuth two_sum,
# quick_two_sum), composed as in the QD library.  Both must give the same
# bits, signed zeros included.

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    abig = c - a
    ahi = c - abig
    return ahi, a - ahi


def _two_prod(a, b):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _ref_add(a, b):
    s, e = _two_sum(a[0], b[0])
    t, f = _two_sum(a[1], b[1])
    e += t
    s, e = _quick_two_sum(s, e)
    e += f
    return _quick_two_sum(s, e)


def _ref_sub(a, b):
    return _ref_add(a, (-b[0], -b[1]))


def _ref_mul(a, b):
    p, e = _two_prod(a[0], b[0])
    e += a[0] * b[1] + a[1] * b[0]
    return _quick_two_sum(p, e)


def _ref_mul_f(a, b):
    p, e = _two_prod(a[0], b)
    e += a[1] * b
    return _quick_two_sum(p, e)


def _ref_div_f(a, b):
    q1 = a[0] / b
    r = _ref_sub(a, _two_prod(q1, b))
    q2 = (r[0] + r[1]) / b
    return _quick_two_sum(q1, q2)


def _div_f_by_dd_add(a, b):
    """dd_div_f with its remainder a - (p, e) taken by a dd_add call, the
    composition its written-out body must match."""
    q1 = a[0] / b
    p, e = _two_prod(q1, b)
    r0, r1 = dd_add(a, (-p, -e))
    q2 = (r0 + r1) / b
    s = q1 + q2
    return s, q2 - (s - q1)


def _ref_sqr(a):
    p, e = _two_prod(a[0], a[0])
    e += 2.0 * a[0] * a[1]
    return _quick_two_sum(p, e)


def _bits(pair):
    """Every bit of each component, the sign of zero included.  A NaN
    compares only as NaN: IEEE 754 leaves its sign uninterpreted, and
    CPython 3.11 gives nan + (-nan) either sign depending on whether the
    ``+`` has been specialised."""
    return [(x.hex(), None if math.isnan(x) else math.copysign(1.0, x))
            for x in pair]


@st.composite
def operands(draw):
    """(a, b, f): two dd pairs and a float, with zeros, subnormals and
    magnitudes up to 1e300.  The exponents of b and f are mostly near
    a's, where the error terms of the transforms are not all zero."""
    e = draw(st.integers(min_value=-1080, max_value=996))

    def near_exponent():
        return draw(st.one_of(
            st.integers(min_value=max(-1080, e - 60), max_value=min(996, e + 60)),
            st.integers(min_value=-1080, max_value=996)))

    def value(exp):
        return math.ldexp(draw(st.floats(min_value=-1.0, max_value=1.0)), exp)

    def pair(exp):
        hi = value(exp)
        return hi, draw(st.floats(min_value=-0.5, max_value=0.5)) * math.ulp(hi)

    return pair(e), pair(near_exponent()), value(near_exponent())


@given(operands())
@settings(max_examples=300)
# the dd_div_f quotient overflows and both compositions end in NaN
@example(((-1.4617738461880009e+150, -5.727438867031787e+108), (0.0, 0.0),
          -1.473295445627293e-244))
def test_primitives_match_textbook_compositions_bitwise(ops):
    a, b, f = ops
    for mine, ref, args in ((dd_add, _ref_add, (a, b)),
                            (dd_sub, _ref_sub, (a, b)),
                            (dd_mul, _ref_mul, (a, b)),
                            (dd_mul_f, _ref_mul_f, (a, f)),
                            (dd_sqr, _ref_sqr, (a,))):
        assert _bits(mine(*args)) == _bits(ref(*args)), (mine.__name__, args)
    if f != 0.0:
        assert _bits(dd_div_f(a, f)) == _bits(_ref_div_f(a, f)), (a, f)
        assert _bits(dd_div_f(a, f)) == _bits(_div_f_by_dd_add(a, f)), (a, f)


def _outcome(compute):
    """The bits of a pair or XReal that ``compute()`` returns, or the
    ZeroDivisionError a zero divisor's hi raises."""
    try:
        r = compute()
    except ZeroDivisionError:
        return ZeroDivisionError
    return _bits((r.hi, r.lo) if isinstance(r, XReal) else r)


_BINARY = ((operator.add, dd_add), (operator.sub, dd_sub),
           (operator.mul, dd_mul), (operator.truediv, dd_div))


@given(operands(), st.fractions(min_value=-1e6, max_value=1e6,
                                max_denominator=10 ** 9),
       st.integers(min_value=-2 ** 60, max_value=2 ** 60))
@settings(max_examples=200)
@example(((1.5, 0.0), (0.0, 0.0), 0.0), Fraction(1, 3), 2 ** 53 + 1)
def test_xreal_operators_match_their_primitives_bitwise(ops, fr, n):
    # XReal and float operands are read as pairs directly, the others
    # through _coerce; either way each operator is its ddreal primitive on
    # the two pairs, in the operand order the operator gives it (__radd__
    # and __rmul__ are __add__ and __mul__, so a reflected sum or product
    # keeps the XReal's pair first)
    a, b, f = ops
    x = XReal(*a)
    for other in (XReal(*b), f, fr, n, 2 ** 53 * n):
        pair = XReal._coerce(other)
        for op, prim in _BINARY:
            assert _outcome(lambda: op(x, other)) == _outcome(
                lambda: prim(a, pair)), (op, a, other)
            first = (a, pair) if prim in (dd_add, dd_mul) and type(
                other) is not XReal else (pair, a)
            assert _outcome(lambda: op(other, x)) == _outcome(
                lambda: prim(*first)), (op, other, a)
    assert _bits(((-x).hi, (-x).lo)) == _bits(dd_neg(a))
    assert _bits((abs(x).hi, abs(x).lo)) == _bits(
        dd_neg(a) if a[0] < 0 else a)


def _ref_powi(a, n):
    """Right-to-left binary powering, squaring the base after every bit."""
    result = (1.0, 0.0)
    base = a
    m = abs(n)
    while m:
        if m & 1:
            result = dd_mul(result, base)
        base = dd_sqr(base)
        m >>= 1
    return dd_div((1.0, 0.0), result) if n < 0 else result


@given(st.floats(min_value=2.0 ** -10, max_value=2.0 ** 10), st.booleans(),
       st.floats(min_value=-0.5, max_value=0.5),
       st.integers(min_value=-40, max_value=40))
def test_powi_matches_textbook_loop_bitwise(mag, negative, lo_ulps, n):
    hi = -mag if negative else mag
    a = (hi, lo_ulps * math.ulp(hi))
    assert _bits(dd_powi(a, n)) == _bits(_ref_powi(a, n)), (a, n)


def _ref_reduce(a):
    """dd_exp's range reduction: (k, r) with a = k ln2 + r."""
    ln2, cw = ddreal._LN2, ddreal._LN2_CW
    k = round((a[0] + a[1]) / ln2[0])
    r = dd_add_f(dd_add_f(a, -k * cw[0]), -k * cw[1])
    return k, dd_sub(r, dd_mul_f((cw[2], 0.0), float(k)))


def _ref_taylor(r):
    """dd_exp's Taylor loop as one ddreal primitive per operation, term <-
    dd_div_f(dd_mul(term, r), i) and total <- dd_add(total, term): the
    total and the number of terms summed."""
    term = (1.0, 0.0)
    total = (1.0, 0.0)
    for i in range(1, ddreal._EXP_COEFFS):
        term = dd_div_f(dd_mul(term, r), float(i))
        total = dd_add(total, term)
        if abs(term[0]) < 1e-36 * abs(total[0]):
            break
    return total, i


@st.composite
def exp_arguments(draw):
    """a = k ln2 + r with |r| up to ln2/2 (a few ulps past it, where the
    rounding of k ln2 leaves r), over every k of dd_exp's range, so that
    2**k is past 2**996 for k > 996; r also tiny, where the loop breaks
    after a term or two.  The low part is up to half an ulp of the high."""
    k = draw(st.integers(min_value=-968, max_value=1022))
    r = draw(st.one_of(
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-1.0, max_value=1.0).map(
            lambda u: u * 2.0 ** -40)))
    hi = (k + r) * math.log(2.0)
    hi = min(max(hi, ddreal._EXP_MIN), 709.0)
    return hi, draw(st.floats(min_value=-0.5, max_value=0.5)) * math.ulp(hi)


@given(exp_arguments())
@settings(max_examples=300)
@example((0.5 * math.log(2.0) - 1e-12, 0.0))
@example((700.0, 3e-14))
@example((1e-20, 0.0))
def test_exp_matches_the_primitive_taylor_loop_bitwise(a):
    # dd_exp writes its Taylor loop out: the reduction and the loop on the
    # primitives, scaled by 2**k as dd_exp scales, give its bits
    k, r = _ref_reduce(a)
    s = _ref_taylor(r)[0]
    want = ((math.ldexp(s[0], k), math.ldexp(s[1], k)) if k > 996
            else dd_mul_f(s, math.ldexp(1.0, k)))
    assert _bits(dd_exp(a)) == _bits(want), a


def test_exp_arguments_reach_every_path_of_the_taylor_loop():
    # the early break after a few terms, the full loop at |r| near ln2/2
    # and the scaling of each part past 2**996
    terms = lambda x: _ref_taylor(_ref_reduce((x, 0.0))[1])[1]
    assert terms(1e-20) == 2
    assert terms(0.5 * math.log(2.0) - 1e-12) == ddreal._EXP_COEFFS - 1
    assert _ref_reduce((700.0, 0.0))[0] > 996


#: (a, dd_exp(a)) for a = (hi, lo), the argument's parts as decimal
#: literals and the result's in hex: the early break, the full loop, k > 996
#: and both ends of the range; a rewrite of the Taylor loop keeps them
EXP_BITS = """
0.0 0.0 0x1.0000000000000p+0 0x0.0p+0
1e-20 0.0 0x1.0000000000000p+0 0x1.79ca10c924223p-67
-1e-20 0.0 0x1.0000000000000p+0 -0x1.79ca10c924223p-67
3e-300 0.0 0x1.0000000000000p+0 0x1.01297d23ab683p-995
2.5e-09 1e-26 0x1.0000000abcc77p+0 0x1.51eb823397ae6p-56
0.34657359027896 0.0 0x1.6a09e667f229bp+0 -0x1.ee6fd4c805443p-58
-0.34657359027896 1e-29 0x1.6a09e667f54fep-1 0x1.4680f68cd0cbfp-56
0.3465735902799727 -1.1e-17 0x1.6a09e667f3bcdp+0 -0x1.ce4d1b853b4e9p-55
0.125 0.0 0x1.2216045b6f5cdp+0 -0x1.8c4a5df1ec7e5p-58
0.5 0.0 0x1.a61298e1e069cp+0 -0x1.b4690082a4901p-55
-0.5 0.0 0x1.368b2fc6f960ap-1 -0x1.85314b9559e3ap-61
1.0 0.0 0x1.5bf0a8b145769p+1 0x1.4d57ee2b1013ap-53
-1.0 0.0 0x1.78b56362cef38p-2 -0x1.ca8a4270fadf9p-57
0.3333333333333333 1.850371707708594e-17 0x1.6546db1ba2d13p+0 0x1.0a7f6c6f27f6ap-56
2.5 0.0 0x1.85d6fd931e0bbp+3 0x1.d4dec34de84a1p-53
3.141592653589793 1.2246467991473532e-16 0x1.724046eb0933ap+4 -0x1.84c962dd81954p-50
10.0 0.0 0x1.5829dcf950560p+14 -0x1.83e055cfea4bdp-40
-10.0 0.0 0x1.7cd79b5647c9bp-15 -0x1.8e936e2abd9ddp-69
17.25 -3.5e-16 0x1.d942954644778p+24 -0x1.ddfe7520a8bbbp-32
-33.75 1e-15 0x1.3d27929d14d24p-49 0x1.409a3f963bd75p-108
100.0 0.0 0x1.3494a9b171bf5p+144 -0x1.4cf76bdb33770p+90
-100.0 0.0 0x1.a8c1f14e2af5dp-145 -0x1.43089bb228e2dp-199
255.5 1e-14 0x1.8656b982d1f89p+368 0x1.622e719563db3p+309
-313.0625 0.0 0x1.4572b7de4fb36p-452 -0x1.244f31b3ebe90p-506
500.0 0.0 0x1.45ba2a9f7e439p+721 -0x1.ae0545c9a7c2ap+667
-500.0 -2e-14 0x1.9265e78d442ffp-722 0x1.bc0a39fe1e873p-776
-671.0 0.0 0x1.ef1e1e2dfe53bp-969 -0x0.1f938a989475fp-1022
-670.99 5e-14 0x1.f417fa4df5175p-969 -0x0.bf73013d8d0b1p-1022
-650.125 0.0 0x1.0c5586f0fb87cp-938 0x1.5b5e7c3680971p-992
689.0 0.0 0x1.03037111c911bp+994 0x1.2fedc658c10b8p+939
690.5 0.0 0x1.2234558ba71ecp+996 0x1.5f138b4a69eb2p+942
691.0 0.0 0x1.de775a015a7e4p+996 -0x1.9bfa5f78e52f2p+941
700.0 3e-14 0x1.d945df4f8ed88p+1009 -0x1.605189ebf9728p+953
705.5 0.0 0x1.c45e11e24d6e6p+1017 0x1.71982b3cc5b46p+963
708.39 -5e-14 0x1.fcb9677fde634p+1021 0x1.12604db72000bp+967
709.0 0.0 0x1.d422d2be5dc9bp+1022 -0x1.916aa7a2c8d03p+967
-7.0 4e-16 0x1.de16b9c24a992p-11 0x1.1b23e9da7cf0cp-68
42.0 0.0 0x1.8232558201159p+60 0x1.bb284eabdad26p+5
-0.0078125 0.0 0x1.fc03fd56aa225p-1 -0x1.a00d03b3359e6p-59
1.5e-05 -4e-22 0x1.0000fba8fe1ccp+0 0x1.8fcc1ba915bf6p-57
"""
#: (a, dd_ln(a)) in the same form: near 1, the scaled binary exponents past
#: +-960, the subnormals and the largest binary64 value
LN_BITS = """
1.0 0.0 0x0.0p+0 0x0.0p+0
1.0 1e-17 0x1.70ef54646d497p-57 0x0.0p+0
0.9999999999 0.0 -0x1.b7ce00005e728p-34 -0x1.4e26c2c400000p-88
1.0000000000000002 0.0 0x1.fffffffffffffp-53 0x0.0p+0
2.0 0.0 0x1.62e42fefa39efp-1 0x1.abc9e3b39803fp-56
3.0 0.0 0x1.193ea7aad030bp+0 -0x1.a256f99caabecp-54
0.5 0.0 -0x1.62e42fefa39efp-1 -0x1.abc9e3b39803fp-56
10.0 0.0 0x1.26bb1bbb55516p+1 -0x1.f48ad494ea3e8p-53
3.141592653589793 1.2246467991473532e-16 0x1.250d048e7a1bdp+0 0x1.7abf2ad8d508cp-57
1e-300 0.0 -0x1.5963447f87fb5p+9 -0x1.aa670d35324e4p-46
1e+300 1e+283 0x1.5963447f87fb5p+9 0x1.abfade5b9c5aep-46
1e-100 0.0 -0x1.cc845b54b54f2p+7 0x1.8ed150b29b629p-47
7.5e+150 0.0 0x1.5b67152eb9d28p+8 0x1.ee7bbe4dcb4e5p-46
7.167464590104721e-299 0.0 -0x1.57406f1c5119ep+9 -0x1.b40deb8f97ee9p-46
3.1391853726160175e+298 1.161731959748268e+282 0x1.57a83bac04184p+9 0x1.264f01aa97bbcp-45
9.7453140114e+288 0.0 0x1.4cb5ecf0a9650p+9 0x1.0886a2bc2f41ep-45
5.1306710016229703e-290 0.0 -0x1.4d0ea5fca54dfp+9 0x1.0843e4075a4b2p-45
2.7813423231340017e-308 0.0 -0x1.62162ddfe4329p+9 0x1.90f10a1528a0cp-45
5e-324 0.0 -0x1.74385446d71c3p+9 -0x1.8e569fa8ee781p-45
8.095e-320 0.0 -0x1.6f5e359f105f9p+9 0x1.869601a58bd20p-45
1.7976931348623157e+308 9.9792015476736e+291 0x1.62e42fefa39efp+9 0x1.aac9e3b39803fp-46
2.2250738585072014e-308 0.0 -0x1.6232bdd7abcd2p+9 -0x1.eef3fec1be37fp-46
123456.789 0.0 0x1.77281cad8a844p+3 -0x1.d8fe0707e837cp-52
6.02214076e+23 0.0 0x1.b60a08fb35901p+5 -0x1.9a97e6be537bep-51
"""


def _pinned(table: str) -> list:
    """The (argument, result) pairs of a table of pinned bits."""
    rows = [line.split() for line in table.strip().splitlines()]
    return [((float(hi), float(lo)), (float.fromhex(r0), float.fromhex(r1)))
            for hi, lo, r0, r1 in rows]


def test_exp_keeps_its_pinned_bits():
    pinned = _pinned(EXP_BITS)
    terms = {_ref_taylor(_ref_reduce(a)[1])[1] for a, _ in pinned}
    assert min(terms) <= 2 and ddreal._EXP_COEFFS - 1 in terms
    assert any(_ref_reduce(a)[0] > 996 for a, _ in pinned)
    wrong = [a for a, want in pinned if _bits(dd_exp(a)) != _bits(want)]
    assert not wrong, wrong


def test_ln_keeps_its_pinned_bits():
    pinned = _pinned(LN_BITS)
    assert any(not -960 <= math.frexp(a[0])[1] <= 960 for a, _ in pinned)
    wrong = [a for a, want in pinned if _bits(dd_ln(a)) != _bits(want)]
    assert not wrong, wrong


#: 40 digits, past the 32 a dd result holds; ``Decimal.exp`` and
#: ``Decimal.ln`` round correctly
_DEC = Context(prec=40)
#: the bound on the error relative to the reference (to max(1, |ln a|) for
#: dd_ln): about twice the largest seen over 150,000 random arguments
_ELEMENTARY_TOL = Fraction(2e-31)


def _dec_error(v, ref: Decimal) -> Fraction:
    return abs(Fraction(v[0]) + Fraction(v[1]) - Fraction(ref))


@given(exp_arguments())
@settings(max_examples=300)
@example((0.5 * math.log(2.0) - 1e-12, 0.0))
@example((700.0, 3e-14))
@example((-671.0, 0.0))
def test_exp_is_accurate_on_every_path_of_the_taylor_loop(a):
    ref = _DEC.exp(_DEC.add(Decimal(a[0]), Decimal(a[1])))
    bound = _ELEMENTARY_TOL * abs(Fraction(ref))
    assert _dec_error(dd_exp(a), ref) < bound, a


@given(st.integers(min_value=-1073, max_value=1023),
       st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
       st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=200)
@example(-991, 1.5, 0.0)
@example(991, 1.5, 0.25)
@example(0, 1.0 + 2.0 ** -52, 0.0)
def test_ln_is_accurate_over_every_binary_exponent(e, m, lo_ulps):
    # a = m 2**e, the scaled exponents past +-960 and the subnormals
    # included; near a = 1 the error is absolute, of the Newton step's 1
    hi = math.ldexp(m, e)
    if hi == 0.0:
        hi = 5e-324
    a = (hi, lo_ulps * math.ulp(hi))
    ref = _DEC.ln(_DEC.add(Decimal(a[0]), Decimal(a[1])))
    bound = _ELEMENTARY_TOL * max(1, abs(Fraction(ref)))
    assert _dec_error(dd_ln(a), ref) < bound, a
