"""Double-double arithmetic: error-free transforms and elementary maps."""

import math
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


def _ref_exp(a):
    """dd_exp on :func:`_ref_taylor`."""
    if a[0] > 709.0:
        raise OverflowError("dd_exp overflow")
    if a[0] < ddreal._EXP_MIN:
        raise RangeError("below _EXP_MIN")
    k, r = _ref_reduce(a)
    total = _ref_taylor(r)[0]
    if k > 996:
        return math.ldexp(total[0], k), math.ldexp(total[1], k)
    return dd_mul_f(total, math.ldexp(1.0, k))


def _ref_ln(a):
    """dd_ln with its Newton steps on :func:`_ref_exp`."""
    e = math.frexp(a[0])[1]
    if not -960 <= e <= 960:
        return dd_add(_ref_ln((math.ldexp(a[0], -e), math.ldexp(a[1], -e))),
                      dd_mul_f(ddreal._LN2, float(e)))
    y = (math.log(a[0]), 0.0)
    for _ in range(2):
        ey = _ref_exp(dd_neg(y))
        y = dd_add(y, dd_add_f(dd_mul(a, ey), -1.0))
    return y


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


def test_exp_arguments_reach_every_path_of_the_taylor_loop():
    # the early break after a few terms, the full loop at |r| near ln2/2
    # and the scaling of each part past 2**996
    terms = lambda x: _ref_taylor(_ref_reduce((x, 0.0))[1])[1]
    assert terms(1e-20) == 2
    assert terms(0.5 * math.log(2.0) - 1e-12) == ddreal._EXP_COEFFS - 1
    assert _ref_reduce((700.0, 0.0))[0] > 996


@given(exp_arguments())
@settings(max_examples=300)
@example((1e-20, 0.0))
@example((0.5 * math.log(2.0) - 1e-12, 0.0))
@example((-0.5 * math.log(2.0) + 1e-12, 1e-29))
@example((700.0, 3e-14))
@example((709.0, 0.0))
@example((-671.0, 0.0))
def test_exp_matches_the_primitive_taylor_loop_bitwise(a):
    assert _bits(dd_exp(a)) == _bits(_ref_exp(a)), a


@given(st.integers(min_value=-1073, max_value=1023),
       st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
       st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=200)
@example(-991, 1.5, 0.0)
@example(991, 1.5, 0.25)
@example(0, 1.0, 0.0)
def test_ln_matches_the_primitive_taylor_loop_bitwise(e, m, lo_ulps):
    # a = m 2**e over every binary exponent, the scaled ones past +-960
    # and the subnormals included
    hi = math.ldexp(m, e)
    if hi == 0.0:
        hi = 5e-324
    a = (hi, lo_ulps * math.ulp(hi))
    assert _bits(dd_ln(a)) == _bits(_ref_ln(a)), a
