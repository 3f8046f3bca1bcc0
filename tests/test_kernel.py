"""Kernel: Gamma constants, Pochhammer, compensated summation, truncated
moment series, pFq engine."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from airylog import kernel
from airylog.errors import ConvergenceError, DomainError
from airylog.kernel import (
    GAMMA_1_3,
    GAMMA_2_3,
    HypSeries,
    alternating_series,
    compensated_sum,
    AI0,
    AIP0,
    hyp_params,
    hyp_pfq,
    ln_point,
    pochhammer,
    SMALLA_PAST_N,
    smalla_sum,
)
from airylog.ddreal import (EULER_GAMMA, LN3, PI, SQRT3, XReal, dd_add,
                            dd_div, dd_div_f, dd_mul, dd_mul_f, dd_powi,
                            dd_split, dd_sub)
from airylog.mellin1 import I_TERMS, I_hyp
from airylog.mellin2 import A2, AAP, AP2
from airylog.roots import roots_upto
from airylog.stieltjes1 import (_H, _H_TERMS, _ai_moments, _bigI_asym_coeffs,
                                bigI_asym)
from airylog.stieltjes2 import (_MASTERS, _bigJ_asym_coeffs, _masters,
                                bigJ_asym)


#: Gamma(1/3) and Gamma(2/3) to 40 digits (mpmath 1.3.0, mp.dps = 40)
GAMMA_REFS = ((GAMMA_1_3, "2.678938534707747633655692940974677644129"),
              (GAMMA_2_3, "1.354117939426400416945288028154513785519"))


def test_gamma_constants_match_40_digit_references():
    for const, ref in GAMMA_REFS:
        exact = Fraction(const.hi) + Fraction(const.lo)
        assert abs(exact / Fraction(ref) - 1) <= Fraction(1, 10 ** 29), ref


def test_gamma_reflection_oracle():
    # Gamma(1/3) Gamma(2/3) = 2 pi / sqrt(3)
    assert abs(float(GAMMA_1_3 * GAMMA_2_3 - 2 * PI / SQRT3)) <= 1e-28


def test_pochhammer_vs_gamma():
    for z in (Fraction(1, 10), Fraction(1, 2), Fraction(5, 2), Fraction(10)):
        for n in (0, 1, 5, 30):
            direct = float(pochhammer(z, n))
            via = math.gamma(z + n) / math.gamma(z)
            assert abs(direct - via) <= 1e-13 * abs(via)


def test_pochhammer_rational_exact():
    assert float(pochhammer(Fraction(1, 2), 3)) == float(Fraction(15, 8))


def test_compensated_sum_trivial():
    assert float(compensated_sum([])) == 0.0
    assert float(compensated_sum([1.0, -1.0])) == 0.0


def test_compensated_sum_small_terms():
    total = compensated_sum([1.0] + [1e-16] * 10_000)
    expect = 1.0 + 1e-12
    assert abs(float(total) - expect) <= math.ulp(expect)


def test_compensated_sum_xreal_inputs():
    total = compensated_sum([XReal(1.0, 1e-20), XReal(-1.0)])
    assert abs(float(total) - 1e-20) < 1e-32


def test_smalla_sum_of_reciprocal_factorials():
    # unit ladders against a unit transform at n = 3: the sum stops at
    # i = n + SMALLA_PAST_N = 35, giving sum_{i<=35} 1/i!, with the
    # largest of the last three terms, 1/33!, as the tail
    assert SMALLA_PAST_N == 32
    ones = [XReal(1.0)] * 36
    unit = lambda m: (1.0, 0.0)
    exact = lambda pair: Fraction(pair[0]) + Fraction(pair[1])
    total, tail = smalla_sum((ones,), (unit,), 3)
    expect = sum(Fraction(1, math.factorial(i)) for i in range(36))
    assert abs(exact(total) - expect) < Fraction(1, 2 ** 100)
    assert tail == 1.0 / math.factorial(33)
    # each term adds the ladders' products; each transform sees i - n, so
    # one that vanishes away from 0 leaves only the i = n term, 1/3!
    at_zero = lambda m: (1.0, 0.0) if m == 0 else (0.0, 0.0)
    total, tail = smalla_sum((ones, ones), (at_zero, unit), 3)
    assert abs(exact(total) - (expect + Fraction(1, 6))) < Fraction(1, 2 ** 100)


def test_smalla_sum_adds_in_the_order_of_dd_add():
    # a + b by dd_add differs in the last bit of its low part from the same
    # additions with the two low-part errors added one at a time, a tie
    # that random draws meet in about one addition in six thousand; here a
    # and b are the two parts of the i = 0 term, then the first two terms
    a = tuple(map(float.fromhex, ("-0x1.b8b5f64e08800p-7",
                                  "-0x1.ecc6677595d52p-61")))
    b = tuple(map(float.fromhex, ("-0x1.b7ab0b29553dap+0",
                                  "-0x1.fdcfe72fac410p-56")))
    zeros = [XReal(0.0)] * SMALLA_PAST_N
    unit = lambda m: (1.0, 0.0)
    want = dd_add(a, b)
    parts = smalla_sum(([XReal(*a)] + zeros, [XReal(*b)] + zeros),
                       (unit, unit), 0)
    terms = smalla_sum(([XReal(*a), XReal(*b)] + zeros[1:],), (unit,), 0)
    assert parts[0] == terms[0] == want


def _neumaier_reference(terms):
    """Neumaier's sum over the components of each term, high first."""
    s = comp = 0.0
    for t in terms:
        for x in ((t.hi, t.lo) if isinstance(t, XReal) else (float(t),)):
            total = s + x
            if abs(s) >= abs(x):
                comp += (s - total) + x
            else:
                comp += (x - total) + s
            s = total
    return XReal(s, comp)


def _alternating_reference(coeffs, a, p):
    """The moment series as a kept-term list, then one compensated sum;
    the magnitudes are added left to right, as ``sum`` of floats does
    before Python 3.12."""
    apow = a ** float(-p)
    best = math.inf
    kept = []
    for m, c in enumerate(coeffs):
        term = c * apow * (-1.0 if m % 2 else 1.0)
        if abs(term) > best:
            break
        best = abs(term)
        kept.append(term)
        apow /= a
    magnitude = 0.0
    for t in kept:
        magnitude += abs(t)
    return _neumaier_reference(kept), max(best, 2.0 ** -52 * magnitude)


def _hex(x: XReal):
    return (x.hi.hex(), x.lo.hex())


coefficient = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@given(st.lists(st.one_of(coefficient,
                          st.builds(XReal, coefficient, st.floats(-1e-5, 1e-5))),
                max_size=40))
def test_compensated_sum_matches_reference_bitwise(terms):
    assert _hex(compensated_sum(terms)) == _hex(_neumaier_reference(terms))


@given(st.lists(coefficient, max_size=40).flatmap(
           # as drawn, or by falling magnitude, so that most terms are kept
           lambda cs: st.sampled_from([cs, sorted(cs, key=abs, reverse=True)])),
       st.floats(min_value=0.25, max_value=60.0),
       st.integers(min_value=0, max_value=5))
def test_alternating_series_matches_kept_list_reference_bitwise(coeffs, a, p):
    value, err = alternating_series(coeffs, a, p)
    ref_value, ref_err = _alternating_reference(coeffs, a, p)
    assert _hex(value) == _hex(ref_value)
    assert err.hex() == ref_err.hex()


def test_alternating_series_keeps_a_term_that_rounds_its_compensation():
    # the compensation is -2^-60, a power of two, and the third term lies
    # between a quarter and half of its ulp: adding it moves the
    # compensation by half an ulp, so the series must not stop there
    coeffs = (1.0, 2.0 ** -60, 1.5 * 2.0 ** -114)
    value, err = alternating_series(coeffs, 1.0, 0)
    assert value.lo == -(2.0 ** -60) + 2.0 ** -113
    ref_value, ref_err = _alternating_reference(coeffs, 1.0, 0)
    assert (_hex(value), err.hex()) == (_hex(ref_value), ref_err.hex())


#: The moment series the pipelines sum, as (coefficients, p).
_PRODUCTION_SERIES = {
    "bigI_asym_k1": (_bigI_asym_coeffs(1), 1),
    "bigI_asym_k3": (_bigI_asym_coeffs(3), 3),
    "eq8": (_ai_moments()[1:], 2),
    "bigJ_asym": (_bigJ_asym_coeffs(), 2),
}


@pytest.mark.parametrize("name", sorted(_PRODUCTION_SERIES))
def test_alternating_series_matches_reference_at_every_seed_only_root(name):
    # the roots past the Newton-refined ones are where the pipelines sum
    # the series, and where it stops early on negligible terms
    coeffs, p = _PRODUCTION_SERIES[name]
    roots = roots_upto(500)
    for n in range(14, 501):
        a = float(roots[n])
        value, err = alternating_series(coeffs, a, p)
        ref_value, ref_err = _alternating_reference(coeffs, a, p)
        assert (_hex(value), err.hex()) == (_hex(ref_value), ref_err.hex()), n


def test_hyp_z_zero():
    params = HypSeries((Fraction(1, 3),), (Fraction(2, 3), Fraction(4, 3)), 0.0)
    assert float(hyp_pfq(params, tol=1e-16, z=0.0)) == 1.0


def _rational_pfq_partial(a_params, b_params, z: Fraction, terms: int) -> Fraction:
    """Exact-rational partial-sum oracle."""
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        num = Fraction(1)
        for a in a_params:
            num *= a + k
        den = Fraction(k + 1)
        for b in b_params:
            den *= b + k
        term *= num / den * z
    return total


def test_hyp_vs_exact_rational_oracle():
    a = (Fraction(1, 3),)
    b = (Fraction(2, 3), Fraction(4, 3))
    z = Fraction(-1, 9)  # -z^3/9 at z = 1
    oracle = _rational_pfq_partial(a, b, z, 60)
    mine = hyp_pfq(HypSeries(a, b, 0.0), tol=1e-25, z=XReal.from_fraction(z))
    assert abs(float(mine) - float(oracle)) < 1e-15


def test_hyp_error_estimate_scales_with_tol():
    a = (Fraction(1, 3),)
    b = (Fraction(2, 3), Fraction(4, 3))
    params = HypSeries(a, b, 0.0)
    tight = float(hyp_pfq(params, tol=1e-22, z=-100.0))
    loose = float(hyp_pfq(params, tol=1e-10, z=-100.0))
    assert abs(tight - loose) <= 10 * 1e-10 * abs(tight) + 1e-18


def test_hyp_nonconvergence_carries_partial():
    with pytest.raises(ConvergenceError) as exc:
        hyp_pfq(HypSeries((Fraction(1),), (Fraction(2),), 5.0), tol=1e-16,
                max_terms=3)
    assert exc.value.partial is not None


def test_hypseries_validation():
    with pytest.raises(DomainError):
        HypSeries((Fraction(1),), (Fraction(0),), 1.0)
    with pytest.raises(DomainError):
        HypSeries((Fraction(1), Fraction(1), Fraction(1)), (Fraction(2),), 1.0)
    # the checks are cached per parameter set, and still raise every time
    for _ in range(2):
        with pytest.raises(DomainError):
            HypSeries((1,), (Fraction(-2),), 0.5)


def test_a_divergent_series_is_refused_at_construction():
    # 2F1(1, 1; 2; z) = -ln(1 - z) / z converges only for |z| < 1
    params = HypSeries((1, 1), (2,), 0.0)
    for z in (2.0, -1.0, 1.0, XReal(1.0, 1e-20), XReal(-1.0, -1e-20)):
        with pytest.raises(DomainError):
            HypSeries((1, 1), (2,), z)
        with pytest.raises(DomainError):
            hyp_pfq(params, tol=1e-20, z=z)
    value = hyp_pfq(params, tol=1e-20, z=0.5)
    assert abs(float(value) - 2.0 * math.log(2.0)) <= 4e-16
    # a non-positive integer numerator parameter ends the series:
    # 2F1(-2, 1; 2; 3) = 1 - 3 + 3
    assert float(hyp_pfq(HypSeries((-2, 1), (2,), 0.0), tol=1e-20,
                         z=3.0)) == 1.0


class Unhashed(Fraction):
    def __hash__(self):
        raise AssertionError("hashed")


def test_a_bound_set_derives_its_series_without_hashing_its_parameters():
    # hyp_pfq sums the constructor's series at z with the bound set's rows;
    # the parameters' hashes are never asked for
    params = kernel.hyp_params("1 1 7/6", "4/3 5/3 2 2")
    assert params.a_params == (1, 1, Fraction(7, 6)) and params.z == 0.0
    assert all(type(x) is Fraction for x in params.a_params + params.b_params)
    z = XReal(-2.5, 1e-17)
    built = HypSeries(params.a_params, params.b_params, z)
    assert params._ratios is built._ratios
    assert (_hex(hyp_pfq(params, tol=1e-28, z=z))
            == _hex(hyp_pfq(built, tol=1e-28)))
    plain = HypSeries((1, 1), (2,), 0.0)
    unhashed = HypSeries((1, 1), (2,), 0.0)
    object.__setattr__(unhashed, "a_params", (Unhashed(1), Unhashed(1)))
    assert (_hex(hyp_pfq(unhashed, tol=1e-20, z=0.5))
            == _hex(hyp_pfq(plain, tol=1e-20, z=0.5)))
    with pytest.raises(AssertionError, match="hashed"):
        HypSeries(unhashed.a_params, (2,), 0.0)


def _row_shape(num: int, den: int) -> str:
    """Which of hyp_pfq's row bodies applies num / den."""
    if abs(num) > 2**53 or abs(den) > 2**53:
        return "past 2**53"
    if dd_split(float(num))[1]:
        return "numerator past 26 bits"
    if dd_split(float(den))[1]:
        return "denominator past 26 bits"
    return "both in 26 bits"


def _hyp_pfq_reference(series, tol, max_terms=None, shapes=None):
    """hyp_pfq as one ddreal primitive per operation: each term's ratio
    integers formed anew, each applied by dd_mul_f / dd_div_f, or by
    dd_mul / dd_div of its double-double rounding beyond 2**53.  The
    :func:`_row_shape` of each ratio applied goes into ``shapes``."""
    a = [(f.numerator, f.denominator) for f in map(Fraction, series.a_params)]
    b = [(f.numerator, f.denominator) for f in map(Fraction, series.b_params)]
    num0 = math.prod(d for _, d in b)
    den0 = math.prod(d for _, d in a)
    cap = max_terms if max_terms is not None else 10_000
    zp = series.z.pair if isinstance(series.z, XReal) else (float(series.z), 0.0)
    if zp == (0.0, 0.0):
        return XReal(1.0)
    term = total = (1.0, 0.0)
    small = 0
    for k in range(cap):
        num = num0
        for n, d in a:
            num *= n + k * d
        den = (k + 1) * den0
        for n, d in b:
            den *= n + k * d
        if shapes is not None:
            shapes.add(_row_shape(num, den))
        term = dd_mul(term, zp)
        term = dd_mul_f(term, float(num)) if abs(num) <= 2**53 else dd_mul(
            term, XReal.from_fraction(Fraction(num)).pair)
        term = dd_div_f(term, float(den)) if abs(den) <= 2**53 else dd_div(
            term, XReal.from_fraction(Fraction(den)).pair)
        total = dd_add(total, term)
        if abs(term[0]) < tol * abs(total[0]) + 1e-300:
            small += 1
            if small >= 3:
                return XReal.from_pair(total)
        else:
            small = 0
    raise ConvergenceError("reference cap", partial=XReal.from_pair(total),
                           terms=cap)


def _pfq_bits(series, tol, max_terms, fn):
    """Bits of the value, or of the ConvergenceError's partial and terms."""
    try:
        value, terms = fn(series, tol, max_terms), None
    except ConvergenceError as exc:
        value, terms = exc.partial, exc.terms
    return _hex(value), terms


_F = Fraction
#: the parameter sets of the package's pFq series, in mellin1, stieltjes1
#: and stieltjes2
_PFQ_SETS = (
    ((_F(1, 3),), (_F(2, 3), _F(4, 3))),
    ((_F(2, 3),), (_F(4, 3), _F(5, 3))),
    ((_F(1, 3),), (_F(4, 3), _F(4, 3))),
    ((_F(-1, 3),), (_F(2, 3), _F(2, 3))),
    ((1, 1), (2, 2, _F(5, 3))),
    ((1, 1), (2, 2, _F(7, 3))),
    ((1, 1, _F(7, 6)), (_F(4, 3), _F(5, 3), 2, 2)),
    ((1, 1, _F(3, 2)), (2, 2, _F(5, 3), _F(7, 3))),
    ((1, 1, _F(11, 6)), (2, 2, _F(7, 3), _F(8, 3))),
    ((_F(-1, 3), _F(1, 6)), (_F(1, 3), _F(2, 3), _F(2, 3))),
    ((_F(-2, 3), _F(1, 6)), (_F(1, 3), _F(1, 3), _F(2, 3))),
    ((_F(1, 3), _F(1, 2)), (_F(2, 3), _F(4, 3), _F(4, 3))),
    ((_F(-1, 3), _F(1, 2)), (_F(2, 3), _F(2, 3), _F(4, 3))),
    ((_F(2, 3), _F(5, 6)), (_F(4, 3), _F(5, 3), _F(5, 3))),
    ((_F(1, 3), _F(5, 6)), (_F(4, 3), _F(4, 3), _F(5, 3))),
)
#: (a, b, scale of z): series whose ratio integers pass 2**53.  In the
#: first, rows 0-6 are within 2**53, from row 7 the denominator is beyond
#: and from row 57 the numerator too; in the second, every numerator is
#: beyond and no denominator, at z scaled down so that its terms still fall
_PFQ_BEYOND_2_53 = (
    ((_F(1, 3), 2**44), (2**44 + 1, _F(5, 3)), 1.0),
    ((2**30, 2**30 + 1), (3, _F(1, 3), _F(7, 2)), 2.0 ** -60),
)


def test_every_package_parameter_set_is_covered():
    # kernel.hyp_sum is hyp_pfq's only caller (test_hygiene), so the three
    # term tables name every parameter set the package sums
    tables = (*I_TERMS.values(), *_H_TERMS, *_MASTERS)
    seen = {(F.a_params, F.b_params) for terms in tables for *_, F in terms}
    assert seen == set(_PFQ_SETS), seen


# -- the closed forms' pFq parts as dd chains written per form, the
# compositions that kernel.hyp_sum's term tables replaced

def _ref_I0(a, tol):
    ap = (float(a), 0.0)
    z3 = XReal.from_pair(dd_div_f(dd_powi(ap, 3), 9.0))
    h1 = hyp_pfq(hyp_params("1/3", "2/3 4/3"), tol=tol, z=z3)
    h2 = hyp_pfq(hyp_params("2/3", "4/3 5/3"), tol=tol, z=z3)
    t1 = dd_mul(dd_mul(AI0.pair, ap), h1.pair)
    t2 = dd_mul_f(dd_mul(dd_mul(AIP0.pair, dd_powi(ap, 2)), h2.pair), 0.5)
    third = dd_div_f((1.0, 0.0), 3.0)
    return XReal.from_pair(dd_sub(dd_sub(third, t1), t2))


def _ref_Im1(a, tol):
    ap = (float(a), 0.0)
    z3 = XReal.from_pair(dd_div_f(dd_powi(ap, 3), 9.0))
    h1 = hyp_pfq(hyp_params("1/3", "4/3 4/3"), tol=tol, z=z3)
    h2 = hyp_pfq(hyp_params("1 1", "2 2 5/3"), tol=tol, z=z3)
    const = dd_add(
        dd_sub(dd_mul_f(ln_point(ap[0]), 6.0), LN3.pair),
        dd_add(dd_mul_f(EULER_GAMMA.pair, 4.0),
               dd_div_f(dd_mul(SQRT3.pair, PI.pair), 3.0)),
    )
    t1 = dd_mul(dd_mul(AIP0.pair, ap), h1.pair)
    t2 = dd_div_f(dd_mul(dd_mul(AI0.pair, dd_powi(ap, 3)), h2.pair), 18.0)
    t3 = dd_div_f(dd_mul(AI0.pair, const), 6.0)
    return XReal.from_pair(dd_sub(dd_sub(dd_mul_f(t1, -1.0), t2), t3))


def _ref_Im2(a, tol):
    ap = (float(a), 0.0)
    z3 = XReal.from_pair(dd_div_f(dd_powi(ap, 3), 9.0))
    h1 = hyp_pfq(hyp_params("-1/3", "2/3 2/3"), tol=tol, z=z3)
    h2 = hyp_pfq(hyp_params("1 1", "2 2 7/3"), tol=tol, z=z3)
    const = dd_add(
        dd_sub(dd_mul_f(ln_point(ap[0]), 6.0), LN3.pair),
        dd_sub(dd_mul_f(EULER_GAMMA.pair, 4.0),
               dd_add((6.0, 0.0), dd_div_f(dd_mul(SQRT3.pair, PI.pair), 3.0))),
    )
    t1 = dd_div(dd_mul(AI0.pair, h1.pair), ap)
    t2 = dd_div_f(dd_mul(dd_mul(AIP0.pair, dd_powi(ap, 3)), h2.pair), 36.0)
    t3 = dd_div_f(dd_mul(AIP0.pair, const), 6.0)
    return XReal.from_pair(dd_sub(dd_sub(t1, t2), t3))


def _ref_H_plus(a):
    ap = (float(a), 0.0)
    z = XReal.from_pair(dd_div_f(dd_powi(ap, 3), -9.0))
    f1, f2, f3 = (hyp_pfq(hyp_params(*p), tol=1e-20, z=z) for p in (
        ("1/3", "4/3 4/3"), ("2/3", "4/3 5/3"), ("1 1", "2 2 7/3")))
    t1 = dd_mul(dd_mul(dd_mul(PI.pair, dd_powi(AIP0.pair, 2)), ap), f1.pair)
    t2 = dd_div_f(dd_mul(dd_mul(dd_mul(PI.pair, AIP0.pair), dd_powi(ap, 2)), f2.pair), 6.0)
    t3 = dd_div_f(dd_mul(dd_mul(SQRT3.pair, dd_powi(ap, 3)), f3.pair), 216.0)
    return XReal.from_pair(dd_add(dd_add(t1, t2), t3))


def _ref_H_minus(a):
    ap = (float(a), 0.0)
    z = XReal.from_pair(dd_div_f(dd_powi(ap, 3), -9.0))
    f1, f2, f3 = (hyp_pfq(hyp_params(*p), tol=1e-20, z=z) for p in (
        ("-1/3", "2/3 2/3"), ("1/3", "2/3 4/3"), ("1 1", "2 2 5/3")))
    t1 = dd_div(dd_mul(dd_mul(PI.pair, dd_powi(AI0.pair, 2)), f1.pair), ap)
    t2 = dd_div_f(dd_mul(dd_mul(dd_mul(PI.pair, AI0.pair), ap), f2.pair), 3.0)
    t3 = dd_div_f(dd_mul(dd_mul(SQRT3.pair, dd_powi(ap, 3)), f3.pair), 108.0)
    return XReal.from_pair(dd_add(dd_sub(t2, t1), t3))


#: G1, G2, G3 of each master (box, I, II) as (power of a, binary64 factor
#: or None, parameters): Gj = (a^power F(z)) factor
_REF_G_TERMS = (
    ((3, -1.0 / 9.0, ("1 1 7/6", "4/3 5/3 2 2")),
     (-1, -1.0, ("-1/3 1/6", "1/3 2/3 2/3")),
     (-2, -0.5, ("-2/3 1/6", "1/3 1/3 2/3"))),
    ((1, None, ("1/3 1/2", "2/3 4/3 4/3")),
     (3, -1.0 / 12.0, ("1 1 3/2", "2 2 5/3 7/3")),
     (-1, -1.0, ("-1/3 1/2", "2/3 2/3 4/3"))),
    ((2, 0.5, ("2/3 5/6", "4/3 5/3 5/3")),
     (1, None, ("1/3 5/6", "4/3 4/3 5/3")),
     (3, -1.0 / 18.0, ("1 1 11/6", "2 2 7/3 8/3"))),
)


def _ref_masters(a):
    """The masters, M = Ai'(0)^2 G1 + Ai(0)Ai'(0) G2 + Ai(0)^2 G3, and for
    each the sum of its terms' magnitudes."""
    ap = (float(a), 0.0)
    z = XReal.from_pair(dd_mul_f(dd_powi(ap, 3), -4.0 / 9.0))
    out = []
    for terms in _REF_G_TERMS:
        g = []
        for k, factor, params in terms:
            f = hyp_pfq(hyp_params(*params), tol=1e-20, z=z)
            term = dd_mul(dd_powi(ap, k), f.pair)
            g.append(term if factor is None else dd_mul_f(term, factor))
        parts = [dd_mul(w.pair, gj) for w, gj in zip((AP2, AAP, A2), g)]
        out.append((XReal.from_pair(dd_add(dd_add(parts[0], parts[1]), parts[2])),
                    sum(abs(p[0]) for p in parts)))
    return out


@given(st.floats(0.0, 16.0, exclude_min=True),
       st.sampled_from((1e-18, 1e-20, 1e-28)))
@settings(max_examples=60, deadline=None)
def test_the_term_tables_sum_as_the_written_compositions_bitwise(a, tol):
    for m, ref in ((0, _ref_I0), (-1, _ref_Im1), (-2, _ref_Im2)):
        assert _hex(I_hyp(m, a, tol)) == _hex(ref(a, tol)), (m, a, tol)
    assert [_hex(h) for h in _H(a)] == [_hex(_ref_H_plus(a)),
                                        _hex(_ref_H_minus(a))], a


def test_the_masters_move_only_within_the_rounding_of_their_terms():
    # the term tables fold each binary64 factor into the coefficient and
    # divide by a^-k for k < 0, which moves the masters in their low words
    points = [0.2 + 0.05 * i for i in range(257)]
    points += [float(r) for r in roots_upto(13)]
    worst = 0.0
    for a in points:
        for new, (old, size) in zip(_masters(a), _ref_masters(a)):
            moved = abs(Fraction(new.hi) + Fraction(new.lo)
                        - Fraction(old.hi) - Fraction(old.lo))
            worst = max(worst, float(moved) / (2.0 ** -104 * size))
    assert worst <= 1.0, worst


def _z(draw, scale):
    """A binary64 z, or an XReal z with a nonzero low part, |z| <= 1000."""
    hi = draw(st.floats(-1000.0, 1000.0)) * scale
    if hi == 0.0 or not draw(st.booleans()):
        return hi
    lo = draw(st.floats(0.01, 0.5)) * math.ulp(hi) * draw(st.sampled_from((-1, 1)))
    return XReal(hi, lo) if lo else hi


#: the parameter sets the bitwise test draws, with the scale of its z
_PFQ_CASE_SETS = [(a, b, 1.0) for a, b in _PFQ_SETS] + list(_PFQ_BEYOND_2_53)


@st.composite
def _pfq_cases(draw):
    a, b, scale = draw(st.sampled_from(_PFQ_CASE_SETS))
    return (HypSeries(a, b, _z(draw, scale)),
            draw(st.sampled_from((1e-18, 1e-20, 1e-28))),
            draw(st.one_of(st.none(), st.integers(0, 5))))


def test_the_pfq_cases_reach_every_row_shape():
    # hyp_pfq leaves out a factor's products with its zero low half, so
    # the bitwise test below must apply rows of every shape: summed in
    # full at a z the strategy draws, its sets reach all four
    shapes = set()
    for a, b, scale in _PFQ_CASE_SETS:
        _hyp_pfq_reference(HypSeries(a, b, -37.5 * scale), 1e-28,
                           shapes=shapes)
    assert shapes == {"both in 26 bits", "denominator past 26 bits",
                      "numerator past 26 bits", "past 2**53"}, shapes


@given(_pfq_cases())
@settings(max_examples=300, deadline=None)
def test_hyp_pfq_matches_the_primitive_loop_bitwise(case):
    series, tol, max_terms = case
    assert _pfq_bits(series, tol, max_terms, hyp_pfq) == _pfq_bits(
        series, tol, max_terms, _hyp_pfq_reference)


def _outcome_bits(compute):
    """The bits of what ``compute()`` returns, of a ConvergenceError's
    partial sum, or the DomainError raised."""
    try:
        return _hex(compute())
    except ConvergenceError as exc:
        return _hex(exc.partial), exc.terms
    except DomainError:
        return DomainError


@given(st.sampled_from(_PFQ_CASE_SETS + [((1, 1), (2,), 1.5e-3)]),
       st.data(), st.sampled_from((1e-18, 1e-28)))
@settings(max_examples=200, deadline=None)
def test_hyp_sums_a_bound_set_as_the_constructed_series_bitwise(
        params_case, data, tol):
    # hyp_pfq(params, z=z) is hyp_pfq of the series built at z, bit for
    # bit, with no parameter of the bound set hashed; for 2F1(1, 1; 2; z),
    # whose z is drawn up to 1.5 in size, both refuse |z| >= 1
    a, b, scale = params_case
    z = _z(data.draw, scale)
    params = HypSeries(a, b, 0.0)
    unhashed = HypSeries(a, b, 0.0)
    object.__setattr__(unhashed, "a_params", tuple(map(Unhashed, a)))
    object.__setattr__(unhashed, "b_params", tuple(map(Unhashed, b)))
    want = _outcome_bits(lambda: hyp_pfq(HypSeries(a, b, z), tol))
    assert _outcome_bits(lambda: hyp_pfq(params, tol, z=z)) == want
    assert _outcome_bits(lambda: hyp_pfq(unhashed, tol, z=z)) == want


def test_rows_extended_by_many_threads_are_the_rows_of_one():
    # eight threads at a time sum one series of a parameter set that no
    # other test uses, so that they extend its rows together; a lost or
    # repeated row would put a wrong ratio at some k
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for j in range(6):
            a, b = (_F(1, 7 + j), _F(2, 9)), (_F(3, 11), _F(5, 13), _F(6, 17))
            want = _hex(_hyp_pfq_reference(HypSeries(a, b, -250.0), 1e-28))
            got = []
            threads = [threading.Thread(target=lambda: got.append(
                _hex(hyp_pfq(HypSeries(a, b, -250.0), 1e-28)))) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 8, j
            rows = HypSeries(a, b, 0.0)._ratios.rows
            fresh = kernel._Ratios(a, b)
            fresh.extend(len(rows) - 1)
            assert rows == fresh.rows, j
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("a, b, scale", _PFQ_BEYOND_2_53)
def test_the_rows_beyond_2_53_take_the_exact_products(a, b, scale):
    series = HypSeries(a, b, -37.5 * scale)
    value = hyp_pfq(series, tol=1e-28)
    assert any(row[1] is None for row in series._ratios.rows)
    assert _hex(value) == _hex(_hyp_pfq_reference(series, 1e-28))


#: 30-digit references, from mpmath 1.3.0 at mp.dps = 40:
#:   bigI_k(a):  quad(lambda x: airyai(x) / (x + a)**k, [0, 1, 5, 12, 30, inf])
#:   summand(a): quad(lambda x: x / (x + a) * (2 * airyai(x) * airyai(x, 1)
#:                    + x * airyai(x, 1)**2 - x**2 * airyai(x)**2) / a,
#:                    [0, 1, 5, 12, 30, inf])
#: printed with nstr(value, 30); a rerun at mp.dps = 50 with breakpoints
#: 0, 1, ..., 16, 24, 40 agrees in every printed digit.
_ASYM_REFERENCES = {
    (1, 10.75): "0.0290126333027802948679087536201",
    (1, 13.25): "0.0238171580623162476309024019534",
    (1, 20.0): "0.0160602576025211205561895626469",
    (1, 40.0): "0.00817687230260638723451100839551",
    (3, 10.75): "0.000221737626321637052487142628101",
    (3, 13.25): "0.000122340402385078010525312503351",
    (3, 20.0): "0.0000373906139950626937165301757614",
    (3, 40.0): "0.0000049243339687798836504739998061",
    (4, 10.75): "0.000019463112914112990739728162157",
    (4, 13.25): "0.00000879301189151443633523571261496",
    (4, 20.0): "0.00000180661042897717465506184587949",
    (4, 40.0): "0.000000120891066265138970627673963552",
    ("J", 11.475): "-0.000405433448165221506031557356128",
    ("J", 13.25): "-0.000306912227474851356046452536308",
    ("J", 20.0): "-0.000137523552412802503169680368722",
    ("J", 40.0): "-0.0000351118145936593459901673872123",
}


def test_alternating_series_error_estimate_is_honest():
    # both callers of the truncated moment series: the estimate bounds the
    # true error and overstates it by less than four orders of magnitude,
    # from the truncation-dominated a ~ 11 to the rounding-dominated a = 40
    for (k, a), ref in _ASYM_REFERENCES.items():
        res = bigJ_asym(a) if k == "J" else bigI_asym(k, a)
        value, err = res.value, res.err_est
        actual = float(abs(Fraction(value.hi) + Fraction(value.lo) - Fraction(ref)))
        assert actual <= err <= 1e4 * actual, (k, a, actual, err)
