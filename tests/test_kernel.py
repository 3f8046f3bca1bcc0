"""Kernel: Gamma constants, Pochhammer, compensated summation, truncated
moment series, pFq engine."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from airylog.errors import ConvergenceError, DomainError
from airylog.kernel import (
    GAMMA_1_3,
    GAMMA_2_3,
    HypSeries,
    alternating_series,
    compensated_sum,
    hyp,
    hyp_pfq,
    pochhammer,
    SMALLA_PAST_N,
    smalla_sum,
)
from airylog.ddreal import SQRT3, TWO_PI, XReal
from airylog.roots import roots_upto
from airylog.stieltjes1 import _ai_moments, _bigI_asym_coeffs, bigI_asym
from airylog.stieltjes2 import _bigJ_asym_coeffs, bigJ_asym


#: Gamma(1/3) and Gamma(2/3) to 40 digits (mpmath 1.3.0, mp.dps = 40)
GAMMA_REFS = ((GAMMA_1_3, "2.678938534707747633655692940974677644129"),
              (GAMMA_2_3, "1.354117939426400416945288028154513785519"))


def test_gamma_constants_match_40_digit_references():
    for const, ref in GAMMA_REFS:
        exact = Fraction(const.hi) + Fraction(const.lo)
        assert abs(exact / Fraction(ref) - 1) <= Fraction(1, 10 ** 29), ref


def test_gamma_reflection_oracle():
    # Gamma(1/3) Gamma(2/3) = 2 pi / sqrt(3)
    assert abs(float(GAMMA_1_3 * GAMMA_2_3 - TWO_PI / SQRT3)) <= 1e-28


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
    assert float(hyp((Fraction(1, 3),), (Fraction(2, 3), Fraction(4, 3)), 0.0,
                     tol=1e-16)) == 1.0


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
    mine = hyp(a, b, XReal.from_fraction(z), tol=1e-25)
    assert abs(float(mine) - float(oracle)) < 1e-15


def test_hyp_error_estimate_scales_with_tol():
    a = (Fraction(1, 3),)
    b = (Fraction(2, 3), Fraction(4, 3))
    tight = float(hyp(a, b, -100.0, tol=1e-22))
    loose = float(hyp(a, b, -100.0, tol=1e-10))
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
