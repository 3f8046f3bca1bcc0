"""Property-based checks across modules."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from airylog.airy import JPair, airy, scorer_gi
from airylog.errors import DomainError, RangeError
from airylog.kernel import compensated_sum, pochhammer
from airylog.mellin1 import mellin_closed, mellin_prime
from airylog.mellin2 import Jn_smalla, irreducible_neg1
from airylog.oracle import oracle_mellin, oracle_stieltjes
from airylog.results import TransformResult
from airylog.stieltjes1 import (StieltjesContext, bigI3_from_I1, bigI_asym,
                                bigI_smalla)
from airylog.stieltjes2 import bigJ_asym, bigJ_closed, j_term, j_term_grouped
from airylog.zeta import zeta_closed, zeta_incomplete
from airylog.roots import roots_upto

ROOTS = roots_upto(40)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), max_size=60))
def test_compensated_sum_matches_exact(xs):
    exact = sum(Fraction(x) for x in xs)
    got = compensated_sum(xs)
    err = Fraction(got.hi) + Fraction(got.lo) - exact
    bound = max((abs(Fraction(x)) for x in xs), default=Fraction(0))
    assert abs(err) <= bound * len(xs) * Fraction(1, 2 ** 90) + Fraction(1, 2 ** 500)


@given(st.floats(min_value=-14.9, max_value=14.9, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_wronskian_everywhere(x):
    w = float(airy(x).wronskian())
    assert abs(w - 1.0 / math.pi) <= 1e-12


@given(st.floats(min_value=0.05, max_value=14.9, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_jpair_reconstruction(a):
    jp = JPair.of(airy(-a))
    st_ = airy(-a)
    assert abs(float(jp.jplus + jp.jminus) / 2
               - math.sqrt(3) * float(st_.ai)) <= 4 * math.ulp(1.0)
    assert abs(float(jp.jplus - jp.jminus) / 2 - float(st_.bi)) \
        <= 4 * math.ulp(max(1.0, abs(float(st_.bi))))


@given(st.integers(min_value=2, max_value=19))
def test_zeta_incomplete_below_closed(k):
    # compared at double-double resolution: the 40th root contributes
    # ~1e-29 at k = 19, below binary64 but inside the dd word
    inc = zeta_incomplete(k, 40, ROOTS)
    clo = zeta_closed(k)
    assert 0.0 < float(inc)
    assert inc <= clo
    assert zeta_incomplete(k, 39, ROOTS) < inc


@given(st.integers(min_value=0, max_value=25),
       st.fractions(min_value=Fraction(1, 10), max_value=10))
@settings(max_examples=30)
def test_pochhammer_shift(n, z):
    # (z)_{n+1} = (z + n)(z)_n
    lhs = float(pochhammer(z, n + 1))
    rhs = float(z + n) * float(pochhammer(z, n))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(st.integers(min_value=-8, max_value=12),
       st.floats(min_value=0.3, max_value=6.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_mellin_recurrence_residual(n, a):
    st_ = airy(a)
    lhs = float(mellin_closed(n, a).value)
    rhs = ((n - 1) * (n - 2) * float(mellin_closed(n - 3, a).value)
           - a ** (n - 1) * float(st_.aip)
           + (n - 1) * a ** (n - 2) * float(st_.ai))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


#: one call per route whose domain check let a NaN argument through
NAN_ROUTES = {
    "mellin_closed": lambda a: mellin_closed(1, a),
    "mellin_prime": lambda a: mellin_prime(1, a),
    "bigI_smalla": lambda a: bigI_smalla(1, a),
    "bigI_asym": lambda a: bigI_asym(1, a),
    "bigI3_from_I1": lambda a: bigI3_from_I1(a, 0.1),
    "bigJ_asym": bigJ_asym,
    "bigJ_closed": lambda a: bigJ_closed(a, None),  # checked before use
    "j_term": lambda a: j_term(a, None),
    "j_term_grouped": lambda a: j_term_grouped(a, None),
    "Jn_smalla": lambda a: Jn_smalla(1, a),
    "irreducible_neg1": lambda a: irreducible_neg1(a, "i"),
    "oracle_stieltjes": lambda a: oracle_stieltjes("Ai", 1, a),
    "oracle_mellin": lambda a: oracle_mellin("Ai2", 1, a),
}


@given(st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.0, max_value=4.5, exclude_min=True))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_smalla_passes_its_accuracy_check_on_its_range(n, a):
    # the check raises AccuracyError above 1e-6 relative; the estimate
    # itself stays near 1e-15 relative up to a = 4.5
    try:
        r = bigI_smalla(n, a)
    except RangeError:  # a power of a would leave the dd range
        return
    assert r.err_est <= 1e-14 * abs(float(r.value))


@pytest.mark.parametrize("name", sorted(NAN_ROUTES))
def test_nan_argument_raises_domain_error(name):
    # a NaN fails every comparison, so a check written as a <= 0 let it
    # through to a NaN, a 0.0 or an untyped error
    with pytest.raises(DomainError):
        NAN_ROUTES[name](math.nan)


@pytest.mark.parametrize("a", [0.0, -1.0, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["j_term", "j_term_grouped", "bigJ_closed"])
def test_summand_brackets_need_a_finite_positive_a(name, a):
    # given a solution, these raised a bare ValueError from ln a or exp in
    # double-double, or from a NaN converted to an integer; the check now
    # comes before the solution is used
    with pytest.raises(DomainError):
        NAN_ROUTES[name](a)


@pytest.mark.parametrize("evaluate", [airy, scorer_gi],
                         ids=["airy", "scorer_gi"])
def test_nan_argument_raises_range_error(evaluate):
    # the Airy evaluator's range check is written so that NaN fails it
    with pytest.raises(RangeError):
        evaluate(math.nan)


CTX = StieltjesContext(ROOTS)


def _agree(x: TransformResult, y: TransformResult) -> bool:
    """The TransformResult contract: two routes differ by at most the sum
    of their err_est."""
    return abs(float(x.value - y.value)) <= x.err_est + y.err_est


def _eq8_closed(a):
    i1 = CTX.bigI1(a)
    return TransformResult(CTX.eq8_term(a), i1.method, i1.err_est)


#: the I_1 route switches: the interval of a around each, and the two
#: routes that meet there (on a 41-point grid the largest |x - y| is 0.41
#: to 0.51 of err_x + err_y)
SWITCHES = {
    "I1 small_a / closed_form": ((3.5, 4.5), lambda a: bigI_smalla(1, a),
                                 CTX.bigI1_closed),
    "I1 closed_form / asymptotic": ((12.5, 13.0), CTX.bigI1_closed,
                                    lambda a: bigI_asym(1, a)),
    "I3 ladder / asymptotic": ((12.5, 13.0), CTX.bigI3,
                               lambda a: bigI_asym(3, a)),
    "eq8 closed_form / moment series": ((12.5, 13.0), _eq8_closed,
                                        lambda a: CTX._route("eq8", a)),
}


@pytest.mark.parametrize("switch", sorted(SWITCHES))
@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_routes_agree_within_their_errors_across_a_switch(switch, t):
    (lo, hi), left, right = SWITCHES[switch]
    a = lo + t * (hi - lo)
    assert _agree(left(a), right(a)), a


@pytest.mark.xfail(strict=True, reason=(
    "bigI_3 by the ladder from the closed form leaves its seeds' error out "
    "of err_est: at a = 3.5 it is 6.49e-17 off 40-digit mpmath with err_est "
    "2.79e-17, small_a 4.8e-28 off with err_est 4.8e-18"))
def test_I3_small_a_and_ladder_agree_within_their_errors():
    # a fixed grid, not a search, so that the known failure is not written
    # out as a failing example on every run: 10 of these 25 points fail
    points = [4.0 + 0.02 * i for i in range(1, 26)]
    assert [a for a in points
            if not _agree(bigI_smalla(3, a), CTX.bigI3(a))] == []
