"""Property-based checks across modules."""

import functools
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from airylog.airy import JPair, airy, scorer_gi
from airylog.cli import _TRANSFORMS, main
from airylog.errors import DomainError, RangeError
from airylog.kernel import compensated_sum, pochhammer
from airylog.mellin1 import (mellin_closed, mellin_family, mellin_prime,
                             reduce_family, reduce_In, reduce_Iprime)
from airylog.mellin2 import Jn_smalla, calI, calI_bform, irreducible_neg1, mellin2
from airylog.oracle import oracle_mellin, oracle_stieltjes
from airylog.results import TransformResult
from airylog.stieltjes1 import (CLOSED, StieltjesContext, bigI3_from_I1,
                                bigI_asym, bigI_smalla)
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


#: one call per route or reduction at order 1.5, which ended in a
#: RecursionError, a KeyError or a TypeError
NON_INTEGER_ORDERS = {
    "mellin_closed": lambda: mellin_closed(1.5, 1.0),
    "mellin_prime": lambda: mellin_prime(1.5, 1.0),
    "mellin_family": lambda: mellin_family(1.5, 1.0),
    "reduce_In": lambda: reduce_In(1.5),
    "reduce_Iprime": lambda: reduce_Iprime(1.5),
    "reduce_family": lambda: reduce_family(1.5),
    "calI": lambda: calI(1.5, 1.0),
    "calI_bform": lambda: calI_bform(1.5, 1.0),
    "mellin2": lambda: mellin2(1.5, 1.0),
    "mellin2 primed": lambda: mellin2(1.5, 1.0, primed=True),
    "Jn_smalla": lambda: Jn_smalla(1.5, 1.0),
    "bigI_smalla": lambda: bigI_smalla(1.5, 1.0),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_ORDERS))
def test_non_integer_order_raises_domain_error(name):
    with pytest.raises(DomainError):
        NON_INTEGER_ORDERS[name]()


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


def _route_windows() -> dict:
    """For each two routes of one ``transform`` kind whose domains overlap,
    at each end of their common index range: a window of a, 0.5 wide,
    inside both domains at each finite bound of their common a range, and
    the two routes at that index."""
    out, width = {}, 0.5
    for kind, (_, _, routes) in _TRANSFORMS.items():
        for (m1, d1, f1), (m2, d2, f2) in itertools.combinations(routes, 2):
            k_lo, k_hi = max(d1.k_lo, d2.k_lo), min(d1.k_hi, d2.k_hi)
            for k in {k_lo, k_hi} - {-math.inf, math.inf}:
                lo, hi = max(d1.lo, d2.lo, 0.0), min(d1._hi(k), d2._hi(k))
                windows = {lo: (lo, min(hi, lo + width)),
                           hi: (max(lo, hi - width), hi)}
                for bound, window in windows.items():
                    if lo < hi and 0.0 < bound < math.inf:
                        out[f"a={bound:g} {kind}.{k} {m1} / {m2}"] = (
                            window, functools.partial(f1, k),
                            functools.partial(f2, k))
    return out


#: the interval of a at each bound where two routes of a kind meet, read
#: from the route table so that it follows a moved bound, and the two
#: routes (on a 41-point grid the largest |x - y| is at most 0.51 of
#: err_x + err_y, but for KNOWN_DISAGREEMENTS); plus the two pipeline
#: switches at CLOSED.hi, which no table route covers
SWITCHES = {
    **_route_windows(),
    "I3 ladder / asymptotic": ((CLOSED.hi - 0.5, CLOSED.hi), CTX.bigI3,
                               lambda a: bigI_asym(3, a)),
    "eq8 closed_form / moment series": ((CLOSED.hi - 0.5, CLOSED.hi),
                                        _eq8_closed,
                                        lambda a: CTX._route("eq8", a)),
}
#: windows whose routes are known to disagree, with what was measured
KNOWN_DISAGREEMENTS = {
    "a=4 stieltjes-ai2.1 closed_form / small_a": (
        "solve_J1 and Jn_smalla(1, a) differ by more than their summed "
        "err_est from a = 3.38 to 3.94, at worst 1.85 times it at a = 3.76 "
        "(0.005 grid), inside J_SMALLA.hi[1] = 4"),
}


@pytest.mark.parametrize("switch", sorted(set(SWITCHES)
                                           - set(KNOWN_DISAGREEMENTS)))
@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_routes_agree_within_their_errors_across_a_switch(switch, t):
    (lo, hi), left, right = SWITCHES[switch]
    a = lo + t * (hi - lo)
    assert _agree(left(a), right(a)), a


@pytest.mark.parametrize("switch", [
    pytest.param(s, marks=pytest.mark.xfail(strict=True, reason=reason))
    for s, reason in sorted(KNOWN_DISAGREEMENTS.items())])
def test_routes_agree_within_their_errors_in_a_known_window(switch):
    # a fixed 41-point grid, not a search, as for the I3 ladder below
    (lo, hi), left, right = SWITCHES[switch]
    points = [lo + (hi - lo) * i / 40 for i in range(41)]
    assert [a for a in points if not _agree(left(a), right(a))] == []


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


@given(st.sampled_from(sorted(_TRANSFORMS)),
       st.one_of(st.integers(-70, 130), st.integers(-10 ** 8, 10 ** 8),
                 st.sampled_from((10 ** 400, -10 ** 400))),
       st.sampled_from((1.0, -1.0)), st.floats(-322.0, 300.0),
       st.sampled_from(("closed_form", "small_a", "asymptotic")))
@example("stieltjes-ai", 3_000_000, 1.0, math.log10(9.0), "asymptotic")
@example("stieltjes-ai", 10 ** 400, 1.0, 1.0, "asymptotic")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_transform_exits_with_a_code_and_finite_values(kind, order, sign, u,
                                                       method):
    # routes once returned NaN with exit 0, or crashed with a bare
    # OverflowError or ZeroDivisionError, at the edges of the binary64 range
    # of a and of the order
    flag = "--k" if kind.startswith("stieltjes") else "--n"
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["transform", "--kind", kind, flag, str(order),
                     "--a", repr(sign * 10.0 ** u), "--method", method,
                     "--format", "json"])
    assert code in (0, 2, 3)
    if code == 0:
        assert all(math.isfinite(row["value"])
                   for row in json.loads(out.getvalue()))
