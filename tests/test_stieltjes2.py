"""Squared-Airy Stieltjes transforms: ODE solution, summand, pipelines."""

import math
from fractions import Fraction

import pytest

from airylog import stieltjes2
from airylog.airy import airy
from airylog.errors import DomainError, RangeError
from airylog.mellin2 import A2, AAP, AP2
from airylog.oracle import oracle_integral2, oracle_stieltjes
from airylog.results import TruncationConfig
from airylog.roots import roots_upto
from airylog.stieltjes2 import (
    J1Solution,
    J_recurrences,
    bigJ_asym,
    bigJ_closed,
    bigJ_term,
    constants_c,
    integral2_accelerated,
    integral2_series,
    j_term,
    solve_J1,
)


@pytest.fixture(scope="module")
def roots():
    return roots_upto(60)


@pytest.fixture(scope="module")
def sol(roots):
    return J1Solution.build(float(roots[1]))


def test_root1_oracle_seeds_are_the_quadrature_values(monkeypatch):
    # the constants are keyed by the anchor every pipeline builds at, so a
    # moved root 1 fails here instead of quietly integrating again
    (a0, seeds), = stieltjes2._ORACLE_SEEDS.items()
    assert float(roots_upto(1)[1]) == a0
    quad = [oracle_stieltjes("Ai2", n, a0).value for n in (1, 2, 3)]
    assert ([(s.hi.hex(), s.lo.hex()) for s in seeds]
            == [(q.hi.hex(), q.lo.hex()) for q in quad])
    # and the build at that anchor reads them without a quadrature
    monkeypatch.setattr(stieltjes2, "_SOLUTIONS", {})
    sol = J1Solution.build(a0)
    assert (sol.J1_a0, sol.J2_a0, sol.J3_a0) == seeds


#: (c1, c2, c3) of constants_c at a0 = 1.018792971647471 with the oracle
#: seeds as exact inputs, from mpmath 1.3.0 airyai and airybi at -a0 at
#: mp.dps = 60, each with its relative tolerance: about 10 times the
#: measured error of 4.9e-30, 4.5e-30 and 3.6e-29
CONSTANTS_REFS = (
    ("0.0156989339961307855037502967237", 5e-29),
    ("0.0223701286828510792395596086553", 5e-29),
    ("0.00387860535481427950898075175197", 4e-28),
)


def _rel_error(x, ref: str) -> float:
    """The exact relative error of the XReal x against a decimal string."""
    return float(abs((Fraction(x.hi) + Fraction(x.lo)) / Fraction(ref) - 1))


def test_constants_general_vs_simplified(sol):
    # the general form at the anchor, which is a root magnitude rounded
    # to binary64, so the at-root simplification would not hold to 30 digits
    assert sol.a0 == 1.018792971647471
    got = constants_c(sol.a0, sol.J1_a0, sol.J2_a0, sol.J3_a0)
    for c, (ref, tol) in zip(got, CONSTANTS_REFS):
        assert _rel_error(c, ref) <= tol, ref


def test_constants_linearity(sol):
    ones = constants_c(sol.a0, sol.J1_a0, sol.J2_a0, sol.J3_a0)
    twos = constants_c(sol.a0, 2 * sol.J1_a0, 2 * sol.J2_a0, 2 * sol.J3_a0)
    for a, b in zip(ones, twos):
        assert abs(float(b) - 2 * float(a)) <= 1e-14 * max(1.0, abs(float(a)))


def test_solve_J1_fixed_point(sol):
    v = float(solve_J1(sol.a0, sol).value)
    assert abs(v - 0.04826441) <= 1e-7
    assert abs(v - float(sol.J1_a0)) <= 1e-13


def test_solve_J1_vs_oracle(sol, roots):
    for a in (0.5, 2.0, float(roots[3]), 7.0, 11.0):
        v = float(solve_J1(a, sol).value)
        orc = oracle_stieltjes("Ai2", 1, a).value
        assert abs(v - orc) <= 1e-7 * max(1.0, abs(orc)), a


def test_initial_condition_derivatives(sol):
    # -dJ1/da = J2 and (1/2) d2J1/da2 = J3 at the anchor (FD check)
    h = 1e-4
    f = lambda x: float(solve_J1(x, sol).value)
    a0 = sol.a0
    d1 = (f(a0 + h) - f(a0 - h)) / (2 * h)
    d2 = (f(a0 + h) - 2 * f(a0) + f(a0 - h)) / (h * h)
    assert abs(-d1 - float(sol.J2_a0)) <= 1e-8
    assert abs(0.5 * d2 - float(sol.J3_a0)) <= 1e-6


def test_third_order_ode_residual(sol):
    h = 1e-3
    for a in (1.5, 3.0, 6.0):
        g = lambda x: float(solve_J1(x, sol).value)
        d3 = (g(a + 2 * h) - 2 * g(a + h) + 2 * g(a - h) - g(a - 2 * h)) / (2 * h ** 3)
        d1 = (g(a + h) - g(a - h)) / (2 * h)
        res = (0.5 * d3 + 2 * a * d1 + g(a)
               + float(AP2) / a + float(AAP) / a ** 2 + float(A2) / a ** 3)
        assert abs(res) <= 1e-5 * max(1.0, abs(g(a)))


def test_products_satisfy_third_order_ode():
    # Ai(-a)^2, Bi(-a)^2, Ai(-a)Bi(-a) all satisfy w''' + 4 a w' + 2 w = 0
    h = 1e-3
    for a in (1.0, 2.5):
        for pick in (lambda s: float(s.ai) ** 2,
                     lambda s: float(s.bi) ** 2,
                     lambda s: float(s.ai) * float(s.bi)):
            w = lambda x: pick(airy(-x))
            d3 = (w(a + 2 * h) - 2 * w(a + h) + 2 * w(a - h) - w(a - 2 * h)) / (2 * h ** 3)
            d1 = (w(a + h) - w(a - h)) / (2 * h)
            assert abs(d3 + 4 * a * d1 + 2 * w(a)) <= 1e-5


def test_j_term_is_bracket_combination(sol, roots):
    # pi^2 j(a) = 2a^2 J_1 - J_2 + a J_3 with quadrature right side
    for k in (1, 3):
        a = float(roots[k])
        lhs = math.pi ** 2 * float(j_term(a, sol))
        rhs = (2 * a * a * oracle_stieltjes("Ai2", 1, a).value
               - oracle_stieltjes("Ai2", 2, a).value
               + a * oracle_stieltjes("Ai2", 3, a).value)
        assert abs(lhs - rhs) <= 1e-9


#: (k, the summand (1/a) int_0^inf x/(x+a) [2 Ai Ai' + x Ai'^2 - x^2 Ai^2] dx
#: at a = float(roots[k]), relative tolerance): mpmath 1.3.0 quadrature at
#: mp.dps = 60, which agrees to 32 digits with -2Ai(0)^2/(5a) -
#: (2/3)Ai(0)Ai'(0) - 2a Ai'(0)^2 + 2a^2 J_1 - J_2 + a J_3 by quadrature of
#: J_n; each tolerance about 10 times the measured error of bigJ_closed,
#: 8.9e-16, 5.2e-14 and 8.1e-13
SUMMAND_REFS = (
    (1, "-0.0317449469056784924153075779300", 1e-14),
    (2, "-0.00433921909165412054188769023499", 5e-13),
    (5, "-0.000946549419061063591131757867474", 8e-12),
)


def test_summand_vs_oracle(sol, roots):
    for k, ref, tol in SUMMAND_REFS:
        assert _rel_error(bigJ_closed(float(roots[k]), sol), ref) <= tol, k


def test_summand_route_overlap(sol, roots):
    for k in (7, 8):
        a = float(roots[k])
        c = float(bigJ_closed(a, sol))
        m = float(bigJ_asym(a))
        assert abs(c - m) <= 1e-9 * max(1e-4, abs(c))


def test_summand_large_k_ratio(roots, sol):
    # the summand behaves like -(6/7) Ai'(0)^2 / a^2 (the printed -3/7 is
    # half the true coefficient; see the discrepancy report)
    a50 = float(roots[50])
    val = float(bigJ_term(50, roots, sol))
    ratio = val * a50 * a50 / (-6.0 / 7.0 * float(AP2))
    assert abs(ratio - 1.0) <= 0.25
    printed_ratio = val * a50 * a50 / (-3.0 / 7.0 * float(AP2))
    assert abs(printed_ratio - 1.0) > 0.5


def test_positive_power_cancellation_slope(roots, sol):
    import numpy as np

    xs, ys = [], []
    for k in range(10, 51, 5):
        a = float(roots[k])
        xs.append(math.log(a))
        ys.append(math.log(abs(float(bigJ_term(k, roots, sol)))))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope <= -1.9


def test_partial_sum_50(roots, sol):
    s = float(integral2_series(50, roots, sol))
    assert abs(s + 0.2343590038) <= 1e-7


def test_accelerated(roots, sol):
    acc = float(integral2_accelerated(TruncationConfig(10, 6), roots, sol))
    assert abs(acc + 0.2636317121) <= 1e-8
    orc = oracle_integral2().value
    assert abs(acc - orc) <= 2e-8
    plain = float(integral2_series(10, roots, sol))
    # acceleration buys at least three more digits over the plain N=10 sum
    assert abs(acc - orc) <= 1e-3 * abs(plain - orc)


def test_J_recurrence_residuals(roots):
    for n, a in ((1, 1.0), (2, 2.0)):
        J = {m: oracle_stieltjes("Ai2", m, a).value
             for m in range(max(0, n - 1), n + 4)}
        Jp = {m: oracle_stieltjes("AiP2", m, a).value for m in (n, n + 1)}
        res = J_recurrences(n, a, J, Jp)
        for name, r in res.items():
            assert abs(r) <= 1e-9, (name, n, a)


def test_J1prime_relation(roots):
    # J'_1 = -AiAi'(0)/a - Ai(0)^2/(2a^2) - J_0 + a J_1 + J_3
    a = 2.0
    lhs = oracle_stieltjes("AiP2", 1, a).value
    rhs = (-float(AAP) / a - float(A2) / (2 * a * a)
           - oracle_stieltjes("Ai2", 0, a).value
           + a * oracle_stieltjes("Ai2", 1, a).value
           + oracle_stieltjes("Ai2", 3, a).value)
    assert abs(lhs - rhs) <= 1e-9


def test_domain_errors(sol):
    with pytest.raises(RangeError):  # a > 0 outside J1_CLOSED
        solve_J1(0.1, sol)
    with pytest.raises(DomainError):
        J1Solution.build(1.0, seed_source="bogus")


def test_series_needs_enough_roots(sol):
    # 0 and -5 summed no roots and returned 0
    for N in (20, 0, -5):
        with pytest.raises(DomainError):
            integral2_series(N, roots_upto(10), sol)


def test_oracle_seeds_exist_only_at_the_anchor():
    # off the anchor the build integrated with QUADPACK, so an analytic
    # call loaded scipy; it now names the analytic seed source instead
    with pytest.raises(DomainError, match="small_a"):
        J1Solution.build(1.5)
    assert J1Solution.build(1.5, seed_source="small_a").a0 == 1.5
