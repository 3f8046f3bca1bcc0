"""Squared-Airy Stieltjes transforms: ODE solution, summand, pipelines."""

import math

import pytest

from airylog import stieltjes2
from airylog.airy import airy
from airylog.errors import DomainError, RangeError
from airylog.mellin2 import A2, AAP, AP2
from airylog.oracle import (
    oracle_integral2,
    oracle_j_summand,
    oracle_stieltjes,
)
from airylog.results import TruncationConfig
from airylog.roots import roots_upto
from airylog.stieltjes2 import (
    J1Solution,
    J_recurrences,
    bigJ_asym,
    bigJ_closed,
    bigJ_term,
    constants_c,
    constants_c_at_root,
    d_coefficients,
    integral2_accelerated,
    integral2_series,
    j_term,
    j_term_grouped,
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


def test_constants_general_vs_simplified(sol):
    g = constants_c(sol.a0, sol.J1_a0, sol.J2_a0, sol.J3_a0)
    s = constants_c_at_root(sol.a0, sol.J1_a0, sol.J2_a0, sol.J3_a0)
    for a, b in zip(g, s):
        assert abs(float(a) - float(b)) <= 1e-10 * max(1.0, abs(float(a)))


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


def test_j_term_grouped_identity(sol, roots):
    for k in (1, 4, 7):
        a = float(roots[k])
        direct = float(j_term(a, sol))
        grouped = float(j_term_grouped(a, sol))
        assert abs(direct - grouped) <= 1e-12 * max(1.0, abs(direct))


def test_summand_vs_oracle(sol, roots):
    for k in (1, 2, 5):
        a = float(roots[k])
        mine = float(bigJ_closed(a, sol))
        orc = oracle_j_summand(a).value
        assert abs(mine - orc) <= 1e-7 * max(1.0, abs(orc))


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


def test_d_coefficients_shape(sol, roots):
    # grouped evaluation uses d_i and the log with the B1/pi^2 weight; the
    # identity against the direct bracket form is the real content (tested
    # above); here: they are finite and the at-root B3 reduction holds
    a = float(roots[2])
    d1, d2, d3 = (float(x) for x in d_coefficients(a))
    assert all(map(math.isfinite, (d1, d2, d3)))
    st = airy(-a)
    b3 = (a * a * float(st.ai) * float(st.bi)
          + a * float(st.aip) * float(st.bip)
          - float(st.aip) * float(st.bi) - float(st.ai) * float(st.bip))
    at_root = a * a * float(st.ai) * float(st.bi) - 1.0 / math.pi
    assert abs(b3 - at_root) <= 1e-10


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
