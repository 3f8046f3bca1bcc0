"""Acceptance suite: one test per criterion, each printing a pass/fail
line at its stated tolerance.

Criterion 4 pins the zeta-accelerated (N=10, n=3) value to the printed
-0.8140073597, and that representation is only six decimals from the true
integral -0.8140077879 (gap 4.4e-7): the source's seven-decimal claim is
wrong, as the 'accelerated-first-integral-accuracy' entry of the
discrepancy report records.  Its oracle clause is therefore checked
against the bound the method does guarantee: for every (N, n) the error
I1 - acc(N, n) lies between 0 and the first omitted tail term
T_{n+1}(N), and no further from T_{n+1}(N) than the next term.  The clause's 1e-7 agreement is asserted at (10, 5), the
smallest n at N = 10 whose bound is below 1e-7.
"""

import math

import pytest
import scipy.special

from airylog.kernel import ETA
from airylog.mellin2 import Jn_smalla
from airylog.oracle import (
    oracle_integral1,
    oracle_integral2,
    oracle_stieltjes,
)
from airylog.results import TruncationConfig
from airylog.roots import roots_upto
from airylog.stieltjes1 import (
    StieltjesContext,
    bigI_smalla,
    bigI1_closed,
    ladder_residual,
    integral1_accelerated,
    integral1_series,
)
from airylog.stieltjes2 import (
    J1Solution,
    J_recurrences,
    integral2_accelerated,
    integral2_series,
    solve_J1,
)
from airylog.validate import TABLE1, discrepancy_ledger
from airylog.zeta import zeta_closed, zeta_eta_poly, zeta_incomplete


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def roots():
    return roots_upto(100)


@pytest.fixture(scope="module")
def ctx(roots):
    return StieltjesContext(roots)


@pytest.fixture(scope="module")
def sol(roots):
    return J1Solution.build(float(roots[1]))


def test_criterion_01_roots(roots):
    devs = [abs(float(roots[n]) - ref) for n, ref in enumerate(TABLE1, 1)]
    report(1, max(devs) <= 1e-9,
           f"all 10 table rows within 1e-9 (worst {max(devs):.2e})")


def test_criterion_02_zeta():
    dev3 = abs(float(zeta_closed(3)) - 1.0)
    eta = float(ETA)
    closed = {2: -eta, 3: 1.0, 4: eta ** 2 / 2, 5: -2 * eta / 3,
              6: 0.25 - eta ** 3 / 4, 7: 7 * eta ** 2 / 15,
              8: -11 * eta / 36 + eta ** 4 / 8}
    worst = max(abs(float(zeta_closed(k)) - v) / abs(v)
                for k, v in closed.items())
    report(2, dev3 <= 1e-12 and worst <= 1e-12,
           f"Z3 deviation {dev3:.2e}; worst closed-form rel dev {worst:.2e}")


def test_criterion_03_oracle_headlines():
    r1 = oracle_integral1()
    r2 = oracle_integral2()
    d1 = abs(r1.value + 0.81400778)
    d2 = abs(r2.value + 0.2636317105)
    report(3, d1 <= 5e-8 and d2 <= 5e-9,
           f"quadrature headline deviations {d1:.2e} (<=5e-8), "
           f"{d2:.2e} (<=5e-9)")


def test_criterion_04_first_integral_series(roots, ctx):
    e8 = float(integral1_series("eq8", 100, roots, ctx))
    e3 = float(integral1_series("eq3", 100, roots, ctx))
    acc = float(integral1_accelerated(TruncationConfig(10, 3), roots, ctx))
    ok = (abs(e8 + 0.73273890) <= 1e-6 and abs(e3 + 0.81399655) <= 1e-6
          and abs(acc + 0.8140073597) <= 1e-8)
    report(4, ok,
           f"eq8 {e8:.9f}, eq3 {e3:.9f}, accelerated {acc:.10f} "
           "all at stated tolerances")


def _first_omitted_term(m, N, roots):
    """T_m(N) = (2/Ai'(0)) (-1)^m C(m+2, 2) M_m (Z_{m+4} - Z_{m+4}(N)):
    the degree-m Taylor term of (1 + x/a)^-3, integrated against Ai and
    summed over the roots beyond the first N.  Built from the moments
    M_m = int_0^inf x^m Ai(x) dx and the zeta sums only, so that it shares
    no tail coefficient with integral1_accelerated."""
    moment = math.factorial(m) / (3.0 ** ((m + 3) / 3) * math.gamma(m / 3 + 1))
    zeta_tail = float(zeta_closed(m + 4) - zeta_incomplete(m + 4, N, roots))
    aip0 = scipy.special.airy(0.0)[1]
    return (2 / aip0 * (-1) ** m * math.comb(m + 2, 2) * moment
            * zeta_tail)


def test_criterion_04_accelerated_vs_oracle(roots, ctx):
    """Oracle clause of criterion 4, checked against the accelerated
    pipeline's own truncation bound.

    Ai > 0 on (0, inf), and the Taylor remainder of (1 + x/a)^-3 after
    degree n has the sign of the first omitted term and is no larger, so
    0 < (I1 - acc(N, n)) / T_{n+1}(N) <= 1 for every (N, n).  Applied at
    degree n + 1 the same bound gives the lower limit
    1 - |T_{n+2}(N) / T_{n+1}(N)| for that ratio.  Both are asserted for
    N = 10, n = 0..8 and N = 20, n = 0..6, with I1 from the quadrature
    oracle and only its error estimate (plus 1e-15) as slack.  Larger N
    and n are left out because Z_k - Z_k(N) then falls to the rounding
    level of the root table.  The 1e-7 agreement of the
    criterion is asserted at (10, 5); at the printed (10, 3) the gap is
    4.4e-7 (0.80 of its bound), see discrepancy
    'accelerated-first-integral-accuracy'."""
    orc = oracle_integral1()
    slack = orc.err_est + 1e-15
    gaps, ratios = {}, {}
    bounded = True
    for N, n_max in ((10, 8), (20, 6)):
        for n in range(n_max + 1):
            cfg = TruncationConfig(N, n)
            gap = orc.value - float(integral1_accelerated(cfg, roots, ctx))
            bound = _first_omitted_term(n + 1, N, roots)
            lower = max(0.0, abs(bound)
                        - abs(_first_omitted_term(n + 2, N, roots)))
            signed_gap = math.copysign(1.0, bound) * gap
            bounded = (bounded and
                       lower - slack < signed_gap <= abs(bound) + slack)
            gaps[N, n], ratios[N, n] = gap, gap / bound
    gap5 = abs(gaps[10, 5])
    report("4 (oracle agreement)", bounded and gap5 <= 1e-7,
           f"error / first omitted tail term in [{min(ratios.values()):.3f}, "
           f"{max(ratios.values()):.3f}] over {len(ratios)} (N, n), each "
           f"to lie in [1 - |T_n+2/T_n+1|, 1]; (10, 5) gap {gap5:.2e} "
           "(<=1e-7)")


def test_criterion_05_second_integral_series(roots, sol):
    s50 = float(integral2_series(50, roots, sol))
    acc = float(integral2_accelerated(TruncationConfig(10, 6), roots, sol))
    gap = abs(acc - oracle_integral2().value)
    ok = (abs(s50 + 0.2343590038) <= 1e-7
          and abs(acc + 0.2636317121) <= 1e-8 and gap <= 2e-8)
    report(5, ok,
           f"50-term sum {s50:.10f}, accelerated {acc:.10f}, "
           f"oracle gap {gap:.2e}")


def test_criterion_06_stieltjes_closed_forms(ctx):
    d3 = abs(float(ctx.I3_a0) - 0.1045955174)
    d4 = abs(float(ctx.I4_a0) - 0.08085800094)
    report(6, d3 <= 1e-9 and d4 <= 1e-9,
           f"expansion values deviate {d3:.2e}, {d4:.2e} (<=1e-9)")


def test_criterion_07_squared_transforms(ctx):
    a0 = ctx.a0
    vals = [float(Jn_smalla(n, a0).value) for n in (1, 2, 3)]
    refs = (0.04826441, 0.03654795, 0.02879280)
    devs = [abs(v - r) for v, r in zip(vals, refs)]
    report(7, max(devs) <= 2e-8,
           f"J1..J3 at the first root deviate {[f'{d:.1e}' for d in devs]}")


def test_criterion_08_cross_routes(roots, ctx, sol):
    worst = 0.0
    grid = [(1, 0.5), (1, 2.0), (1, 5.0), (2, 1.0), (2, 5.0), (3, ctx.a0),
            (3, 2.0), (3, 5.0), (4, ctx.a0), (4, 1.0), (5, 2.0), (6, 1.0)]
    for k, a in grid:
        orc = oracle_stieltjes("Ai", k, a).value
        if a <= 4.0:
            worst = max(worst, abs(float(bigI_smalla(k, a).value) - orc))
        if k == 1:
            worst = max(worst, abs(
                float(bigI1_closed(a, ctx.a0, ctx.I1_a0, ctx.I2_a0).value) - orc))
    for a in (0.5, 2.0, 5.0, 9.0):
        worst = max(worst, abs(float(solve_J1(a, sol).value)
                               - oracle_stieltjes("Ai2", 1, a).value))
    # recurrence residuals with oracle values
    res = 0.0
    for k, a in ((1, 1.0), (2, 2.0)):
        vals = [oracle_stieltjes("Ai", j, a).value for j in (k, k + 1, k + 3)]
        res = max(res, abs(ladder_residual(k, a, *vals)))
    for n, a in ((1, 1.0), (2, 2.0)):
        J = {m: oracle_stieltjes("Ai2", m, a).value
             for m in range(max(0, n - 1), n + 4)}
        Jp = {m: oracle_stieltjes("AiP2", m, a).value for m in (n, n + 1)}
        res = max(res, *(abs(r) for r in J_recurrences(n, a, J, Jp).values()))
    report(8, worst <= 1e-7 and res <= 1e-9,
           f"worst route-vs-oracle {worst:.2e} (<=1e-7); "
           f"worst ladder residual {res:.2e} (<=1e-9)")


def test_criterion_09_polynomial_fixtures():
    from fractions import Fraction as Fr

    from airylog.mellin1 import pq_row, reduce_In
    from airylog.mellin2 import pqr2_row, pqr_row

    ok = (pq_row(7).Q == (10, 0, 0, 1) and pq_row(10).P == (0, 0, 100, 0, 0, 1)
          and pq_row(6).P == (4, 0, 0, 1))
    ok = (ok and pqr2_row(4).P == (0, 0, 8)
          and pqr2_row(7).R == (216, 0, 0, 128))
    ok = ok and reduce_In(5).u == {0: 12, 3: 4} and reduce_In(3).alpha == 2
    ok = ok and pqr_row(3).p == (Fr(-3, 10), 0, 0, Fr(-1, 5)) \
        and pqr_row(4).r == (0, 0, Fr(6, 7))
    ok = ok and zeta_eta_poly(6) == [Fr(1, 4), Fr(0), Fr(0), Fr(-1, 4)]
    report(9, ok, "tables 2/4/6/7 and the closed zeta forms exact in "
                  "rational arithmetic")


def test_criterion_10_discrepancy_ledger():
    ledger = {d.id for d in discrepancy_ledger()}
    required = {
        "I1-at-first-root-double-value",
        "first-root-magnitude-misprint",
        "seed-t6-coefficient",
        "I4-prime-coefficient",
        "lambda-u3-label",
        "j-term-brackets",
    }
    missing = required - ledger
    # adjudications must come from quadrature, not from trusting prints:
    i1 = oracle_stieltjes("Ai", 1, 1.0187929716).value
    adjudicated = abs(i1 - 0.2082347508) < 5e-9 and abs(i1 - 0.2109508346) > 1e-3
    report(10, not missing and adjudicated,
           f"all six named inconsistencies ledgered (+{len(ledger) - 6} "
           "more); oracle adjudication confirmed")
