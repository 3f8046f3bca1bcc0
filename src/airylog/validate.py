"""The oracle-vs-analytic validation matrix and the print-discrepancy
ledger.

``run_validation`` evaluates every headline quantity through each of its
implemented routes, compares against the quadrature oracle and the
published reference digits, and returns one record per check.  A record
whose deviation exceeds its tolerance is marked ``fail`` unless the
mismatch is a catalogued print discrepancy adjudicated by the oracle, in
which case it is marked ``discrepancy-logged`` (the CLI still exits
nonzero so the condition is visible).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .airy import airy
from .kernel import AI0, AIP0, ETA
from .mellin1 import amatrix_row, mellin_closed, pq_row, reduce_In
from .mellin2 import Jn_smalla, calI, mellin2, pqr2_row, pqr_row
from .oracle import (
    oracle_integral1,
    oracle_integral2,
    oracle_mellin,
    oracle_stieltjes,
)
from .results import Record, TruncationConfig, request_scope
from .roots import T6_PAPER, T6_STANDARD, root_seed, roots_upto
from .stieltjes1 import (
    CLOSED,
    SMALLA,
    StieltjesContext,
    bigI_asym,
    bigI_recurrence,
    bigI_relations,
    bigI_smalla,
    ladder_residual,
    integral1_accelerated,
    integral1_series,
)
from .stieltjes2 import (
    J1Solution,
    J_recurrences,
    bigJ_asym,
    bigJ_closed,
    integral2_accelerated,
    integral2_series,
    solve_J1,
)
from .zeta import zeta_closed, zeta_incomplete

#: Table 1 reference digits
TABLE1 = (
    1.0187929716, 3.2481975822, 4.8200992112, 6.1633073556, 7.3721772550,
    8.4884867340, 9.5354490524, 10.5276603970, 11.4750566335, 12.3847883718,
)
#: the printed accelerated values of the two integrals, at (N, n) = (10, 3)
#: and (10, 6)
PRINTED_INTEGRAL1 = -0.8140073597
PRINTED_INTEGRAL2 = -0.2636317121


class Discrepancy(NamedTuple):
    id: str
    location: str
    printed: str
    adjudicated: str
    resolution: str


def discrepancy_ledger() -> list:
    """The catalogued print inconsistencies, each resolved by the oracle
    or by exact re-derivation (values quoted to the digits that matter)."""
    i1_true = float(oracle_stieltjes("Ai", 1, TABLE1[0]))
    return [
        Discrepancy(
            "I1-at-first-root-double-value",
            "section 1.1 vs 1.3",
            "bigI_1(|a_1'|) printed both as 0.2109508346 and 0.2082347508",
            f"quadrature gives {i1_true:.10f}; the second print is correct",
            "neither print is hard-coded; pipelines seed from the expansion "
            "route and certify against quadrature",
        ),
        Discrepancy(
            "first-root-magnitude-misprint",
            "section 1.1",
            "|a_1'| quoted once as 1.08792997",
            "root table value 1.0187929716 (Newton residual < 1e-13)",
            "table value authoritative",
        ),
        Discrepancy(
            "seed-t6-coefficient",
            "large-n root expansion",
            "t^-6 coefficient printed 181228/207360 (standard tables: 181223/207360)",
            "seed-vs-refined fits prefer 181223/207360; difference is below "
            "5e-10 for n >= 5 and immaterial after Newton refinement",
            "the seed keeps the printed value; refinement makes the choice "
            "moot, and the root.seed_t6 records compare both",
        ),
        Discrepancy(
            "I4-prime-coefficient",
            "primed transform list",
            "I'_4 printed with term 4a^4 Ai'",
            "relation I'_4 = -[a^4 Ai + 4 I_3] gives 4a^2 Ai'; quadrature "
            "agrees with a^2",
            "relation route is canonical",
        ),
        Discrepancy(
            "lambda-u3-label",
            "u-integral definitions",
            "third u-integral labelled 'Lambda u_3'",
            "it is Delta u_3 (the same a0-to-a difference as u_1, u_2); the "
            "ODE solution only matches quadrature with that reading",
            "treated as Delta u_3",
        ),
        Discrepancy(
            "j-term-brackets",
            "per-root summand",
            "mixed bracket printed with a^2 Ai Ai' (and the d_1 bracket "
            "drops a factor a on Ai'^2)",
            "mechanical expansion of 2a^2 J_1 - J_2 + a J_3 gives a^2 Ai Bi; "
            "only that version matches the direct summand quadrature",
            "brackets derived mechanically; printed forms treated as typos",
        ),
        Discrepancy(
            "I2-relation-power",
            "relations after the ten-decimal values",
            "I_2 relation printed with -(2/a^3) I_3",
            "eliminating I_1 between ladder steps gives -(2/a^2) I_3; "
            "quadrature values satisfy only the a^2 version",
            "corrected power used throughout",
        ),
        Discrepancy(
            "irreducible-constants",
            "negative-index product transforms",
            "closed forms for the three 1/x product integrals carry no "
            "additive constants (and the Ai'^2 one has garbled parameters)",
            "regularised Mellin limits give -Ai(0)^2[(2/3)g - ln3/6 + "
            "sqrt(3)pi/6] etc.; with them the forms match quadrature to "
            "1e-14",
            "constants included; series summed from exact Taylor classes",
        ),
        Discrepancy(
            "summand-asymptotic-coefficient",
            "large-root behaviour of the second-integral summand",
            "leading term printed -(3/7) Ai'(0)^2/a^2 - (2/3) Ai(0)Ai'(0)/a^3",
            "moment expansion gives -(6/7) Ai'(0)^2/a^2 - (5/9) Ai(0)Ai'(0)/a^3; "
            "quadrature at the 50th root matches -6/7 within 2.5%",
            "moment series used for deep roots",
        ),
        Discrepancy(
            "zeta2-sign",
            "closed-form table of root sums",
            "k = 2 row printed as eta (eta < 0, sum is positive)",
            "series division gives -eta = +1.3717211642",
            "sign fixed by the exact division",
        ),
        Discrepancy(
            "u-list-swap",
            "explicit u-integral list",
            "printed u_1/u_2 are -pi^2 times each other's definition "
            "(u_3 scaled by 2 pi^2)",
            "variation-of-parameters weights re-derived; J_1 closed form "
            "matches quadrature only with the corrected assignment",
            "masters derived mechanically from the Taylor classes",
        ),
        Discrepancy(
            "J3-last-digit",
            "eight-decimal values of the squared-weight transforms",
            "J_3 at the first root printed both 0.02879280 and 0.02879281",
            "quadrature gives 0.028792801768: the ...80 print is the "
            "correctly rounded one",
            "both prints kept as regression fixtures at 2e-8",
        ),
        Discrepancy(
            "elimination-identity-power",
            "pivot-elimination identity for the product transforms",
            "i'_n printed as [(n+2) i_{n+1} + a^{n+2}(Ai^2 - Ai'^2)]/(n+1)",
            "eliminating the pivot family from the two simple forms gives "
            "a^{n+1} on the Ai'^2 term; only that version holds numerically",
            "corrected power used and tested",
        ),
        Discrepancy(
            "table6-c6-misprint",
            "polynomial table for the Mellin reduction",
            "row 6 prints c_6 = 40 + 5a^4",
            "the recurrence and the explicit transform list (which shows "
            "+(40a + 5a^4) Ai) give c_6 = 40a + 5a^4",
            "ladder output is canonical",
        ),
        Discrepancy(
            "I3-tail-estimate",
            "neglected x >= a remainder of bigI_3",
            "leading estimate printed without the 1/16 Laplace factor and "
            "with an extra factor 1/a",
            "the Laplace estimate exp(-(2/3)a^{3/2}) / (16 sqrt(pi) "
            "a^{15/4}) overstates the quadrature of the split integral by "
            "27% at a = 4 and 5% at a = 13",
            "no remainder estimate is used: every route evaluates bigI_3 "
            "over the whole half-line",
        ),
        Discrepancy(
            "accelerated-first-integral-accuracy",
            "headline accuracy claim",
            "N=10, n=3 accelerated value -0.8140073597 claimed accurate to "
            "seven decimals",
            "true integral is -0.8140077879 (quadrature, 1e-14); the "
            "accelerated value is 4.4e-7 off -- six decimals",
            "acceptance tolerance of 1e-7 vs the oracle cannot hold at "
            "n=3; checked instead against the method's truncation bound "
            "(error between 0 and the first omitted tail term) and met "
            "at n=5",
        ),
    ]


def _rec(id_, method, value, ref, tol, provenance, err=0.0,
         status="") -> Record:
    """A check's row; unless given, its status is pass when the deviation
    from ``ref`` is within ``tol``, fail otherwise."""
    value = float(value)
    ref_f = None if ref is None else float(ref)
    dev = 0.0 if ref_f is None else value - ref_f
    return Record(id_, method, value, err, ref_f, dev, provenance,
                  status or ("pass" if abs(dev) <= tol else "fail"), tol)


def check_roots(records: list, roots) -> None:
    for i, ref in enumerate(TABLE1):
        records.append(_rec(f"root.{i+1}", "newton", float(roots[i + 1]), ref,
                            1e-9, "table-1"))
    # seed coefficient adjudication: which t^-6 variant fits refined roots
    for n in (2, 3, 4):
        r = float(roots[n])
        d_paper = abs(root_seed(n, T6_PAPER) - r)
        d_std = abs(root_seed(n, T6_STANDARD) - r)
        records.append(_rec(f"root.seed_t6.n{n}", "seed-fit",
                            d_std, None, math.inf,
                            f"std-coeff residual (printed variant: {d_paper:.2e})"))


def check_zeta(records: list, roots) -> None:
    records.append(_rec("zeta.3", "series-division", float(zeta_closed(3)),
                        1.0, 1e-12, "exact"))
    eta = float(ETA)
    refs = {2: -eta, 4: eta ** 2 / 2, 5: -2 * eta / 3,
            6: 0.25 - eta ** 3 / 4, 7: 7 * eta ** 2 / 15,
            8: -11 * eta / 36 + eta ** 4 / 8}
    for k, ref in refs.items():
        records.append(_rec(f"zeta.{k}", "series-division",
                            float(zeta_closed(k)), ref, 1e-12 * abs(ref),
                            "table-5 closed form"))
    inc = float(zeta_incomplete(3, 100, roots))
    records.append(_rec("zeta.3.incomplete100", "root-sum", inc, 1.0,
                        2e-3, "tail bound"))


def check_headline_oracle(records: list, r1, r2) -> None:
    records.append(_rec("oracle.integral1", "quadrature", r1.value,
                        -0.81400778, 5e-8, "printed headline", r1.err_est))
    records.append(_rec("oracle.integral2", "quadrature", r2.value,
                        -0.2636317105, 5e-9, "printed headline", r2.err_est))


def check_series1(records: list, roots, ctx, oracle: float) -> None:
    e8 = float(integral1_series("eq8", 100, roots, ctx))
    e3 = float(integral1_series("eq3", 100, roots, ctx))
    acc = float(integral1_accelerated(TruncationConfig(10, 3), roots, ctx))
    records.append(_rec("series1.eq8.N100", "root-series", e8, -0.73273890,
                        1e-6, "printed partial sum"))
    records.append(_rec("series1.eq3.N100", "root-series", e3, -0.81399655,
                        1e-6, "printed partial sum"))
    records.append(_rec("series1.accelerated.N10n3", "zeta-accelerated", acc,
                        PRINTED_INTEGRAL1, 1e-8, "printed value"))
    records.append(_rec("series1.accelerated.vs_oracle", "zeta-accelerated",
                        acc, oracle, 1e-7,
                        "spec tolerance; see accelerated-first-integral-accuracy",
                        status="" if abs(acc - oracle) <= 1e-7
                        else "discrepancy-logged"))
    acc0 = float(integral1_accelerated(TruncationConfig(10, 0), roots, ctx))
    records.append(_rec("series1.accelerated.monotone", "zeta-accelerated",
                        abs(acc - oracle), None, math.inf,
                        f"n=3 error {abs(acc-oracle):.2e} < n=0 error "
                        f"{abs(acc0-oracle):.2e}",
                        status="pass" if abs(acc - oracle) < abs(acc0 - oracle)
                        else "fail"))


def check_smalla_values(records: list, ctx) -> None:
    a0 = ctx.a0
    records.append(_rec("stieltjes1.I3.first_root", "small_a",
                        float(ctx.I3_a0), 0.1045955174, 1e-9,
                        "ten-decimal print"))
    records.append(_rec("stieltjes1.I4.first_root", "small_a",
                        float(ctx.I4_a0), 0.08085800094, 1e-9,
                        "ten-decimal print"))
    i1o = oracle_stieltjes("Ai", 1, a0).value
    i2o = oracle_stieltjes("Ai", 2, a0).value
    records.append(_rec("stieltjes1.I1.first_root", "relations",
                        float(ctx.I1_a0), i1o, 2e-9, "oracle"))
    records.append(_rec("stieltjes1.I2.first_root", "relations",
                        float(ctx.I2_a0), i2o, 5e-9, "oracle"))


def check_J_values(records: list, a0: float) -> None:
    refs = (0.04826441, 0.03654795, 0.02879280)
    for n, ref in zip((1, 2, 3), refs):
        v = float(Jn_smalla(n, a0).value)
        records.append(_rec(f"stieltjes2.J{n}.first_root", "small_a", v, ref,
                            2e-8, "eight-decimal print"))


def check_series2(records: list, roots, sol, oracle: float) -> None:
    s50 = float(integral2_series(50, roots, sol))
    acc = float(integral2_accelerated(TruncationConfig(10, 6), roots, sol))
    records.append(_rec("series2.sum50", "root-series", s50, -0.2343590038,
                        1e-7, "printed partial sum"))
    records.append(_rec("series2.accelerated.N10n6", "zeta-accelerated", acc,
                        PRINTED_INTEGRAL2, 1e-8, "printed value"))
    records.append(_rec("series2.accelerated.vs_oracle", "zeta-accelerated",
                        acc, oracle, 2e-8, "oracle"))


def check_cross_routes(records: list, ctx, sol) -> None:
    """Acceptance grid: every analytic route vs the oracle, 1e-7."""
    grid_I = [(1, 0.5), (1, 2.0), (1, 5.0), (2, 1.0), (2, 5.0),
              (3, ctx.a0), (3, 2.0), (3, 5.0), (4, ctx.a0), (4, 1.0),
              (5, 2.0), (6, 1.0)]
    for k, a in grid_I:
        orc = oracle_stieltjes("Ai", k, a).value
        routes = {}
        if SMALLA.holds(k, a):
            routes["small_a"] = float(bigI_smalla(k, a).value)
        if CLOSED.holds(k, a):
            routes["closed_form"] = float(ctx.bigI1_closed(a).value)
        if k >= 3:
            i1 = ctx.bigI1(a).value
            i2 = bigI_relations(a, ctx.bigI3(a).value,
                                bigI_smalla(4, a).value
                                if SMALLA.holds(4, a) else bigI_asym(4, a).value)[1]
            routes["recurrence"] = float(
                bigI_recurrence(k, a, (float(i1), float(i2))).value)
        for method, v in routes.items():
            records.append(_rec(f"bigI.route.{method}.k{k}.a{a:g}", method,
                                v, orc, 1e-7, "oracle"))
    # product-weight transforms vs oracle
    for n, a in [(0, 0.5), (2, 1.0), (5, 1.0), (-1, 1.0), (-4, 2.0), (3, 2.0)]:
        records.append(_rec(f"calI.route.ladder.n{n}.a{a:g}", "ladder",
                            float(calI(n, a).value),
                            oracle_mellin("AiAiP", n, a).value, 1e-7, "oracle"))
        records.append(_rec(f"i_n.route.vallee.n{n}.a{a:g}", "vallee",
                            float(mellin2(n, a).value),
                            oracle_mellin("Ai2", n, a).value, 1e-7, "oracle"))
    # J_1 closed form vs oracle
    for a in (0.5, 2.0, 5.0, 9.0):
        records.append(_rec(f"J1.route.closed.a{a:g}", "closed_form",
                            float(solve_J1(a, sol).value),
                            oracle_stieltjes("Ai2", 1, a).value, 1e-7,
                            "oracle"))
    # closed-form vs moment-series overlap for the summand
    for a in (9.5354490524, 10.5276603970):
        c = float(bigJ_closed(a, sol))
        m = float(bigJ_asym(a))
        records.append(_rec(f"bigJ.route_overlap.a{a:.3f}", "closed/asym",
                            c, m, 1e-9, "route agreement"))


def check_residuals(records: list, ctx, sol) -> None:
    # Stieltjes three-term ladder with oracle values
    for k, a in [(1, 1.0), (2, 2.0)]:
        vals = [oracle_stieltjes("Ai", j, a).value for j in (k, k + 1, k + 3)]
        res = ladder_residual(k, a, *vals)
        records.append(_rec(f"residual.stieltjes_ladder.k{k}.a{a:g}", "oracle-values", res,
                            0.0, 1e-9, "three-term ladder"))
    # Mellin third-order ladder: I_n - (n-1)(n-2) I_{n-3} + a^{n-1} Ai'
    #                            - (n-1) a^{n-2} Ai = 0
    for n, a in [(3, 0.5), (5, 1.0), (7, 2.0), (9, 5.0)]:
        st = airy(a)
        In = float(mellin_closed(n, a).value)
        In3 = float(mellin_closed(n - 3, a).value)
        res = (In - (n - 1) * (n - 2) * In3 + a ** (n - 1) * float(st.aip)
               - (n - 1) * a ** (n - 2) * float(st.ai))
        scale = max(1.0, abs(In))
        records.append(_rec(f"residual.mellin_ladder.n{n}.a{a:g}", "recurrence",
                            res / scale, 0.0, 1e-9, "Mellin ladder"))
    # integration-by-parts relations with oracle values
    for n, a in [(1, 1.0), (2, 2.0)]:
        J = {m: float(oracle_stieltjes("Ai2", m, a)) for m in range(max(0, n - 1), n + 4)}
        Jp = {m: float(oracle_stieltjes("AiP2", m, a)) for m in range(n, n + 2)}
        res = J_recurrences(n, a, J, Jp)
        for name, r in res.items():
            records.append(_rec(f"residual.{name}.n{n}.a{a:g}",
                                "oracle-values", r, 0.0, 1e-9, "J ladders"))
    # product-family three-term ladder with analytic values
    for n, a in [(3, 0.5), (6, 1.0), (9, 2.0)]:
        st = airy(a)
        ai, aip = float(st.ai), float(st.aip)
        lhs = (2 * (2 * n - 1) * float(calI(n, a).value)
               - n * (n - 1) * (n - 2) * float(calI(n - 3, a).value))
        rhs = (-(n - 1) * a ** n * ai * ai - n * a ** (n - 1) * aip * aip
               + n * (n - 1) * a ** (n - 2) * ai * aip)
        records.append(_rec(f"residual.product_ladder.n{n}.a{a:g}", "ladder",
                            lhs - rhs, 0.0, 1e-9, "product ladder"))
    # ODE residuals by finite differences
    h = 1e-3
    for a in (1.5, 3.0, 6.0):
        fm, f0, fp = (float(ctx.bigI1_closed(x).value) for x in (a - h, a, a + h))
        d2 = (fp - 2 * f0 + fm) / (h * h)
        res = d2 + a * f0 - (1.0 / 3.0 + float(AIP0) / a + float(AI0) / a ** 2)
        records.append(_rec(f"residual.ode_second_order.a{a:g}", "fd", res / max(1.0, abs(f0)),
                            0.0, 1e-5, "second-order ODE"))
        gm2, gm1, g0, gp1, gp2 = (float(solve_J1(x, sol).value)
                                  for x in (a - 2 * h, a - h, a, a + h, a + 2 * h))
        d3 = (gp2 - 2 * gp1 + 2 * gm1 - gm2) / (2 * h ** 3)
        d1 = (gp1 - gm1) / (2 * h)
        res2 = (0.5 * d3 + 2 * a * d1 + g0
                + float(AIP0) ** 2 / a + float(AI0 * AIP0) / a ** 2
                + float(AI0) ** 2 / a ** 3)
        records.append(_rec(f"residual.ode_third_order.a{a:g}", "fd",
                            res2 / max(1.0, abs(g0)), 0.0, 1e-5,
                            "third-order ODE"))


def check_polynomials(records: list) -> None:
    ok = pq_row(7).Q == (10, 0, 0, 1) and pq_row(10).P == (0, 0, 100, 0, 0, 1)
    records.append(_rec("poly.table2", "ladder", 0.0 if ok else 1.0, 0.0,
                        0.5, "exact rows"))
    first_col_ok = all(amatrix_row(3 * k + 1)[0] == _a_col(k)
                       for k in range(4))
    records.append(_rec("poly.amatrix.first_column", "ladder",
                        0.0 if first_col_ok else 1.0, 0.0, 0.5,
                        "3^{k+1}G(k+2/3)/G(2/3)"))
    ok = reduce_In(6).alpha == 40 and reduce_In(5).u == (12, 0, 0, 4)
    records.append(_rec("poly.table6", "ladder", 0.0 if ok else 1.0, 0.0,
                        0.5, "exact rows"))
    p = pqr_row(3)
    ok = (p.p == (Fraction(-3, 10), 0, 0, Fraction(-2, 10))
          and p.q == (0, 0, Fraction(-3, 10)) and p.r == (0, Fraction(3, 5)))
    records.append(_rec("poly.table7", "ladder", 0.0 if ok else 1.0, 0.0,
                        0.5, "exact rows"))
    p2 = pqr2_row(4)
    ok = p2.P == (0, 0, 8) and p2.Q == (0, 8) and p2.R == (12,)
    records.append(_rec("poly.table4", "ladder", 0.0 if ok else 1.0, 0.0,
                        0.5, "exact rows"))


def _a_col(k: int) -> int:
    out = 3
    for j in range(k):
        out *= 3 * (j + 2.0 / 3.0)
    return round(out)


def run_validation():
    """Full matrix; returns (records, discrepancies).

    The run is one request scope: each per-request value (an Airy value, a
    quadrature node, a Mellin base, a small-a sum, a point's ln, a closed
    form, a quadrature) is computed once in it and dropped when it ends."""
    with request_scope():
        records: list = []
        roots = roots_upto(100)
        ctx = StieltjesContext(roots)
        sol = J1Solution.build(float(roots[1]))
        check_roots(records, roots)
        check_zeta(records, roots)
        oracle1 = oracle_integral1()
        oracle2 = oracle_integral2()
        check_headline_oracle(records, oracle1, oracle2)
        check_series1(records, roots, ctx, float(oracle1))
        check_smalla_values(records, ctx)
        check_J_values(records, ctx.a0)
        check_series2(records, roots, sol, float(oracle2))
        check_cross_routes(records, ctx, sol)
        check_residuals(records, ctx, sol)
        check_polynomials(records)
        return records, discrepancy_ledger()
