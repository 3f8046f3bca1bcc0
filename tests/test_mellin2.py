"""Airy-product transforms: ladders, irreducibles, assembly of J_n."""

import math
from fractions import Fraction as Fr

import pytest

from airylog.airy import airy
from airylog.errors import DomainError, RangeError
from airylog.kernel import AI0, AIP0
from airylog.mellin1 import pq_row
from airylog.mellin2 import (
    A2,
    AAP,
    AP2,
    J_SMALLA_A_MAX,
    NEG_A_MAX,
    Jn_smalla,
    calI,
    calI_bform,
    genfunc2,
    irreducible_neg1,
    mellin2,
    pqr2_row,
    pqr_row,
    xi2_derivs,
)
from airylog.oracle import oracle_mellin, oracle_stieltjes


def test_table7_rows():
    assert pqr_row(0).p == (Fr(-1, 2),)
    assert pqr_row(1).q == (Fr(-1, 2),)
    assert pqr_row(2).p == (0, 0, Fr(-1, 6)) and pqr_row(2).r == (Fr(1, 3),)
    assert pqr_row(3).p == (Fr(-3, 10), 0, 0, Fr(-1, 5))
    assert pqr_row(3).q == (0, 0, Fr(-3, 10)) and pqr_row(3).r == (0, Fr(3, 5))
    assert pqr_row(4).p == (0, 0, 0, 0, Fr(-3, 14))
    assert pqr_row(4).q == (Fr(-6, 7), 0, 0, Fr(-2, 7))
    assert pqr_row(4).r == (0, 0, Fr(6, 7))
    assert pqr_row(5).p == (0, 0, Fr(-5, 9), 0, 0, Fr(-2, 9))
    assert pqr_row(5).q == (0, Fr(-10, 9), 0, 0, Fr(-5, 18))
    assert pqr_row(5).r == (Fr(10, 9), 0, 0, Fr(10, 9))


@pytest.mark.parametrize("row, cap", [(pq_row, 120), (pqr_row, 60),
                                      (pqr2_row, 80)])
def test_each_exact_row_function_keeps_its_range(row, cap):
    row(0)
    row(cap)
    for index in (-1, cap + 1):
        with pytest.raises(DomainError):
            row(index)


def test_pqr_recurrence_identity():
    for n in range(3, 13):
        for field, rhs_coeff in (("p", -(n - 1)), ("q", -n), ("r", n * (n - 1))):
            cur = list(getattr(pqr_row(n), field))
            prev = list(getattr(pqr_row(n - 3), field))
            power = {"p": n, "q": n - 1, "r": n - 2}[field]
            lhs = [2 * (2 * n - 1) * c for c in cur]
            while len(lhs) <= max(power, len(prev) - 1):
                lhs.append(Fr(0))
            for i, c in enumerate(prev):
                lhs[i] -= n * (n - 1) * (n - 2) * c
            lhs[power] -= rhs_coeff
            assert all(c == 0 for c in lhs), (n, field)


def test_table4_rows():
    rows = {
        1: ((0,), (0,), (2,)),
        2: ((0, 2), (2,), (0,)),
        3: ((2,), (0,), (0, 8)),
        4: ((0, 0, 8), (0, 8), (12,)),
        5: ((0, 28), (20,), (0, 0, 32)),
        6: ((28, 0, 0, 32), (0, 0, 32), (0, 160)),
        7: ((0, 0, 256), (0, 224), (216, 0, 0, 128)),
        8: ((0, 728, 0, 0, 128), (440, 0, 0, 128), (0, 0, 1344)),
    }
    for i, (P, Q, R) in rows.items():
        row = pqr2_row(i)
        assert row.P == P and row.Q == Q and row.R == R, i


def test_pqr2_three_term_recurrence():
    for j in range(0, 20):
        for field in ("P", "Q", "R"):
            nxt = list(getattr(pqr2_row(j + 3), field))
            mid = getattr(pqr2_row(j + 1), field)
            cur = getattr(pqr2_row(j), field)
            width = max(len(nxt), len(mid) + 1, len(cur))
            nxt += [0] * (width - len(nxt))
            # subtract 4x*mid + (4j+2)*cur
            for i, c in enumerate(mid):
                nxt[i + 1] -= 4 * c
            for i, c in enumerate(cur):
                nxt[i] -= (4 * j + 2) * c
            assert all(c == 0 for c in nxt), (j, field)


def test_derivative_identity_numeric():
    # d^j Ai^2 = P_j Ai^2 + Q_j Ai'^2 + R_j AiAi' via the t-Taylor series
    for x in (0.5, 1.0):
        st = airy(x)
        ai2, aip2, cross = (float(st.ai) ** 2, float(st.aip) ** 2,
                            float(st.ai) * float(st.aip))
        for t in (-0.3, 0.25):
            total = sum(
                t ** j / math.factorial(j)
                * (_pv(pqr2_row(j).P, x) * ai2 + _pv(pqr2_row(j).Q, x) * aip2
                   + _pv(pqr2_row(j).R, x) * cross)
                for j in range(40)
            )
            ref = float(airy(x + t).ai) ** 2
            assert abs(total - ref) < 1e-9


def _pv(c, x):
    out = 0.0
    for coeff in reversed(c):
        out = out * x + coeff
    return out


def test_genfunc2_trivials_and_partial_sums():
    xi2, lam2, rho = genfunc2(0.0, 1.0)
    assert abs(float(xi2) - 1.0) < 1e-14
    assert abs(float(lam2)) < 1e-14
    assert abs(float(rho)) < 1e-14
    t, x = -0.5, 1.0
    lam_sum = sum(t ** j / math.factorial(j) * _pv(pqr2_row(j).Q, x)
                  for j in range(21))
    _, lam_closed, _ = genfunc2(t, x)
    assert abs(lam_sum - float(lam_closed)) < 1e-9


def test_xi2_derivs_match_printed_low_orders():
    a = 1.1
    Xi, Lam, Rho = xi2_derivs(a)
    st = airy(-a)
    jm = math.sqrt(3) * float(st.ai) - float(st.bi)
    jp = math.sqrt(3) * float(st.ai) + float(st.bi)
    jmp = math.sqrt(3) * float(st.aip) - float(st.bip)
    jpp = math.sqrt(3) * float(st.aip) + float(st.bip)
    pi2 = math.pi ** 2
    a2, aap, ap2 = float(A2), float(AAP), float(AP2)
    assert abs(float(Xi[0]) - pi2 * ap2 * jp * jp) < 1e-13
    assert abs(float(Xi[1]) - 2 * pi2 * ap2 * jp * jpp) < 1e-13
    assert abs(float(Lam[0]) - pi2 * a2 * jm * jm) < 1e-13
    assert abs(float(Lam[1]) - (2 * pi2 * a2 * jm * jmp
                                - 2 * pi2 * aap * jp * jm)) < 1e-13
    assert abs(float(Rho[0]) - 2 * pi2 * aap * jp * jm) < 1e-13
    xi2v = float(Xi[2])
    ref = (2 * pi2 * ap2 * (jpp * jpp - a * jp * jp)
           - 2 * pi2 * aap * jp * jm)
    assert abs(xi2v - ref) < 1e-12


def test_taylor_classes_reconstruct_products():
    # the S-type class chains with the tabulated weights reproduce the
    # three Airy products at -z
    from airylog.mellin2 import _ai2_class_chains

    for z in (0.5, 1.0, 2.0):
        cs, ds, es = _ai2_class_chains((-z ** 3, 0.0), 40)
        s0 = sum(c[0] + c[1] for c in cs)
        s1 = -z * sum(d[0] + d[1] for d in ds)
        s2 = 2 * z * z * sum(e[0] + e[1] for e in es)
        st = airy(-z)
        ai2 = float(st.ai) ** 2
        bi2 = float(st.bi) ** 2
        cross = float(st.ai) * float(st.bi)
        a2, aap, ap2 = float(A2), float(AAP), float(AP2)
        # Ai(-z)^2 with weights (A2, 2AAp, 2Ap2)/classes
        mine = a2 * s0 + 2 * aap * s1 + ap2 * s2
        assert abs(mine - ai2) < 1e-13
        # Bi(-z)^2 with weights (3A2, -6AAp, 3*2 Ap2 /2) per the w-table
        mine = 3 * a2 * s0 - 6 * aap * s1 + 3 * ap2 * s2
        assert abs(mine - bi2) < 1e-12
        # AiBi with (sqrt3 A2, 0, -sqrt3 Ap2)
        mine = math.sqrt(3) * (a2 * s0 - ap2 * s2)
        assert abs(mine - cross) < 1e-13


def test_calI_base_cases():
    for a in (0.7, 1.5):
        st = airy(a)
        ai2 = float(st.ai) ** 2
        aip2 = float(st.aip) ** 2
        cross = float(st.ai) * float(st.aip)
        assert abs(float(calI(0, a).value) + ai2 / 2) < 1e-15
        assert abs(float(calI(1, a).value) + aip2 / 2) < 1e-15
        ref = -(a * a / 6) * ai2 - (a / 3) * aip2 + cross / 3
        assert abs(float(calI(2, a).value) - ref) < 1e-15


def test_calI_vs_oracle():
    assert abs(float(calI(5, 1.0).value)
               - oracle_mellin("AiAiP", 5, 1.0).value) <= 1e-10
    for n in (-1, -5, -9, 4, 8):
        for a in (0.5, 1.0, 2.0):
            mine = float(calI(n, a).value)
            orc = oracle_mellin("AiAiP", n, a).value
            assert abs(mine - orc) <= 1e-10 * max(1.0, abs(mine)) + 1e-15


def test_bform_route_agrees():
    for n in range(0, 12):
        for a in (0.5, 1.3, 2.0):
            lad = float(calI(n, a).value)
            bf = float(calI_bform(n, a).value)
            assert abs(lad - bf) <= 1e-12 * max(1.0, abs(lad))


def test_bform_route_rejects_negative_n():
    # the closed-form solution covers n >= 0 only; a negative n is not
    # handed to the ladder under the B-form's name
    with pytest.raises(DomainError):
        calI_bform(-1, 1.0)


def test_negative_list_identities():
    # i_{-2} = Ai^2/a + 2 calI_{-1};  i'_{-2} = -Ai^2 + Ai'^2/a
    for a in (0.8, 1.5):
        st = airy(a)
        ai2 = float(st.ai) ** 2
        aip2 = float(st.aip) ** 2
        ref = ai2 / a + 2 * float(irreducible_neg1(a, "calI"))
        assert abs(float(mellin2(-2, a).value) - ref) < 1e-14
        ref2 = -ai2 + aip2 / a
        assert abs(float(mellin2(-2, a, primed=True).value) - ref2) < 1e-14


def test_mellin2_vs_oracle():
    assert abs(float(mellin2(3, 1.0).value)
               - oracle_mellin("Ai2", 3, 1.0).value) <= 1e-10
    for n in (-4, -1, 0, 2, 6):
        for a in (0.5, 2.0):
            for primed, kind in ((False, "Ai2"), (True, "AiP2")):
                mine = float(mellin2(n, a, primed).value)
                orc = oracle_mellin(kind, n, a).value
                assert abs(mine - orc) <= 1e-10 * max(1.0, abs(mine)) + 1e-15


def test_elimination_identity():
    # eliminating the pivot family from the two simple forms gives
    # i'_n = [(n+2) i_{n+1} + a^{n+2} Ai^2 - a^{n+1} Ai'^2]/(n+1);
    # the printed identity carries a^{n+2} on the Ai'^2 term as well,
    # which fails numerically (discrepancy report)
    for n in range(0, 9):
        a = 1.2
        st = airy(a)
        lhs = float(mellin2(n, a, primed=True).value)
        rhs = ((n + 2) * float(mellin2(n + 1, a).value)
               + a ** (n + 2) * float(st.ai) ** 2
               - a ** (n + 1) * float(st.aip) ** 2) / (n + 1)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        printed = ((n + 2) * float(mellin2(n + 1, a).value)
                   + a ** (n + 2) * (float(st.ai) ** 2 - float(st.aip) ** 2)) / (n + 1)
        assert abs(lhs - printed) > 1e-6  # the misprint is material


def test_irreducible_vs_oracle():
    for a in (0.5, 1.0, 2.0, 4.0):
        for which, kind in (("i", "Ai2"), ("iprime", "AiP2"),
                            ("calI", "AiAiP")):
            mine = float(irreducible_neg1(a, which))
            orc = oracle_mellin(kind, -1, a).value
            assert abs(mine - orc) <= 1e-12 * max(1.0, abs(orc)) + 1e-14


def test_irreducible_asymptotic_ratio():
    # i_{-1}(a) * 8 pi a^2 * exp((4/3)a^{3/2}) -> 1
    a = 8.0
    v = float(irreducible_neg1(a, "i"))
    ratio = v * 8 * math.pi * a * a * math.exp(4.0 / 3.0 * a ** 1.5)
    assert abs(ratio - 1.0) < 0.1


def test_calI_m1_derivative():
    h = 1e-5
    a = 1.5
    d = (float(irreducible_neg1(a + h, "calI"))
         - float(irreducible_neg1(a - h, "calI"))) / (2 * h)
    st = airy(a)
    assert abs(d + float(st.ai) * float(st.aip) / a) < 1e-7


def test_product_ladder_residual():
    for n, a in [(3, 0.5), (6, 1.0), (9, 2.0), (12, 2.0)]:
        st = airy(a)
        ai, aip = float(st.ai), float(st.aip)
        lhs = (2 * (2 * n - 1) * float(calI(n, a).value)
               - n * (n - 1) * (n - 2) * float(calI(n - 3, a).value))
        rhs = (-(n - 1) * a ** n * ai * ai - n * a ** (n - 1) * aip * aip
               + n * (n - 1) * a ** (n - 2) * ai * aip)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_moment_family_formulas():
    # the nine 3j-family moment formulas at j in {0, 1} vs the oracle
    for j in (0, 1):
        checks = [
            ("Ai2", 3 * j + 2, math.factorial(3 * j + 2) * math.gamma(5 / 6)
             / (12.0 ** (j + 1) * math.gamma(j + 11 / 6)) * float(AI0) ** 2),
            ("Ai2", 3 * j + 3, math.pi * math.factorial(3 * j + 3)
             / (3 * 12.0 ** (j + 1) * math.gamma(5 / 6)
                * math.gamma(j + 13 / 6)) * float(AIP0) ** 2),
            ("Ai2", 3 * j + 4, -2 * math.sqrt(math.pi)
             * math.factorial(3 * j + 4)
             / (12.0 ** (j + 2) * math.gamma(j + 5 / 2))
             * float(AI0) * float(AIP0)),
            ("AiP2", 3 * j + 1, (3 * j + 3) * math.factorial(3 * j + 1)
             * math.gamma(11 / 6) / (10 * 12.0 ** j * math.gamma(j + 11 / 6))
             * float(AI0) ** 2),
            ("AiP2", 3 * j + 2, 5 * math.pi * (3 * j + 4)
             * math.factorial(3 * j + 2)
             / (18 * 12.0 ** (j + 1) * math.gamma(11 / 6)
                * math.gamma(j + 13 / 6)) * float(AIP0) ** 2),
            ("AiP2", 3 * j + 3, -2 * math.sqrt(math.pi) * (3 * j + 5)
             * math.factorial(3 * j + 3)
             / (12.0 ** (j + 2) * math.gamma(j + 5 / 2))
             * float(AI0) * float(AIP0)),
            ("AiAiP", 3 * j, -math.factorial(3 * j) * math.gamma(5 / 6)
             / (2 * 12.0 ** j * math.gamma(j + 5 / 6)) * float(AI0) ** 2),
            ("AiAiP", 3 * j + 1, -math.factorial(3 * j + 1) * math.pi
             / (6 * 12.0 ** j * math.gamma(5 / 6) * math.gamma(j + 7 / 6))
             * float(AIP0) ** 2),
            ("AiAiP", 3 * j + 2, math.factorial(3 * j + 2) * math.sqrt(math.pi)
             / (12.0 ** (j + 1) * math.gamma(j + 3 / 2))
             * float(AI0) * float(AIP0)),
        ]
        for kind, m, ref in checks:
            orc = oracle_mellin(kind, m, 0.0).value
            assert abs(ref - orc) <= 1e-9 * max(1.0, abs(orc)), (kind, m, j)


def test_Jn_smalla_reference_values():
    a0 = 1.0187929716
    assert abs(float(Jn_smalla(1, a0).value) - 0.04826441) <= 1e-8
    assert abs(float(Jn_smalla(2, a0).value) - 0.03654795) <= 1e-8
    # two prints exist for J_3 (0.02879280 / 0.02879281); quadrature decides
    v3 = float(Jn_smalla(3, a0).value)
    assert abs(v3 - 0.02879280) <= 2e-8
    assert abs(v3 - oracle_stieltjes("Ai2", 3, a0).value) <= 1e-10


def test_Jn_smalla_vs_oracle_elsewhere():
    for n, a in ((1, 0.5), (4, 1.0), (2, 2.0)):
        mine = float(Jn_smalla(n, a).value)
        orc = oracle_stieltjes("Ai2", n, a).value
        assert abs(mine - orc) <= 1e-9 * max(1.0, abs(orc))


#: (n, a, 30-digit mpmath 1.3.0 quadrature of J_n(a) at mp.dps = 60,
#:   mp.quad(lambda x: airyai(x)**2 / (x + a)**n,
#:           [0, 0.5, 2, 4, 8, 15, 30, mp.inf]),
#: measured error / err_est): inside the range and at each order's limit
J_REFS = (
    (4, 1.0, "0.0249316185374472882710101799974", 0.0054),
    (4, 1.8, "0.00326412236060745048096835690301", 0.36),
    (5, 0.5, "0.404606199721275142716488501148", 1.1e-5),
    (5, 1.65, "0.00235529504229926267460206763144", 0.43),
    (6, 1.0, "0.0182925621254941421372403596472", 0.0019),
    (6, 1.85, "0.000683408040005086244577049075152", 0.38),
)


def test_Jn_smalla_meets_its_err_est_up_to_its_limit():
    for n, a, ref, measured in J_REFS:
        r = Jn_smalla(n, a)
        ratio = abs(Fr(r.value.hi) + Fr(r.value.lo) - Fr(ref)) / Fr(r.err_est)
        assert ratio <= 1.1 * measured, (n, a, float(ratio))
        assert a <= J_SMALLA_A_MAX[n]


def test_Jn_smalla_raises_past_its_limit():
    # these returned values 19 to 5.6e5 times their err_est off a 30-digit
    # quadrature, e.g. (6, 4.0) 3.8e-10 relative with err_est 1e-14
    for n, a in ((6, 4.0), (4, 4.5), (6, 3.0), (5, 2.0), (4, 1.85),
                 (5, 1.7), (6, 1.9), (3, 2.25), (2, 2.2), (1, 4.05)):
        assert a > J_SMALLA_A_MAX[n]
        with pytest.raises(RangeError):
            Jn_smalla(n, a)


def test_domain_errors():
    with pytest.raises(DomainError):
        calI(n=-31, a=1.0)
    with pytest.raises(DomainError):
        irreducible_neg1(0.0, "i")
    with pytest.raises(DomainError):
        irreducible_neg1(1.0, "bogus")
    with pytest.raises(DomainError):
        Jn_smalla(7, 1.0)


#: 30-digit references from mpmath 1.3.0 at mp.dps = 40, each
#:   mp.quad(lambda x: x**n * w(x), [a, a + 1, a + 3, a + 8, mp.inf])
#: with w = airyai(x) * airyai(x, derivative=1) for calI, airyai(x)**2 for
#: i and airyai(x, derivative=1)**2 for i'
NEG_INDEX_REFS = (
    ("calI", -2, 4.75, "-7.38158768375883621041485172782e-10"),
    ("calI", -30, 0.5, "-939438.265978941346283501852243"),
    ("calI", -1, 4.5, "-1.15645924036518091880971869427e-8"),
    ("i", -7, 3.0, "3.35676111219194454742591271704e-9"),
    ("i", -1, 4.75, "1.60778196500985178503916113692e-9"),
    ("iprime", -1, 4.75, "8.31679122696982066614013094982e-9"),
    ("iprime", -13, 2.0, "3.87434476030005346393733062484e-8"),
)


def test_negative_indices_meet_err_est_and_stop_at_neg_a_max():
    # the irreducible 1/x transforms under every negative index lose
    # digits like e^{(4/3)a^{3/2}}: unchecked, calI(-2, 12) would return
    # -3.7e4 against a true -6.6e-29
    for kind, n, a, ref in NEG_INDEX_REFS:
        r = calI(n, a) if kind == "calI" else mellin2(n, a, kind == "iprime")
        assert abs(float(r.value) - float(ref)) <= r.err_est, (kind, n, a)
    for n, a in ((-2, 12.0), (-1, 4.8), (-30, 13.0)):
        assert a > NEG_A_MAX
        for fn in (calI, mellin2, lambda n, a: mellin2(n, a, True)):
            with pytest.raises(RangeError):
                fn(n, a)
    # non-negative indices never use the irreducibles and keep a <= 13
    for fn in (calI, mellin2, lambda n, a: mellin2(n, a, True)):
        assert math.isfinite(float(fn(2, 12.75).value))
        with pytest.raises(DomainError):
            fn(2, 13.25)


#: (kind, a, 30-digit mpmath 1.3.0 quadrature of int_a^inf w(x)/x dx,
#: measured relative error) just below and at each kind's limit
IRREDUCIBLE_REFS = (
    ("iprime", 4.7, "1.04429559032770333591334560118e-8", 3.7e-6),
    ("iprime", 4.75, "8.31679122696982066614013094982e-9", 6.0e-6),
    ("i", 7.95, "6.26419643826521938517259438919e-17", 2.6e-6),
    ("i", 8.0, "4.66629459428781600340189370972e-17", 2.9e-6),
    ("calI", 7.95, "-1.80356779722341061528818624549e-16", 2.4e-6),
    ("calI", 8.0, "-1.34747492232868608672834736091e-16", 2.4e-6),
)


def test_irreducible_neg1_stops_at_each_kinds_limit():
    # the docstring's accuracy up to each limit: 6e-6 for 'iprime' up to
    # NEG_A_MAX, 3e-6 for 'i' and 'calI' up to a = 8; beyond, the error
    # grows to 110% ('iprime' at 6) and 52% ('calI' at 9)
    for which, a, ref, measured in IRREDUCIBLE_REFS:
        rel = abs(float(irreducible_neg1(a, which)) / float(ref) - 1.0)
        assert rel <= 1.1 * measured, (which, a, rel)
    for which, limit in (("iprime", NEG_A_MAX), ("i", 8.0), ("calI", 8.0)):
        for a in (limit + 0.01, limit + 1.0, 13.0, 20.0):
            with pytest.raises(RangeError):
                irreducible_neg1(a, which)
    # 'i' and 'calI' stay available between the two limits
    for which in ("i", "calI"):
        assert math.isfinite(float(irreducible_neg1(6.0, which)))
    with pytest.raises(DomainError):
        irreducible_neg1(-1.0, "iprime")


def test_bform_equals_pqr_exactly_in_rational_arithmetic():
    """The Gamma-ratio closed forms of the three-term ladder reduce to
    rational Laurent coefficients (the Gamma anchors cancel); for k <= 5
    they must equal the p/q/r ladder polynomials exactly."""
    from fractions import Fraction as Fr

    def bform_coeffs(n):
        # returns ({power: coeff} for Ai^2, Ai'^2, AiAi') built with exact
        # Fractions; chains carry t_l = G(l+shift)(12a^3)^l/(3l)!/G(anchor)
        k, mu = divmod(n, 3)
        p, q, r = {}, {}, {}

        def put(d, power, val):
            d[power] = d.get(power, Fr(0)) + val

        if mu == 0:
            pref = Fr(math.factorial(3 * k), 12 ** (k + 1))
            # G(k+5/6)/G(5/6) = prod(5/6 + j); t chain anchored at G(-1/6)/G(5/6) = -6
            ratio = Fr(1)
            for j in range(k):
                ratio *= Fr(5, 6) + j
            t = Fr(-6)
            for l in range(k + 1):
                c = pref * t / ratio
                put(p, 3 * l, -(3 * l - 1) * c)
                if l >= 1:
                    put(q, 3 * l - 1, -(3 * l) * c)
                    put(r, 3 * l - 2, (3 * l) * (3 * l - 1) * c)
                t *= (Fr(l) - Fr(1, 6)) * 12 * Fr(1, (3 * l + 1) * (3 * l + 2) * (3 * l + 3))
        elif mu == 1:
            pref = Fr(math.factorial(3 * k + 1), 12 ** (k + 1))
            ratio = Fr(1)
            for j in range(k):
                ratio *= Fr(7, 6) + j
            t = Fr(6)  # G(1/6)/G(7/6)
            for l in range(k + 1):
                c = pref * t / ratio
                put(q, 3 * l, -c)
                if l >= 1:
                    put(p, 3 * l + 1, -Fr(3 * l, 3 * l + 1) * c)
                    put(r, 3 * l - 1, (3 * l) * c)
                t *= (Fr(l) + Fr(1, 6)) * 12 * Fr(1, (3 * l + 1) * (3 * l + 2) * (3 * l + 3))
        else:
            pref = Fr(math.factorial(3 * k + 2), 12 ** (k + 1))
            ratio = Fr(1)
            for j in range(k):
                ratio *= Fr(3, 2) + j
            t = Fr(2)  # G(1/2)/G(3/2)
            for l in range(k + 1):
                c = pref * t / ratio
                put(p, 3 * l + 2, -Fr(3 * l + 1, (3 * l + 1) * (3 * l + 2)) * c)
                put(q, 3 * l + 1, -Fr(1, 3 * l + 1) * c)
                put(r, 3 * l, c)
                t *= (Fr(l) + Fr(1, 2)) * 12 * Fr(1, (3 * l + 1) * (3 * l + 2) * (3 * l + 3))
        return p, q, r

    for n in range(0, 17):
        bp, bq, br = bform_coeffs(n)
        row = pqr_row(n)
        for d, poly in ((bp, row.p), (bq, row.q), (br, row.r)):
            ref = {i: c for i, c in enumerate(poly) if c}
            assert {k_: v for k_, v in d.items() if v} == ref, n


def test_vallee_relations_with_oracle_values():
    # (2n+1) i_n = -n(n-1) calI_{n-2} - a^{n+1}Ai^2 + a^n Ai'^2
    #              - n a^{n-1} AiAi'
    # (2n+3) i'_n = -n(n+2) calI_{n-1} + a^{n+2}Ai^2 - a^{n+1}Ai'^2
    #              - (n+2) a^n AiAi'
    for n, a in ((2, 1.0), (3, 0.5), (5, 2.0)):
        st = airy(a)
        ai2 = float(st.ai) ** 2
        aip2 = float(st.aip) ** 2
        cross = float(st.ai) * float(st.aip)
        i_n = oracle_mellin("Ai2", n, a).value
        ip_n = oracle_mellin("AiP2", n, a).value
        cal_m2 = oracle_mellin("AiAiP", n - 2, a).value
        cal_m1 = oracle_mellin("AiAiP", n - 1, a).value
        r1 = ((2 * n + 1) * i_n + n * (n - 1) * cal_m2
              + a ** (n + 1) * ai2 - a ** n * aip2 + n * a ** (n - 1) * cross)
        r2 = ((2 * n + 3) * ip_n + n * (n + 2) * cal_m1
              - a ** (n + 2) * ai2 + a ** (n + 1) * aip2
              + (n + 2) * a ** n * cross)
        assert abs(r1) <= 1e-9, (n, a)
        assert abs(r2) <= 1e-9, (n, a)


def test_beta_form_anchored_solutions():
    # printed closed solutions of the downward ladder for calI_{-4}
    # and calI_{-5} (first beta rows) against the anchored chain
    for a in (0.7, 1.4):
        st = airy(a)
        ai2 = float(st.ai) ** 2
        aip2 = float(st.aip) ** 2
        cross = float(st.ai) * float(st.aip)
        calm1 = float(irreducible_neg1(a, "calI"))
        calm2 = float(calI(-2, a).value)
        # mu=1 row, k=1: calI_{-4} = calI_{-1} + Ai^2/(3a) + Ai'^2/(6a^2)
        #                           + AiAi'/(3a^3)
        ref4 = calm1 + ai2 / (3 * a) + aip2 / (6 * a * a) + cross / (3 * a ** 3)
        assert abs(float(calI(-4, a).value) - ref4) <= 1e-13
        # mu=2 row, k=1: from the ladder with n = 2
        ref5 = (10 * calm2 + 3 * ai2 / a ** 2 + 2 * aip2 / a ** 3
                + 6 * cross / a ** 4) / 24
        assert abs(float(calI(-5, a).value) - ref5) <= 1e-13
