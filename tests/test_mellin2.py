"""Airy-product transforms: ladders, irreducibles, assembly of J_n."""

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from airylog.airy import airy
from airylog.ddreal import (
    XReal,
    dd_add,
    dd_div_f,
    dd_mul,
    dd_mul_f,
    dd_powi,
    dd_sub,
)
from airylog.errors import DomainError, RangeError
from airylog.kernel import AI0, AIP0, ln_point, poly_add
from airylog.mellin1 import pq_row
from airylog.mellin2 import (
    A2,
    AAP,
    AP2,
    IRREDUCIBLE,
    J_SMALLA,
    L_CAL,
    L_I,
    L_IP,
    NEG_A_MAX,
    Ai2Base,
    Jn_smalla,
    calI,
    calI_bform,
    irreducible_neg1,
    mellin2,
    pqr2_row,
    pqr_row,
    xi2_derivs,
    _ai2_class_chains,
    _bsums,
    _BSUM_ROWS,
    _CLASS_SUMS,
    _series_terms_for,
)
from airylog.oracle import oracle_mellin, oracle_stieltjes
from airylog.results import Domain


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


#: the squared generating functions (Xi, Lambda, rho) = (xi^2, lambda^2,
#: 2 xi lambda) at (t, x) = (-0.5, 1), with xi(t, x) = pi[Bi'(x)Ai(x+t) -
#: Ai'(x)Bi(x+t)] and lambda(t, x) = pi[Ai(x)Bi(x+t) - Bi(x)Ai(x+t)], from
#: mpmath 1.3.0 airyai and airybi at mp.dps = 60
GENFUNC2_REFS = ("1.22285184813091912977298002109",
                 "0.266020092569093950548150580506",
                 "-1.14070708218731547267789847537")


def test_genfunc2_trivials_and_partial_sums():
    # at t = 0 only row 0 adds: Ai(x)^2 itself
    assert pqr2_row(0) == ((1,), (0,), (0,))
    # the t-Taylor sums of the P, Q and R ladders are Xi, Lambda and rho,
    # 5.0e-16, 4.7e-16 and 1.5e-15 off the references
    t, x = -0.5, 1.0
    for poly, ref in zip(("P", "Q", "R"), GENFUNC2_REFS):
        total = sum(t ** j / math.factorial(j)
                    * _pv(getattr(pqr2_row(j), poly), x) for j in range(21))
        assert abs(total - float(ref)) < 1e-9, poly


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
        assert J_SMALLA.holds(n, a)


def test_Jn_smalla_raises_past_its_limit():
    # these returned values 19 to 5.6e5 times their err_est off a 30-digit
    # quadrature, e.g. (6, 4.0) 3.8e-10 relative with err_est 1e-14
    for n, a in ((6, 4.0), (4, 4.5), (6, 3.0), (5, 2.0), (4, 1.85),
                 (5, 1.7), (6, 1.9), (3, 2.25), (2, 2.2), (1, 4.05)):
        assert not J_SMALLA.holds(n, a)
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
    # non-negative indices never use the irreducibles and keep a <= 13,
    # PRODUCT's hi; past it a is out of range, as for a negative index
    for fn in (calI, mellin2, lambda n, a: mellin2(n, a, True)):
        assert math.isfinite(float(fn(2, 12.75).value))
        with pytest.raises(RangeError):
            fn(2, 13.25)


#: calI_bform at a = 1e-156, (hi, lo) of its value as ``float.hex``, for
#: the orders whose sums form no a^-2: the range check leaves their bits
BFORM_TINY_A = {
    0: ("-0x1.0223d6a91559ep-4", "0x1.2590ccc513356p-58"),
    1: ("-0x1.126177c13325dp-5", "0x1.5216587bb329ep-60"),
    2: ("-0x1.f5d4f1a7bd022p-6", "-0x1.e070998b6a585p-60"),
    4: ("-0x1.d65df1dd7c40dp-5", "0x1.1f01bc41c56c6p-60"),
    5: ("-0x1.a231740bc82c8p-4", "-0x1.023a7f8a3d99cp-59"),
}


def test_bform_refuses_a_where_its_sums_leave_the_dd_range():
    # the B sums form a^-2 for n = 0 (mod 3) and a^-1 for n = 1 (mod 3),
    # n >= 3: unchecked, n = 3 returned nan at a = 1e-156 and raised a bare
    # ZeroDivisionError at 1e-200
    for n in (3, 6):
        for a in (1e-156, 1e-200):
            with pytest.raises(RangeError, match="a >= 3.2e-145"):
                calI_bform(n, a)
        assert math.isfinite(float(calI_bform(n, 2.0 ** -480).value))
    with pytest.raises(RangeError, match="a >= 1.03e-289"):
        calI_bform(4, 1e-300)
    assert math.isfinite(float(calI_bform(4, 2.0 ** -960).value))
    for n, bits in BFORM_TINY_A.items():
        value = calI_bform(n, 1e-156).value
        assert (value.hi.hex(), value.lo.hex()) == bits, n


def test_range_error_reads_an_open_lower_bound_without_a_declared_lo():
    # Domain.check refuses a <= 0 first, so a domain with no lower bound
    # holds on (0, hi]; its message once read [-inf, hi]
    with pytest.raises(RangeError) as err:
        calI(2, 13.25)
    assert str(err.value) == "calI of order 2 needs a in (0, 13]"
    with pytest.raises(RangeError) as err:
        calI(-1, 5.0)
    assert str(err.value) == "calI of order -1 needs a in (0, 4.75]"
    # a declared lower bound prints as given
    with pytest.raises(RangeError) as err:
        Domain(0.2, 13.0).check("route", 1, 0.1)
    assert str(err.value) == "route of order 1 needs a in [0.2, 13]"


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
    rational coefficients (the Gamma anchors cancel): each row of
    _BSUM_ROWS, summed in Fractions with its amplitude and shift as the
    exact thirds they round, times the prefactor, is row n of the p/q/r
    ladder exactly."""
    for n in range(41):
        k, mu = divmod(n, 3)
        t0, c, rows = _BSUM_ROWS[mu]
        exact_c = Fr(2 * mu - 1, 6)
        assert c == float(exact_c) and t0 == 1 / exact_c
        pref = Fr(math.factorial(3 * k + mu), 12 ** (k + 1)) / math.prod(
            exact_c + 1 + i for i in range(k))
        polys, t = [(), (), ()], 1 / exact_c
        for l in range(k + 1):
            for i, (first, power, factor) in enumerate(rows):
                if l >= first:
                    num, den = factor(l) if factor else (1, 1)
                    polys[i] = poly_add(polys[i], (0,) * (3 * l + power)
                                        + (pref * t * Fr(num, den),))
            t *= 12 * (l + exact_c) / ((3 * l + 1) * (3 * l + 2) * (3 * l + 3))
        want = pqr_row(n)
        for got, poly in zip(polys, want):
            assert ({i: v for i, v in enumerate(got) if v}
                    == {i: v for i, v in enumerate(poly) if v}), n


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


# -- the declared class and B-sum tables ---------------------------------------

def _loops_irreducible_neg1(a, which):
    """irreducible_neg1 as nine hand-written loops, one per kind and class:
    the form the table replaced, kept as the bit-for-bit reference."""
    nterms = _series_terms_for(a)
    ap = (float(a), 0.0)
    a3 = dd_powi(ap, 3)
    cs, ds, es = _ai2_class_chains(a3, nterms + 2)
    ln_a = ln_point(ap[0])
    a2_, aap_, ap2_ = A2.pair, AAP.pair, AP2.pair
    if which == "i":
        s0 = (0.0, 0.0)
        for n in range(nterms, 0, -1):
            s0 = dd_add(s0, dd_div_f(cs[n], float(3 * n)))
        s1 = (0.0, 0.0)
        for n in range(nterms, -1, -1):
            s1 = dd_add(s1, dd_div_f(dd_mul(ds[n], ap), float(3 * n + 1)))
        s2 = (0.0, 0.0)
        for n in range(nterms, -1, -1):
            s2 = dd_add(s2, dd_div_f(dd_mul(dd_mul_f(es[n], 2.0),
                                            dd_powi(ap, 2)), float(3 * n + 2)))
        tot = dd_add(dd_mul(a2_, dd_add(s0, ln_a)),
                     dd_add(dd_mul_f(dd_mul(aap_, s1), 2.0), dd_mul(ap2_, s2)))
        return XReal.from_pair(dd_sub(L_I.pair, tot))
    if which == "calI":
        s0 = (0.0, 0.0)
        for n in range(nterms, 0, -1):
            s0 = dd_add(s0, dd_div_f(dd_mul_f(ds[n], float(3 * n + 1)),
                                     float(3 * n)))
        s1 = (0.0, 0.0)
        for n in range(nterms, -1, -1):
            s1 = dd_add(s1, dd_div_f(dd_mul(dd_mul_f(es[n], float(3 * n + 2)), ap),
                                     float(3 * n + 1)))
        s2 = (0.0, 0.0)
        inv_a = dd_powi(ap, -1)
        for n in range(nterms, -1, -1):
            s2 = dd_add(s2, dd_div_f(dd_mul(dd_mul_f(cs[n + 1], 0.5 * (3 * n + 3)),
                                            inv_a), float(3 * n + 2)))
        tot = dd_add(dd_mul(aap_, dd_add(s0, ln_a)),
                     dd_add(dd_mul(ap2_, s1), dd_mul(a2_, s2)))
        return XReal.from_pair(dd_sub(L_CAL.pair, tot))
    s0 = (0.0, 0.0)
    for n in range(nterms, 0, -1):
        coef = dd_mul_f(es[n - 1], (6.0 * n - 2.0) / float(3 * n))
        s0 = dd_add(s0, dd_div_f(dd_mul(coef, a3), float(3 * n)))
    s1 = (0.0, 0.0)
    for n in range(nterms, 0, -1):
        coef = dd_mul_f(cs[n], float(3 * n) / float(3 * n + 1))
        s1 = dd_add(s1, dd_div_f(dd_mul(coef, ap), float(3 * n + 1)))
    s2 = (0.0, 0.0)
    for n in range(nterms, -1, -1):
        coef = dd_mul_f(ds[n], (6.0 * n + 2.0) / float(3 * n + 2))
        s2 = dd_add(s2, dd_div_f(dd_mul(coef, dd_powi(ap, 2)), float(3 * n + 2)))
    tot = dd_add(dd_mul(ap2_, dd_add(s0, ln_a)),
                 dd_add(dd_mul(a2_, s1), dd_mul(aap_, s2)))
    return XReal.from_pair(dd_sub(L_IP.pair, tot))


def _branches_bsums(k, mu, base):
    """_bsums as three hand-written residue branches: the form the table
    replaced, kept as the bit-for-bit reference."""
    a3_12 = dd_mul_f(dd_powi(base.ap, 3), 12.0)
    inv_a = dd_powi(base.ap, -1)
    s0 = s1 = s2 = (0.0, 0.0)
    if mu == 0:
        t = (-6.0, 0.0)
        for l in range(k + 1):
            s0 = dd_add(s0, dd_mul_f(t, -(3.0 * l - 1.0)))
            if l >= 1:
                s1 = dd_add(s1, dd_mul_f(dd_mul(t, inv_a), -(3.0 * l)))
                s2 = dd_add(s2, dd_mul_f(dd_mul(t, dd_powi(base.ap, -2)),
                                         (3.0 * l) * (3.0 * l - 1.0)))
            t = dd_mul_f(dd_mul(t, a3_12),
                         (l - 1.0 / 6.0)
                         / float((3 * l + 1) * (3 * l + 2) * (3 * l + 3)))
        return s0, s1, s2
    if mu == 1:
        t = (6.0, 0.0)
        for l in range(k + 1):
            s1 = dd_add(s1, dd_mul_f(t, -1.0))
            if l >= 1:
                s0 = dd_add(s0, dd_mul_f(dd_mul(t, base.ap),
                                         -3.0 * l / float(3 * l + 1)))
                s2 = dd_add(s2, dd_mul_f(dd_mul(t, inv_a), 3.0 * l))
            t = dd_mul_f(dd_mul(t, a3_12),
                         (l + 1.0 / 6.0)
                         / float((3 * l + 1) * (3 * l + 2) * (3 * l + 3)))
        return s0, s1, s2
    t = (2.0, 0.0)
    for l in range(k + 1):
        s0 = dd_add(s0, dd_mul_f(dd_mul(t, dd_powi(base.ap, 2)),
                                 -(3.0 * l + 1.0) / float((3 * l + 1) * (3 * l + 2))))
        s1 = dd_add(s1, dd_mul_f(dd_mul(t, base.ap), -1.0 / float(3 * l + 1)))
        s2 = dd_add(s2, t)
        t = dd_mul_f(dd_mul(t, a3_12),
                     (l + 0.5) / float((3 * l + 1) * (3 * l + 2) * (3 * l + 3)))
    return s0, s1, s2


def _bits(pairs):
    """Every bit of each component, the sign of zero included."""
    return [(x.hex(), math.copysign(1.0, x)) for x in pairs]


def _outcome(fn, *args):
    # the bits of each dd pair returned, or the type of the exception raised
    try:
        out = fn(*args)
    except ArithmeticError as exc:
        return type(exc)
    pairs = [out.pair] if isinstance(out, XReal) else out
    return [_bits(p) for p in pairs]


@given(st.sampled_from(sorted(IRREDUCIBLE)),
       st.floats(0.0, 8.0, exclude_min=True))
@example("iprime", 1.0187929716474710)  # a0, the first root magnitude
@example("iprime", NEG_A_MAX)
@example("i", 8.0)
@example("calI", 5e-324)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_irreducible_table_keeps_the_loops_bits(which, a):
    assume(a <= IRREDUCIBLE[which].hi)
    assert (_outcome(irreducible_neg1, a, which)
            == _outcome(_loops_irreducible_neg1, a, which)), (which, a)


@given(st.integers(0, 40), st.floats(0.0, 13.0, exclude_min=True))
@example(2, 3.75)
@example(3, 1e-200)  # a^-2 overflows: both raise
@example(0, 1e-200)  # k = 0 forms no a^-2
@settings(max_examples=150, deadline=None, derandomize=True)
def test_bsum_table_keeps_the_branches_bits(n, a):
    k, mu = divmod(n, 3)
    base = Ai2Base(a)
    assert (_outcome(_bsums, k, mu, base)
            == _outcome(_branches_bsums, k, mu, base)), (n, a)


#: the class chains c, d, e of _ai2_class_chains with a^3 = 1, exactly:
#: their first terms and their ratios
_CHAIN_FIRST = (Fr(1), Fr(1), Fr(1, 2))
_CHAIN_RATIO = tuple(
    lambda n, j=j: Fr(12 * n + 4 * j + 2,
                      (3 * n + j + 1) * (3 * n + j + 2) * (3 * n + j + 3))
    for j in range(3))


def _chain(c, n):
    return _CHAIN_FIRST[c] * math.prod(_CHAIN_RATIO[c](i) for i in range(n))


def _taylor_ai2(m):
    """[x^m] Ai(x)^2 as its (A^2, A'^2, AA') coefficients, from pqr2_row."""
    if m < 0:
        return (0, 0, 0)
    row = pqr2_row(m)
    return tuple(Fr(poly[0], math.factorial(m)) for poly in row)


#: [x^m] of each kind's product: Ai^2; Ai Ai' = (Ai^2)'/2;
#: Ai'^2 = (Ai^2)''/2 - x Ai^2
_TAYLOR = {
    "i": _taylor_ai2,
    "calI": lambda m: tuple(Fr(m + 1, 2) * t for t in _taylor_ai2(m + 1)),
    "iprime": lambda m: tuple(Fr((m + 2) * (m + 1), 2) * t - u for t, u in
                              zip(_taylor_ai2(m + 2), _taylor_ai2(m - 1))),
}


def test_class_chains_are_the_exact_chains():
    chains = _ai2_class_chains((1.0, 0.0), 25)
    for c, chain in enumerate(chains):
        for n, (hi, lo) in enumerate(chain):
            exact = _chain(c, n)
            assert abs(Fr(hi) + Fr(lo) - exact) <= exact * Fr(1, 10 ** 29)


def test_class_rows_are_the_taylor_coefficients_exactly():
    # row j of each kind, in Fractions, is [x^m] of its product for
    # m = 3n + j <= 60: weight times chain times num/den at a^m, zero
    # below the row's first n except the m = 0 term, which the ln a takes
    basis = (A2, AP2, AAP)  # the order of pqr2_row's P, Q, R
    for which, (_, weights, rows) in _CLASS_SUMS.items():
        for j, (chain, shift, first, factor, power) in enumerate(rows):
            b, mult = next((b, mult) for b in range(3) for mult in (1, 2)
                           if weights[j] == basis[b] * mult)
            for m in range(j, 61, 3):
                n = (m - j) // 3
                got = [0, 0, 0]
                if n >= first:
                    assert 3 * (n + shift) + power == m
                    num, den = factor(n) if factor else (1, 1)
                    got[b] = mult * _chain(chain, n + shift) * Fr(num, den)
                elif m == 0:
                    got[b] = mult
                assert tuple(got) == _TAYLOR[which](m), (which, j, m)
