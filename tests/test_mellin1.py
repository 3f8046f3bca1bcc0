"""Mellin transforms of Ai/Ai': ladders, generating functions, routes."""

import math
from fractions import Fraction

import numpy.polynomial.polynomial as npp
import pytest

from airylog.airy import airy
from airylog.errors import DomainError
from airylog.kernel import AI0, AIP0, compensated_sum, poly_eval_dd
from airylog.mellin1 import (
    FAMILY,
    MELLIN,
    BaseValues,
    I_hyp,
    amatrix_row,
    mellin_closed,
    mellin_family,
    mellin_prime,
    pq_row,
    reduce_family,
    reduce_In,
    reduce_Iprime,
    xi_lambda_derivs,
)
from airylog.oracle import oracle_mellin
from airylog.stieltjes1 import _ai_moments


def test_table2_rows():
    assert pq_row(1).P == (0,) and pq_row(1).Q == (1,)
    assert pq_row(2).P == (0, 1) and pq_row(2).Q == (0,)
    assert pq_row(6).P == (4, 0, 0, 1) and pq_row(6).Q == (0, 6)
    assert pq_row(7).Q == (10, 0, 0, 1)
    assert pq_row(8).P == (0, 28, 0, 0, 1) and pq_row(8).Q == (0, 0, 12)
    assert pq_row(10).P == (0, 0, 100, 0, 0, 1)
    assert pq_row(10).Q == (80, 0, 0, 20)


def test_three_term_recurrences():
    for k in range(1, 21):
        for field in ("P", "Q"):
            nxt = npp.Polynomial(getattr(pq_row(k + 2), field))
            ref = (npp.Polynomial((0,) + tuple(getattr(pq_row(k), field)))
                   + k * npp.Polynomial(getattr(pq_row(k - 1), field)))
            assert (nxt - ref).coef.tolist() == [0.0]


def test_derivative_identity_via_translation():
    # d^k Ai/dz^k = P_k Ai + Q_k Ai' checked through the t-Taylor series
    # of Ai(z + t) with exact ladder coefficients
    for z in (0.5, 1.0, 2.0):
        st = airy(z)
        for t in (-0.4, 0.3):
            total = compensated_sum([
                (t ** k / math.factorial(k))
                * (_polyval(pq_row(k).P, z) * float(st.ai)
                   + _polyval(pq_row(k).Q, z) * float(st.aip))
                for k in range(40)
            ])
            assert abs(float(total) - float(airy(z + t).ai)) < 1e-10


def _polyval(c, x):
    out = 0.0
    for coeff in reversed(c):
        out = out * x + coeff
    return out


#: xi(t, z) = pi[Bi'(z)Ai(z+t) - Ai'(z)Bi(z+t)] and lambda(t, z) =
#: pi[Ai(z)Bi(z+t) - Bi(z)Ai(z+t)] at (t, z) = (-0.5, 1), from mpmath 1.3.0
#: airyai and airybi at mp.dps = 60
XI_REF = "1.10582631915274974150332532353"
LAMBDA_REF = "-0.515771356871524953189330309063"


def test_genfunc_partial_sums():
    # the ladder's t-Taylor sums of the generating functions, 2.0e-16 and
    # 8.7e-17 off the references
    t, z = -0.5, 1.0
    xi_sum = sum(t ** k / math.factorial(k) * _polyval(pq_row(k).P, z)
                 for k in range(26))
    lam_sum = sum(t ** k / math.factorial(k) * _polyval(pq_row(k).Q, z)
                  for k in range(26))
    assert abs(xi_sum - float(XI_REF)) < 1e-10
    assert abs(lam_sum - float(LAMBDA_REF)) < 1e-10


def test_xi_lambda_derivs_low_orders():
    a = 1.3
    xs, ls = xi_lambda_derivs(a)
    st = airy(-a)
    jm = math.sqrt(3) * float(st.ai) - float(st.bi)
    jp = math.sqrt(3) * float(st.ai) + float(st.bi)
    jmp = math.sqrt(3) * float(st.aip) - float(st.bip)
    jpp = math.sqrt(3) * float(st.aip) + float(st.bip)
    pi, a0, ap0 = math.pi, float(AI0), float(AIP0)
    assert abs(float(xs[0]) + pi * ap0 * jp) < 1e-14
    assert abs(float(xs[1]) + pi * ap0 * jpp) < 1e-14
    assert abs(float(xs[2]) - (pi * a0 * jm + a * pi * ap0 * jp)) < 1e-14
    assert abs(float(ls[0]) + pi * a0 * jm) < 1e-14
    assert abs(float(ls[1]) - (-pi * a0 * jmp + pi * ap0 * jp)) < 1e-14
    assert abs(float(ls[3]) - (-pi * a0 * (2 * jm - a * jmp)
                               - 3 * a * pi * ap0 * jp)) < 1e-13


def test_amatrix_rows_and_first_column():
    rows = [amatrix_row(k) for k in range(13)]
    printed = [
        (0, 1), (3,), (0, 0, 1), (0, 3), (6, 0, 0, 1), (0, 0, 5),
        (0, 16, 0, 0, 1), (30, 0, 0, 9), (0, 0, 40, 0, 0, 1),
        (0, 132, 0, 0, 15), (240, 0, 0, 100, 0, 0, 1), (0, 0, 440, 0, 0, 23),
        (0, 1480, 0, 0, 230, 0, 0, 1),
    ]
    for row, ref in zip(rows, printed):
        trimmed = tuple(row[: len(ref)])
        assert trimmed == ref and all(c == 0 for c in row[len(ref):])
    for k in range(4):
        expect = 3 ** (k + 1) * math.gamma(k + 2 / 3) / math.gamma(2 / 3)
        assert abs(rows[3 * k + 1][0] - expect) < 1e-9


def _cde(n):
    """(c_n, d_n, e_n) of I_n = c_n Ai + d_n Ai' + e_n I_0 as Table 6
    prints them (coefficient tuples, low power first, (0,) for none), read
    from :func:`reduce_In`."""
    red = reduce_In(n)
    assert red.beta == red.gamma == 0
    return red.u or (0,), red.v or (0,), red.alpha


def test_cde_table6():
    assert _cde(1) == ((0,), (-1,), 0)
    assert _cde(3) == ((0, 2), (0, 0, -1), 2)
    assert _cde(4)[:2] == ((0, 0, 3), (-6, 0, 0, -1))
    assert _cde(5)[:2] == ((12, 0, 0, 4), (0, -12, 0, 0, -1))
    # table row 6 prints c_6 = 40 + 5a^4; the recurrence (and the explicit
    # I_6 list, which shows +(40a + 5a^4)Ai) give 40a + 5a^4
    c6, _, e6 = _cde(6)
    assert c6 == (0, 40, 0, 0, 5) and e6 == 40


def test_e_formula_matches_recurrence():
    for k in range(1, 9):
        expect = math.factorial(3 * k) // (3 ** k * math.factorial(k))
        assert reduce_In(3 * k).alpha == expect


def test_mellin_closed_examples():
    for a in (0.7, 2.0):
        st = airy(a)
        assert abs(float(mellin_closed(1, a).value) + float(st.aip)) < 1e-15
    # I_0(a -> 0+) -> 1/3
    assert abs(float(mellin_closed(0, 1e-8).value) - 1.0 / 3.0) < 1e-7
    # I_{-3}(1) = (1/2)[I_0 + Ai'/1 + Ai/1]
    st = airy(1.0)
    ref = 0.5 * (float(I_hyp(0, 1.0, 1e-30)) + float(st.aip) + float(st.ai))
    assert abs(float(mellin_closed(-3, 1.0).value) - ref) < 1e-14


def test_mellin_vs_oracle_grid():
    for a in (0.5, 1.0, 2.0, 5.0):
        for n in range(-9, 13):
            mine = float(mellin_closed(n, a).value)
            orc = oracle_mellin("Ai", n, a)
            assert abs(mine - orc.value) <= 1e-10 * max(1.0, abs(mine)), (n, a)


def test_family_route_agrees():
    # one exact reduction, one evaluation: the routes agree to the bit
    for a in (0.5, 1.0187929716, 2.0, 5.0):
        for n in range(0, 13):
            rec = mellin_closed(n, a).value.pair
            assert mellin_family(n, a).value.pair == rec, (n, a)


def test_family_reduction_is_the_recurrence_reduction():
    # the 3k-family formulas, their Gamma ratios taken as exact Pochhammer
    # products, build the recurrence's reduction coefficient for coefficient
    for n in range(FAMILY.k_lo, FAMILY.k_hi + 1):
        assert reduce_family(n) == reduce_In(n), n


#: the points the exact reduction rows are checked at: small a, the first
#: root |a_1'|, and up to just inside the Mellin ladders' a <= 13
ROW_POINTS = (0.05, 0.2, 0.5, 1.018792971647471, 2.0, 3.75, 4.5, 8.0, 12.75)


def test_reduction_rows_evaluate_within_1e30_of_exact_arithmetic():
    # every row's u and v, evaluated in double-double at the a (m >= 0) or
    # 1/a (m < 0) that BaseValues holds, against exact rational arithmetic
    # at the binary64 a, relative to the sum of the terms' magnitudes
    # (measured: 3.0e-31 at worst)
    for a in ROW_POINTS:
        base = BaseValues(a, 1e-18)
        for m in range(MELLIN.k_lo, MELLIN.k_hi + 1):
            x_pair = base.a_pair if m >= 0 else base.inv_a
            x = Fraction(a) if m >= 0 else 1 / Fraction(a)
            for red in (reduce_In(m), reduce_Iprime(m)):
                for poly in (red.u, red.v):
                    exact = 0
                    for c in reversed(poly):
                        exact = exact * x + c
                    size = sum(abs(float(c)) * float(x) ** p
                               for p, c in enumerate(poly))
                    hi, lo = poly_eval_dd(poly, x_pair)
                    err = abs(Fraction(hi) + Fraction(lo) - exact)
                    assert err <= 1e-30 * size, (m, a, float(err) / size)


def test_family_route_rejects_negative_n():
    # the 3k families cover n >= 0 only; a negative n is not handed to
    # the recurrence under the family's name
    with pytest.raises(DomainError):
        mellin_family(-1, 1.0)


@pytest.mark.parametrize("m", [81, -61, 2.0])
def test_reduce_iprime_refuses_orders_outside_mellin(m):
    # 81 and -61 returned rows through reduce_In(80) and reduce_In(-59),
    # and 2.0 raised under reduce_In's name
    with pytest.raises(DomainError, match="reduce_Iprime"):
        reduce_Iprime(m)


#: (I_n or I'_n, n, a) -> the transform to 32 digits: mpmath 1.3.0
#: quadrature at 55 digits, which a 40-digit run matches to 1e-38 relative
MELLIN_REFS = {
    ("I", -3, 4.0): "5.2502251802308776103326398178362e-6",
    ("I", 0, 4.0): "4.4068794721120636315385676118167e-4",
    ("I", 3, 4.0): "3.9832141907327690117489967968109e-2",
    ("I", -3, 8.0): "2.8007987656689658404010865382094e-11",
    ("I", 0, 8.0): "1.6090849759132706553939774063744e-8",
    ("I", 3, 8.0): "9.3681464246975765486751163514506e-6",
    ("I'", 1, 4.0): "-4.2469433520304138576398566367822e-3",
    ("I'", 1, 8.0): "-3.914674590470712366058663103428e-7",
}


def test_mellin_error_within_err_est_against_32_digits():
    # a = 8 is the top of the range where the measured error stays well
    # inside err_est for the transforms that carry I_0, I_-1 or I_-2
    for (kind, n, a), ref in MELLIN_REFS.items():
        r = mellin_closed(n, a) if kind == "I" else mellin_prime(n, a)
        err = abs(Fraction(r.value.hi) + Fraction(r.value.lo) - Fraction(ref))
        assert err <= r.err_est, (kind, n, a, float(err), r.err_est)

def test_mellin_prime_examples():
    a = 1.3
    st = airy(a)
    assert abs(float(mellin_prime(0, a).value) + float(st.ai)) < 1e-15
    ref = -float(I_hyp(0, a, 1e-30)) - a * float(st.ai)
    assert abs(float(mellin_prime(1, a).value) - ref) < 1e-14


def test_I4_prime_adjudication():
    # printed list shows -8I_0 - (8a+a^4)Ai + 4a^4 Ai'; the relation gives
    # 4a^2 Ai', and quadrature sides with a^2 (a != 1 so the two differ)
    a = 2.0
    st = airy(a)
    i0 = float(I_hyp(0, a, 1e-30))
    with_a2 = -8 * i0 - (8 * a + a ** 4) * float(st.ai) + 4 * a ** 2 * float(st.aip)
    with_a4 = -8 * i0 - (8 * a + a ** 4) * float(st.ai) + 4 * a ** 4 * float(st.aip)
    orc = oracle_mellin("AiP", 4, a).value
    mine = float(mellin_prime(4, a).value)
    assert abs(mine - orc) <= 1e-10
    assert abs(with_a2 - orc) <= 1e-10
    assert abs(with_a4 - orc) > 1e-3  # the printed coefficient fails


def test_third_order_ladder_residual():
    for n in (3, 5, 8, 12):
        for a in (0.5, 1.0, 2.0, 5.0):
            st = airy(a)
            In = float(mellin_closed(n, a).value)
            In3 = float(mellin_closed(n - 3, a).value)
            res = (In - (n - 1) * (n - 2) * In3
                   + a ** (n - 1) * float(st.aip)
                   - (n - 1) * a ** (n - 2) * float(st.ai))
            assert abs(res) <= 1e-9 * max(1.0, abs(In))


def test_differentiation_consistency():
    h = 1e-5
    for n in (0, 2, 4):
        for a in (1.0, 2.5):
            d = (float(mellin_closed(n, a + h).value)
                 - float(mellin_closed(n, a - h).value)) / (2 * h)
            assert abs(d + a ** n * float(airy(a).ai)) <= 1e-6


def test_moments_match_oracle_and_macdonald_form():
    for m, mine in enumerate(_ai_moments()[:7]):
        orc = oracle_mellin("Ai", m, 0.0).value
        assert abs(mine - orc) <= 1e-11 * max(1.0, abs(mine))
        gamma_form = (math.gamma(m + 1)
                      / (3 ** ((m + 2) / 3) * math.gamma((m + 2) / 3))) / 3 ** (1 / 3)
        assert abs(mine - math.gamma(m + 1)
                   / (3 ** ((m + 3) / 3) * math.gamma((m + 3) / 3))) < 1e-13 * max(1.0, mine)


def test_base_values_closed_forms_vs_oracle():
    for a in (0.5, 1.0, 3.0, 8.0):
        assert abs(float(I_hyp(0, a, 1e-30)) - oracle_mellin("Ai", 0, a).value) < 2e-13
        assert abs(float(I_hyp(-1, a, 1e-28)) - oracle_mellin("Ai", -1, a).value) < 2e-13
        assert abs(float(I_hyp(-2, a, 1e-28)) - oracle_mellin("Ai", -2, a).value) < 2e-13


def test_domain_errors():
    with pytest.raises(DomainError):
        mellin_closed(3, 0.0)
    with pytest.raises(DomainError):
        mellin_closed(100, 1.0)
    with pytest.raises(DomainError):
        I_hyp(-1, -1.0, 1e-28)
