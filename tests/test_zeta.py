"""Root-power sums: closed forms, incomplete sums, tail control."""

from fractions import Fraction as Fr

import pytest

from airylog.errors import DomainError
from airylog.kernel import ETA, compensated_sum
from airylog.roots import root_seed, roots_upto
from airylog.zeta import zeta_closed, zeta_eta_poly, zeta_incomplete, zeta_tail


@pytest.fixture(scope="module")
def roots():
    return roots_upto(100)


def test_z3_is_one():
    assert abs(float(zeta_closed(3)) - 1.0) <= 1e-13


def test_z2_is_minus_eta():
    assert abs(float(zeta_closed(2)) + float(ETA)) < 1e-15
    assert float(zeta_closed(2)) > 0


def test_table5_exact_polynomials():
    assert zeta_eta_poly(2) == [Fr(0), Fr(-1)]
    assert zeta_eta_poly(3) == [Fr(1)]
    assert zeta_eta_poly(4) == [Fr(0), Fr(0), Fr(1, 2)]
    assert zeta_eta_poly(5) == [Fr(0), Fr(-2, 3)]
    assert zeta_eta_poly(6) == [Fr(1, 4), Fr(0), Fr(0), Fr(-1, 4)]
    assert zeta_eta_poly(7) == [Fr(0), Fr(0), Fr(7, 15)]
    assert zeta_eta_poly(8) == [Fr(0), Fr(-11, 36), Fr(0), Fr(0), Fr(1, 8)]


def test_closed_vs_direct_sums(roots):
    # closed forms against direct root sums plus a seed tail with an
    # integral remainder beyond the summed range
    import math

    for k in (4, 6, 9, 14, 20):
        direct = float(zeta_incomplete(k, 100, roots))
        closed = float(zeta_closed(k))
        tail = sum(root_seed(n) ** -k for n in range(101, 2000))
        c = (0.375 * math.pi) ** (2.0 / 3.0)
        remainder = c ** -k * (4 * 2000 - 3) ** (1 - 2 * k / 3) / (4 * (2 * k / 3 - 1))
        assert direct <= closed <= direct + tail + 1.05 * remainder + 1e-12


def test_incomplete_trivials(roots):
    assert float(zeta_incomplete(5, 0, roots)) == 0.0
    one = float(zeta_incomplete(3, 1, roots))
    # tolerance covers the ten-digit rounding of the tabulated root
    assert abs(one - 1.0187929716 ** -3) < 5e-10


def test_incomplete_monotone(roots):
    prev = 0.0
    for N in (1, 5, 20, 60, 100):
        cur = float(zeta_incomplete(3, N, roots))
        assert cur > prev
        prev = cur
    assert abs(prev - 1.0) < 2e-3


def test_tail_estimate_k4(roots):
    gap = float(zeta_closed(4)) - float(zeta_incomplete(4, 10, roots))
    bound = sum(root_seed(n) ** -4 for n in range(11, 5000))
    assert 0 < gap <= bound * 1.001


def test_domain_errors(roots):
    with pytest.raises(DomainError):
        zeta_closed(1)
    with pytest.raises(DomainError):
        zeta_incomplete(1, 5, roots)
    with pytest.raises(DomainError):
        zeta_incomplete(3, 101, roots)


def test_non_integer_orders_are_domain_errors(roots):
    # N = 3.5 raised a bare TypeError from the slice; k = 4.0 read the
    # memoised powers of k = 4, or raised one from dd_powi
    zeta_incomplete(4, 3, roots)
    for k, N in ((4, 3.5), (4.0, 3), (4.5, 3)):
        with pytest.raises(DomainError):
            zeta_incomplete(k, N, roots)


def test_zeta_tail_is_the_compensated_sum_of_the_gaps(roots):
    coeffs = [1.5, -0.25, 3.0]
    gaps = [c * (zeta_closed(4 + k) - zeta_incomplete(4 + k, 37, roots))
            for k, c in enumerate(coeffs)]
    got = zeta_tail(coeffs, 4, 37, roots)
    assert (got.hi, got.lo) == (compensated_sum(gaps).hi, compensated_sum(gaps).lo)
    with pytest.raises(DomainError):
        zeta_tail(coeffs, 4, roots.n_max + 1, roots)
