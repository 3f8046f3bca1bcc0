"""Root table: seeds, Newton refinement, reference digits."""

import pytest

from airylog.airy import airy
from airylog.errors import DomainError
from airylog.roots import T6_STANDARD, refine_root, root_seed, roots_upto

TABLE1 = [
    1.0187929716, 3.2481975822, 4.8200992112, 6.1633073556, 7.3721772550,
    8.4884867340, 9.5354490524, 10.5276603970, 11.4750566335, 12.3847883718,
]


@pytest.fixture(scope="module")
def table():
    return roots_upto(100)


def test_table1_rows(table):
    for n, ref in enumerate(TABLE1, start=1):
        assert abs(float(table[n]) - ref) <= 1e-9


def test_seed_examples():
    assert abs(root_seed(10) - 12.3847883718) <= 1e-6
    assert abs(root_seed(2) - 3.2481975822) <= 5e-3


def test_seed_monotone():
    vals = [root_seed(n) for n in range(1, 201)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_seed_variants_agree_for_large_n():
    for n in (15, 50, 200):
        assert abs(root_seed(n) - root_seed(n, T6_STANDARD)) < 1e-11


def test_refine_fixed_point(table):
    r = float(table[3])
    again = float(refine_root(r))
    assert abs(again - r) < 1e-13


def test_roots_upto_single():
    tab = roots_upto(1)
    assert tab.n_max == 1
    assert abs(float(tab[1]) - refine_root(root_seed(1))) < 1e-14


def test_newton_residual_invariant(table):
    for n in range(1, table.refined_upto + 1):
        r = float(table[n])
        st = airy(-r)
        assert abs(float(st.aip)) <= 1e-12 * max(1.0, abs(r * float(st.ai)))


def test_cube_sum_limit(table):
    s = sum(float(r) ** -3 for r in table.roots)
    assert 0.0 < 1.0 - s < 2e-3


def test_seed_vs_refined_discrepancy_decreases(table):
    gaps = [abs(root_seed(n) - float(table[n]))
            for n in range(3, table.refined_upto + 1)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_gap_spacing_sanity(table):
    # successive gaps shrink toward the asymptotic spacing
    mags = [float(r) for r in table.roots]
    gaps = [b - a for a, b in zip(mags, mags[1:])]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_domain_errors():
    with pytest.raises(DomainError):
        root_seed(0)
    with pytest.raises(DomainError):
        roots_upto(0)
    with pytest.raises(DomainError):
        roots_upto(501)
