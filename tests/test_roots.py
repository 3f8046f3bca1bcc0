"""Root table: seeds, Newton refinement, reference digits."""

import sys
import threading

import pytest

from airylog import roots as roots_module
from airylog.airy import airy
from airylog.ddreal import XReal
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


def test_a_non_integer_root_count_or_index_is_a_domain_error():
    # these raised a bare TypeError from the tuple index or slice
    with pytest.raises(DomainError):
        roots_upto(2.5)
    table = roots_upto(5)
    for n in (2.0, 2.5, "2"):
        with pytest.raises(DomainError):
            table[n]
    with pytest.raises(IndexError):
        table[6.0]


def _pairs(roots):
    return [(r.hi, r.lo) for r in roots]


@pytest.fixture
def refine_calls(monkeypatch):
    """An empty process table, and the seeds refine_root is called with."""
    monkeypatch.setattr(roots_module, "_ROOTS", ())
    calls = []

    def counted(seed):
        calls.append(seed)
        return refine_root(seed)

    monkeypatch.setattr(roots_module, "refine_root", counted)
    return calls


def test_shared_table_grows_to_the_roots_each_request_needs(refine_calls):
    # in an order that both grows the table and slices it: each table
    # holds exactly the roots computed one by one
    expected = [refine_root(root_seed(n)) if n <= 13 else XReal(root_seed(n))
                for n in range(1, 501)]
    for N in (14, 1, 500, 5, 13, 100):
        tab = roots_upto(N)
        assert tab.n_max == N
        assert tab.refined_upto == min(N, 13)
        assert _pairs(tab.roots) == _pairs(expected[:N]), N
    assert len(refine_calls) == 13


def test_tabled_roots_are_not_refined_again(refine_calls):
    first = roots_upto(100)
    assert len(refine_calls) == 13
    refine_calls.clear()
    assert _pairs(roots_upto(100).roots) == _pairs(first.roots)
    assert _pairs(roots_upto(50).roots) == _pairs(first.roots[:50])
    assert refine_calls == []


def test_concurrent_requests_extend_the_table_once(refine_calls):
    # more threads than cores, switching often: an extension that lost a
    # race and overwrote a longer table, or repeated one, would show here
    sizes = (500, 14, 100, 3, 250, 13, 480, 60)
    tables = {}
    threads = [threading.Thread(target=lambda N=N: tables.update({N: roots_upto(N)}))
               for N in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(refine_calls) == 13
    full = _pairs(roots_module._ROOTS)
    assert len(full) == 500
    assert {N: _pairs(tab.roots) for N, tab in tables.items()} == {
        N: full[:N] for N in sizes}
