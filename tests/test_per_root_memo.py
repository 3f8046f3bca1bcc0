"""Each process computes every per-root quantity once: the pipelines that
share a StieltjesContext or a J1Solution give the same numbers as with
every memo cleared, the expensive per-root layers run once per distinct
root, whatever the thread, and only root magnitudes are kept."""

import importlib
import sys
import threading

import pytest

from airylog import roots as roots_module
from airylog import mellin1, stieltjes1, stieltjes2, zeta
from airylog.ddreal import XReal
from airylog.errors import AccuracyError
from airylog.results import TruncationConfig
from airylog.roots import RootTable, roots_upto
from airylog.stieltjes1 import (
    CLOSED_MAX,
    SMALLA_MAX,
    StieltjesContext,
    integral1_accelerated,
    integral1_series,
)
from airylog.stieltjes2 import (
    J_CLOSED_MAX,
    J1Solution,
    integral2_accelerated,
    integral2_series,
)

#: the module; the package attribute of the same name is its function
mellin2 = importlib.import_module("airylog.mellin2")

#: (N, n) of the requests read through warm memos and after clearing them
REQUESTS = [(N, n) for N in (10, 37, 120, 500) for n in (0, 6, 10)]


@pytest.fixture(scope="module")
def roots():
    return roots_upto(120)


def _pair(x):
    return (x.hi, x.lo)


def _clear_memos(monkeypatch):
    """Start from an empty process: every exact-row cache, every per-point
    and per-root memo, and the root table, are emptied for the rest of the
    test.  The memos keep values only at the roots of a table taken after
    this."""
    for row in (mellin1.pq_row, mellin2.pqr_row, mellin2.pqr2_row):
        row.cache_clear()
    stieltjes1._closed_anchor.cache_clear()
    stieltjes1._smalla_data.cache_clear()
    mellin2._J_smalla_data.cache_clear()
    zeta.zeta_closed.cache_clear()
    monkeypatch.setattr(stieltjes1, "_VALUES", {})
    monkeypatch.setattr(stieltjes2, "_SOLUTIONS", {})
    monkeypatch.setattr(zeta, "_INVERSE_POWERS", {})
    monkeypatch.setattr(roots_module, "_ROOTS", ())


def _request(kind, N, n):
    """What ``airylog integral1`` / ``integral2`` compute, as (hi, lo)."""
    roots = roots_upto(max(N, 10))
    if kind == "integral1":
        ctx = StieltjesContext(roots)
        return (_pair(integral1_accelerated(TruncationConfig(N, n), roots, ctx)),
                _pair(integral1_series("eq3", N, roots, ctx)),
                _pair(integral1_series("eq8", N, roots, ctx)))
    sol = J1Solution.build(float(roots[1]))
    return (_pair(integral2_accelerated(TruncationConfig(N, n), roots, sol)),
            _pair(integral2_series(N, roots, sol)))


def _cleared(monkeypatch, kind):
    """Each request of REQUESTS computed alone, after clearing every memo."""
    out = {}
    for N, n in REQUESTS:
        _clear_memos(monkeypatch)
        out[N, n] = _request(kind, N, n)
    return out


def test_shared_context_matches_fresh_contexts(monkeypatch):
    # one context, read in descending N over the memos that the cleared
    # requests left, against a fresh context on cleared memos per request
    fresh = _cleared(monkeypatch, "integral1")
    roots = roots_upto(500)
    ctx = StieltjesContext(roots)
    shared = {(N, n): (
        _pair(integral1_accelerated(TruncationConfig(N, n), roots, ctx)),
        _pair(integral1_series("eq3", N, roots, ctx)),
        _pair(integral1_series("eq8", N, roots, ctx)))
        for N, n in reversed(REQUESTS)}
    assert shared == fresh


def test_shared_solution_matches_fresh_solutions(monkeypatch):
    fresh = _cleared(monkeypatch, "integral2")
    roots = roots_upto(500)
    sol = J1Solution.build(float(roots[1]))
    shared = {(N, n): (
        _pair(integral2_accelerated(TruncationConfig(N, n), roots, sol)),
        _pair(integral2_series(N, roots, sol)))
        for N, n in reversed(REQUESTS)}
    assert shared == fresh


def _count(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_each_root_is_computed_once_per_request(monkeypatch, roots):
    N, n = 20, 6
    mags = [float(roots[k]) for k in range(1, N + 1)]
    _clear_memos(monkeypatch)
    counts = {}
    for name in ("_H_plus", "xi_lambda_derivs"):
        _count(monkeypatch, stieltjes1, name, counts)
    _count(monkeypatch, stieltjes2, "_masters", counts)
    _count(monkeypatch, mellin2, "xi2_derivs", counts)

    def request():
        table = roots_upto(N)
        ctx = StieltjesContext(table)
        integral1_accelerated(TruncationConfig(N, n), table, ctx)
        integral1_series("eq3", N, table, ctx)
        integral1_series("eq8", N, table, ctx)
        sol = J1Solution.build(float(table[1]))
        integral2_accelerated(TruncationConfig(N, n), table, sol)
        integral2_series(N, table, sol)
        return sol

    sol = request()
    closed = sum(SMALLA_MAX < a <= CLOSED_MAX for a in mags)
    small = sum(a <= SMALLA_MAX for a in mags)  # a0 is the first root
    assert (closed, small) == (8, 2)
    assert counts == {"_H_plus": closed + 1, "xi_lambda_derivs": small,
                      "_masters": sum(a <= J_CLOSED_MAX for a in mags) + 1}

    # the three small-a seeds at a0 share one squared ladder
    counts.clear()
    J1Solution.build(float(roots[1]), seed_source="small_a")
    assert counts == {"_masters": 1, "xi2_derivs": 1}

    # every per-root value, the anchor at a0, the small-a expansions, the
    # solutions and the zeta powers are kept per process: a second request
    # computes none of them, not even a moment series or a root power
    for module, name in ((stieltjes1, "alternating_series"),
                         (stieltjes2, "alternating_series"),
                         (stieltjes1, "dd_powi"), (stieltjes2, "dd_powi"),
                         (zeta, "dd_powi")):
        _count(monkeypatch, module, name, counts)
    counts.clear()
    assert request() is sol
    J1Solution.build(float(roots[1]), seed_source="small_a")
    assert counts == {}


def test_a_small_a_build_computes_each_product_row_once(monkeypatch, roots):
    # the three small-a seeds at a0 read calI_m for m <= 34, each from
    # its exact p/q/r row; rows used to be cached by ladder length, so a
    # first build rebuilt the ladder for every new length
    _clear_memos(monkeypatch)
    J1Solution.build(float(roots[1]), seed_source="small_a")
    info = mellin2.pqr_row.cache_info()
    assert info.misses == info.currsize == 35
    for n in range(35):
        mellin2.pqr_row(n)
    assert mellin2.pqr_row.cache_info().misses == 35


def test_values_off_the_roots_are_not_kept(monkeypatch, roots):
    # a sweep over points that are not root magnitudes leaves every
    # process memo as it was, and reads the same values again
    _clear_memos(monkeypatch)
    table = roots_upto(12)
    ctx = StieltjesContext(table)
    sol = J1Solution.build(float(table[1]))
    kept = (dict(stieltjes1._VALUES), dict(stieltjes2._SOLUTIONS),
            dict(sol._summands))
    points = [float(table[n]) * 1.001 for n in range(1, 13)] + [20.5]
    first = [(_pair(ctx.bigI1(a).value), _pair(ctx.bigI3(a).value),
              _pair(ctx.eq8_term(a)), _pair(sol.summand(a))) for a in points]
    assert (J1Solution.build(1.5, seed_source="small_a")
            is not J1Solution.build(1.5, seed_source="small_a"))
    assert (stieltjes1._VALUES, stieltjes2._SOLUTIONS, sol._summands) == kept
    assert [(_pair(ctx.bigI1(a).value), _pair(ctx.bigI3(a).value),
             _pair(ctx.eq8_term(a)), _pair(sol.summand(a)))
            for a in points] == first


def test_a_hand_built_table_leaves_the_zeta_memo_alone(monkeypatch):
    # RootTable is public: a table of other numbers gets its own sums, and
    # a later sum over the process table still reads the true roots
    _clear_memos(monkeypatch)
    alone = _pair(zeta.zeta_incomplete(4, 20, roots_upto(20)))
    _clear_memos(monkeypatch)
    scaled = RootTable(tuple(XReal(1.01 * float(r))
                             for r in roots_upto(20).roots))
    assert zeta.zeta_incomplete(4, 20, scaled) < 0.91
    assert _pair(zeta.zeta_incomplete(4, 20, roots_upto(20))) == alone
    assert alone[0] == pytest.approx(0.94074, abs=1e-5)


def test_a_route_that_raises_keeps_no_value(monkeypatch):
    # an AccuracyError from the route at a root past CLOSED_MAX reaches
    # the caller and leaves no _VALUES entry: the next read routes again
    asym = stieltjes1.bigI_asym
    calls = []

    def failing_asym(k, a):
        calls.append((k, a))
        raise AccuracyError(f"test failure at a={a}", best=XReal(0.0),
                            err_est=1.0)

    _clear_memos(monkeypatch)
    monkeypatch.setattr(stieltjes1, "bigI_asym", failing_asym)
    roots = roots_upto(11)
    a = float(roots[11])
    assert a > CLOSED_MAX
    ctx = StieltjesContext(roots)
    for _ in range(2):
        with pytest.raises(AccuracyError):
            ctx.bigI3(a)
    assert calls == [(3, a)] * 2
    assert (ctx.a0, 3, a) not in stieltjes1._VALUES
    monkeypatch.setattr(stieltjes1, "bigI_asym", asym)
    kept = ctx.bigI3(a)
    assert stieltjes1._VALUES[ctx.a0, 3, a] is kept


def test_small_a_seeds_evaluate_each_product_transform_once(monkeypatch):
    # J_1, J_2, J_3 at a0 share one Ai2Base, whose calI_n, i_n and i'_n are
    # each evaluated once; a repeat build in the process evaluates none
    _clear_memos(monkeypatch)
    a0 = float(roots_upto(1)[1])
    compute = mellin2.Ai2Base._compute
    calls = []

    def counted(self, kind, n):
        calls.append((kind, n))
        return compute(self, kind, n)

    monkeypatch.setattr(mellin2.Ai2Base, "_compute", counted)
    J1Solution.build(a0, seed_source="small_a")
    assert len(calls) == len(set(calls))
    indices = {kind: sorted(n for k, n in calls if k == kind)
               for kind in ("calI", "i", "iprime")}
    assert indices == {"calI": list(range(-3, 35)), "i": list(range(-3, 33)),
                       "iprime": list(range(-3, 33))}
    calls.clear()
    J1Solution.build(a0, seed_source="small_a")
    assert calls == []


@pytest.mark.parametrize("first", ("oracle", "small_a"))
def test_seed_sources_keep_separate_summands(monkeypatch, first):
    def summands(source):
        roots = roots_upto(12)
        sol = J1Solution.build(float(roots[1]), seed_source=source)
        return [_pair(sol.summand(float(roots[k]))) for k in range(1, 13)]

    alone = {}
    for source in ("oracle", "small_a"):
        _clear_memos(monkeypatch)
        alone[source] = summands(source)
    assert alone["oracle"] != alone["small_a"]
    _clear_memos(monkeypatch)
    second = "small_a" if first == "oracle" else "oracle"
    assert {first: summands(first), second: summands(second)} == alone


def test_threads_share_the_memos(monkeypatch):
    reqs = [(kind, N, n) for N, n in ((10, 3), (37, 6), (120, 10), (500, 8))
            for kind in ("integral1", "integral2")]
    _clear_memos(monkeypatch)
    serial = {req: _request(*req) for req in reqs}
    _clear_memos(monkeypatch)
    results = [{} for _ in range(4)]
    start = threading.Barrier(4, timeout=60)

    def work(i):
        # two threads take the requests in order and two in reverse, so
        # small and large tables extend the same memo entries at once
        start.wait()
        for req in (reqs if i % 2 else reqs[::-1]):
            results[i][req] = _request(*req)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4
    # the memos the threads left behind give the serial values too
    assert {req: _request(*req) for req in reqs} == serial
