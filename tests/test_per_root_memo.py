"""Each request computes every per-root quantity once: the pipelines that
share a StieltjesContext or a J1Solution give the same numbers as on a
fresh one, the expensive per-root layers run once per distinct root, and
a route's AccuracyWarning still reaches the caller."""

import importlib
import warnings

import pytest

from airylog import stieltjes1, stieltjes2
from airylog.errors import AccuracyWarning
from airylog.results import TruncationConfig
from airylog.roots import roots_upto
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

NS = (10, 37, 120)
TERMS = (0, 6)


@pytest.fixture(scope="module")
def roots():
    return roots_upto(max(NS))


def _pair(x):
    return (x.hi, x.lo)


def test_shared_context_matches_fresh_contexts(roots):
    for N in NS:
        ctx = StieltjesContext(roots)
        shared = [_pair(integral1_accelerated(TruncationConfig(N, n), roots, ctx))
                  for n in TERMS]
        shared += [_pair(integral1_series(r, N, roots, ctx)) for r in ("eq3", "eq8")]
        fresh = [_pair(integral1_accelerated(TruncationConfig(N, n), roots,
                                             StieltjesContext(roots)))
                 for n in TERMS]
        fresh += [_pair(integral1_series(r, N, roots, StieltjesContext(roots)))
                  for r in ("eq3", "eq8")]
        assert shared == fresh, N


def test_shared_solution_matches_fresh_solutions(roots):
    a0 = float(roots[1])
    for N in NS:
        sol = J1Solution.build(a0)
        shared = [_pair(integral2_accelerated(TruncationConfig(N, n), roots, sol))
                  for n in TERMS]
        shared.append(_pair(integral2_series(N, roots, sol)))
        fresh = [_pair(integral2_accelerated(TruncationConfig(N, n), roots,
                                             J1Solution.build(a0)))
                 for n in TERMS]
        fresh.append(_pair(integral2_series(N, roots, J1Solution.build(a0))))
        assert shared == fresh, N


def _count(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_each_root_is_computed_once_per_request(monkeypatch, roots):
    N, n = 20, 6
    mags = [float(roots[k]) for k in range(1, N + 1)]
    stieltjes1._closed_anchor.cache_clear()
    stieltjes1._smalla_data.cache_clear()
    mellin2._J_smalla_data.cache_clear()
    counts = {}
    for name in ("_H_plus", "xi_lambda_derivs"):
        _count(monkeypatch, stieltjes1, name, counts)
    _count(monkeypatch, stieltjes2, "_masters", counts)
    _count(monkeypatch, mellin2, "xi2_derivs", counts)

    def request(ctx):
        integral1_accelerated(TruncationConfig(N, n), roots, ctx)
        integral1_series("eq3", N, roots, ctx)
        integral1_series("eq8", N, roots, ctx)

    request(StieltjesContext(roots))
    closed = sum(SMALLA_MAX < a <= CLOSED_MAX for a in mags)
    small = sum(a <= SMALLA_MAX for a in mags)  # a0 is the first root
    assert (closed, small) == (8, 2)
    assert counts == {"_H_plus": closed + 1, "xi_lambda_derivs": small}

    # the anchor at a0 and the small-a expansions are kept per process
    counts.clear()
    request(StieltjesContext(roots))
    assert counts == {"_H_plus": closed}

    counts.clear()
    sol = J1Solution.build(float(roots[1]))
    integral2_accelerated(TruncationConfig(N, n), roots, sol)
    integral2_series(N, roots, sol)
    assert counts == {"_masters": sum(a <= J_CLOSED_MAX for a in mags) + 1}

    # the three small-a seeds at a0 share one squared ladder
    counts.clear()
    J1Solution.build(float(roots[1]), seed_source="small_a")
    assert counts == {"_masters": 1, "xi2_derivs": 1}


def test_route_warning_reaches_the_caller_once_per_context(monkeypatch, roots):
    asym = stieltjes1.bigI_asym

    def warning_asym(k, a):
        warnings.warn(f"test warning at a={a}", AccuracyWarning)
        return asym(k, a)

    monkeypatch.setattr(stieltjes1, "bigI_asym", warning_asym)
    ctx = StieltjesContext(roots)
    with pytest.warns(AccuracyWarning):
        first = integral1_series("eq3", 12, roots, ctx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = integral1_series("eq3", 12, roots, ctx)
    assert _pair(again) == _pair(first)
    with pytest.warns(AccuracyWarning):
        integral1_series("eq3", 12, roots, StieltjesContext(roots))


def test_small_a_seeds_evaluate_each_product_transform_once(monkeypatch, roots):
    # J_1, J_2, J_3 at a0 share one Ai2Base, whose calI_n, i_n and i'_n are
    # each evaluated once; a repeat build in the process evaluates none
    mellin2._J_smalla_data.cache_clear()
    compute = mellin2.Ai2Base._compute
    calls = []

    def counted(self, kind, n):
        calls.append((kind, n))
        return compute(self, kind, n)

    monkeypatch.setattr(mellin2.Ai2Base, "_compute", counted)
    J1Solution.build(float(roots[1]), seed_source="small_a")
    assert len(calls) == len(set(calls))
    indices = {kind: sorted(n for k, n in calls if k == kind)
               for kind in ("calI", "i", "iprime")}
    assert indices == {"calI": list(range(-3, 35)), "i": list(range(-3, 33)),
                       "iprime": list(range(-3, 33))}
    calls.clear()
    J1Solution.build(float(roots[1]), seed_source="small_a")
    assert calls == []
