"""Stieltjes transforms of Ai: the four routes and the first-integral
pipelines."""

import math

import pytest

from airylog.ddreal import XReal
from airylog.errors import AccuracyError, DomainError, RangeError, StabilityError
from airylog.kernel import AI0, AIP0
from airylog.mellin2 import Jn_smalla
from airylog.oracle import oracle_integral1, oracle_stieltjes
from airylog.results import TruncationConfig
from airylog.roots import RootTable, roots_upto
from airylog.stieltjes1 import (
    CLOSED_MIN,
    StieltjesContext,
    bigI1_closed,
    bigI_asym,
    bigI_recurrence,
    bigI_relations,
    bigI_smalla,
    integral1_accelerated,
    integral1_series,
)

R1 = 1.0187929716


@pytest.fixture(scope="module")
def roots():
    return roots_upto(100)


@pytest.fixture(scope="module")
def ctx(roots):
    return StieltjesContext(roots)


def test_smalla_ten_decimal_values(ctx):
    assert abs(float(ctx.I3_a0) - 0.1045955174) <= 1e-9
    assert abs(float(ctx.I4_a0) - 0.08085800094) <= 1e-9


@pytest.mark.parametrize("n, a", [(1, 12.0), (6, 15.0)])
def test_smalla_raises_past_its_range(n, a):
    # the truncation check is relative: at (6, 15) the sum is -1.6e-8
    # with err_est 5.1e-8, although every bigI_n(a) is positive
    with pytest.raises(AccuracyError) as info:
        bigI_smalla(n, a)
    best, err = info.value.best, info.value.err_est
    assert isinstance(best, XReal)
    assert err > 1e-6 * abs(float(best)) > 0.0


def test_closed_form_raises_on_cancellation(ctx, roots):
    # the closed form is linear in the seed bigI_1(a0); the seed at which
    # it vanishes at a = 8 leaves a value of about 6e-18
    a0, I2 = float(roots[1]), ctx.I2_a0
    v0, v1 = (float(bigI1_closed(8.0, a0, t, I2).value) for t in (0.0, 1.0))
    with pytest.raises(AccuracyError) as info:
        bigI1_closed(8.0, a0, -v0 / (v1 - v0), I2)
    best, err = info.value.best, info.value.err_est
    assert isinstance(best, XReal) and abs(float(best)) < 1e-15
    assert err > 0.0


def test_smalla_vs_oracle():
    for n, a in ((3, 0.5), (1, 1.0), (2, 2.0), (5, 3.0), (6, 1.0)):
        mine = float(bigI_smalla(n, a).value)
        orc = oracle_stieltjes("Ai", n, a).value
        assert abs(mine - orc) <= 1e-8 * max(1.0, abs(orc)), (n, a)


def test_relations_consistency(ctx):
    # seeding the relations with the printed ten-decimal values lands on
    # the quadrature values of bigI_1 and bigI_2
    i1, i2 = bigI_relations(R1, 0.1045955174, 0.08085800094)
    assert abs(float(i1) - oracle_stieltjes("Ai", 1, R1).value) <= 2e-9
    assert abs(float(i2) - oracle_stieltjes("Ai", 2, R1).value) <= 5e-9


def test_relations_identity_with_oracle_values():
    for a in (1.0, 2.0, 5.0):
        vals = {k: oracle_stieltjes("Ai", k, a).value for k in (1, 2, 3, 4)}
        i1, i2 = bigI_relations(a, vals[3], vals[4])
        assert abs(float(i1) - vals[1]) <= 1e-10
        assert abs(float(i2) - vals[2]) <= 1e-10


def test_closed_form_fixed_point(ctx):
    res = bigI1_closed(ctx.a0, ctx.a0, ctx.I1_a0, ctx.I2_a0)
    assert abs(float(res.value) - float(ctx.I1_a0)) < 1e-15


def test_closed_form_vs_oracle(ctx, roots):
    for a in (2.0, float(roots[2]), 5.0, 8.0, float(roots[10])):
        res = bigI1_closed(a, ctx.a0, ctx.I1_a0, ctx.I2_a0)
        orc = oracle_stieltjes("Ai", 1, a).value
        assert abs(float(res.value) - orc) <= 1e-8 * max(1.0, abs(orc)), a


def test_recurrence_examples(ctx):
    assert float(bigI_recurrence(0, 3.0, (0.0, 0.0)).value) == 1.0 / 3.0
    # seeded ascent reproduces the oracle ladder
    for a in (1.0, 2.0):
        seeds = (oracle_stieltjes("Ai", 1, a).value,
                 oracle_stieltjes("Ai", 2, a).value)
        for k in (3, 4, 5, 6):
            mine = float(bigI_recurrence(k, a, seeds).value)
            orc = oracle_stieltjes("Ai", k, a).value
            assert abs(mine - orc) <= 1e-9, (k, a)


def test_recurrence_scaling_at_large_a():
    a = 10.0
    seeds = (oracle_stieltjes("Ai", 1, a).value,
             oracle_stieltjes("Ai", 2, a).value)
    for k in (1, 2, 3, 4):
        val = (seeds[k - 1] if k <= 2
               else float(bigI_recurrence(k, a, seeds).value))
        assert abs(val * 3 * a ** k - 1.0) < 0.5, k


def test_recurrence_stability_guard():
    # even with machine-accurate seeds, ascending 25 steps at a = 12 buries
    # the (tiny) true value under amplified rounding
    seeds = (oracle_stieltjes("Ai", 1, 12.0).value,
             oracle_stieltjes("Ai", 2, 12.0).value)
    with pytest.raises(StabilityError):
        bigI_recurrence(25, 12.0, seeds)


def test_ladder_residual_with_oracle_values():
    from airylog.stieltjes1 import ladder_residual

    for k, a in ((1, 1.0), (2, 2.0)):
        vals = [oracle_stieltjes("Ai", j, a).value for j in (k, k + 1, k + 3)]
        assert abs(ladder_residual(k, a, *vals)) <= 1e-10


def test_asym_route(roots):
    for k in (1, 3):
        for a in (13.5, 20.0):
            mine = float(bigI_asym(k, a).value)
            orc = oracle_stieltjes("Ai", k, a).value
            assert abs(mine - orc) <= 1e-11 * max(1.0, abs(orc))


def test_derivative_ladder_fd(ctx):
    # d bigI_{k+1}/da = -(k+1) bigI_{k+2}, finite differences vs oracle
    h = 1e-4
    for k in (0, 1):
        for a in (1.0, 2.5):
            d = (oracle_stieltjes("Ai", k + 1, a + h).value
                 - oracle_stieltjes("Ai", k + 1, a - h).value) / (2 * h)
            ref = -(k + 1) * oracle_stieltjes("Ai", k + 2, a).value
            assert abs(d - ref) <= 1e-5


def test_eq6_residual_fd(ctx):
    h = 1e-4
    for k in (0, 1):
        for a in (1.5, 3.0):
            f = lambda x: oracle_stieltjes("Ai", k + 1, x).value
            d2 = (f(a + h) - 2 * f(a) + f(a - h)) / (h * h)
            rhs = (oracle_stieltjes("Ai", k, a).value
                   + float(AIP0) / a ** (k + 1)
                   + (k + 1) * float(AI0) / a ** (k + 2))
            assert abs(d2 + a * f(a) - rhs) <= 1e-6


def test_appendix_style_expansion_order(ctx):
    # bigI_1(a) - [1/(3a) - 1/(3^{1/3} Gamma(1/3) a^2)] = O(a^-3)
    g13 = math.gamma(1 / 3)
    def gap(a):
        lead = 1 / (3 * a) - 1 / (3 ** (1 / 3) * g13 * a * a)
        return abs(float(bigI_asym(1, a).value) - lead)

    r10, r20 = gap(10.0), gap(20.0)
    assert r10 / r20 > 6.0  # cubic decay gives ~8


def test_eq8_summand_decay_slope(ctx, roots):
    import numpy as np

    ns = range(20, 101, 8)
    xs, ys = [], []
    for n in ns:
        r = float(roots[n])
        xs.append(math.log(r))
        ys.append(math.log(abs(float(ctx.eq8_term(r)))))
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope + 2.0) <= 0.1


def test_series_pipelines(ctx, roots):
    e8 = float(integral1_series("eq8", 100, roots, ctx))
    e3 = float(integral1_series("eq3", 100, roots, ctx))
    assert abs(e8 + 0.73273890) <= 1e-6
    assert abs(e3 + 0.81399655) <= 1e-6
    single = float(integral1_series("eq3", 1, roots, ctx))
    ref = 2 / float(AIP0) * float(ctx.bigI3(float(roots[1])).value) / float(roots[1])
    assert abs(single - ref) < 1e-14


def test_accelerated_pipeline(ctx, roots):
    acc = float(integral1_accelerated(TruncationConfig(10, 3), roots, ctx))
    assert abs(acc + 0.8140073597) <= 1e-8
    oracle = oracle_integral1().value
    acc0 = float(integral1_accelerated(TruncationConfig(10, 0), roots, ctx))
    assert abs(acc - oracle) < abs(acc0 - oracle)


def test_per_term_certification(ctx, roots):
    # every per-root transform the series use agrees with quadrature
    for n in (1, 2, 3, 7, 10):
        r = float(roots[n])
        i3 = float(ctx.bigI3(r).value)
        assert abs(i3 - oracle_stieltjes("Ai", 3, r).value) <= 1e-8
        i1 = float(ctx.bigI1(r).value)
        assert abs(i1 - oracle_stieltjes("Ai", 1, r).value) <= 1e-8


def test_route_boundaries(ctx):
    assert ctx.bigI1(3.0).method == "small_a"
    assert ctx.bigI1(5.0).method == "closed_form"
    assert ctx.bigI1(14.0).method == "asymptotic"


def test_routes_stop_where_their_terms_leave_the_dd_range(ctx):
    # below these floors the small-a routes returned NaN or raised
    # ZeroDivisionError, and the closed form missed its err_est
    for n in range(1, 7):
        floor = 2.0 ** (-960.0 / max(n - 1, 1))
        for route in (bigI_smalla, Jn_smalla):
            assert math.isfinite(float(route(n, floor).value)), (route, n)
            with pytest.raises(RangeError):
                route(n, 0.99 * floor)
    assert math.isfinite(float(ctx.bigI1_closed(CLOSED_MIN).value))
    with pytest.raises(RangeError):
        ctx.bigI1_closed(0.99 * CLOSED_MIN)


def test_domain_errors(ctx, roots):
    with pytest.raises(DomainError):
        bigI_smalla(7, 1.0)
    with pytest.raises(DomainError):
        integral1_series("eq9", 5, roots, ctx)
    # an empty or negative root count summed no roots and returned 0
    for route, N in (("eq3", 0), ("eq3", -5), ("eq8", 0), ("eq8", -5)):
        with pytest.raises(DomainError):
            integral1_series(route, N, roots, ctx)
    with pytest.raises(DomainError):
        bigI1_closed(14.0, 1.0, 0.2, 0.14)
    with pytest.raises(DomainError):
        TruncationConfig(0, 3)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
def test_context_routes_reject_nonpositive_a(ctx, a):
    # 0 and -1 reached the small-a route's base values with I_{-1}, I_{-2}
    # missing and raised TypeError or ZeroDivisionError; NaN returned NaN
    for route in (ctx.bigI1, ctx.bigI3, ctx.eq8_term):
        with pytest.raises(DomainError):
            route(a)


def test_a_first_root_past_the_small_a_route_gives_no_seeds():
    # the seeds at a0 = 5 asked the closed form for bigI_3, and the closed
    # form read the seeds still being built: AttributeError
    with pytest.raises(DomainError):
        StieltjesContext(RootTable((XReal(5.0),)))


def test_the_closed_form_range_serves_only_k_1_and_3(ctx):
    # every other k on (4, 13] returned the bigI_3 ladder value
    assert ctx._bigI(3, 5.0).method == "closed_form"
    for k in (2, 4, 5, 6):
        assert ctx._bigI(k, 3.0).method == "small_a"
        assert ctx._bigI(k, 14.0).method == "asymptotic"
        with pytest.raises(DomainError):
            ctx._bigI(k, 5.0)
