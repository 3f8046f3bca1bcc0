"""Layer micro entries: fixed operands, timed in a warm process.

Each entry is timed ``REPEAT`` times over a batch of calls sized so a batch
takes a few tens of milliseconds; the entry's value is the median per-call
time of the batches.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REPEAT = 5
#: one batch should take about this long
BATCH_S = 0.02


def _per_call(fn):
    """Per-call seconds of REPEAT batches of ``fn()``."""
    t0 = perf_counter()
    fn()
    once = max(perf_counter() - t0, 1e-7)
    number = max(1, int(BATCH_S / once))
    out = []
    for _ in range(REPEAT):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        out.append((perf_counter() - t0) / number)
    return out


def pfq_series(a: float):
    """The first master series of the second integral's closed form,
    4F4-like (1,1,7/6; 4/3,5/3,2,2) at z = -4a^3/9, as ``_masters`` sums it."""
    from airylog import HypSeries, XReal

    return HypSeries((Fraction(1), Fraction(1), Fraction(7, 6)),
                     (Fraction(4, 3), Fraction(5, 3), Fraction(2), Fraction(2)),
                     XReal(-4.0 * a ** 3 / 9.0))


def pfq_terms(series, tol: float) -> int:
    """The smallest ``max_terms`` for which the series does not raise
    ``ConvergenceError``."""
    from airylog import ConvergenceError, hyp_pfq

    lo, hi = 1, 10000
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            hyp_pfq(series, tol=tol, max_terms=mid)
            hi = mid
        except ConvergenceError:
            lo = mid + 1
    return lo


def run() -> dict:
    """Every micro entry: name -> list of samples in the entry's unit."""
    import airylog as al
    from airylog import ddreal

    x, y = (1.2345678901234567, 1.1e-17), (0.987654321, -3.3e-18)
    xa, xb = al.XReal(*x), al.XReal(*y)
    r100 = al.roots_upto(100)
    a0 = float(r100[1])
    ctx = al.StieltjesContext(r100)
    sol = al.J1Solution.build(a0)
    ns, us, ms = 1e9, 1e6, 1e3
    out = {}

    def entry(name, fn, scale):
        out[name] = [t * scale for t in _per_call(fn)]

    entry("ddreal.dd_add_ns", lambda: ddreal.dd_add(x, y), ns)
    entry("ddreal.dd_mul_ns", lambda: ddreal.dd_mul(x, y), ns)
    entry("ddreal.dd_div_f_ns", lambda: ddreal.dd_div_f(x, 3.0), ns)
    entry("ddreal.XReal_mul_ns", lambda: xa * xb, ns)
    for tag, arg in (("xm5", -5.0), ("x5", 5.0), ("x12", 12.0)):
        entry(f"airy.airy_us.{tag}", lambda arg=arg: al.airy(arg), us)
    for a in (1, 5, 11):
        series = pfq_series(float(a))
        terms = pfq_terms(series, 1e-20)
        out[f"kernel.hyp_pfq_us_per_term.a{a}"] = [
            t * us / terms for t in _per_call(
                lambda series=series: al.hyp_pfq(series, tol=1e-20))]
    entry("roots.roots_upto_10.micro_ms", lambda: al.roots_upto(10), ms)
    entry("roots.roots_upto_100.micro_ms", lambda: al.roots_upto(100), ms)
    entry("stieltjes1.StieltjesContext.micro_ms",
          lambda: al.StieltjesContext(r100), ms)
    entry("stieltjes2.J1Solution.build_oracle.micro_ms",
          lambda: al.J1Solution.build(a0, seed_source="oracle"), ms)
    entry("stieltjes2.J1Solution.build_small_a.micro_ms",
          lambda: al.J1Solution.build(a0, seed_source="small_a"), ms)
    entry("stieltjes1.bigI1_closed.micro_ms",
          lambda: al.bigI1_closed(5.0, ctx.a0, ctx.I1_a0, ctx.I2_a0), ms)
    entry("stieltjes2.bigJ_closed.micro_ms", lambda: al.bigJ_closed(5.0, sol), ms)
    entry("oracle.oracle_integral1.micro_ms", al.oracle_integral1, ms)
    return out
