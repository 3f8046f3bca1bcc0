"""Machine-speed calibration for the end-to-end timings.

The host this benchmark was written on shares its cores with other
tenants, and its speed for pure-Python floating-point code drifts by up to
1.6x over minutes and changes by up to 2x from one tenth of a second to
the next.  A fixed request's wall time follows that drift, so raw medians
of runs a few minutes apart differ by more than any useful regression
bound.

The remedy is a fixed probe: a double-double Horner loop written here,
independent of airylog, so no change to the program can change it.  Its
time per step tracks the drift of airylog's pure-Python arithmetic, and a
request's time is scaled by ``REF_STEP_S / (probe seconds per step)``, so
the reported timings are seconds on a machine where one probe step takes
``REF_STEP_S``.  The speed changes within a fraction of a second, so the
probe runs *during* the request: a ``Sampler`` runs a short probe from a
timer signal every ``SAMPLE_PERIOD_S`` and takes the probe's own time out
of the request's.  On the reference machine this cut the variation of a
fixed validation request from 9.5% to 3.4% (coefficient of variation
over 21 requests), and the spread of ``matrix`` latency_p50_ms over five
25-second runs from 0.20 to 0.01 of its median (quartile distance).

The probe does not track the start of a fresh process (exec, dynamic
loading, imports), so cli-cold requests and set-up times stay raw.  On
the reference machine none of these steadied them: dividing a cli-cold
request by the probe run just before and after it, by the probe sampled
in the parent while the child ran, or by a fresh interpreter importing a
few standard modules; sampling inside a fresh interpreter was worse than
raw, because the probe's own code starts cold there.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

_SPLITTER = 134217729.0  # 2**27 + 1
#: Horner steps per ``probe`` chunk, about 2.3 ms
STEPS = 1000
#: Horner steps per sample of a ``Sampler``, about 0.23 ms
SAMPLE_STEPS = 100
#: wall seconds between two samples of a ``Sampler``
SAMPLE_PERIOD_S = 0.01
#: median seconds per Horner step on the reference machine (a 2-vCPU
#: shared VM, CPython 3.11), measured over 40 s of 1000-step chunks
REF_STEP_S = 2.30e-6


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    s = a + b
    return s, b - (s - a)


def _split(a: float):
    c = _SPLITTER * a
    ahi = c - (c - a)
    return ahi, a - ahi


def _two_prod(a: float, b: float):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _mul(a, b):
    p, e = _two_prod(a[0], b[0])
    e += a[0] * b[1] + a[1] * b[0]
    return _quick_two_sum(p, e)


def _add(a, b):
    s, e = _two_sum(a[0], b[0])
    t, f = _two_sum(a[1], b[1])
    s, e = _quick_two_sum(s, e + t)
    return _quick_two_sum(s, e + f)


class _DD:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _DD(_mul(self.v, other.v))

    def __add__(self, other):
        return _DD(_add(self.v, other.v))


def _chunk(steps: int) -> float:
    acc, x, c = _DD((1.0, 0.0)), _DD((0.9999999, 1e-20)), _DD((1e-9, 0.0))
    heads = []
    for _ in range(steps):
        acc = acc * x + c
        heads.append(acc.v[0])
    return sum(heads)


def probe(chunks: int = 5) -> float:
    """Median seconds per step of ``chunks`` probe chunks run back to back."""
    times = []
    for _ in range(chunks):
        t0 = perf_counter()
        _chunk(STEPS)
        times.append(perf_counter() - t0)
    return statistics.median(times) / STEPS


def scale(seconds: float, per_step: float) -> float:
    """``seconds`` of wall time during which the probe took ``per_step``
    seconds per step, as seconds on the reference machine."""
    return seconds * REF_STEP_S / per_step


class Sampler:
    """While active, a SIGALRM timer runs a ``SAMPLE_STEPS`` probe every
    ``SAMPLE_PERIOD_S`` seconds of wall time, between the bytecodes of
    the code being timed.  Use it around one request at a time, in the
    main thread:

        with sampler:
            ...
        net, per_step = sampler.take(wall_seconds)
    """

    def __init__(self):
        self.busy = 0.0
        self.samples = 0
        self._old = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _chunk(SAMPLE_STEPS)
        self.busy += perf_counter() - t0
        self.samples += 1

    def __enter__(self):
        self.busy, self.samples = 0.0, 0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def take(self, seconds: float):
        """(``seconds`` less the probe's own time, probe seconds per step,
        or None when no sample fell in the interval)."""
        per_step = (self.busy / (self.samples * SAMPLE_STEPS)
                    if self.samples else None)
        return seconds - self.busy, per_step

