"""Span recording around the public functions of airylog's layers.

The benchmark's own files do the tracing; the package is not modified.
``install`` wraps every public function of each layer module (and the
public methods and hand-written constructors of its public classes) and
rebinds each wrapped name in *every* airylog module that holds it, since
``from .stieltjes1 import bigI1_closed`` copies the binding into
``cli`` and ``validate``.  ``kernel.hyp`` looks ``hyp_pfq`` up in the
globals of ``kernel``, so the rebinding there covers every pFq call.

``ddreal`` is not wrapped: its primitives take about a microsecond, so a
span would cost more than the work it times.  ``DdrealCounter`` counts
their calls instead, in a separate pass, with a profiler hook.

A span is (id, name, start, end, parent id, request id, repeat,
subdivisions): ``repeat`` tells, for the keyed spans (pFq and oracle
calls), whether the same arguments were already seen in this request, and
``subdivisions`` is read from an ``OracleResult``.
Spans stay in memory and are written out at the end of a run.  A span's
self time is its duration minus the part of it covered by its child
spans; within one request the self times add up to the request's wall
time, which ``request_profile`` measures and ``run.py`` checks against
``SELF_SUM_SLACK``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

#: the modules of src/airylog that get spans; ddreal is counted, not timed
LAYERS = ("kernel", "airy", "roots", "zeta", "oracle", "mellin1", "mellin2",
          "stieltjes1", "stieltjes2", "validate", "cli")
#: spans whose arguments are keyed to measure repeated work
KEYED = ("kernel.hyp_pfq",)
KEYED_LAYERS = ("oracle",)
#: |sum of self times - request wall time| allowed, as a share of wall time
SELF_SUM_SLACK = 1e-3
REQUEST = "bench.request"
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request", "repeat",
               "subdivisions")
MARK = "__bench_span__"


class Recorder:
    """Collects spans of one process in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self._seen = set()
        self._next = 0

    def next_id(self) -> int:
        self._next += 1
        return self._next

    @contextmanager
    def span(self, name: str, request=None):
        """A span opened by the benchmark itself (a request, an import)."""
        if request is not None:
            self.request = request
            self._seen = set()
        parent = self.stack[-1] if self.stack else None
        sid = self.next_id()
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.request, None, None))

    def seen_before(self, key) -> bool | None:
        """Whether this request already made a call with the same
        arguments; None when the arguments are not hashable."""
        try:
            if key in self._seen:
                return True
            self._seen.add(key)
            return False
        except TypeError:
            return None

    def write(self, path) -> None:
        """One JSON array per line: the fields of SPAN_FIELDS."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _wrap(rec: Recorder, name: str, fn):
    keyed = name in KEYED or name.split(".")[0] in KEYED_LAYERS
    spans, stack = rec.spans, rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else None
        sid = rec.next_id()
        repeat = rec.seen_before((name, args, tuple(kwargs.items()))) if keyed else None
        stack.append(sid)
        out = None
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = perf_counter()
            stack.pop()
            spans.append((sid, name, t0, t1, parent, rec.request, repeat,
                          getattr(out, "subdivisions", None)))

    setattr(wrapper, MARK, name)
    return wrapper


def _airylog_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "airylog" or n.startswith("airylog."))]


def _targets(mod):
    """(owner, attribute, span name, original) for the public callables
    defined in one layer module."""
    layer = mod.__name__.rsplit(".", 1)[1]
    out = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, type):
            for attr, raw in sorted(vars(obj).items()):
                if attr == "__init__" and not dataclasses.is_dataclass(obj):
                    out.append((obj, attr, f"{layer}.{name}", raw))
                elif not attr.startswith("_") and (
                        inspect.isfunction(raw)
                        or isinstance(raw, (classmethod, staticmethod))):
                    out.append((obj, attr, f"{layer}.{name}.{attr}", raw))
        elif callable(obj):
            out.append((mod, name, f"{layer}.{name}", obj))
    return out


class Installed:
    """Wrappers in place; ``uninstall`` puts every original back."""

    def __init__(self):
        self.patched = []  # (owner, attribute, original)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched.clear()


def install(rec: Recorder) -> Installed:
    """Wrap every layer's public functions and rebind them everywhere."""
    mods = _airylog_modules()
    layer_mods = [m for m in mods if m.__name__.rsplit(".", 1)[-1] in LAYERS
                  and m.__name__ != "airylog"]
    handle = Installed()
    replace = {}
    for mod in layer_mods:
        for owner, attr, name, raw in _targets(mod):
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(rec, name, raw.__func__))
            else:
                new = _wrap(rec, name, raw)
                if owner is mod:
                    replace[id(raw)] = (raw, new)
            handle.patched.append((owner, attr, raw))
            setattr(owner, attr, new)
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                handle.patched.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    return handle


def leftover_wrappers() -> list:
    """Names in airylog modules or classes that are still span wrappers."""
    found = []
    for mod in _airylog_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(obj, type):
                for cattr, raw in vars(obj).items():
                    raw = getattr(raw, "__func__", raw)
                    if hasattr(raw, MARK):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


class DdrealCounter:
    """Counts calls into ddreal (functions and XReal methods) with a
    profiler hook, which is too slow for timing but exact for counting."""

    def __init__(self):
        import airylog.ddreal

        self.filename = airylog.ddreal.__file__
        self.count = 0

    def _hook(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename == self.filename:
            self.count += 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


# -- aggregation -----------------------------------------------------------------

def _self_times(spans):
    """Self time of every span: duration minus the union of its children's
    intervals clipped to it."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s[2]
        for c in sorted(children.get(s[0], ()), key=lambda c: c[2]):
            lo, hi = max(c[2], edge), min(c[3], s[3])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s[0]] = (s[3] - s[2]) - covered
    return out


def request_profile(spans) -> dict:
    """Per-layer figures of one request from its spans (one root span)."""
    roots = [s for s in spans if s[1] == REQUEST]
    if len(roots) != 1:
        raise ValueError(f"request has {len(roots)} root spans")
    root = roots[0]
    self_t = _self_times(spans)
    wall = root[3] - root[2]
    prof = {"self_sum_err_frac": abs(sum(self_t.values()) - wall) / wall}
    calls, self_by, incl_by, layer_self = {}, {}, {}, {}
    by_id = {s[0]: s for s in spans}
    pfq_rep = orc_calls = orc_rep = orc_sub = 0
    for s in spans:
        name = s[1]
        layer = name.split(".")[0]
        calls[name] = calls.get(name, 0) + 1
        self_by[name] = self_by.get(name, 0.0) + self_t[s[0]]
        incl_by[name] = incl_by.get(name, 0.0) + (s[3] - s[2])
        layer_self[layer] = layer_self.get(layer, 0.0) + self_t[s[0]]
        if name == "kernel.hyp_pfq":
            pfq_rep += bool(s[6])
        if layer == "oracle":
            parent = by_id.get(s[4])
            if parent is None or parent[1].split(".")[0] != "oracle":
                orc_calls += 1
                orc_sub += s[7] or 0
                orc_rep += bool(s[6])
    prof.update(calls=calls, self_s=self_by, incl_s=incl_by,
                layer_self_s=layer_self, pfq_calls=calls.get("kernel.hyp_pfq", 0),
                pfq_repeats=pfq_rep,
                oracle_calls=orc_calls, oracle_repeats=orc_rep,
                oracle_subdivisions=orc_sub)
    return prof


def split_requests(spans) -> dict:
    out = {}
    for s in spans:
        out.setdefault(s[5], []).append(s)
    return out


def _metric_spec() -> dict:
    """Traced metric name -> function of one request's profile."""
    ms = 1e3

    def calls(name):
        return lambda p: p["calls"].get(name, 0)

    def self_ms(name):
        return lambda p: p["self_s"].get(name, 0.0) * ms

    def incl_ms(name):
        return lambda p: p["incl_s"].get(name, 0.0) * ms

    def layer_ms(layer):
        return lambda p: p["layer_self_s"].get(layer, 0.0) * ms

    def frac(num, den):
        return lambda p: p[num] / p[den] if p[den] else 0.0

    spec = {
        "kernel.hyp_pfq.calls": calls("kernel.hyp_pfq"),
        "kernel.hyp_pfq.self_ms": self_ms("kernel.hyp_pfq"),
        "kernel.hyp_pfq.repeat_frac": frac("pfq_repeats", "pfq_calls"),
        "airy.airy.calls": calls("airy.airy"),
        "airy.airy.self_ms": self_ms("airy.airy"),
        "roots.roots_upto.self_ms": self_ms("roots.roots_upto"),
        "stieltjes1.StieltjesContext.ms": incl_ms("stieltjes1.StieltjesContext"),
        "stieltjes1.bigI1_closed.calls": calls("stieltjes1.bigI1_closed"),
        "stieltjes1.bigI1_closed.self_ms": self_ms("stieltjes1.bigI1_closed"),
        "stieltjes1.bigI_asym.self_ms": self_ms("stieltjes1.bigI_asym"),
        "stieltjes1.bigI_smalla.self_ms": self_ms("stieltjes1.bigI_smalla"),
        "stieltjes2.J1Solution.build.ms": incl_ms("stieltjes2.J1Solution.build"),
        "stieltjes2.bigJ_closed.calls": calls("stieltjes2.bigJ_closed"),
        "stieltjes2.bigJ_closed.self_ms": self_ms("stieltjes2.bigJ_closed"),
        "stieltjes2.bigJ_asym.self_ms": self_ms("stieltjes2.bigJ_asym"),
        "stieltjes2.solve_J1.self_ms": self_ms("stieltjes2.solve_J1"),
        "oracle.calls": lambda p: p["oracle_calls"],
        "oracle.subdivisions": lambda p: p["oracle_subdivisions"],
        "oracle.repeat_frac": frac("oracle_repeats", "oracle_calls"),
        "trace.self_sum_err_frac": lambda p: p["self_sum_err_frac"],
    }
    for check in ("check_series1", "check_J_values", "check_series2",
                  "check_cross_routes", "check_residuals"):
        spec[f"validate.{check}.ms"] = incl_ms(f"validate.{check}")
    for layer in LAYERS:
        spec[f"{layer}.self_ms"] = layer_ms(layer)
    return spec


TRACED_METRICS = tuple(_metric_spec())


def layer_metrics(profiles) -> dict:
    """The traced per-layer metrics, each the mean over traced requests,
    with the per-request samples alongside."""
    out = {}
    for name, fn in _metric_spec().items():
        vals = [fn(p) for p in profiles]
        out[name] = dict(summarize(vals), value=sum(vals) / len(vals),
                         samples=vals)
    return out


def summarize(values) -> dict:
    """Median, quartile distance and count of a list of samples."""
    vals = sorted(values)
    n = len(vals)
    iqr = 0.0
    if n >= 2:
        q = statistics.quantiles(vals, n=4)
        iqr = q[2] - q[0]
    return {"median": statistics.median(vals) if vals else None,
            "iqr": iqr, "n": n}
