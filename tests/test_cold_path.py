"""scipy (and numpy with it) is a dependency of the quadrature oracle
only: a fresh interpreter that imports the CLI and runs the analytic
commands never loads it, the first quadrature does, and without scipy
the commands that integrate exit 2 with a configuration error.  A
validation run pays for its closed-form anchor, each off-root closed
form and each of its quadratures once, and is one request scope: each
Airy value, scipy Airy tuple and Mellin base is computed once per point
in it, as are each small-a sum, Ai^2 class chain and point logarithm, and
none is kept past it."""

import importlib
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import airylog
from airylog import oracle, stieltjes1, validate
from airylog.errors import AccuracyError
from airylog.results import per_request, request_scope
from airylog.validate import run_validation

#: the modules; the package attributes of these names are functions
airy_module = importlib.import_module("airylog.airy")
mellin1 = importlib.import_module("airylog.mellin1")
mellin2 = importlib.import_module("airylog.mellin2")

SRC = Path(airylog.__file__).resolve().parent.parent

#: the analytic commands; integral2 and the stieltjes-ai2 closed form read
#: the root-1 J_1 seeds from constants
ANALYTIC = [["roots", "--N", "5"], ["zeta", "--N", "20", "--k", "4"],
            ["integral1", "--N", "10", "--n", "3"],
            ["integral2", "--N", "10", "--n", "6"],
            ["transform", "--kind", "stieltjes-ai", "--k", "1", "--a", "3.75",
             "--method", "closed_form"],
            ["transform", "--kind", "stieltjes-ai2", "--k", "1", "--a", "3.75",
             "--method", "closed_form"]]

#: commands that integrate; the oracle loads only the two extension
#: modules it calls, not the scipy packages that hold them
ORACLE = [["validate"], ["transform", "--kind", "mellin-ai", "--n", "0",
                         "--a", "3.75"]]
LOADED = ["scipy.integrate._quadpack", "scipy.special._special_ufuncs"]
UNLOADED = ["scipy.integrate", "scipy.optimize", "scipy.sparse",
            "scipy.special"]

COLD = """
import contextlib, io, json, sys
before = set(sys.modules)  # site may have loaded modules of its own
from airylog.cli import main

state = {}
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    state[" ".join(argv)] = [code, bool(out.getvalue()),
                             sorted({"scipy", "numpy"} & set(sys.modules))]
state["record machinery"] = sorted({"dataclasses", "inspect"}
                                   & (set(sys.modules) - before))

from airylog.oracle import _scipy, oracle_mellin
value = float(oracle_mellin("AiAiP", -1, 1.0))
state["oracle_mellin"] = [repr(value), "scipy" in sys.modules]
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
state["oracle modules"] = sorted(set(%r) & set(sys.modules))
import scipy.integrate, scipy.special
state["airy is scipy.special.airy"] = _scipy()[1] is scipy.special.airy
# the first panel of oracle_stieltjes("Ai", 1, 1.0), as quad and the oracle
# integrate it
f = lambda x: float(scipy.special.airy(x)[0]) / (x + 1.0)
v, e, info = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-12 / 4, epsrel=1e-12,
                                  limit=2000, full_output=True)
panel = _scipy()[0](f, 0.0, 1.0, (), 1, 1e-12 / 4, 1e-12, 2000)
state["quad panel"] = [v.hex(), e.hex(), info["last"]]
state["oracle panel"] = [panel[0].hex(), panel[1].hex(), panel[2]["last"]]
print(json.dumps(state))
""" % (ANALYTIC, ORACLE, LOADED + UNLOADED)

#: each command's exit code, stdout and stderr with scipy unimportable
NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # import scipy now raises ImportError
from airylog.cli import main

state = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    state[" ".join(argv)] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(state))
"""


#: the variables by which OpenBLAS takes its thread count
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: one oracle transform after importing the modules named in argv, with
#: every write of a BLAS_THREADS variable to the process environment
#: recorded (numpy's import writes OPENBLAS_MAIN_FREE of its own)
ORACLE_ENV = """
import contextlib, io, json, os, sys
for name in sys.argv[1:]:
    __import__(name)
written = []
for fn in ("putenv", "unsetenv"):
    def spy(key, *value, _real=getattr(os, fn)):
        if os.fsdecode(key) in %r:
            written.append(os.fsdecode(key))
        _real(key, *value)
    setattr(os, fn, spy)
before = dict(os.environ)
from airylog.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(%r)
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as status:
        threads = int(status.read().split("Threads:")[1].split()[0])
print(json.dumps({"code": code, "written": written, "threads": threads,
                  "environ unchanged": dict(os.environ) == before,
                  "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "modules": sorted(set(%r) & set(sys.modules))}))
""" % (BLAS_THREADS, ORACLE[1] + ["--method", "oracle"], LOADED + UNLOADED)


def _run(script, *args, env=None):
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_analytic_commands_never_import_scipy():
    state = _run(COLD)
    for argv in ANALYTIC:
        command = " ".join(argv)
        assert state[command] == [0, True, []], (command, state[command])
    # the record types are declared without dataclasses, which would load
    # inspect, ast, dis and tokenize into every cold command
    assert state["record machinery"] == []
    # the first quadrature loads scipy and gives the eager import's value
    assert state["oracle_mellin"] == ["-0.0069664329596629245", True]
    # validate and a transform leave scipy's package initialisers unrun;
    # scipy.special, imported after, reuses the loaded airy ufunc
    assert state["oracle modules"] == LOADED
    assert state["airy is scipy.special.airy"] is True
    # scipy.integrate.quad, imported after, reproduces an oracle panel
    assert state["quad panel"] == state["oracle panel"]


def _oracle_transform(*preload, **blas_threads):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return _run(ORACLE_ENV, *preload, env=dict(env, **blas_threads))


def test_the_oracle_loads_numpy_with_one_blas_thread():
    state = _oracle_transform()
    assert state["code"] == 0
    # set for the load and removed after it, so the caller's environment
    # and its child processes see no change
    assert state["written"] == ["OPENBLAS_NUM_THREADS"] * 2
    assert state["environ unchanged"] is True
    assert state["OPENBLAS_NUM_THREADS"] is None
    assert state["modules"] == LOADED
    if not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2:
        pytest.skip("counts OpenBLAS threads on Linux with 2 or more cores")
    assert state["threads"] == 1  # 2 when OpenBLAS started its pool


@pytest.mark.parametrize("name", BLAS_THREADS)
def test_a_blas_thread_count_the_caller_set_is_kept(name):
    state = _oracle_transform(**{name: "2"})
    assert state["code"] == 0
    assert state["written"] == []
    assert state["environ unchanged"] is True
    assert state["OPENBLAS_NUM_THREADS"] == ("2" if name == BLAS_THREADS[0]
                                             else None)


def test_the_oracle_leaves_the_environment_alone_after_numpy():
    state = _oracle_transform("numpy")
    assert state["code"] == 0
    assert state["written"] == []
    assert state["environ unchanged"] is True


def test_without_scipy_the_oracle_commands_exit_2():
    frozen = json.loads((SRC.parent / "bench" / "expected" / "cli.json")
                        .read_text(encoding="utf-8"))
    integral2 = "integral2 --N 100 --n 6 --format json"
    oracle = [["validate"], ["report"]] + [
        ["transform", "--kind", "stieltjes-ai", "--k", "1", "--a", "3.75",
         "--method", method] for method in ("all", "oracle")]
    state = _run(NO_SCIPY, json.dumps([integral2.split()] + oracle))
    assert state[integral2] == [0, frozen[integral2]["stdout"], ""]
    for argv in oracle:
        code, out, err = state[" ".join(argv)]
        assert (code, out) == (2, ""), argv
        assert err.startswith("configuration error: the quadrature oracle "
                              "needs scipy"), (argv, err)


def test_validation_computes_the_closed_form_anchor_once():
    stieltjes1._closed_anchor.cache_clear()
    run_validation()
    assert stieltjes1._closed_anchor.cache_info().misses <= 1


def test_validation_runs_each_oracle_quadrature_once(monkeypatch):
    # the checks repeat some oracle calls; every quadrature goes through
    # integrate_halfline, which runs once per distinct call
    calls, quadratures = [], []
    for name in ("oracle_integral1", "oracle_integral2", "oracle_mellin",
                 "oracle_stieltjes"):
        def counted(*args, _name=name, _oracle=getattr(validate, name)):
            calls.append((_name,) + args)
            return _oracle(*args)

        monkeypatch.setattr(validate, name, counted)
    halfline = oracle.integrate_halfline

    def integrate(*args, **kwargs):
        quadratures.append(args)
        return halfline(*args, **kwargs)

    monkeypatch.setattr(oracle, "integrate_halfline", integrate)
    run_validation()
    assert len(quadratures) == len(set(calls)) == 48


def test_a_warm_validation_evaluates_each_closed_form_once(monkeypatch):
    # _closed_anchor holds H+-(a0) after the first run; each off-root closed
    # form is computed once per run, although bigI_1 at a = 5 is read by
    # its own record, by the k = 3 recurrence and through bigI_3
    run_validation()
    points = []
    h = stieltjes1._H

    def counted(a):
        points.append(a)
        return h(a)

    monkeypatch.setattr(stieltjes1, "_H", counted)
    run_validation()
    assert 5.0 in points
    assert len(points) == len(set(points)), Counter(points).most_common(3)


def test_a_small_a_sum_that_raises_is_computed_again_in_its_scope(
        monkeypatch):
    # a call that fails its accuracy check stores nothing: a repeat in the
    # same request computes the sum and raises again
    orders = []
    real = stieltjes1.smalla_sum

    def counted(*args):
        orders.append(args[2])
        return real(*args)

    monkeypatch.setattr(stieltjes1, "smalla_sum", counted)
    with request_scope():
        for _ in range(2):
            with pytest.raises(AccuracyError):
                stieltjes1.bigI_smalla(1, 12.0)
    assert orders == [1, 1]


def test_a_warm_validation_computes_each_route_input_once(monkeypatch):
    # bigI_smalla's sum, the Ai^2 class chains and the dd log of a point
    # are made once per distinct argument in a request, and every pFq
    # series comes from a parameter set bound at import
    kernel = importlib.import_module("airylog.kernel")
    run_validation()
    sums, lns, chains, built, pfq = [], [], [], [], []

    def spy(owner, name, log, record):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            log.append(record(args, out))
            return out

        monkeypatch.setattr(owner, name, counted)

    spy(stieltjes1, "smalla_sum", sums, lambda args, out: args[2])
    spy(kernel, "dd_ln", lns, lambda args, out: args[0])
    # a memo hands each caller its one object: distinct objects are
    # computations (all stay alive in the log, so ids are not reused)
    spy(mellin2, "_ai2_class_chains", chains, lambda args, out: (args, out))
    spy(kernel, "hyp_pfq", pfq, lambda args, out: args[0])
    spy(kernel._Ratios, "__init__", built, lambda args, out: args[1:])
    run_validation()
    assert len(sums) == 12
    assert len(lns) == len(set(lns)) == 22
    assert len(chains) == 4
    assert len({args for args, _ in chains}) == 2
    assert len({id(out) for _, out in chains}) == 2
    assert all(type(c) is tuple for _, out in chains for c in out)
    assert len(pfq) == 285 and built == []


@pytest.fixture
def evaluations(monkeypatch):
    """Every evaluation a run makes at a point, by kind: scipy's Airy tuple
    (a counting stub for the ufunc ``oracle._scipy`` binds), the ``airy``
    series and asymptotics, and each base object's construction."""
    qagse, airy = oracle._scipy()
    bound = SimpleNamespace(airy=airy)
    seen = {"scipy": [], "airy": [], "BaseValues": [], "Ai2Base": []}

    def wrap(owner, name, kind, key):
        fn = getattr(owner, name)

        def counted(*args):
            seen[kind].append(key(*args))
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)

    wrap(bound, "airy", "scipy", float)
    monkeypatch.setattr(oracle, "_scipy", lambda: (qagse, bound.airy))
    wrap(airy_module, "_fg_series", "airy", lambda xp: xp[0])
    wrap(airy_module, "_airy_asym_pos", "airy", float)
    wrap(mellin1.BaseValues, "__init__", "BaseValues",
         lambda self, a, tol: (a, tol))
    wrap(mellin2.Ai2Base, "__init__", "Ai2Base", lambda self, a: a)
    yield seen
    monkeypatch.undo()


def _counted_run(seen) -> dict:
    """(evaluations, distinct points) of each kind in one validation run."""
    for calls in seen.values():
        calls.clear()
    run_validation()
    return {kind: (len(calls), len(set(calls))) for kind, calls in seen.items()}


def test_validation_evaluates_each_point_once(evaluations, monkeypatch):
    run_validation()  # fills the per-process root and anchor memos
    opened = []  # (node dict, its size) each time an oracle call takes it
    nodes_of = oracle._nodes

    def recorded():
        nodes, fill = nodes_of()
        opened.append((nodes, len(nodes)))
        return nodes, fill

    monkeypatch.setattr(oracle, "_nodes", recorded)
    first = _counted_run(evaluations)
    for kind, (count, distinct) in first.items():
        assert count == distinct, (kind, Counter(evaluations[kind])
                                   .most_common(3))
    assert first["scipy"][0] > 500
    assert all(count > 0 for count, _ in first.values()), first
    # every oracle call of the request reads one node dict, which starts
    # empty and holds Python floats, one entry per scipy evaluation
    nodes = opened[0][0]
    assert opened[0][1] == 0 and all(d is nodes for d, _ in opened)
    assert len(nodes) == first["scipy"][0]
    assert all(type(w) is float for weights in nodes.values() for w in weights)
    # nothing outlives the request: the next run computes it all again,
    # into a new node dict
    opened.clear()
    assert _counted_run(evaluations) == first
    assert opened[0][0] is not nodes and opened[0][1] == 0


def test_airy_computes_on_every_call_outside_a_scope(evaluations):
    airy_module.airy(1.5)
    airy_module.airy(1.5)
    airy_module.airy(12.0)
    airy_module.airy(12.0)
    assert evaluations["airy"] == [1.5, 1.5, 12.0, 12.0]
    with request_scope():
        first = airy_module.airy(1.5)
        with request_scope():  # a nested opening joins the open scope
            assert airy_module.airy(1.5) is first
    assert evaluations["airy"] == [1.5, 1.5, 12.0, 12.0, 1.5]


def test_the_oracle_nodes_are_shared_within_a_scope_only():
    assert oracle._nodes()[0] is not oracle._nodes()[0]
    with request_scope():  # one node dict and one fill per scope
        pair = oracle._nodes()
        pair[1](1.0)
        with request_scope():  # a nested opening joins the open scope
            assert oracle._nodes() is pair and 1.0 in pair[0]
    with request_scope():
        assert oracle._nodes()[0] == {}


def test_a_scoped_call_that_raises_stores_nothing():
    calls = []

    @per_request
    def flaky(x):
        calls.append(x)
        if len(calls) == 1:
            raise ArithmeticError("first call fails")
        return [x]

    with request_scope():
        with pytest.raises(ArithmeticError):
            flaky(2.0)
        value = flaky(2.0)
        assert flaky(2.0) is value
    assert calls == [2.0, 2.0]


def test_a_scoped_call_is_keyed_by_its_keywords():
    calls = []

    @per_request
    def integrate(x, tol=1e-12):
        calls.append((x, tol))
        if len(calls) == 1:
            raise ArithmeticError("first call fails")
        return [x, tol]

    with request_scope():
        with pytest.raises(ArithmeticError):
            integrate(2.0, tol=1e-9)
        value = integrate(2.0, tol=1e-9)
        assert integrate(2.0, tol=1e-9) is value
        assert integrate(2.0, tol=1e-6) == [2.0, 1e-6]
        assert integrate(2.0) == [2.0, 1e-12]
        assert integrate(2.0) is integrate(2.0)
    assert calls == [(2.0, 1e-9), (2.0, 1e-9), (2.0, 1e-6), (2.0, 1e-12)]


def test_concurrent_validation_runs_keep_their_own_scopes():
    frozen = (SRC.parent / "bench" / "expected" / "validate.json").read_text(
        encoding="utf-8")
    out = {}

    def run(name):
        records, _ = run_validation()
        out[name] = json.dumps([r.row() for r in records], indent=2) + "\n"

    threads = [threading.Thread(target=run, args=(n,)) for n in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert out == {0: frozen, 1: frozen}
