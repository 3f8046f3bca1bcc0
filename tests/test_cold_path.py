"""scipy (and numpy with it) is a dependency of the quadrature oracle
only: a fresh interpreter that imports the CLI and runs the analytic
commands never loads it, the first quadrature does, and without scipy
the commands that integrate exit 2 with a configuration error.  A
validation run pays for its closed-form anchor and each of its
quadratures once."""

import json
import os
import subprocess
import sys
from pathlib import Path

import airylog
from airylog import stieltjes1, validate
from airylog.validate import run_validation

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

COLD = """
import contextlib, io, json, sys
from airylog.cli import main

state = {}
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    state[" ".join(argv)] = [code, bool(out.getvalue()),
                             sorted({"scipy", "numpy"} & set(sys.modules))]

from airylog.oracle import oracle_mellin
value = float(oracle_mellin("AiAiP", -1, 1.0))
state["oracle_mellin"] = [repr(value), "scipy" in sys.modules]
print(json.dumps(state))
""" % (ANALYTIC,)

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


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_analytic_commands_never_import_scipy():
    state = _run(COLD)
    for argv in ANALYTIC:
        command = " ".join(argv)
        assert state[command] == [0, True, []], (command, state[command])
    # the first quadrature loads scipy and gives the eager import's value
    assert state["oracle_mellin"] == ["-0.0069664329596629245", True]


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
    calls = []
    for name in ("oracle_integral1", "oracle_integral2", "oracle_mellin",
                 "oracle_stieltjes"):
        def counted(*args, _name=name, _oracle=getattr(validate, name)):
            calls.append((_name,) + args)
            return _oracle(*args)

        monkeypatch.setattr(validate, name, counted)
    run_validation()
    repeated = sorted({c for c in calls if calls.count(c) > 1})
    assert not repeated, repeated
    assert len(calls) == 48
