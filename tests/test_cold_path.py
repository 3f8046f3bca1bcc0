"""scipy (and numpy with it) is a dependency of the quadrature oracle
only: a fresh interpreter that imports the CLI and runs the analytic
commands never loads it, and the first quadrature does.  A validation
run pays for its closed-form anchor and each of its quadratures once."""

import json
import os
import subprocess
import sys
from pathlib import Path

import airylog
from airylog import stieltjes1, validate
from airylog.validate import run_validation

SRC = Path(airylog.__file__).resolve().parent.parent

COLD = """
import contextlib, io, json, sys
from airylog.cli import main

state = {}
for argv in (["roots", "--N", "5"], ["zeta", "--N", "20", "--k", "4"],
             ["integral1", "--N", "10", "--n", "3"],
             ["transform", "--kind", "stieltjes-ai", "--k", "1", "--a", "3.75",
              "--method", "closed_form"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    state[argv[0]] = [code, bool(out.getvalue()),
                      sorted({"scipy", "numpy"} & set(sys.modules))]

from airylog.oracle import oracle_mellin
value = float(oracle_mellin("AiAiP", -1, 1.0))
state["oracle_mellin"] = [repr(value), "scipy" in sys.modules]
print(json.dumps(state))
"""


def test_analytic_commands_never_import_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", COLD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    for command in ("roots", "zeta", "integral1", "transform"):
        assert state[command] == [0, True, []], (command, state[command])
    # the first quadrature loads scipy and gives the eager import's value
    assert state["oracle_mellin"] == ["-0.0069664329596629245", True]


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
