"""Seeded requests of the three workloads, the in-process request bodies,
and the checks against the frozen expectations in ``bench/expected``.

Every workload is a closed loop with one client: a request starts only
after the previous one has finished.  Requests are drawn in *rounds* whose
composition is fixed and whose order and arguments come from the seed, so
two seeds give the same mix of request kinds and a run-to-run median does
not move with the draw:

* ``headline``: a round is two ``integral1`` requests and one
  ``integral2`` request, each with N drawn from [10, 500] and n from
  [0, 10].  The 2:1 split keeps the median away from the gap between the
  two request kinds.
* ``matrix``: a round is one ``run_validation()`` call; the seed is unused.
* ``cli-cold``: a round is ten fresh ``python -m airylog.cli`` processes:
  three ``roots`` and three ``zeta`` (the commands that need no
  quadrature), two ``transform`` and one each of ``integral1`` and
  ``integral2``.  With 60% of requests in the first group the median sits
  inside it and, from 30 requests on, the tail percentile inside the
  second, so a change that speeds up only one group moves a named metric.

A run keeps starting rounds until its time is up and at least
``MIN_REQUESTS`` requests are done, so the tail percentile (the highest
with 10 samples beyond it) is never below the median.

This module imports nothing from airylog at module level, so the parent
process of a run stays free of the package it measures.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"

WORKLOADS = ("headline", "matrix", "cli-cold")

HEADLINE_N = (10, 500)
HEADLINE_TERMS = (0, 10)
HEADLINE_ROUND = ("integral1", "integral1", "integral2")
#: a headline value matches its frozen value when
#: |got - want| <= HEADLINE_TOL * max(1, |want|)
HEADLINE_TOL = 1e-13

MIN_REQUESTS = 21
#: a traced run replays at most this many requests with spans; the spans
#: of one validation matrix alone number about 19,000
TRACE_REQUESTS = 12

#: the point at which abs_err_i1 / abs_err_i2 are measured
ERR_POINT = (100, 6)

CLI_ROOTS_N = (1, 5, 10, 50, 100)
CLI_ZETA = tuple((N, k) for N in (10, 100, 500) for k in (4, 8, 12))
CLI_TRANSFORM_A = (3.75, 4.25, 10.75, 11.25, 12.75, 13.25)
CLI_TRANSFORM_KINDS = (
    ("stieltjes-ai", "--k", 1), ("stieltjes-ai", "--k", 3),
    ("stieltjes-ai2", "--k", 1), ("mellin-ai", "--n", 0),
    ("mellin-ai", "--n", 3), ("mellin-aip", "--n", 1),
    ("mellin-ai2", "--n", 1), ("mellin-aip2", "--n", 1),
    ("mellin-aiaip", "--n", 2),
)
#: the irreducible product transforms stop at a = 13 (exit code 2)
CLI_TRANSFORM_UNSUPPORTED = {("mellin-ai2", 13.25), ("mellin-aip2", 13.25),
                             ("mellin-aiaip", 13.25)}
CLI_ROUND = ("roots",) * 3 + ("zeta",) * 3 + ("transform",) * 2 + (
    "integral1", "integral2")
#: CLI commands whose JSON output carries the values behind abs_err_i1/i2
CLI_ERR_PROBES = (
    ("integral1", "--N", "100", "--n", "6", "--route", "accelerated",
     "--format", "json"),
    ("integral2", "--N", "100", "--n", "6", "--format", "json"),
)


def cli_transforms():
    """Every transform command of the cli-cold mix, in a fixed order."""
    out = []
    for kind, flag, idx in CLI_TRANSFORM_KINDS:
        for a in CLI_TRANSFORM_A:
            if (kind, a) not in CLI_TRANSFORM_UNSUPPORTED:
                out.append(("transform", "--kind", kind, flag, str(idx),
                            "--a", repr(a), "--format", "json"))
    return out


def cli_commands():
    """Every command the cli-cold workload can draw, plus the error probes."""
    cmds = [("roots", "--N", str(N), "--format", "json") for N in CLI_ROOTS_N]
    cmds += [("zeta", "--N", str(N), "--k", str(k), "--format", "json")
             for N, k in CLI_ZETA]
    cmds += cli_transforms()
    cmds += [("integral1", "--N", "10", "--n", "3", "--format", "json"),
             ("integral2", "--N", "10", "--n", "6", "--format", "json")]
    return cmds + list(CLI_ERR_PROBES)


def cli_key(argv) -> str:
    return " ".join(argv)


# -- request streams -------------------------------------------------------------

def headline_rounds(seed: int):
    """Endless rounds of (kind, N, n) headline requests."""
    rng = random.Random(f"headline-{seed}")
    while True:
        kinds = list(HEADLINE_ROUND)
        rng.shuffle(kinds)
        yield [(k, rng.randint(*HEADLINE_N), rng.randint(*HEADLINE_TERMS))
               for k in kinds]


def matrix_rounds(seed: int):
    """Endless rounds of the single fixed validation request."""
    while True:
        yield [("validate",)]


def cli_rounds(seed: int):
    """Endless rounds of cli-cold argv tuples."""
    rng = random.Random(f"cli-cold-{seed}")
    transforms = cli_transforms()
    while True:
        kinds = list(CLI_ROUND)
        rng.shuffle(kinds)
        rnd = []
        for k in kinds:
            if k == "roots":
                rnd.append(("roots", "--N", str(rng.choice(CLI_ROOTS_N)),
                            "--format", "json"))
            elif k == "zeta":
                N, kk = rng.choice(CLI_ZETA)
                rnd.append(("zeta", "--N", str(N), "--k", str(kk),
                            "--format", "json"))
            elif k == "transform":
                rnd.append(rng.choice(transforms))
            elif k == "integral1":
                rnd.append(("integral1", "--N", "10", "--n", "3",
                            "--format", "json"))
            else:
                rnd.append(("integral2", "--N", "10", "--n", "6",
                            "--format", "json"))
        yield rnd


ROUNDS = {"headline": headline_rounds, "matrix": matrix_rounds,
          "cli-cold": cli_rounds}


def loop_done(elapsed, done, seconds, min_requests, max_requests) -> bool:
    """Whether a closed loop stops after the round it just finished."""
    if max_requests is not None and done >= max_requests:
        return True
    return elapsed >= seconds and done >= min_requests


# -- in-process request bodies -------------------------------------------------

def headline_request(kind: str, N: int, n: int) -> list:
    """What ``airylog integral1`` / ``integral2`` compute, through the API.

    integral1 returns [accelerated, eq3, eq8]; integral2 returns
    [accelerated, partial sum].
    """
    from airylog import (J1Solution, StieltjesContext, TruncationConfig,
                         integral1_accelerated, integral1_series,
                         integral2_accelerated, integral2_series, roots_upto)

    roots = roots_upto(max(N, 10))
    if kind == "integral1":
        ctx = StieltjesContext(roots)
        return [float(integral1_accelerated(TruncationConfig(N, n), roots, ctx)),
                float(integral1_series("eq3", N, roots, ctx)),
                float(integral1_series("eq8", N, roots, ctx))]
    sol = J1Solution.build(float(roots[1]))
    return [float(integral2_accelerated(TruncationConfig(N, n), roots, sol)),
            float(integral2_series(N, roots, sol))]


def matrix_request():
    """One validation matrix, as the records ``run_validation`` returns."""
    from airylog.validate import run_validation

    records, _ = run_validation()
    return records


def validate_json(records) -> str:
    """The text ``airylog validate --format json`` prints for ``records``."""
    rows = [{"id": r.id, "method": r.method, "value": r.value,
             "err_est": r.err_est, "paper_value": r.paper_value,
             "deviation": r.deviation, "provenance": r.provenance,
             "status": r.status} for r in records]
    return json.dumps(rows, indent=2, default=float) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- frozen expectations and checks ---------------------------------------------

def load_expected(directory: Path | None = None) -> dict:
    """All frozen expectations: reference values, the validate JSON text,
    the headline values and the CLI outputs."""
    directory = directory or EXPECTED_DIR
    ref = json.loads((directory / "reference.json").read_text())
    return {
        "reference": ref,
        "validate": (directory / "validate.json").read_text(encoding="utf-8"),
        "headline": json.loads((directory / "headline.json").read_text()),
        "cli": json.loads((directory / "cli.json").read_text()),
    }


def headline_expected(expected: dict, kind: str, N: int, n: int) -> list:
    """Frozen [accelerated, ...] values of one headline request."""
    row = expected["headline"][kind][str(N)]
    # stored as [n=0..10 accelerated values] + the n-independent partial sums
    return [row[n]] + row[HEADLINE_TERMS[1] + 1:]


def check_headline(expected: dict, req, values) -> str | None:
    """None when the values match the frozen ones, else a reason."""
    want = headline_expected(expected, *req)
    if len(values) != len(want):
        return f"expected {len(want)} values, got {len(values)}"
    for got, w in zip(values, want):
        if not abs(got - w) <= HEADLINE_TOL * max(1.0, abs(w)):
            return f"value {got!r} differs from frozen {w!r}"
    return None


def check_matrix(expected: dict, digest: str) -> str | None:
    if digest != sha256(expected["validate"]):
        return "validate JSON differs from the frozen airylog validate output"
    return None


def check_cli(expected: dict, argv, returncode: int, stdout: str) -> str | None:
    want = expected["cli"].get(cli_key(argv))
    if want is None:
        return "no frozen output for this command"
    if returncode != want["exit"]:
        return f"exit code {returncode}, expected {want['exit']}"
    if stdout != want["stdout"]:
        return "stdout differs from the frozen output"
    return None


def abs_errors(expected: dict, i1: float, i2: float) -> dict:
    """|I - reference| for the two headline integrals at ERR_POINT."""
    from fractions import Fraction

    ref = expected["reference"]
    return {"abs_err_i1": float(abs(Fraction(i1) - Fraction(ref["I1"]))),
            "abs_err_i2": float(abs(Fraction(i2) - Fraction(ref["I2"])))}
