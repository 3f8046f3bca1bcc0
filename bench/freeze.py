"""Regenerate the frozen expectations in ``bench/expected``.

Run from the repository root, never as part of a benchmark run:

    python3 bench/freeze.py reference   # 40-digit I1, I2 with mpmath (~20 s)
    python3 bench/freeze.py validate    # airylog validate --format json
    python3 bench/freeze.py headline    # every headline request (~5 min)
    python3 bench/freeze.py cli         # stdout and exit code of every
                                        # cli-cold command (~2 min)

A frozen file records what the program printed when it was written; a
later change that moves any of these outputs must say why and refresh the
file in a change of its own.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys

import workloads as wl

SRC = str(wl.REPO_ROOT / "src")


def _cli(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "airylog.cli", *argv],
                          cwd=wl.REPO_ROOT, env=env, capture_output=True,
                          text=True, timeout=600)


def _write(name: str, obj, rows: bool = False) -> None:
    """JSON with sorted keys; ``rows`` puts each innermost list on one line."""
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    path = wl.EXPECTED_DIR / name
    if rows:
        text = "{\n" + ",\n".join(
            f" {json.dumps(k)}: {{\n" + ",\n".join(
                f"  {json.dumps(n)}: {json.dumps(v)}"
                for n, v in sorted(obj[k].items(), key=lambda kv: int(kv[0])))
            + "\n }" for k in sorted(obj)) + "\n}\n"
    else:
        text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    path.write_text(text)
    print(f"wrote {path}")


def freeze_reference() -> None:
    """Both log-Airy integrals to 40 digits by mpmath quadrature; the
    integrands are (Ai'(x)/Ai'(0))^alpha ln(Ai'(x)/Ai'(0)), alpha = 1, 2."""
    import mpmath as mp

    mp.mp.dps = 45
    aip0 = mp.airyai(0, derivative=1)

    def integral(alpha):
        def f(x):
            r = mp.airyai(x, derivative=1) / aip0
            return r ** alpha * mp.log(r)
        return mp.nstr(mp.quad(f, [0, 1, 2, 4, 8, 16, 32, 64]), 40)

    _write("reference.json", {"I1": integral(1), "I2": integral(2),
                              "method": "mpmath %s quad, dps 45, panels "
                                        "[0,1,2,4,8,16,32,64]" % mp.__version__})


def freeze_validate() -> None:
    proc = _cli(["validate", "--format", "json"])
    if proc.returncode != 1:  # one discrepancy-logged record exits 1
        raise SystemExit(f"validate exited {proc.returncode}: {proc.stderr}")
    (wl.EXPECTED_DIR / "validate.json").write_text(proc.stdout, encoding="utf-8")
    print(f"wrote validate.json ({len(json.loads(proc.stdout))} records)")


def freeze_headline() -> None:
    """Every (kind, N, n) the headline workload can draw.

    Per-root summands are memoised across N so the ~10^4 requests take
    minutes; a random sample is then recomputed through the plain request
    body and must agree bit for bit.
    """
    sys.path.insert(0, SRC)
    from airylog import (J1Solution, StieltjesContext, TruncationConfig,
                         integral1_accelerated, integral1_series,
                         integral2_accelerated, integral2_series, roots_upto)
    from airylog import stieltjes2

    lo, hi = wl.HEADLINE_N
    n_max = wl.HEADLINE_TERMS[1]
    full = roots_upto(hi)
    ctx = StieltjesContext(full)
    ctx.bigI3 = functools.lru_cache(maxsize=None)(ctx.bigI3)
    ctx.eq8_term = functools.lru_cache(maxsize=None)(ctx.eq8_term)
    sol = J1Solution.build(float(full[1]))
    plain_term = stieltjes2.bigJ_term
    terms = {}

    def memo_term(k, roots, s):
        if k not in terms:
            terms[k] = plain_term(k, full, sol)
        return terms[k]

    stieltjes2.bigJ_term = memo_term
    out = {"integral1": {}, "integral2": {}}
    try:
        for N in range(lo, hi + 1):
            roots = roots_upto(max(N, 10))
            acc1 = [float(integral1_accelerated(TruncationConfig(N, n), roots, ctx))
                    for n in range(n_max + 1)]
            out["integral1"][str(N)] = acc1 + [
                float(integral1_series("eq3", N, roots, ctx)),
                float(integral1_series("eq8", N, roots, ctx))]
            acc2 = [float(integral2_accelerated(TruncationConfig(N, n), roots, sol))
                    for n in range(n_max + 1)]
            out["integral2"][str(N)] = acc2 + [
                float(integral2_series(N, roots, sol))]
            if N % 50 == 0:
                print(f"headline N={N}", flush=True)
    finally:
        stieltjes2.bigJ_term = plain_term
    rng = random.Random(0)
    expected = {"headline": out}
    for _ in range(12):
        req = (rng.choice(("integral1", "integral2")), rng.randint(lo, hi),
               rng.randint(0, n_max))
        got = wl.headline_request(*req)
        if got != wl.headline_expected(expected, *req):
            raise SystemExit(f"memoised freeze disagrees with {req}")
    _write("headline.json", out, rows=True)


def freeze_cli() -> None:
    out = {}
    for argv in wl.cli_commands():
        proc = _cli(argv)
        if proc.returncode != 0:
            raise SystemExit(f"{argv} exited {proc.returncode}: {proc.stderr}")
        out[wl.cli_key(argv)] = {"exit": proc.returncode, "stdout": proc.stdout}
    _write("cli.json", out)


if __name__ == "__main__":
    steps = {"reference": freeze_reference, "validate": freeze_validate,
             "headline": freeze_headline, "cli": freeze_cli}
    for name in sys.argv[1:] or list(steps):
        steps[name]()
