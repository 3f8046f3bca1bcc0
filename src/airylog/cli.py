"""Command-line driver: reproduce the reference tables and headline
values, run the validation matrix, and emit machine-readable reports.

Exit codes: 0 success, 1 validation failure (including logged
discrepancies), 2 configuration error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .errors import AccuracyError, ConvergenceError, DomainError, RangeError
from .mellin1 import mellin_closed, mellin_prime
from .mellin2 import Jn_smalla, calI, mellin2
from .oracle import oracle_mellin, oracle_stieltjes
from .results import TruncationConfig
from .roots import NEWTON_TOL, roots_upto
from .stieltjes1 import (
    StieltjesContext,
    bigI_asym,
    bigI_smalla,
    integral1_accelerated,
    integral1_series,
)
from .stieltjes2 import J1Solution, integral2_accelerated, integral2_series, solve_J1
from .validate import run_validation
from .zeta import zeta_closed, zeta_incomplete

COLUMNS = ("id", "method", "value", "err_est", "paper_value", "deviation",
           "provenance")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit(rows, fmt: str, out_path: str | None):
    """Rows are dicts with the COLUMNS schema (extra keys preserved in
    JSON).  CSV uses fixed 12-significant-digit decimals; JSON keeps
    shortest round-trip floats."""
    if fmt == "json":
        text = json.dumps(rows, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = list(rows[0].keys()) if rows else list(COLUMNS)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_fmt(row.get(k)) for k in keys])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_roots(args) -> int:
    tab = roots_upto(args.N)
    rows = [
        {"id": f"root.{n}", "method": "newton" if n <= tab.refined_upto else "seed",
         "value": float(tab[n]), "err_est": NEWTON_TOL,
         "paper_value": None, "deviation": None, "provenance": "airy-prime-zero"}
        for n in range(1, args.N + 1)
    ]
    _emit(rows, args.format, args.out)
    return 0


def cmd_zeta(args) -> int:
    if args.k < 2:
        raise DomainError("zeta sums converge only for k >= 2")
    tab = roots_upto(max(args.N, 1))
    rows = []
    for k in range(2, args.k + 1):
        closed = float(zeta_closed(k))
        inc = float(zeta_incomplete(k, args.N, tab))
        rows.append({"id": f"zeta.{k}", "method": "series-division",
                     "value": closed, "err_est": 1e-15 * abs(closed),
                     "paper_value": None, "deviation": closed - inc,
                     "provenance": f"incomplete N={args.N}: {inc:.12g}"})
    _emit(rows, args.format, args.out)
    return 0


_TRANSFORMS = {
    "stieltjes-ai": ("Ai", "stieltjes"),
    "stieltjes-ai2": ("Ai2", "stieltjes"),
    "stieltjes-aip2": ("AiP2", "stieltjes"),
    "mellin-ai": ("Ai", "mellin"),
    "mellin-aip": ("AiP", "mellin"),
    "mellin-ai2": ("Ai2", "mellin"),
    "mellin-aip2": ("AiP2", "mellin"),
    "mellin-aiaip": ("AiAiP", "mellin"),
}


def cmd_transform(args) -> int:
    if args.kind not in _TRANSFORMS:
        print(f"unknown kind {args.kind}", file=sys.stderr)
        return 2
    if not 1e-14 <= args.tol <= 1e-6:
        print("--tol must lie in [1e-14, 1e-6]", file=sys.stderr)
        return 2
    weight, family = _TRANSFORMS[args.kind]
    idx = args.k if args.k is not None else args.n
    if idx is None:
        print("need --k (stieltjes) or --n (mellin)", file=sys.stderr)
        return 2
    a = args.a
    rows = []

    def add(method, value, err):
        rows.append({"id": f"{args.kind}.{idx}.a{a:g}", "method": method,
                     "value": float(value), "err_est": err,
                     "paper_value": None, "deviation": None,
                     "provenance": "transform"})

    methods = args.method
    if family == "stieltjes":
        if methods in ("all", "oracle"):
            orc = oracle_stieltjes(weight, idx, a, tol=args.tol)
            add("oracle", orc.value, orc.abs_err_est)
        if weight == "Ai":
            if methods in ("all", "small_a") and a <= 4.0 and 1 <= idx <= 6:
                r = bigI_smalla(idx, a)
                add(r.method, r.value, r.err_est)
            if methods in ("all", "closed_form") and idx == 1 and a <= 13.0:
                r = StieltjesContext(roots_upto(1)).bigI1_closed(a)
                add(r.method, r.value, r.err_est)
            if methods in ("all", "asymptotic") and a > 8.0:
                r = bigI_asym(idx, a)
                add(r.method, r.value, r.err_est)
        elif weight == "Ai2" and idx == 1 and methods in ("all", "closed_form") \
                and 0.2 <= a <= 13.0:
            sol = J1Solution.build(float(roots_upto(1)[1]))
            r = solve_J1(a, sol)
            add(r.method, r.value, r.err_est)
        if weight == "Ai2" and 1 <= idx <= 6 and a <= 4.0 \
                and methods in ("all", "small_a"):
            r = Jn_smalla(idx, a)
            add(r.method, r.value, r.err_est)
    else:
        if methods in ("all", "oracle"):
            orc = oracle_mellin(weight, idx, a, tol=args.tol)
            add("oracle", orc.value, orc.abs_err_est)
        if methods in ("all", "closed_form"):
            if weight == "Ai":
                r = mellin_closed(idx, a)
                add(r.method, r.value, r.err_est)
                if idx >= 0 and methods == "all":
                    r = mellin_closed(idx, a, method="family")
                    add(r.method, r.value, r.err_est)
            elif weight == "AiP":
                r = mellin_prime(idx, a)
                add(r.method, r.value, r.err_est)
            elif weight == "AiAiP":
                r = calI(idx, a)
                add(r.method, r.value, r.err_est)
                if idx >= 0 and methods == "all":
                    r = calI(idx, a, method="bform")
                    add(r.method, r.value, r.err_est)
            else:
                r = mellin2(idx, a, primed=(weight == "AiP2"))
                add(r.method, r.value, r.err_est)
    if not rows:
        print("no route available for this argument range", file=sys.stderr)
        return 2
    vals = [r["value"] for r in rows]
    spread = max(vals) - min(vals)
    for r in rows:
        r["deviation"] = spread
    _emit(rows, args.format, args.out)
    return 0


def cmd_integral1(args) -> int:
    roots = roots_upto(max(args.N, 10))
    ctx = StieltjesContext(roots)
    rows = []
    if args.route in ("accelerated", "all"):
        v = integral1_accelerated(TruncationConfig(args.N, args.n), roots, ctx)
        rows.append({"id": f"integral1.accelerated.N{args.N}n{args.n}",
                     "method": "zeta-accelerated", "value": float(v),
                     "err_est": None, "paper_value": -0.8140073597,
                     "deviation": float(v) + 0.8140073597,
                     "provenance": "printed value"})
    if args.route in ("eq3", "all"):
        v = integral1_series("eq3", args.N, roots, ctx)
        rows.append({"id": f"integral1.eq3.N{args.N}", "method": "root-series",
                     "value": float(v), "err_est": None, "paper_value": None,
                     "deviation": None, "provenance": "partial sum"})
    if args.route in ("eq8", "all"):
        v = integral1_series("eq8", args.N, roots, ctx)
        rows.append({"id": f"integral1.eq8.N{args.N}", "method": "root-series",
                     "value": float(v), "err_est": None, "paper_value": None,
                     "deviation": None, "provenance": "partial sum"})
    _emit(rows, args.format, args.out)
    return 0


def cmd_integral2(args) -> int:
    roots = roots_upto(max(args.N, 10))
    sol = J1Solution.build(float(roots[1]))
    v = integral2_accelerated(TruncationConfig(args.N, args.n), roots, sol)
    s = integral2_series(args.N, roots, sol)
    rows = [
        {"id": f"integral2.accelerated.N{args.N}n{args.n}",
         "method": "zeta-accelerated", "value": float(v), "err_est": None,
         "paper_value": -0.2636317121, "deviation": float(v) + 0.2636317121,
         "provenance": "printed value"},
        {"id": f"integral2.partial.N{args.N}", "method": "root-series",
         "value": float(s), "err_est": None, "paper_value": None,
         "deviation": None, "provenance": "partial sum"},
    ]
    _emit(rows, args.format, args.out)
    return 0


def _records_to_rows(records):
    return [
        {"id": r.id, "method": r.method, "value": r.value,
         "err_est": r.err_est, "paper_value": r.paper_value,
         "deviation": r.deviation, "provenance": r.provenance,
         "status": r.status}
        for r in records
    ]


def cmd_validate(args) -> int:
    records, _ = run_validation()
    rows = _records_to_rows(records)
    _emit(rows, args.format, args.out)
    bad = [r for r in records if r.status != "pass"]
    for r in bad:
        print(f"{r.status.upper()}: {r.id} deviation {r.deviation:.3e} "
              f"(tol {r.tol:g})", file=sys.stderr)
    return 1 if bad else 0


def cmd_report(args) -> int:
    records, ledger = run_validation()
    rows = _records_to_rows(records)
    disc_rows = [
        {"id": d.id, "method": "adjudication", "value": None, "err_est": None,
         "paper_value": None, "deviation": None,
         "provenance": f"{d.location} | printed: {d.printed} | "
                       f"adjudicated: {d.adjudicated} | resolution: {d.resolution}",
         "status": "discrepancy-logged"}
        for d in ledger
    ]
    _emit(rows + disc_rows, args.format, args.out)
    return 1 if any(r.status != "pass" for r in records) else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="airylog",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, metavar="PATH")

    sp = sub.add_parser("roots", help="zeros of Ai' (magnitudes)")
    sp.add_argument("--N", type=int, default=10)
    common(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("zeta", help="closed-form and incomplete root sums")
    sp.add_argument("--N", type=int, default=100)
    sp.add_argument("--k", type=int, default=8)
    common(sp)
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("transform", help="one transform through its routes")
    sp.add_argument("--kind", required=True, choices=sorted(_TRANSFORMS))
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--method", default="all",
                    choices=("all", "oracle", "closed_form", "small_a",
                             "asymptotic"))
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="oracle quadrature tolerance, in [1e-14, 1e-6]")
    common(sp)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("integral1", help="first log-Airy integral pipelines")
    sp.add_argument("--N", type=int, default=10)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--route", default="all",
                    choices=("all", "eq3", "eq8", "accelerated"))
    common(sp)
    sp.set_defaults(func=cmd_integral1)

    sp = sub.add_parser("integral2", help="second log-Airy integral pipelines")
    sp.add_argument("--N", type=int, default=10)
    sp.add_argument("--n", type=int, default=6)
    common(sp)
    sp.set_defaults(func=cmd_integral2)

    sp = sub.add_parser("validate", help="run the full validation matrix")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("report", help="validation matrix + discrepancy ledger")
    common(sp)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, RangeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
