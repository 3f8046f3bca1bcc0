"""Command-line driver: reproduce the reference tables and headline
values, run the validation matrix, and emit machine-readable reports.

Exit codes: 0 success, 1 validation failure (including logged
discrepancies), 2 configuration error (including a quadrature without
scipy installed and an --out path that cannot be written), 3 internal
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .errors import (AccuracyError, ConvergenceError, DependencyError,
                     DomainError, IterationError, RangeError, StabilityError)
from .mellin1 import FAMILY, MELLIN, mellin_closed, mellin_family, mellin_prime
from .mellin2 import (BFORM, J_SMALLA, PRODUCT, Jn_smalla, calI, calI_bform,
                      mellin2)
from .oracle import oracle_mellin, oracle_stieltjes
from .results import Record, TruncationConfig, request_scope
from .roots import NEWTON_TOL, roots_upto
from .stieltjes1 import (
    ASYMPTOTIC,
    CLOSED,
    SMALLA,
    StieltjesContext,
    bigI_asym,
    bigI_smalla,
    integral1_accelerated,
    integral1_series,
)
from .stieltjes2 import (
    J1_CLOSED,
    J1Solution,
    integral2_accelerated,
    integral2_series,
    solve_J1,
)
from .validate import PRINTED_INTEGRAL1, PRINTED_INTEGRAL2, run_validation
from .zeta import zeta_closed, zeta_incomplete

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit(records, fmt: str, out_path: str | None):
    """Print a command's Records, one row each (every command has at
    least one).  CSV uses fixed 12-significant-digit decimals; JSON keeps
    shortest round-trip floats."""
    rows = [r.row() for r in records]
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = list(rows[0])
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
    rows = [Record(f"root.{n}", "newton" if n <= tab.refined_upto else "seed",
                   float(tab[n]), NEWTON_TOL, provenance="airy-prime-zero")
            for n in range(1, args.N + 1)]
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
        rows.append(Record(f"zeta.{k}", "series-division", closed,
                           1e-15 * abs(closed), deviation=closed - inc,
                           provenance=f"incomplete N={args.N}: {inc:.12g}"))
    _emit(rows, args.format, args.out)
    return 0


#: the ``--method`` choices of ``transform`` besides "all"
_METHODS = ("oracle", "closed_form", "small_a", "asymptotic")
#: each kind's weight, family and routes in print order, as (``--method``
#: name, domain, route(index, a)); a route prints where its domain holds,
#: and one named outside _METHODS only with ``--method all``
_TRANSFORMS = {
    "stieltjes-ai": ("Ai", "stieltjes", (
        ("small_a", SMALLA, bigI_smalla),
        ("closed_form", CLOSED,
         lambda k, a: StieltjesContext(roots_upto(1)).bigI1_closed(a)),
        ("asymptotic", ASYMPTOTIC, bigI_asym))),
    "stieltjes-ai2": ("Ai2", "stieltjes", (
        ("closed_form", J1_CLOSED,
         lambda k, a: solve_J1(a, J1Solution.build(float(roots_upto(1)[1])))),
        ("small_a", J_SMALLA, Jn_smalla))),
    "stieltjes-aip2": ("AiP2", "stieltjes", ()),
    "mellin-ai": ("Ai", "mellin", (("closed_form", MELLIN, mellin_closed),
                                   ("family", FAMILY, mellin_family))),
    "mellin-aip": ("AiP", "mellin", (("closed_form", MELLIN, mellin_prime),)),
    "mellin-ai2": ("Ai2", "mellin", (("closed_form", PRODUCT, mellin2),)),
    "mellin-aip2": ("AiP2", "mellin", (
        ("closed_form", PRODUCT, lambda n, a: mellin2(n, a, primed=True)),)),
    "mellin-aiaip": ("AiAiP", "mellin", (("closed_form", PRODUCT, calI),
                                         ("bform", BFORM, calI_bform))),
}


def cmd_transform(args) -> int:
    if not 1e-14 <= args.tol <= 1e-6:
        print("--tol must lie in [1e-14, 1e-6]", file=sys.stderr)
        return 2
    if not math.isfinite(args.a):
        print("--a must be finite", file=sys.stderr)
        return 2
    weight, family, routes = _TRANSFORMS[args.kind]
    flag, other = ("k", "n") if family == "stieltjes" else ("n", "k")
    idx = getattr(args, flag)
    if idx is None or getattr(args, other) is not None:
        print(f"{family} kinds take --{flag} and not --{other}", file=sys.stderr)
        return 2
    a = args.a
    results = []
    if args.method in ("all", "oracle"):
        results.append(oracle_stieltjes(weight, idx, a, tol=args.tol)
                       if family == "stieltjes"
                       else oracle_mellin(weight, idx, a, tol=args.tol))
    results += [route(idx, a) for method, domain, route in routes
                if args.method in ("all", method) and domain.holds(idx, a)]
    if not results:
        print("no route available for this argument range", file=sys.stderr)
        return 2
    vals = [float(r) for r in results]
    spread = max(vals) - min(vals)
    _emit([Record(f"{args.kind}.{idx}.a{a:g}", r.method, v, r.err_est,
                  deviation=spread, provenance="transform")
           for r, v in zip(results, vals)], args.format, args.out)
    return 0


def cmd_integral1(args) -> int:
    roots = roots_upto(max(args.N, 10))
    ctx = StieltjesContext(roots)
    rows = []
    if args.route in ("accelerated", "all"):
        v = integral1_accelerated(TruncationConfig(args.N, args.n), roots, ctx)
        rows.append(Record(f"integral1.accelerated.N{args.N}n{args.n}",
                           "zeta-accelerated", float(v),
                           paper_value=PRINTED_INTEGRAL1,
                           deviation=float(v) - PRINTED_INTEGRAL1,
                           provenance="printed value"))
    for route in ("eq3", "eq8"):
        if args.route in (route, "all"):
            v = integral1_series(route, args.N, roots, ctx)
            rows.append(Record(f"integral1.{route}.N{args.N}", "root-series",
                               float(v), provenance="partial sum"))
    _emit(rows, args.format, args.out)
    return 0


def cmd_integral2(args) -> int:
    roots = roots_upto(max(args.N, 10))
    sol = J1Solution.build(float(roots[1]))
    v = integral2_accelerated(TruncationConfig(args.N, args.n), roots, sol)
    s = integral2_series(args.N, roots, sol)
    rows = [
        Record(f"integral2.accelerated.N{args.N}n{args.n}", "zeta-accelerated",
               float(v), paper_value=PRINTED_INTEGRAL2,
               deviation=float(v) - PRINTED_INTEGRAL2, provenance="printed value"),
        Record(f"integral2.partial.N{args.N}", "root-series", float(s),
               provenance="partial sum"),
    ]
    _emit(rows, args.format, args.out)
    return 0


def cmd_validate(args) -> int:
    records, _ = run_validation()
    _emit(records, args.format, args.out)
    bad = [r for r in records if r.status != "pass"]
    for r in bad:
        print(f"{r.status.upper()}: {r.id} deviation {r.deviation:.3e} "
              f"(tol {r.tol:g})", file=sys.stderr)
    return 1 if bad else 0


def cmd_report(args) -> int:
    records, ledger = run_validation()
    disc_rows = [
        Record(d.id, "adjudication", None,
               provenance=f"{d.location} | printed: {d.printed} | "
                          f"adjudicated: {d.adjudicated} | resolution: {d.resolution}",
               status="discrepancy-logged")
        for d in ledger
    ]
    _emit(records + disc_rows, args.format, args.out)
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
    sp.add_argument("--method", default="all", choices=("all", *_METHODS))
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
        with request_scope():
            return args.func(args)
    except (DependencyError, DomainError, RangeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ConvergenceError, IterationError,
            StabilityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
