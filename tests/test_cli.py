"""CLI driver: output schemas, determinism, exit codes."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from airylog import cli
from airylog.cli import main
from airylog.errors import IterationError

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_roots_csv(capsys):
    code, out = run(["roots", "--N", "10", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    table1 = [1.0187929716, 3.2481975822, 4.8200992112, 6.1633073556,
              7.3721772550, 8.4884867340, 9.5354490524, 10.5276603970,
              11.4750566335, 12.3847883718]
    for row, ref in zip(rows, table1):
        assert abs(float(row["value"]) - ref) <= 1e-9


def test_zeta_json(capsys):
    code, out = run(["zeta", "--N", "50", "--k", "5", "--format", "json"],
                    capsys)
    assert code == 0
    data = json.loads(out)
    assert data[1]["id"] == "zeta.3"
    assert abs(data[1]["value"] - 1.0) < 1e-12


def test_zeta_below_k2_is_a_config_error(capsys):
    for k in ("1", "0", "-3"):
        assert run(["zeta", "--N", "10", "--k", k], capsys) == (2, "")


def test_transform_all_methods(capsys):
    code, out = run(["transform", "--kind", "stieltjes-ai", "--k", "3",
                     "--a", "1.0187929716", "--method", "all"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) >= 2
    for row in rows:
        assert abs(float(row["value"]) - 0.1045955174) <= 1e-7


def test_transform_method_selects_mellin_rows(capsys):
    def methods(method):
        code, out = run(["transform", "--kind", "mellin-ai", "--n", "1",
                         "--a", "2", "--method", method, "--format", "json"],
                        capsys)
        return code, [row["method"] for row in json.loads(out or "[]")]

    assert methods("oracle") == (0, ["oracle"])
    assert methods("closed_form") == (0, ["recurrence"])
    assert methods("all") == (0, ["oracle", "recurrence", "family"])
    # no small-a or asymptotic route exists for a Mellin transform
    assert methods("small_a") == (2, [])
    assert methods("bogus") == (2, [])

def test_integral_commands(capsys, tmp_path):
    out_path = tmp_path / "i1.json"
    code = main(["integral1", "--N", "10", "--n", "3", "--route",
                 "accelerated", "--format", "json", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert abs(data[0]["value"] + 0.8140073597) <= 1e-8
    code, out = run(["integral2", "--N", "10", "--n", "6", "--format",
                     "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data[0]["value"] + 0.2636317121) <= 1e-8


def test_transform_config_error(capsys):
    code, _ = run(["transform", "--kind", "stieltjes-ai", "--a", "1.0"],
                  capsys)
    assert code == 2


def test_transform_takes_only_its_familys_index_flag(capsys):
    for args in (["--kind", "mellin-ai", "--k", "3", "--method", "closed_form"],
                 ["--kind", "stieltjes-ai", "--n", "2", "--k", "1",
                  "--method", "small_a"],
                 ["--kind", "stieltjes-ai", "--n", "1"],
                 ["--kind", "mellin-ai", "--n", "1", "--k", "1"]):
        code = main(["transform", *args, "--a", "1.0"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), args
        assert "kinds take --" in err, args


def test_domain_error_maps_to_config_exit(capsys):
    code, _ = run(["transform", "--kind", "mellin-ai", "--n", "3",
                   "--a", "-1.0"], capsys)
    assert code == 2


def test_nan_a_is_a_config_error(capsys):
    # these printed 0 or nan and exited 0, or exited 3 from a pFq sum
    for args in (["--kind", "mellin-ai2", "--n", "1", "--method", "oracle"],
                 ["--kind", "stieltjes-ai", "--k", "1"],
                 ["--kind", "mellin-ai", "--n", "1", "--method", "closed_form"]):
        assert run(["transform", *args, "--a", "nan"], capsys) == (2, ""), args


def test_a_below_a_routes_range_is_a_config_error(capsys):
    # the small-a routes exited 1 with a traceback (dd_ln's range) at 1e-300;
    # the closed form printed a value 0.355 off with err_est 2e-14 there
    for kind in ("stieltjes-ai", "stieltjes-ai2"):
        code = main(["transform", "--kind", kind, "--k", "1", "--a", "1e-300",
                     "--method", "small_a"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), kind
        assert "supports only a >= 1.03e-289" in err, err
    code = main(["transform", "--kind", "stieltjes-ai", "--k", "1", "--a",
                 "1e-300", "--method", "closed_form"])
    assert (code, capsys.readouterr().out) == (2, "")


def test_stieltjes_ai2_prints_small_a_only_inside_its_range(capsys):
    # past J_SMALLA.hi[6] = 1.85 the small-a row printed 9.77418234053e-06
    # with err_est 9.8e-20 beside the oracle's 9.77418233685e-06
    def methods(k, a, method):
        code, out = run(["transform", "--kind", "stieltjes-ai2", "--k", k,
                         "--a", a, "--method", method, "--format", "json"],
                        capsys)
        return code, [row["method"] for row in json.loads(out or "[]")]

    assert methods("6", "4.0", "all") == (0, ["oracle"])
    assert methods("6", "4.0", "small_a") == (2, [])
    assert methods("6", "1.85", "small_a") == (0, ["small_a"])


C, S, A = "closed_form", "small_a", "asymptotic"
#: (kind, k, bound) of each Stieltjes route domain and the --method choices
#: that print a row of their own name just below, at and just above it; the
#: others exit 2 with no row (recorded before the domains were declared once,
#: but for the asymptotic route's order floor k = 0: its terms grow from the
#: first for k < 0, where it once printed 4.9e37 for 4.8e42 at k = -40)
BOUNDARIES = (
    ("stieltjes-ai", 1, 1e-15, (S,), (C, S), (C, S)),
    ("stieltjes-ai", 1, 4.0, (C, S), (C, S), (C,)),
    ("stieltjes-ai", 6, 4.0, (S,), (S,), ()),
    ("stieltjes-ai", 1, 8.0, (C,), (C,), (C, A)),
    ("stieltjes-ai", 1, 13.0, (C, A), (C, A), (A,)),
    ("stieltjes-ai2", 1, 0.2, (S,), (C, S), (C, S)),
    ("stieltjes-ai2", 5, 1.65, (S,), (S,), ()),
    ("stieltjes-ai2", 4, 1.8, (S,), (S,), ()),
    ("stieltjes-ai2", 6, 1.85, (S,), (S,), ()),
    ("stieltjes-ai2", 2, 2.15, (S,), (S,), ()),
    ("stieltjes-ai2", 3, 2.2, (S,), (S,), ()),
    ("stieltjes-ai2", 1, 4.0, (C, S), (C, S), (C,)),
    ("stieltjes-ai2", 1, 13.0, (C,), (C,), ()),
    ("stieltjes-ai", 0, 8.0, (), (), (A,)),
    ("stieltjes-ai", -1, 8.0, (), (), ()),
    ("stieltjes-ai", -40, 9.0, (), (), ()),
)


@pytest.mark.parametrize("kind, k, bound, below, at, above", BOUNDARIES)
def test_each_stieltjes_route_prints_exactly_on_its_domain(
        capsys, kind, k, bound, below, at, above):
    points = (math.nextafter(bound, 0.0), bound,
              math.nextafter(bound, math.inf))
    for a, printing in zip(points, (below, at, above)):
        for method in (C, S, A):
            code, out = run(["transform", "--kind", kind, "--k", str(k),
                             "--a", repr(a), "--method", method,
                             "--format", "json"], capsys)
            rows = [row["method"] for row in json.loads(out or "[]")]
            want = (0, [method]) if method in printing else (2, [])
            assert (code, rows) == want, (a, method)


#: (kind, n, a, the route rows that --method all prints after the oracle's)
#: at the bounds of the Mellin route domains: a at and just past PRODUCT's
#: hi[-1] = NEG_A_MAX and hi[2] = 13, n at and past MELLIN's k_hi, n at and
#: below FAMILY's k_lo.  Past its domain a route prints no row: at 13.25,
#: mellin-ai2 exited 2 from inside mellin2 where the Stieltjes kinds printed
#: the oracle row and exited 0
MELLIN_BOUNDARIES = (
    ("mellin-aiaip", -1, 4.75, ["ladder"]),
    ("mellin-aiaip", -1, math.nextafter(4.75, math.inf), []),
    ("mellin-aiaip", 2, 13.0, ["ladder", "bform"]),
    ("mellin-aiaip", 2, math.nextafter(13.0, math.inf), []),
    ("mellin-ai2", 2, 13.25, []),
    ("mellin-ai", 80, 2.0, ["recurrence", "family"]),
    ("mellin-ai", 81, 2.0, []),
    ("mellin-ai", 0, 2.0, ["recurrence", "family"]),
    ("mellin-ai", -1, 2.0, ["recurrence"]),
)


@pytest.mark.parametrize("kind, n, a, rows", MELLIN_BOUNDARIES, ids=[
    f"{kind} n={n} a={a!r}" for kind, n, a, _ in MELLIN_BOUNDARIES])
def test_each_mellin_route_prints_exactly_on_its_domain(capsys, kind, n, a,
                                                        rows):
    def methods(method):
        code, out = run(["transform", "--kind", kind, "--n", str(n),
                         "--a", repr(a), "--method", method,
                         "--format", "json"], capsys)
        return code, [row["method"] for row in json.loads(out or "[]")]

    assert methods("all") == (0, ["oracle", *rows])
    # the closed-form route comes first; "family" and "bform" print only
    # with --method all
    assert methods(C) == ((0, rows[:1]) if rows else (2, []))


def test_nonpositive_root_count_is_a_config_error(capsys):
    # these printed value 0 and exited 0
    for args in (["--route", "eq3", "--N", "-5"], ["--route", "eq8", "--N", "0"]):
        assert run(["integral1", *args], capsys) == (2, ""), args


def test_iteration_failure_maps_to_numerical_exit(capsys, monkeypatch):
    # a Newton root that fails to converge is a numerical failure (3), not
    # a traceback with the validation-failure code
    def fail(N):
        raise IterationError("Newton step did not converge")

    monkeypatch.setattr(cli, "roots_upto", fail)
    assert main(["roots"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_unwritable_out_is_a_config_error(capsys, tmp_path):
    # a missing directory and a directory ended in a traceback with exit 1,
    # the validation-failure code
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code = main(["roots", "--N", "3", "--out", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), path
        assert err.startswith("configuration error: "), err


def test_dead_flags_are_rejected(capsys):
    # --tol only sets the oracle tolerance of transform; --precision is gone
    assert run(["roots", "--tol", "1e-9"], capsys)[0] == 2
    assert run(["integral1", "--precision", "double"], capsys)[0] == 2


def test_frozen_cli_commands_reproduce_their_output(capsys):
    # the benchmark's frozen stdout and exit code of every CLI command it
    # draws, run in this process
    frozen = json.loads((EXPECTED / "cli.json").read_text(encoding="utf-8"))
    assert len(frozen) == 69
    for command, want in frozen.items():
        code = main(command.split())
        assert (code, capsys.readouterr().out) == (want["exit"],
                                                   want["stdout"]), command


@pytest.mark.slow
def test_validate_deterministic(tmp_path, capsys):
    # byte-identical to the frozen output of the benchmark, on every run
    frozen = (EXPECTED / "validate.json").read_bytes()
    logged = ("DISCREPANCY-LOGGED: series1.accelerated.vs_oracle deviation "
              "4.364e-07 (tol 1e-07)\n")
    for name in ("v1.json", "v2.json"):
        path = tmp_path / name
        code = main(["validate", "--format", "json", "--out", str(path)])
        assert code == 1  # one logged discrepancy keeps the exit nonzero
        assert path.read_bytes() == frozen
        assert capsys.readouterr() == ("", logged)


def test_report_contains_ledger(capsys):
    code, out = run(["report", "--format", "json"], capsys)
    assert code == 1
    data = json.loads(out)
    ids = {row["id"] for row in data}
    for required in (
        "I1-at-first-root-double-value",
        "first-root-magnitude-misprint",
        "seed-t6-coefficient",
        "I4-prime-coefficient",
        "lambda-u3-label",
        "j-term-brackets",
    ):
        assert required in ids
    logged = [r for r in data if r.get("status") == "discrepancy-logged"]
    assert len(logged) >= 7
