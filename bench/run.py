"""airylog's benchmark: one run of one workload.

    python3 bench/run.py --workload {headline,matrix,cli-cold} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a separate traced run.  A fuller record of the run
(versions, seed, median / IQR / sample count of every metric, failures)
and the spans of a traced run are written to ``.bench_out/``.

Workloads (see ``workloads.py`` for the request mix):

* ``headline``: in process, after one warm-up; each request does what
  ``airylog integral1`` or ``integral2`` does.  Dominated by dd pFq sums
  over the first roots and by per-request set-up of roots and anchors.
* ``matrix``: in process; each request is ``run_validation()``.  The same
  kernel and ddreal layers as ``headline``, one point at a time.
* ``cli-cold``: each request is a fresh ``python -m airylog.cli`` process,
  where interpreter start and ``import airylog`` (mostly scipy) dominate.

Every request's output is compared with the frozen expectations in
``bench/expected``; a mismatch, an exception or an unexpected exit code is
a failed request.  The end-to-end metrics come from untraced runs.

The request times of the in-process workloads are calibrated against
machine-speed drift: each request is scaled by the speed of a fixed
pure-Python probe sampled while it ran, to the probe's reference speed
(``calibrate.py``), and reads as a time on the reference machine.  The
raw wall-clock figures and the probe speeds are in the run record.
Set-up and cli-cold requests are fresh processes, whose start-up work
(exec, dynamic loading, imports) the probe does not track, so their
times are raw wall-clock times.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads as wl

ROOT = wl.REPO_ROOT
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PY = sys.executable
#: fresh interpreters started per run to measure set-up, spread over the
#: run; setup_s is their median.  For in-process workloads each is a worker
#: that then times its share of the requests.
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 170

E2E = (("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
       ("throughput_rps", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
       ("abs_err_i1", "1"), ("abs_err_i2", "1"))

_MICRO = (
    ("ddreal.dd_add_ns", "ns"), ("ddreal.dd_mul_ns", "ns"),
    ("ddreal.dd_div_f_ns", "ns"), ("ddreal.XReal_mul_ns", "ns"),
    ("kernel.hyp_pfq_us_per_term.a1", "us"),
    ("kernel.hyp_pfq_us_per_term.a5", "us"),
    ("kernel.hyp_pfq_us_per_term.a11", "us"),
    ("airy.airy_us.xm5", "us"), ("airy.airy_us.x5", "us"),
    ("airy.airy_us.x12", "us"),
    ("roots.roots_upto_10.micro_ms", "ms"),
    ("roots.roots_upto_100.micro_ms", "ms"),
    ("stieltjes1.StieltjesContext.micro_ms", "ms"),
    ("stieltjes1.bigI1_closed.micro_ms", "ms"),
    ("stieltjes2.J1Solution.build_oracle.micro_ms", "ms"),
    ("stieltjes2.J1Solution.build_small_a.micro_ms", "ms"),
    ("stieltjes2.bigJ_closed.micro_ms", "ms"),
    ("oracle.oracle_integral1.micro_ms", "ms"),
)


def _traced_unit(name: str) -> str:
    if name.endswith(("calls", "subdivisions")):
        return "count"
    return "ratio" if name.endswith("frac") else "ms"


PER_LAYER = (
    (("ddreal.calls", "count"),) + _MICRO
    + tuple((n, _traced_unit(n)) for n in spans.TRACED_METRICS)
    + (("cli.import_ms", "ms"), ("cli.import_scipy_ms", "ms"),
       ("trace.overhead_frac", "ratio"))
)


class BenchError(RuntimeError):
    """The run cannot measure (missing sources, a worker that died)."""


# -- children ----------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker(workload: str, mode: str, seed: int = 0, seconds: float = 0.0,
            extra=()):
    return subprocess.Popen(
        [PY, str(wl.BENCH_DIR / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, *extra],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)


def _until_ready(proc) -> float:
    line = proc.stdout.readline()
    if line != "ready\n":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (said {line!r})")
    return perf_counter()


def _finish(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_probe(workload: str) -> float:
    """Seconds from starting a fresh interpreter until the first timed
    request could start (import plus warm-up)."""
    t0 = perf_counter()
    proc = _worker(workload, "setup")
    t1 = _until_ready(proc)
    proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}")
    return t1 - t0


def import_probe() -> dict:
    """cli.import_ms / cli.import_scipy_ms from ``-X importtime``."""
    proc = subprocess.run([PY, "-X", "importtime", "-c", "import airylog.cli"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("import airylog.cli failed")
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    """Sum the cumulative times of the top-level airylog imports, and of
    the outermost scipy imports (those not nested in another scipy one)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cum) / 1e3))
    imp = scipy = 0.0
    for i, (depth, name, cum) in enumerate(entries):
        if depth == 0 and name.split(".")[0] == "airylog":
            imp += cum
        if name.split(".")[0] == "scipy":
            parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
            if parent is None or parent[1].split(".")[0] != "scipy":
                scipy += cum
    return {"cli.import_ms": imp, "cli.import_scipy_ms": scipy}


def cli_request(argv, launcher=()) -> tuple:
    """One cli-cold request: (seconds, returncode, stdout, stderr)."""
    cmd = ([PY, str(wl.BENCH_DIR / "launcher.py"), *launcher, "--"]
           if launcher else [PY, "-m", "airylog.cli"])
    t0 = perf_counter()
    proc = subprocess.run([*cmd, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


# -- statistics ----------------------------------------------------------------

def latency_stats(lat_s) -> dict:
    """Median and tail of request latencies in ms.  The tail is the
    highest percentile with at least 10 samples beyond it."""
    xs = sorted(t * 1e3 for t in lat_s)
    n = len(xs)
    k = max(0, n - 11)
    return {"latency_p50_ms": sampled(xs),
            "latency_tail_ms": {"value": xs[k], "percentile": 100.0 * (k + 1) / n,
                                "n": n, "median": xs[k], "iqr": 0.0}}


def one(value, **extra) -> dict:
    """A metric measured once per run."""
    return dict(value=value, median=value, iqr=0.0, n=1, **extra)


def sampled(vals, value=None, **extra) -> dict:
    """A metric with its samples; its value is their median unless given."""
    summary = spans.summarize(vals)
    return dict(summary, samples=vals, **extra,
                value=summary["median"] if value is None else value)


# -- workloads -------------------------------------------------------------------

def _check_records(workload, expected, records, failures) -> int:
    failed = 0
    for r in records:
        reason = r["error"]
        if reason is None and workload == "headline":
            reason = wl.check_headline(expected, tuple(r["request"]), r["output"])
        elif reason is None:
            reason = wl.check_matrix(expected, r["output"])
        if reason is not None:
            failed += 1
            failures.append({"request": r["request"], "reason": reason})
    return failed


def _err_point(expected, i1, i2, failures) -> dict:
    N, n = wl.ERR_POINT
    for kind, vals in (("integral1", i1), ("integral2", i2)):
        reason = wl.check_headline(expected, (kind, N, n), vals)
        if reason is not None:
            failures.append({"request": ["err_point", kind], "reason": reason})
    return {k: one(v) for k, v in wl.abs_errors(expected, i1[0], i2[0]).items()}


def run_in_process(args, expected) -> dict:
    if args.trace:
        return run_in_process_traced(args, expected)
    failures, records, setups, peaks = [], [], [], []
    round_start = 0
    per_segment = -(-wl.MIN_REQUESTS // SETUP_PROBES)
    for j in range(SETUP_PROBES):
        extra = ["--round-start", str(round_start),
                 "--min-requests", str(per_segment)]
        if j == SETUP_PROBES - 1:
            extra.append("--err-point")
        t0 = perf_counter()
        proc = _worker(args.workload, "run", args.seed,
                       args.seconds / SETUP_PROBES, extra)
        setups.append(_until_ready(proc) - t0)
        res = _finish(proc)
        records += res["requests"]
        peaks.append(res["peak_rss_kb"])
        round_start += res["rounds"]
    failed = _check_records(args.workload, expected, records, failures)
    lat = [calibrate.scale(r["timed_s"], r["per_step_s"]) for r in records]
    m = timing_metrics(lat, [r["latency_s"] for r in records], setups)
    m["probe_ns_per_step"] = dict(
        spans.summarize([r["per_step_s"] * 1e9 for r in records]),
        reference=calibrate.REF_STEP_S * 1e9)
    m["peak_rss_mb"] = one(max(peaks) / 1024.0)
    ep = res["err_point"]
    m.update(_err_point(expected, ep["integral1"], ep["integral2"], failures))
    return {"attempted": len(records), "failed": failed, "failures": failures,
            "metrics": m}


def run_in_process_traced(args, expected) -> dict:
    failures = []
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    proc = _worker(args.workload, "trace", args.seed, args.seconds,
                   ("--spans-out", str(spans_path)))
    _until_ready(proc)
    res = _finish(proc)
    failed = _check_records(args.workload, expected, res["requests"], failures)
    return {"attempted": len(res["requests"]), "failed": failed,
            "failures": failures, "leftover_wrappers": res["leftover_wrappers"],
            "metrics": traced_metrics(
                res["profiles"], res["ddreal_calls"], res["micro"],
                res["untraced_latency_s"], res["traced_latency_s"])}


def _cli_requests(argvs, expected, failures, launcher=None):
    """Run and check the given cli-cold requests; (records, wall seconds)."""
    records = []
    start = perf_counter()
    for i, argv in enumerate(argvs):
        dt, rc, stdout, stderr = cli_request(
            argv, launcher(i) if launcher is not None else ())
        reason = wl.check_cli(expected, argv, rc, stdout)
        if reason is not None:
            failures.append({"request": list(argv), "reason": reason,
                             "stderr": stderr[-400:]})
        records.append({"argv": argv, "latency_s": dt, "ok": reason is None})
    return records, perf_counter() - start


def _cli_rounds(seed, seconds, expected, failures, min_requests,
                max_requests=None, before_round=None):
    """Whole rounds of cli-cold requests until ``wl.loop_done``, whose
    elapsed time counts the rounds only, not ``before_round``."""
    records, wall = [], 0.0
    for rnd in wl.cli_rounds(seed):
        if before_round is not None:
            before_round()
        recs, dt = _cli_requests(rnd, expected, failures)
        records += recs
        wall += dt
        if wl.loop_done(wall, len(records), seconds, min_requests, max_requests):
            return records


def run_cli(args, expected) -> dict:
    failures = []
    if args.trace:
        return run_cli_traced(args, expected, failures)
    setups = []
    records = _cli_rounds(
        args.seed, args.seconds, expected, failures, wl.MIN_REQUESTS,
        before_round=lambda: setups.append(setup_probe(args.workload)))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args.workload))
    lat = [r["latency_s"] for r in records]
    m = timing_metrics(lat, lat, setups)
    m["peak_rss_mb"] = one(peak_kb / 1024.0, note="largest child process")
    vals = []
    for argv in wl.CLI_ERR_PROBES:
        _, rc, stdout, stderr = cli_request(argv)
        reason = wl.check_cli(expected, argv, rc, stdout)
        if reason is not None:
            failures.append({"request": list(argv), "reason": reason,
                             "stderr": stderr[-400:]})
        if rc != 0:
            raise BenchError(f"{' '.join(argv)} exited {rc}")
        vals.append(json.loads(stdout)[0]["value"])
    m.update({k: one(v) for k, v in wl.abs_errors(expected, *vals).items()})
    failed = sum(not r["ok"] for r in records)
    return {"attempted": len(records), "failed": failed, "failures": failures,
            "metrics": m}


def run_cli_traced(args, expected, failures) -> dict:
    """Each request untraced, then through the launcher with spans, in
    whole rounds until ``wl.loop_done`` (at most TRACE_REQUESTS pairs)."""
    untraced, traced, profiles, all_spans = [], [], [], []
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for rnd in wl.cli_rounds(args.seed):
            for argv in rnd:
                untraced += _cli_requests([argv], expected, failures)[0]
                path = Path(tmp) / "spans.jsonl"
                traced += _cli_requests([argv], expected, failures,
                                        lambda _: ("--spans-out", str(path)))[0]
                req = []
                for line in path.read_text().splitlines():
                    span = json.loads(line)
                    span[5] = len(profiles)
                    req.append(tuple(span))
                profiles.append(spans.request_profile(req))
                all_spans += req
            if wl.loop_done(perf_counter() - start, len(traced), args.seconds,
                            1, wl.TRACE_REQUESTS):
                break
        counts = []
        for argv in next(wl.cli_rounds(args.seed)):
            path = Path(tmp) / "count.json"
            _, rc, stdout, _ = cli_request(argv, ("--count-out", str(path)))
            if wl.check_cli(expected, argv, rc, stdout) is not None:
                raise BenchError(f"counting pass changed the output of {argv}")
            counts.append(json.loads(path.read_text())["ddreal_calls"])
    with open(OUT_DIR / f"spans-cli-cold-seed{args.seed}.jsonl", "w") as fh:
        for s in all_spans:
            fh.write(json.dumps(s) + "\n")
    micro = _finish(_worker("cli-cold", "micro"))["micro"]
    recs = untraced + traced
    return {"attempted": len(recs), "failed": sum(not r["ok"] for r in recs),
            "failures": failures,
            "metrics": traced_metrics(profiles, counts, micro,
                                      [r["latency_s"] for r in untraced],
                                      [r["latency_s"] for r in traced])}


def timing_metrics(lat_s, raw_s, setups) -> dict:
    """Latency, throughput and set-up metrics of an untraced run from the
    (calibrated) request times ``lat_s``, with the raw wall-clock figures
    ``raw_s`` alongside.  Throughput is requests per second of request
    time: one client in a closed loop, so the inverse of the mean latency."""
    m = latency_stats(lat_s)
    m["latency_p50_ms"]["raw_median"] = statistics.median(raw_s) * 1e3
    m["throughput_rps"] = one(len(lat_s) / sum(lat_s),
                              raw_value=len(raw_s) / sum(raw_s))
    m["setup_s"] = sampled(setups)
    return m


def traced_metrics(profiles, ddreal_calls, micro, untraced_s, traced_s) -> dict:
    m = spans.layer_metrics(profiles)
    m["ddreal.calls"] = sampled(ddreal_calls,
                                sum(ddreal_calls) / len(ddreal_calls))
    for name, vals in micro.items():
        m[name] = sampled(vals)
    probes = [import_probe() for _ in range(IMPORT_PROBES)]
    for name in ("cli.import_ms", "cli.import_scipy_ms"):
        m[name] = sampled([p[name] for p in probes])
    ratios = [t / u - 1.0 for t, u in zip(traced_s, untraced_s)]
    m["trace.overhead_frac"] = sampled(
        ratios, untraced_p50_ms=statistics.median(untraced_s) * 1e3,
        traced_p50_ms=statistics.median(traced_s) * 1e3)
    return m


# -- record ----------------------------------------------------------------------

def environment(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        sha = None

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "seed": seed,
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "airylog" / "__init__.py").is_file():
        print(f"no airylog sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC), str(wl.BENCH_DIR)],
                   check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    expected = wl.load_expected()
    try:
        if args.workload == "cli-cold":
            res = run_cli(args, expected)
        else:
            res = run_in_process(args, expected)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    names = PER_LAYER if args.trace else E2E
    missing = [n for n, _ in names if n not in res["metrics"]]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    checks_ok = not res["failures"] and not res.get("leftover_wrappers")
    if args.trace:
        slack = res["metrics"]["trace.self_sum_err_frac"]["samples"]
        checks_ok = checks_ok and max(slack) <= spans.SELF_SUM_SLACK
    record = dict(environment(args.seed), workload=args.workload,
                  seconds=args.seconds, trace=args.trace,
                  attempted=res["attempted"], failed=res["failed"],
                  failed_frac=res["failed"] / res["attempted"],
                  failures=res["failures"][:50],
                  leftover_wrappers=res.get("leftover_wrappers", []),
                  metrics={n: dict(res["metrics"][n], unit=u) for n, u in names},
                  probe_ns_per_step=res["metrics"].get("probe_ns_per_step"))
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": checks_ok and res["failed"] == 0,
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {n: {"value": res["metrics"][n]["value"], "unit": u}
                    for n, u in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
