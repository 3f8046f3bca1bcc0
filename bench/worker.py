"""The measured process of one run of the ``headline`` or ``matrix``
workload, and the child used for set-up probes and micro entries.

    python3 bench/worker.py --workload W --seed S --seconds T --mode M

Modes:

* ``setup``: import airylog (``airylog.cli`` for cli-cold), run the
  untimed warm-up, print ``ready`` and exit.  The parent times a fresh
  interpreter from its start to that line.
* ``run``: as ``setup``, then the timed closed loop over the rounds from
  ``--round-start`` on, each request sampled by the calibration probe
  (``calibrate.py``) while it runs; prints one JSON line.  An untraced
  run is several such segments in a row, so set-up is sampled across the
  whole run.
* ``trace``: as ``setup``, then each request twice, untraced and with
  spans (at most ``TRACE_REQUESTS`` pairs), a ddreal counting pass over
  the first round and the micro entries; prints one JSON line.
* ``micro``: import airylog and print the micro entries.

Output checking happens in the parent (``run.py``); this process only
measures and reports what the program returned.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
from time import perf_counter

import calibrate
import workloads as wl

sys.path.insert(0, str(wl.REPO_ROOT / "src"))


def _execute(workload: str, req):
    """Run one request; returns (seconds, output, error)."""
    t0 = perf_counter()
    try:
        if workload == "headline":
            out = wl.headline_request(*req)
        else:
            out = wl.matrix_request()
        err = None
    except Exception as exc:  # a failed request is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, err


def _record(workload: str, req, dt, out, err) -> dict:
    """What the parent checks: headline values, or the digest of the
    validate JSON text a matrix request produced."""
    if workload == "matrix" and out is not None:
        out = wl.sha256(wl.validate_json(out))
    return {"request": list(req), "latency_s": dt, "output": out, "error": err}


def warm_up(workload: str) -> None:
    if workload == "headline":
        wl.headline_request("integral1", 10, 3)
        wl.headline_request("integral2", 10, 6)
    elif workload == "matrix":
        wl.matrix_request()


def timed_loop(workload: str, seed: int, seconds: float, min_requests: int,
               max_requests=None, round_start: int = 0):
    """Whole rounds, from round ``round_start`` of the seed's stream, until
    ``wl.loop_done``; returns (records, rounds run).  Each record has the
    request's time less the sampler's (``timed_s``) and the probe's seconds
    per step while it ran (``per_step_s``)."""
    records = []
    rounds = 0
    start = perf_counter()
    # warms the probe's code up (a fresh interpreter runs it slower at
    # first) and gives the speed for a request in which no sample fell
    per_step = calibrate.probe()
    sampler = calibrate.Sampler()
    for rnd in itertools.islice(wl.ROUNDS[workload](seed), round_start, None):
        for req in rnd:
            with sampler:
                dt, out, err = _execute(workload, req)
            net, sampled = sampler.take(dt)
            per_step = sampled or per_step
            records.append(dict(_record(workload, req, dt, out, err),
                                timed_s=net, per_step_s=per_step))
        rounds += 1
        if wl.loop_done(perf_counter() - start, len(records), seconds,
                        min_requests, max_requests):
            break
    return records, rounds


def err_point_values() -> dict:
    N, n = wl.ERR_POINT
    return {"integral1": wl.headline_request("integral1", N, n),
            "integral2": wl.headline_request("integral2", N, n)}


def paired_loop(workload: str, seed: int, seconds: float, out_path: str):
    """Each request untraced, then again under a request span with every
    layer wrapped, so the pair sees the same machine state; whole rounds
    until ``wl.loop_done`` (at most TRACE_REQUESTS pairs).  Returns
    (untraced records, traced records, per-request profiles)."""
    import spans

    rec = spans.Recorder()
    untraced, traced = [], []
    start = perf_counter()
    for rnd in wl.ROUNDS[workload](seed):
        for req in rnd:
            untraced.append(_record(workload, req, *_execute(workload, req)))
            handle = spans.install(rec)
            try:
                with rec.span(spans.REQUEST, request=len(traced)):
                    dt, out, err = _execute(workload, req)
            finally:
                handle.uninstall()
            traced.append(_record(workload, req, dt, out, err))
        if wl.loop_done(perf_counter() - start, len(traced), seconds, 1,
                        wl.TRACE_REQUESTS):
            break
    rec.write(out_path)
    profiles = [spans.request_profile(s)
                for _, s in sorted(spans.split_requests(rec.spans).items())]
    return untraced, traced, profiles


def count_ddreal(workload: str, requests: list) -> list:
    import spans

    out = []
    for req in requests:
        with spans.DdrealCounter() as counter:
            _execute(workload, req)
        out.append(counter.count)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "run", "trace", "micro"),
                   required=True)
    p.add_argument("--spans-out", default=None)
    p.add_argument("--round-start", type=int, default=0)
    p.add_argument("--min-requests", type=int, default=wl.MIN_REQUESTS)
    p.add_argument("--err-point", action="store_true")
    args = p.parse_args(argv)

    if args.mode == "micro":
        import airylog  # noqa: F401
        import micro

        print(json.dumps({"micro": micro.run()}))
        return 0
    if args.workload == "cli-cold":
        import airylog.cli  # noqa: F401
    else:
        import airylog  # noqa: F401
    warm_up(args.workload)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.workload == "cli-cold":
        raise SystemExit("cli-cold requests run in the parent")

    result = {}
    if args.mode == "run":
        records, rounds = timed_loop(
            args.workload, args.seed, args.seconds, args.min_requests,
            round_start=args.round_start)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(requests=records, rounds=rounds)
        if args.err_point:
            result["err_point"] = err_point_values()
    else:
        import micro
        import spans

        records, traced, profiles = paired_loop(
            args.workload, args.seed, args.seconds, args.spans_out)
        first_round = next(wl.ROUNDS[args.workload](args.seed))
        result.update(
            requests=records + traced,
            untraced_latency_s=[r["latency_s"] for r in records],
            traced_latency_s=[r["latency_s"] for r in traced],
            profiles=profiles, leftover_wrappers=spans.leftover_wrappers(),
            ddreal_calls=count_ddreal(args.workload, first_round),
            micro=micro.run())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
