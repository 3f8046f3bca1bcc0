"""Tests of the benchmark itself (not of airylog):

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def first_requests(workload: str, seed: int, count: int) -> list:
    out = []
    for rnd in wl.ROUNDS[workload](seed):
        out.extend(rnd)
        if len(out) >= count:
            return out[:count]


def test_same_seed_same_requests():
    for workload in wl.WORKLOADS:
        assert (first_requests(workload, 7, 40)
                == first_requests(workload, 7, 40))
    assert first_requests("headline", 7, 30) != first_requests("headline", 8, 30)
    assert first_requests("cli-cold", 7, 30) != first_requests("cli-cold", 8, 30)


def test_rounds_fix_the_mix():
    for seed in (1, 2):
        reqs = first_requests("headline", seed, 300)
        assert sum(r[0] == "integral1" for r in reqs) == 200
        cli = first_requests("cli-cold", seed, 100)
        assert sum(a[0] in ("roots", "zeta") for a in cli) == 60


def test_every_drawable_cli_command_is_frozen():
    frozen = wl.load_expected()["cli"]
    for argv in wl.cli_commands():
        assert wl.cli_key(argv) in frozen
        assert frozen[wl.cli_key(argv)]["exit"] == 0


def test_corrupted_headline_expectation_makes_failed_frac_positive(
        tmp_path, monkeypatch, capsys):
    corrupt = tmp_path / "expected"
    shutil.copytree(wl.EXPECTED_DIR, corrupt)
    data = json.loads((corrupt / "headline.json").read_text())
    for kind in data:
        for row in data[kind].values():
            row[:] = [v + 1e-9 for v in row]
    (corrupt / "headline.json").write_text(json.dumps(data))
    monkeypatch.setattr(wl, "EXPECTED_DIR", corrupt)
    rc = run.main(["--workload", "headline", "--seed", "3", "--seconds", "0.2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["failed"] / out["attempted"] > 0
    assert out["correct"] is False


def test_corrupted_matrix_and_cli_expectations_fail():
    expected = wl.load_expected()
    text = wl.validate_json(wl.matrix_request())
    assert wl.check_matrix(expected, wl.sha256(text)) is None
    expected["validate"] = expected["validate"].replace("root.1", "root.0", 1)
    assert wl.check_matrix(expected, wl.sha256(text)) is not None

    argv = ("roots", "--N", "5", "--format", "json")
    failures = []
    run._cli_requests([argv], expected, failures)
    assert failures == []
    key = wl.cli_key(argv)
    expected["cli"][key] = dict(expected["cli"][key],
                                stdout=expected["cli"][key]["stdout"] + " ")
    records, _ = run._cli_requests([argv], expected, failures)
    assert len(failures) == 1 and not records[0]["ok"]


@pytest.fixture
def traced_request():
    rec = spans.Recorder()
    handle = spans.install(rec)
    try:
        assert spans.leftover_wrappers()
        with rec.span(spans.REQUEST, request=0):
            values = wl.headline_request("integral1", 12, 2)
    finally:
        handle.uninstall()
    return rec, values


def test_untraced_after_traced_sees_no_wrappers(traced_request):
    rec, traced_values = traced_request
    recorded = len(rec.spans)
    assert recorded > 0
    assert spans.leftover_wrappers() == []
    assert wl.headline_request("integral1", 12, 2) == traced_values
    assert len(rec.spans) == recorded


def test_spans_reach_every_layer_of_a_request(traced_request):
    rec, _ = traced_request
    prof = spans.request_profile(rec.spans)
    assert prof["self_sum_err_frac"] <= spans.SELF_SUM_SLACK
    for name in ("roots.roots_upto", "stieltjes1.StieltjesContext",
                 "stieltjes1.bigI1_closed", "kernel.hyp_pfq", "airy.airy"):
        assert prof["calls"].get(name, 0) > 0, name
    # kernel.hyp reaches hyp_pfq through kernel's globals: one child each
    assert prof["calls"]["kernel.hyp_pfq"] >= prof["calls"]["kernel.hyp"]


def test_self_time_subtracts_children():
    spans_ = [(2, "b", 1.0, 3.0, 1, 0, None, None),
              (3, "c", 2.5, 4.0, 1, 0, None, None),
              (1, spans.REQUEST, 0.0, 10.0, None, 0, None, None)]
    prof = spans.request_profile(spans_)
    assert prof["self_s"][spans.REQUEST] == pytest.approx(7.0)
    assert prof["self_sum_err_frac"] == pytest.approx(0.05)


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy",
        "import time:       200 |        300 |           scipy.special",
        "import time:        50 |        450 |       scipy.integrate",
        "import time:        10 |        460 |     airylog.oracle",
        "import time:        20 |        480 |   airylog",
        "import time:        30 |        510 | airylog.cli",
    ])
    got = run.parse_importtime(text)
    assert got["cli.import_ms"] == pytest.approx(0.51)
    assert got["cli.import_scipy_ms"] == pytest.approx(0.45)


def test_sampler_probes_during_a_request_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler()
    t0 = time.perf_counter()
    with sampler:
        wl.headline_request("integral1", 12, 2)
    dt = time.perf_counter() - t0
    net, per_step = sampler.take(dt)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples > 0 and per_step > 0
    assert 0 < net < dt
    assert calibrate.scale(net, calibrate.REF_STEP_S) == pytest.approx(net)
