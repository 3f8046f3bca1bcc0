"""The headline pipelines reproduce the frozen benchmark values bit for
bit: both integrals, through the public API, at root counts on both sides
of the last Newton-refined root (N = 13, 14; later roots are asymptotic
seeds) and at several tail orders n.  ``bench/expected/headline.json``
is only read here; a change that moves digits refreezes it, and this
test follows."""

import json
from pathlib import Path

import pytest

from airylog import (
    J1Solution,
    StieltjesContext,
    TruncationConfig,
    integral1_accelerated,
    integral1_series,
    integral2_accelerated,
    integral2_series,
    roots_upto,
)

FROZEN = Path(__file__).resolve().parents[1] / "bench" / "expected" / "headline.json"
TERMS = (0, 6, 10)
#: n = 0..10 accelerated values come first in each frozen row
PARTIAL_SUMS = 11


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


@pytest.mark.parametrize("N", (10, 13, 14, 100))
def test_headline_values_are_bit_identical_to_frozen(frozen, N):
    roots = roots_upto(N)
    ctx = StieltjesContext(roots)
    sol = J1Solution.build(float(roots[1]))
    got = {
        "integral1": (
            [integral1_accelerated(TruncationConfig(N, n), roots, ctx) for n in TERMS],
            [integral1_series(route, N, roots, ctx) for route in ("eq3", "eq8")]),
        "integral2": (
            [integral2_accelerated(TruncationConfig(N, n), roots, sol) for n in TERMS],
            [integral2_series(N, roots, sol)]),
    }
    for kind, (accelerated, partial) in got.items():
        row = frozen[kind][str(N)]
        want = [row[n] for n in TERMS] + row[PARTIAL_SUMS:]
        values = [float(v) for v in accelerated + partial]
        assert [v.hex() for v in values] == [w.hex() for w in want], kind
