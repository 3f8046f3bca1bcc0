"""The quadrature oracle: anchors, linearity, tail independence."""

import math
import warnings

import pytest
from scipy.special import airy as scipy_airy

from airylog import oracle
from airylog.oracle import (
    integrate_halfline,
    oracle_integral1,
    oracle_integral2,
    oracle_j_summand,
    oracle_mellin,
    oracle_stieltjes,
)

AI0 = scipy_airy(0.0)[0]
AIP0 = scipy_airy(0.0)[1]


def test_airy_normalisation():
    res = integrate_halfline(lambda x: scipy_airy(x)[0])
    assert abs(res.value - 1.0 / 3.0) <= 1e-12
    assert res.err_est < 1e-10


def test_exponential():
    res = integrate_halfline(lambda x: math.exp(-x))
    assert abs(res.value - 1.0) <= 1e-12


def test_first_moment():
    res = integrate_halfline(lambda x: x * scipy_airy(x)[0])
    assert abs(res.value + AIP0) <= 1e-12


def test_headline_values():
    r1 = oracle_integral1()
    assert abs(r1.value + 0.81400778) <= 5e-8
    r2 = oracle_integral2()
    assert abs(r2.value + 0.2636317105) <= 5e-9
    assert abs(r2.value) < abs(r1.value)


def test_integrand_signs():
    # ratio in (0,1) on (0,10) makes the log negative
    for x in (0.5, 2.0, 7.5):
        r = scipy_airy(x)[1] / AIP0
        assert 0.0 < r < 1.0


def test_stieltjes_anchors():
    assert abs(oracle_stieltjes("Ai", 3, 1.0187929716).value
               - 0.1045955174) <= 1e-9
    assert abs(oracle_stieltjes("Ai", 0, 5.0).value - 1.0 / 3.0) <= 1e-11
    assert abs(oracle_stieltjes("Ai2", 1, 1.0187929716).value
               - 0.04826441) <= 1e-8


def test_mellin_anchors():
    assert abs(oracle_mellin("AiP", 0, 0.0).value + AI0) <= 1e-12
    assert abs(oracle_mellin("AiAiP", 0, 0.0).value + AI0 ** 2 / 2) <= 1e-12
    # I_3(1) = 2 I_0(1) - Ai'(1) + 2 Ai(1)
    ai1, aip1, _, _ = scipy_airy(1.0)
    i0 = oracle_mellin("Ai", 0, 1.0).value
    ref = 2 * i0 - aip1 + 2 * ai1
    assert abs(oracle_mellin("Ai", 3, 1.0).value - ref) <= 1e-11


def test_linearity():
    import random

    rng = random.Random(3)
    for _ in range(20):
        c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        f = lambda x: scipy_airy(x)[0]
        g = lambda x: math.exp(-2 * x)
        both = integrate_halfline(lambda x: c1 * f(x) + c2 * g(x))
        sep = (c1 * integrate_halfline(f).value
               + c2 * integrate_halfline(g).value)
        assert abs(both.value - sep) <= (abs(c1) + abs(c2) + 1) * 1e-12


def test_tail_split_independence():
    f = lambda x: scipy_airy(x)[0] ** 2 / (x + 1.0)
    v15 = integrate_halfline(f, split=15.0).value
    v25 = integrate_halfline(f, split=25.0).value
    assert abs(v15 - v25) <= 1e-13


def test_halving_tol_within_err_est():
    for kind, k, a in (("Ai", 3, 2.0), ("Ai2", 1, 1.0)):
        loose = oracle_stieltjes(kind, k, a, tol=1e-8)
        tight = oracle_stieltjes(kind, k, a, tol=5e-9)
        assert abs(loose.value - tight.value) <= 2 * max(loose.err_est, 1e-15)


def test_j_summand_value():
    # independent reference for the per-root summand at the second root
    v = oracle_j_summand(3.2481975822)
    assert abs(v.value + 0.00433921909165) < 1e-10


def test_argument_validation():
    from airylog.errors import DomainError

    with pytest.raises(DomainError):
        oracle_stieltjes("Ai", 3, -1.0)
    with pytest.raises(DomainError):
        oracle_mellin("Ai2", -1, 0.0)
    with pytest.raises(DomainError):
        oracle_mellin("Ai", 1, math.inf)


def test_nan_integrand_fails_the_accuracy_gate():
    # a NaN error estimate fails every comparison, so the gate is written
    # to raise unless the estimate is within tolerance
    from airylog.errors import AccuracyError

    with pytest.raises(AccuracyError):
        integrate_halfline(lambda x: math.nan)


@pytest.mark.parametrize("f", [
    lambda x: math.exp(1e3 - x),
    lambda x: 1.0 / (x - x),
    lambda x: math.inf,
], ids=["OverflowError", "ZeroDivisionError", "infinite-total"])
def test_a_range_failure_of_the_integrand_raises_range_error(f):
    # QUADPACK passes the exception a callback raises back to the caller
    from airylog.errors import RangeError

    with pytest.raises(RangeError):
        integrate_halfline(f)


#: transform commands whose oracle integrand leaves the binary64 range, by
#: an exception (the first five) or with an infinite total (the last two)
RANGE_FAILURES = [
    "--kind mellin-ai --n 140 --a 1",
    "--kind stieltjes-ai --k 200 --a 0.001",
    "--kind stieltjes-ai2 --k 400 --a 0.5",
    "--kind stieltjes-ai --k 2 --a 1e200",
    "--kind mellin-aip --n -300 --a 0.01",
    "--kind stieltjes-ai2 --k 31 --a 1e-10",
    "--kind stieltjes-aip2 --k 9 --a 1e-35",
]


@pytest.mark.parametrize("args", RANGE_FAILURES)
def test_an_oracle_range_failure_is_a_configuration_error(args, capsys):
    from airylog.cli import main

    argv = ["transform", *args.split(), "--method", "oracle",
            "--format", "json"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error:")


#: (value, err_est, subdivisions) of four oracle calls as ``float.hex``:
#: a Mellin transform through its x <= 0 branch (a = 0, n = 0), one with a
#: negative power, a squared-weight Stieltjes transform and the J summand.
#: The integrand arithmetic is the same binary64 operations in the same
#: order however the nodes are read, so these bits must not move.
_PINNED = {
    ("mellin", "Ai", 0, 0.0):
        ("0x1.5555555555554p-2", "0x1.6ee8ba78d4b98p-48", 5),
    ("mellin", "Ai", -1, 1.0):
        ("0x1.0b706ab89cfa1p-4", "0x1.56e70fe12e79ep-45", 5),
    ("stieltjes", "AiP2", 2, 1.0):
        ("0x1.e0934c9d65c08p-6", "0x1.3fc7072eb805ap-49", 6),
    ("j_summand", 2.0):
        ("-0x1.4ff96ec923dffp-7", "0x1.2947bfb4779d2p-43", 6),
}


@pytest.mark.parametrize("call", sorted(_PINNED, key=repr))
def test_oracle_values_keep_their_bits(call):
    fn = {"mellin": oracle_mellin, "stieltjes": oracle_stieltjes,
          "j_summand": oracle_j_summand}[call[0]]
    res = fn(*call[1:])
    assert (res.value.hi.hex(), res.err_est.hex(), res.subdivisions) \
        == _PINNED[call]
    assert res.value.lo == 0.0


@pytest.mark.parametrize("call", [
    lambda: oracle_stieltjes("Ai", 3, 2.0),
    lambda: oracle_mellin("AiAiP", -1, 1.0),
    oracle_integral2,
], ids=["stieltjes-Ai-3-2", "mellin-AiAiP--1-1", "integral2"])
def test_loaded_extensions_are_scipys_quad_and_airy(call, monkeypatch):
    # the oracle loads QUADPACK's QAGSE and the airy ufunc from their
    # extension files; scipy's packages, imported after, hold the same
    # objects, and each panel gives quad's value, abserr and subdivisions
    call()
    import scipy.integrate
    import scipy.special

    qagse, airy = oracle._scipy()
    assert airy is scipy.special.airy
    panels = []

    def recorded(g, a, b, *args):
        out = qagse(g, a, b, *args)
        panels.append((g, a, b, out))
        return out

    monkeypatch.setattr(oracle, "_scipy", lambda: (recorded, airy))
    call()
    assert len(panels) >= 2
    for g, a, b, (v, e, info, _) in panels:
        qv, qe, qinfo = scipy.integrate.quad(
            g, a, b, epsabs=1e-12 / 4, epsrel=1e-12, limit=2000,
            full_output=True)[:3]
        assert (v.hex(), e.hex(), info["last"]) \
            == (qv.hex(), qe.hex(), qinfo["last"]), (a, b)


def test_loaded_airy_is_the_public_airy_without_warnings():
    airy = oracle._scipy()[1]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for x in (0.0, -16.0, 25.0, 1e3, 8.1e4):
            ours, theirs = airy(x), scipy_airy(x)
            assert [float(w).hex() for w in ours] \
                == [float(w).hex() for w in theirs], x
            if x >= 1e3:
                assert float(ours[0]) == float(ours[1]) == 0.0
    assert seen == []


def test_a_scipy_without_the_modules_names_the_floor(monkeypatch):
    # a scipy older than the floor in pyproject.toml lacks the modules or
    # keeps airy elsewhere; the loader names what it needs, and that floor
    import sys
    from pathlib import Path
    from types import SimpleNamespace

    from airylog.errors import DependencyError

    pyproject = (Path(oracle.__file__).resolve().parents[2]
                 / "pyproject.toml").read_text(encoding="utf-8")
    assert pyproject.count('"scipy>=1.14"') == 2
    monkeypatch.setitem(sys.modules, "scipy.special._special_ufuncs",
                        SimpleNamespace())
    with pytest.raises(DependencyError,
                       match=r"scipy\.special\._special_ufuncs\.airy, "
                             r"which scipy>=1\.14 has"):
        oracle._scipy.__wrapped__()
