"""Independent adaptive quadrature over [0, inf) for every integral in the
pipelines: the brute-force reference that certifies the analytic routes
and adjudicates print discrepancies.

Structure: adaptive Gauss-Kronrod (QUADPACK's QAGSE, the routine
scipy.integrate.quad runs on a finite interval) on [0, split] with user
breakpoints, plus an exp-transformed tail x = split + sinh(u) mapped back
to a finite panel.  The integrand's Airy values come from scipy's ``airy``
ufunc -- deliberately *not* from :mod:`airylog.airy` -- so the oracle
shares no code with the evaluator it certifies (the evaluator is
cross-checked against scipy directly in the test suite).

scipy is loaded on the first quadrature, not with this module: no other
part of airylog needs it, so the analytic commands never load it, and
without it a quadrature raises :class:`DependencyError`.  It loads scipy,
numpy and the two extension modules holding QAGSE and ``airy``: 0.09 s in
a fresh process with one BLAS thread (0.15 s with a thread per core).

Results are deterministic for fixed inputs.  Each integrand reads its
Airy weights, Python floats, from one dict of nodes: within a request
scope (:func:`airylog.results.request_scope`) scipy's Airy tuple is
evaluated once per node, and each distinct :func:`oracle_stieltjes` call
is integrated once; outside a scope, once per node of each quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from .errors import AccuracyError, DependencyError, DomainError, RangeError
from .ddreal import XReal
from .results import TransformResult, per_request

DEFAULT_SPLIT = 20.0
DEFAULT_TOL = 1e-12
_QUAD_LIMIT = 2000


@lru_cache(maxsize=None)
def _scipy() -> tuple:
    """(QUADPACK's ``_qagse``, the ``airy`` ufunc) from scipy's extension
    files, or from ``sys.modules`` where scipy has loaded them already;
    ``scipy.special.airy`` is this ufunc.  Neither calls BLAS, so a numpy
    first loaded here starts OpenBLAS with one thread for the process,
    unless a thread count is set; ``os.environ`` is restored after."""
    import os
    import sys
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec
    if single := "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS",
            "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import scipy
    except ImportError as exc:
        raise DependencyError("the quadrature oracle needs scipy "
                              "(pip install 'airylog[oracle]')") from exc
    finally:
        if single:  # another thread's first call may have removed it
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    found = []
    for name, attr in (("scipy.integrate._quadpack", "_qagse"),
                       ("scipy.special._special_ufuncs", "airy")):
        module = sys.modules.get(name)
        spec = PathFinder.find_spec(name, [os.path.join(
            scipy.__path__[0], name.split(".")[1])])
        if module is None and spec is not None:
            module = sys.modules[name] = module_from_spec(spec)
            spec.loader.exec_module(module)
        if not hasattr(module, attr):
            raise DependencyError(f"the quadrature oracle needs {name}."
                                  f"{attr}, which scipy>=1.14 has")
        found.append(getattr(module, attr))
    return tuple(found)


#: position in a node's weight tuple of each weight an integrand names
_STIELTJES_WEIGHTS = {"Ai": 0, "Ai2": 2, "AiP2": 3, "AiAiP": 4}
_MELLIN_WEIGHTS = dict(_STIELTJES_WEIGHTS, AiP=1)


@per_request
def _nodes() -> tuple:
    """(nodes, fill), made once per request scope: x -> (Ai, Ai', Ai**2,
    Ai'**2, Ai Ai') at x as floats, and fill(x), which adds x from scipy's
    Airy tuple; integrands read ``nodes.get(x) or fill(x)``, as no weight
    tuple is empty."""
    airy = _scipy()[1]
    nodes = {}

    def fill(x: float) -> tuple:
        s = airy(x)
        ai, aip = float(s[0]), float(s[1])
        w = nodes[x] = (ai, aip, ai ** 2, aip ** 2, ai * aip)
        return w

    return nodes, fill


def integrate_halfline(
    f: Callable[[float], float],
    split: float = DEFAULT_SPLIT,
    tol: float = DEFAULT_TOL,
    breakpoints: tuple = (),
) -> TransformResult:
    """Integrate f over [0, inf): adaptive GK on [0, split] (honouring
    interior breakpoints), sinh-transformed tail beyond.

    Requires the integrand to decay at least like a negative power past
    ``split``; Airy-weighted integrands decay exponentially and the tail
    panel converges in a handful of subdivisions.  Raises RangeError if
    the integrand overflows or divides by zero or the total is infinite,
    and AccuracyError if the combined error estimate exceeds ``tol`` by
    more than two orders of magnitude, or is NaN.  The result's
    ``subdivisions`` counts the subintervals of all panels.
    """
    qagse = _scipy()[0]
    pts = sorted({p for p in breakpoints if 0.0 < p < split})
    edges = [0.0] + pts + [split]
    # tail: x = split + sinh(u); du-integrand decays at least as fast as f
    tail = lambda u: f(split + math.sinh(u)) * math.cosh(u)
    total = 0.0
    err = 0.0
    neval = 0
    panels = [(f, a, b) for a, b in zip(edges[:-1], edges[1:])]
    try:
        upper = 1.0
        while upper < 12.0 and abs(tail(upper)) > 1e-18:
            upper += 1.0
        for g, a, b in panels + [(tail, 0.0, upper)]:
            # as scipy.integrate.quad(g, a, b, epsabs=tol / 4, epsrel=tol,
            # limit=_QUAD_LIMIT, full_output=True) calls it
            v, e, info, ier = qagse(g, a, b, (), 1, tol / 4, tol, _QUAD_LIMIT)
            if ier == 6:
                raise ValueError(f"QUADPACK rejected tol={tol!r}")
            total += v
            err += e
            neval += info["last"]
    except (OverflowError, ZeroDivisionError) as exc:
        raise RangeError("the integrand leaves the binary64 range "
                         f"({type(exc).__name__})") from exc
    if abs(total) == math.inf:
        raise RangeError("the integral exceeds the binary64 range")
    if not err <= 100.0 * tol * max(1.0, abs(total)):
        raise AccuracyError("halfline quadrature missed tolerance",
                            best=total, err_est=err)
    return TransformResult(XReal(total), "oracle", err, neval)


def _log_airy_integral(squared: bool) -> TransformResult:
    """integral_0^inf r^p ln r dx for r = Ai'(x)/Ai'(0), p = 1 or 2; the
    ratio is positive on [0, inf) because Ai' < 0 there, and the integrand
    vanishes at 0."""
    nodes, fill = _nodes()
    aip0 = (nodes.get(0.0) or fill(0.0))[1]

    def f(x: float) -> float:
        r = (nodes.get(x) or fill(x))[1] / aip0
        if r <= 0.0:
            return 0.0
        return (r * r if squared else r) * math.log(r)

    return integrate_halfline(f, split=25.0, breakpoints=(1.0, 5.0, 12.0))


def oracle_integral1() -> TransformResult:
    """First log-Airy integral by direct quadrature: integrand
    (Ai'(x)/Ai'(0)) * ln(Ai'(x)/Ai'(0))."""
    return _log_airy_integral(False)


def oracle_integral2() -> TransformResult:
    """Second log-Airy integral (squared ratio weight)."""
    return _log_airy_integral(True)


@per_request
def oracle_stieltjes(kind: str, k: int, a: float,
                     tol: float = DEFAULT_TOL) -> TransformResult:
    """integral_0^inf w(x)/(x+a)^k dx for w in {Ai, Ai2, AiP2, AiAiP}."""
    if not a > 0.0:
        raise DomainError("oracle_stieltjes needs a > 0")
    if k < 0:
        raise DomainError("oracle_stieltjes needs k >= 0")
    w = _STIELTJES_WEIGHTS[kind]
    nodes, fill = _nodes()
    f = lambda x: (nodes.get(x) or fill(x))[w] / (x + a) ** k
    # subdivide at x = a so each panel sees bounded derivatives
    return integrate_halfline(f, tol=tol, breakpoints=(min(a, 19.0), 1.0, 5.0))


def oracle_mellin(kind: str, n: int, a: float,
                  tol: float = DEFAULT_TOL) -> TransformResult:
    """integral_a^inf x^n w(x) dx for w in {Ai, AiP, Ai2, AiP2, AiAiP}."""
    if not 0.0 <= a < math.inf or (a == 0.0 and n <= -1):
        raise DomainError("oracle_mellin needs a finite a >= 0, and a > 0 "
                          "for n <= -1 (the integrand is singular at 0)")
    w = _MELLIN_WEIGHTS[kind]
    nodes, fill = _nodes()

    # shifted so the panel starts at the lower limit a
    def f(t: float) -> float:
        x = a + t
        if x > 0.0:
            return x ** n * (nodes.get(x) or fill(x))[w]
        return (nodes.get(0.0) or fill(0.0))[w] if n == 0 else 0.0

    split = max(DEFAULT_SPLIT, a + 10.0)
    pts = tuple(p - a for p in (1.0, 5.0, 12.0) if p > a)
    return integrate_halfline(f, split=split - a, tol=tol, breakpoints=pts)


def oracle_j_summand(a: float) -> TransformResult:
    """The per-root summand of the second pipeline by direct quadrature:

        (1/a) * int_0^inf x/(x+a) [2 Ai Ai' + x Ai'^2 - x^2 Ai^2] dx.
    """
    if not a > 0.0:
        raise DomainError("oracle_j_summand needs a > 0")
    nodes, fill = _nodes()

    def f(x: float) -> float:
        ai, aip = (nodes.get(x) or fill(x))[:2]
        return (x / (x + a)) * (2.0 * ai * aip + x * aip * aip
                                - x * x * ai * ai) / a

    return integrate_halfline(f, split=25.0, breakpoints=(1.0, 5.0, 12.0))
