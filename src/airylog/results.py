"""The two shapes every number takes: a route's :class:`TransformResult`
and the CLI's printed :class:`Record`; and the request scope, in which
each per-point evaluation is made once.

A route result holds a double-double value and its route's warnings; a
printed row holds a binary64 value plus its id and provenance.
"""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager
from dataclasses import dataclass, fields

from .ddreal import XReal
from .errors import DomainError


@dataclass(frozen=True)
class TransformResult:
    """A computed integral value plus method tag and error estimate; a
    quadrature also reports how many subintervals it used, and a route
    the AccuracyWarnings it raised computing the value.

    Any two methods for the same quantity must agree within the sum of
    their err_est fields; the validation matrix enforces this.
    """

    value: XReal
    method: str
    err_est: float
    subdivisions: int | None = None
    warnings: tuple = ()

    def __float__(self):
        return float(self.value)


@dataclass(frozen=True)
class Record:
    """One printed row: a binary64 value with its id, reference value,
    deviation from it and provenance.  Validation rows also carry a
    status and the tolerance that decided it."""

    id: str
    method: str
    value: float | None
    err_est: float | None = None
    paper_value: float | None = None
    deviation: float | None = None
    provenance: str = ""
    status: str | None = None
    tol: float | None = None

    def row(self) -> dict:
        """The printed fields in order: all but ``tol``, and ``status``
        only when it is set."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        del row["tol"]
        if self.status is None:
            del row["status"]
        return row


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation orders for the accelerated pipelines: N explicit roots,
    n terms of the tail power series."""

    N: int
    n: int

    def __post_init__(self):
        if self.N < 1 or self.n < 0:
            raise DomainError("need N >= 1 and n >= 0")


#: the memo of the request scope open in this thread, or None
_SCOPE = contextvars.ContextVar("_SCOPE", default=None)


@contextmanager
def request_scope():
    """Open a request scope in this thread; an opening inside an open scope
    joins it.  While it is open, each :func:`per_request` function computes
    once per argument tuple, and its memo is dropped when the outermost
    opening closes, so nothing is kept from one request to the next."""
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def per_request(fn):
    """``fn`` memoised by its arguments, keywords included, within the open
    request scope, which shares the returned object; outside a scope it
    computes on every call.  A call that raises stores nothing."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        memo = _SCOPE.get()
        if memo is None:
            return fn(*args, **kwargs)
        # no frozenset on the keyword-free calls (thousands per request)
        key = (fn, args, frozenset(kwargs.items())) if kwargs else (fn, args)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = fn(*args, **kwargs)
        return hit

    return scoped


def scope_dict(key) -> dict:
    """The open request scope's dict for ``key`` (made on first use and
    dropped with the scope), or a fresh dict outside a scope."""
    memo = _SCOPE.get()
    return {} if memo is None else memo.setdefault(key, {})
