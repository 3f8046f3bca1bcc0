"""The two shapes every number takes: a route's :class:`TransformResult`
and the CLI's printed :class:`Record`; :class:`Frozen`, the base of the
slotted value types; a route's :class:`Domain`; and the request scope, in
which each per-point evaluation is made once.

A route result holds a double-double value and its error estimate; a
printed row holds a binary64 value plus its id and provenance.
"""

from __future__ import annotations

import contextvars
import functools
import math
from contextlib import contextmanager
from typing import NamedTuple

from .ddreal import XReal
from .errors import DomainError, RangeError


class Frozen:
    """Base of the slotted value types: each subclass's ``__init__`` sets
    its fields once, through this one, as the per-process memos hand one
    object to every caller.  A value compares, hashes and prints by its
    fields; a slot named ``_...`` holds a cache, no part of the value."""

    __slots__ = ()

    def __init_subclass__(cls):
        # each slot's setter, bound once: no per-store attribute lookup
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls.__slots__)

    def __init__(self, *values):
        for set_slot, value in zip(self._setters, values, strict=True):
            set_slot(self, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__ if n[0] != "_")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


class TransformResult(Frozen):
    """A computed integral value plus method tag and absolute error
    estimate; a quadrature also reports how many subintervals it used.
    A route whose estimate exceeds its bound raises AccuracyError instead.
    The validation matrix checks each record against a fixed tolerance,
    not err_est (0.0 on all but the two oracle headline records)."""

    __slots__ = ("value", "method", "err_est", "subdivisions")

    def __init__(self, value: XReal, method: str, err_est: float,
                 subdivisions: int | None = None):
        super().__init__(value, method, err_est, subdivisions)

    def __float__(self):
        return float(self.value)


class Record(NamedTuple):
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
        row = self._asdict()
        del row["tol"]
        if self.status is None:
            del row["status"]
        return row


class Domain(NamedTuple):
    """Where a route applies: lo <= a <= hi and k_lo <= k <= k_hi (k is n
    for a Mellin transform), bounds inclusive; ``hi`` may be a dict by k,
    which holds for no a at a k it does not name.  A route that accepts
    just its domain refuses the rest by :meth:`check` alone; two domains,
    ``stieltjes1.SMALLA`` and ``ASYMPTOTIC``, only select routes."""

    lo: float = -math.inf
    hi: float | dict = math.inf
    k_lo: float = -math.inf
    k_hi: float = math.inf

    def _hi(self, k) -> float:
        return self.hi.get(k, -math.inf) if isinstance(self.hi, dict) else self.hi

    def holds(self, k: int, a: float) -> bool:
        return self.k_lo <= k <= self.k_hi and self.lo <= a <= self._hi(k)

    def check(self, name: str, k: int, a: float) -> None:
        """Raise DomainError unless k is an integer in [k_lo, k_hi] and
        a > 0 (NaN fails), then RangeError unless lo <= a <= hi."""
        if not (isinstance(k, int) and self.k_lo <= k <= self.k_hi and a > 0.0):
            raise DomainError(f"{name} needs an integer order in "
                              f"[{self.k_lo:g}, {self.k_hi:g}] and a > 0")
        if not self.holds(k, a):
            lower = f"[{self.lo:g}" if self.lo > 0 else "(0"
            raise RangeError(f"{name} of order {k} needs a in {lower}, {self._hi(k):g}]")


class TruncationConfig(Frozen):
    """Truncation orders for the accelerated pipelines: N explicit roots,
    n terms of the tail power series, both integers."""

    __slots__ = ("N", "n")

    def __init__(self, N: int, n: int):
        if not (isinstance(N, int) and isinstance(n, int) and N >= 1
                and n >= 0):
            raise DomainError("need integers N >= 1 and n >= 0")
        super().__init__(N, n)


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

