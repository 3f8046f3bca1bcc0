"""The two shapes every number takes: a route's :class:`TransformResult`
and the CLI's printed :class:`Record`.

A route result holds a double-double value and has no id; a printed row
holds a binary64 value plus its id and provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .ddreal import XReal
from .errors import DomainError


@dataclass(frozen=True)
class TransformResult:
    """A computed integral value plus method tag and error estimate; a
    quadrature also reports how many subintervals it used.

    Any two methods for the same quantity must agree within the sum of
    their err_est fields; the validation matrix enforces this.
    """

    value: XReal
    method: str
    err_est: float
    subdivisions: int | None = None

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
