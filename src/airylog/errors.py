"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Argument outside the mathematical domain (e.g. gamma pole)."""


class RangeError(ValueError):
    """Argument outside the supported numerical range."""


class DependencyError(ImportError):
    """An optional dependency is not installed: the quadrature oracle
    needs scipy (and numpy), which come with the ``oracle`` extra."""


class ConvergenceError(RuntimeError):
    """A series failed to converge; carries the partial value."""

    def __init__(self, message, partial=None, terms=None):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


class AccuracyError(RuntimeError):
    """Requested tolerance not met; carries the best estimate."""

    def __init__(self, message, best=None, err_est=None):
        super().__init__(message)
        self.best = best
        self.err_est = err_est


class IterationError(RuntimeError):
    """An iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class StabilityError(RuntimeError):
    """A recurrence was requested in a numerically unstable direction."""
