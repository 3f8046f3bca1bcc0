"""Magnitudes |a_n'| of the zeros of Ai', by asymptotic seed plus Newton
refinement.

The seed is the large-n expansion in the variable t = (3/8)pi(4n-3).  Its
t^-6 coefficient is the printed 181228/207360; the literature value
181223/207360 is kept only so that the validation matrix can compare the
two.  Newton refinement makes the choice immaterial for refined roots, and
for seed-only roots the two differ below 1e-12 (n >= 15).

Newton iterates on f(r) = Ai'(-r) with the exact derivative from the Airy
equation, f'(r) = r*Ai(-r).  Refinement is performed while the root lies
inside the double-double series range of :func:`airylog.airy.airy`; beyond
that the seed itself is already accurate to ~1e-12.

Root n depends on n alone, so the process computes each one once: every
:func:`roots_upto` table is a prefix of one process-wide tuple, which
grows only when a caller asks for more roots than it holds.  Tables share
its :class:`~airylog.ddreal.XReal` objects, so callers must not mutate
them.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_left
from fractions import Fraction

from .airy import airy, SERIES_MAX
from .ddreal import XReal
from .errors import DomainError, IterationError
from .results import Frozen

#: t^-6 seed coefficient as printed in the source table ("paper" variant).
T6_PAPER = Fraction(181228, 207360)
#: t^-6 coefficient from the standard asymptotic expansion.
T6_STANDARD = Fraction(181223, 207360)

#: Newton residual bound of the refined roots, relative to the derivative
#: scale
NEWTON_TOL = 1e-13
_NEWTON_MAXIT = 8


def root_seed(n: int, t6: Fraction = T6_PAPER) -> float:
    """Asymptotic magnitude of the n-th zero of Ai'.

    t^(2/3) * (1 - 7/48 t^-2 + 35/288 t^-4 - t6 * t^-6), t = (3/8)pi(4n-3).
    Strictly increasing in n; absolute error ~5e-3 at n = 2, ~1e-6 at
    n = 10, below 1e-12 for n >= 15.
    """
    if n < 1:
        raise DomainError("root index must be >= 1")
    t = 0.375 * math.pi * (4 * n - 3)
    t2 = 1.0 / (t * t)
    corr = 1.0 + t2 * (-7.0 / 48.0 + t2 * (35.0 / 288.0 - float(t6) * t2))
    return t ** (2.0 / 3.0) * corr


#: Roots 1..REFINED_UPTO (13) have their seeds inside the Airy series range,
#: with 0.5 to spare, and are Newton-refined; the seeds increase with n.
REFINED_UPTO = next(n for n in itertools.count(1)
                    if root_seed(n) > SERIES_MAX - 0.5) - 1


def refine_root(seed: float) -> XReal:
    """Newton-refine a seed to a zero of Ai'(-x).

    Uses f'(r) = r*Ai(-r) (from Ai'' = x Ai); converges to residual
    |Ai'(-r)| <= 1e-13 * max(1, |r Ai(-r)|) in at most 8 iterations for
    seeds within 0.3 of a true zero.
    """
    r = XReal(float(seed))
    for _ in range(_NEWTON_MAXIT):
        st = airy(-float(r))
        f = st.aip
        fp = r * st.ai
        step = f / fp
        r = r - step
        if abs(float(step)) <= 1e-16 * abs(float(r)):
            break
    st = airy(-float(r))
    scale = max(1.0, abs(float(r * st.ai)))
    if abs(float(st.aip)) > NEWTON_TOL * scale:
        raise IterationError(
            f"Newton refinement stalled at residual {float(st.aip):.3e}", last=r
        )
    # one extra dd correction using the final state
    r = r - st.aip / (r * st.ai)
    return r


class RootTable(Frozen):
    """Ordered magnitudes of the zeros of Ai' with refinement metadata.

    Roots 1..``refined_upto`` lie inside the Airy series range and are
    Newton-refined (residual <= ``NEWTON_TOL`` relative to the derivative
    scale); larger ones carry the asymptotic seed, accurate to ~1e-12 there.
    ``roots`` is a slice of the process-wide table: its XReals are shared
    with every other table and must not be mutated.
    """

    __slots__ = ("roots",)

    def __init__(self, roots: tuple):
        super().__init__(roots)

    @property
    def n_max(self) -> int:
        return len(self.roots)

    @property
    def refined_upto(self) -> int:
        return min(self.n_max, REFINED_UPTO)

    def __getitem__(self, n: int) -> XReal:
        """1-based access: table[n] is |a_n'|."""
        try:
            if 1 <= n <= self.n_max:
                return self.roots[n - 1]
        except TypeError:  # n is not an integer
            raise DomainError(f"root index {n!r} is not an integer") from None
        raise IndexError(f"root index {n} outside 1..{self.n_max}")


#: Every root magnitude computed so far in this process, |a_n'| at index
#: n - 1.  A longer tuple replaces it in one assignment and it is never
#: changed in place, so a reader needs no lock and always sees a complete
#: prefix; extensions hold ``_EXTEND`` so that none is lost or repeated.
_ROOTS: tuple = ()
_EXTEND = threading.Lock()


def _root(n: int) -> XReal:
    seed = root_seed(n)
    if n > REFINED_UPTO:
        return XReal(seed)
    try:
        return refine_root(seed)
    except IterationError as exc:
        raise IterationError(f"refinement failed at root {n}",
                             last=exc.last) from exc


def roots_upto(N: int) -> RootTable:
    """Table of the first N root magnitudes, 1 <= N <= 500, sliced from
    the process-wide table (extended first if it holds fewer than N)."""
    global _ROOTS
    if not (isinstance(N, int) and 1 <= N <= 500):
        raise DomainError("roots_upto supports integers 1 <= N <= 500")
    roots = _ROOTS
    if len(roots) < N:
        with _EXTEND:
            roots = _ROOTS
            if len(roots) < N:
                roots += tuple(_root(n) for n in range(len(roots) + 1, N + 1))
                _ROOTS = roots
    return RootTable(roots[:N])


def is_root_magnitude(a: float) -> bool:
    """Whether a is float(|a_n'|) of a root in the process-wide table."""
    n = bisect_left(_ROOTS, a, key=float)  # _ROOTS only ever grows
    return n < len(_ROOTS) and float(_ROOTS[n]) == a
