"""Zeta-like sums over the zeros of Ai': closed forms and incomplete sums.

The closed form extracts Z_k from the Taylor coefficients of
z*Ai(z)/Ai'(z) at the origin:  Z_k = (-1)^(k-1) [z^(k-1)] (z Ai/Ai').
The division is carried out with exact rational coefficients that are
polynomials in eta = Ai(0)/Ai'(0), so the table entries (Z_3 = 1,
Z_4 = eta^2/2, ...) come out exactly in symbolic form and are only
converted to double-double at the end.  This avoids all cancellation and
makes the closed-form values exact regression fixtures.

Z_2 equals -eta (eta is negative); the source table prints it without the
sign, which the series division here adjudicates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ddreal import XReal, dd_add, dd_powi
from .errors import DomainError
from .kernel import (ETA, compensated_sum, poly_add, poly_eval_dd, poly_mul,
                     poly_scale)
from . import roots as _roots
from .roots import RootTable

K_MAX = 20


@lru_cache(maxsize=None)
def _log_derivative_coeffs():
    """Taylor coefficients (eta-polynomials) of z*Ai(z)/Ai'(z) at 0, to
    z^K_MAX; built on first use."""
    kmax = K_MAX // 3 + 2
    F = [Fraction(1)]
    G = [Fraction(1)]
    for k in range(kmax):
        F.append(F[-1] / ((3 * k + 2) * (3 * k + 3)))
        G.append(G[-1] / ((3 * k + 3) * (3 * k + 4)))
    num = [(Fraction(0),)] * (K_MAX + 1)   # z * (eta f + g)
    den = [(Fraction(0),)] * (K_MAX + 1)   # eta f' + g'
    for k in range(kmax):
        if 3 * k + 1 <= K_MAX:
            num[3 * k + 1] = (Fraction(0), F[k])          # eta * F_k z^{3k+1}
        if 3 * k + 2 <= K_MAX:
            num[3 * k + 2] = poly_add(num[3 * k + 2], (G[k],))
        if 3 * k - 1 >= 0 and 3 * k - 1 <= K_MAX:
            den[3 * k - 1] = poly_add(den[3 * k - 1], (0, 3 * k * F[k]))
        if 3 * k <= K_MAX:
            den[3 * k] = poly_add(den[3 * k], ((3 * k + 1) * G[k],))
    # long division q = num / den with den[0] = [1]
    q = []
    for m in range(K_MAX + 1):
        acc = num[m]
        for j in range(m):
            acc = poly_add(acc, poly_scale(poly_mul(q[j], den[m - j]), -1))
        q.append(acc)
    return tuple(q)


def zeta_eta_poly(k: int) -> tuple:
    """Z_k as an exact polynomial in eta (Fraction coefficient tuple, low
    power first)."""
    if k < 2:
        raise DomainError("zeta sums converge only for k >= 2")
    if k > K_MAX:
        raise DomainError(f"zeta closed form capped at k = {K_MAX}")
    return poly_scale(_log_derivative_coeffs()[k - 1], 1 if k % 2 else -1)


@lru_cache(maxsize=K_MAX)
def zeta_closed(k: int) -> XReal:
    """Z_k = sum over root magnitudes of |a_n'|^-k, from the closed form."""
    return XReal.from_pair(poly_eval_dd(zeta_eta_poly(k), ETA.pair))


#: |a_n'|^-k for n = 1, 2, ... by k, over the roots of the process-wide
#: table; a longer tuple replaces an entry, so no lock
_INVERSE_POWERS: dict = {}


def zeta_incomplete(k: int, N: int, roots: RootTable) -> XReal:
    """Finite sum of |a_n'|^-k over the first N roots.

    The powers are memoised when the table's first N roots are those of
    the process-wide table (tables from :func:`roots_upto` share its
    objects, which the tuple comparison matches by identity); any other
    table is raised to -k on every call."""
    if not (isinstance(k, int) and k >= 2):
        raise DomainError("zeta sums need an integer k >= 2")
    if not (isinstance(N, int) and N >= 0):
        raise DomainError("N must be an integer >= 0")
    if N > roots.n_max:
        raise DomainError(f"root table holds {roots.n_max} roots, need {N}")
    table = roots.roots[:N]
    if table == _roots._ROOTS[:N]:
        powers = _INVERSE_POWERS.get(k, ())
        if len(powers) < N:
            powers += tuple(dd_powi(r.pair, -k) for r in table[len(powers):])
            _INVERSE_POWERS[k] = powers
    else:
        powers = tuple(dd_powi(r.pair, -k) for r in table)
    acc = (0.0, 0.0)
    for p in reversed(powers[:N]):  # smallest terms first
        acc = dd_add(acc, p)
    return XReal.from_pair(acc)


def zeta_tail(coeffs, p: int, N: int, roots: RootTable) -> XReal:
    """sum_k c_k {Z_{p+k} - Z_{p+k}(N)}, k = 0..len(coeffs)-1, summed by
    :func:`compensated_sum`: the zeta-accelerated tail of both log-Airy
    integrals, whose roots beyond the first N enter only through the gaps
    between the closed and the incomplete sums."""
    return compensated_sum([c * (zeta_closed(p + k) - zeta_incomplete(p + k, N, roots))
                            for k, c in enumerate(coeffs)])
