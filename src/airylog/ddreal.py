"""Double-double ("compensated") real arithmetic.

A value is carried as an unevaluated sum hi + lo of two binary64 numbers
with |lo| <= ulp(hi)/2, giving roughly 32 significant decimal digits.  The
error-free transforms (two_sum / two_prod via Dekker splitting) are the
classical ones; see Dekker (1971) and the QD library of Hida, Li & Bailey.
The hot primitives (``dd_add``, ``dd_mul``, ``dd_mul_f``, ``dd_div_f``,
``dd_sqr``) write these transforms out in their bodies, with the same IEEE
operations in the same order, so no intermediate tuple is built; the
``_two_sum`` / ``_quick_two_sum`` helpers serve the cold paths only.

Two layers are exposed:

* module-level functions on ``(hi, lo)`` tuples -- used in inner loops
  where attribute access would dominate the cost;
* the :class:`XReal` wrapper with operator overloading for everything else.

All operations are pure; instances are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import RangeError

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def dd_add(a, b):
    # two_sum of the high and of the low parts, then two quick_two_sums
    a0, a1 = a
    b0, b1 = b
    s = a0 + b0
    bb = s - a0
    e = (a0 - (s - bb)) + (b0 - bb)
    t = a1 + b1
    bb = t - a1
    f = (a1 - (t - bb)) + (b1 - bb)
    e += t
    u = s + e
    e = e - (u - s)
    e += f
    s = u + e
    return s, e - (s - u)


def dd_add_f(a, b: float):
    s, e = _two_sum(a[0], b)
    e += a[1]
    return _quick_two_sum(s, e)


def dd_neg(a):
    return (-a[0], -a[1])


def dd_sub(a, b):
    return dd_add(a, (-b[0], -b[1]))


# In the products below, ``c - (c - x)`` is the high half of x by Dekker's
# split (c = _SPLITTER * x) and the parenthesised error term is two_prod's.

def dd_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    p = a0 * b0
    c = _SPLITTER * a0
    ahi = c - (c - a0)
    alo = a0 - ahi
    c = _SPLITTER * b0
    bhi = c - (c - b0)
    blo = b0 - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    e += a0 * b1 + a1 * b0
    s = p + e
    return s, e - (s - p)


def dd_mul_f(a, b: float):
    a0, a1 = a
    p = a0 * b
    c = _SPLITTER * a0
    ahi = c - (c - a0)
    alo = a0 - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    e += a1 * b
    s = p + e
    return s, e - (s - p)


def dd_div(a, b):
    q1 = a[0] / b[0]
    r = dd_sub(a, dd_mul_f(b, q1))
    q2 = (r[0] + r[1]) / b[0]
    return _quick_two_sum(q1, q2)


def dd_div_f(a, b: float):
    q1 = a[0] / b
    p = q1 * b
    c = _SPLITTER * q1
    qhi = c - (c - q1)
    qlo = q1 - qhi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    e = ((qhi * bhi - p) + qhi * blo + qlo * bhi) + qlo * blo
    r0, r1 = dd_add(a, (-p, -e))
    q2 = (r0 + r1) / b
    s = q1 + q2
    return s, q2 - (s - q1)


def dd_sqr(a):
    a0, a1 = a
    p = a0 * a0
    c = _SPLITTER * a0
    ahi = c - (c - a0)
    alo = a0 - ahi
    e = ((ahi * ahi - p) + ahi * alo + alo * ahi) + alo * alo
    e += 2.0 * a0 * a1
    s = p + e
    return s, e - (s - p)


def dd_sqrt(a):
    if a[0] < 0.0:
        raise ValueError("dd_sqrt of negative value")
    if a[0] == 0.0:
        return (0.0, 0.0)
    x = math.sqrt(a[0])
    # one Newton step on x -> (x + a/x)/2 doubles the accuracy of the seed
    r = dd_div(a, (x, 0.0))
    s, e = _two_sum(r[0], x)
    return dd_mul_f((s, e + r[1]), 0.5)


def dd_from_fraction(fr: Fraction):
    hi = fr.numerator / fr.denominator
    rem = fr - Fraction(hi)
    lo = rem.numerator / rem.denominator
    return _quick_two_sum(hi, lo) if abs(hi) >= abs(lo) else _two_sum(hi, lo)


def dd_from_str(s: str):
    return dd_from_fraction(Fraction(s))


# exp/ln: dd_exp raises OverflowError above 709 and RangeError below
# _EXP_MIN; dd_ln takes any positive finite binary64 pair.

_LN2 = dd_from_str(
    "0.69314718055994530941723212145817656807550013436025525412068"
)
_EXP_COEFFS = 26  # Taylor terms after range reduction; |r| <= ln2/2
#: below this, 2**k < 2**-968 puts the low part of exp(a) among the
#: subnormals, whose spacing 2**-1074 is then coarser than 2**-106 of it
_EXP_MIN = -671.0


def dd_exp(a):
    if a[0] > 709.0:
        raise OverflowError("dd_exp overflow")
    if a[0] < _EXP_MIN:
        raise RangeError(f"dd_exp keeps double-double accuracy only for "
                         f"a >= {_EXP_MIN:g}")
    k = round((a[0] + a[1]) / _LN2[0])
    r = dd_sub(a, dd_mul_f(_LN2, float(k)))
    # Taylor sum of exp(r), |r| <= ~0.347
    term = (1.0, 0.0)
    total = (1.0, 0.0)
    for i in range(1, _EXP_COEFFS):
        term = dd_div_f(dd_mul(term, r), float(i))
        total = dd_add(total, term)
        if abs(term[0]) < 1e-36 * abs(total[0]):
            break
    if k > 996:  # dd_mul_f would overflow splitting 2**k: scale each part
        return math.ldexp(total[0], k), math.ldexp(total[1], k)
    return dd_mul_f(total, math.ldexp(1.0, k))  # scaling by 2**k is exact


def dd_ln(a):
    if a[0] <= 0.0:
        raise ValueError("dd_ln of non-positive value")
    e = math.frexp(a[0])[1]
    if not -960 <= e <= 960:  # keeps exp(-y) below inside dd_exp's range
        return dd_add(dd_ln((math.ldexp(a[0], -e), math.ldexp(a[1], -e))),
                      dd_mul_f(_LN2, float(e)))
    y = (math.log(a[0]), 0.0)
    # two Newton steps: y <- y + a*exp(-y) - 1
    for _ in range(2):
        ey = dd_exp(dd_neg(y))
        y = dd_add(y, dd_add_f(dd_mul(a, ey), -1.0))
    return y


def dd_powi(a, n: int):
    if n == 0:
        return (1.0, 0.0)
    inv = n < 0
    n = abs(n)
    result = (1.0, 0.0)
    base = a
    while True:
        if n & 1:
            result = dd_mul(result, base)
        n >>= 1
        if not n:
            break
        base = dd_sqr(base)
    return dd_div((1.0, 0.0), result) if inv else result


Scalar = Union["XReal", int, float, Fraction]


def _exact(v):
    """v as Python compares numbers exactly.  For an XReal: hi when lo is 0
    or hi is not finite (an infinity orders by hi, a NaN is unordered), lo
    when only lo is not finite, else the Fraction hi + lo."""
    if not isinstance(v, XReal):
        return v
    if v.lo == 0.0 or not math.isfinite(v.hi):
        return v.hi
    return v.lo if not math.isfinite(v.lo) else Fraction(v.hi) + Fraction(v.lo)


class XReal:
    """Extended-precision real: hi + lo pair of binary64 values.

    ``lo`` is zero when extended precision is disabled (plain promotion of
    a float).  Arithmetic is associative only up to the ~1e-32 relative
    rounding of the representation; summation helpers in
    :mod:`airylog.kernel` state their error model explicitly.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_pair(cls, pair) -> "XReal":
        x = object.__new__(cls)
        x.hi, x.lo = pair
        return x

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "XReal":
        return cls.from_pair(dd_from_fraction(fr))

    @classmethod
    def parse(cls, s: str) -> "XReal":
        return cls.from_pair(dd_from_str(s))

    @staticmethod
    def _coerce(v: Scalar):
        if isinstance(v, XReal):
            return (v.hi, v.lo)
        if isinstance(v, Fraction):
            return dd_from_fraction(v)
        if isinstance(v, int) and abs(v) > 2**53:
            return dd_from_fraction(Fraction(v))
        return (float(v), 0.0)

    @property
    def pair(self):
        return (self.hi, self.lo)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: Scalar):
        return XReal.from_pair(dd_add(self.pair, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other: Scalar):
        return XReal.from_pair(dd_sub(self.pair, self._coerce(other)))

    def __rsub__(self, other: Scalar):
        return XReal.from_pair(dd_sub(self._coerce(other), self.pair))

    def __mul__(self, other: Scalar):
        return XReal.from_pair(dd_mul(self.pair, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar):
        return XReal.from_pair(dd_div(self.pair, self._coerce(other)))

    def __rtruediv__(self, other: Scalar):
        return XReal.from_pair(dd_div(self._coerce(other), self.pair))

    def __neg__(self):
        return XReal(-self.hi, -self.lo)

    def __abs__(self):
        return -self if self.hi < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("XReal ** only supports integer exponents")
        return XReal.from_pair(dd_powi(self.pair, n))

    # -- comparisons and hash (on the exact represented value) -----------
    def __eq__(self, other):
        return _exact(self) == _exact(other)

    def __lt__(self, other):
        return _exact(self) < _exact(other)

    def __le__(self, other):
        return _exact(self) <= _exact(other)

    def __gt__(self, other):
        return _exact(self) > _exact(other)

    def __ge__(self, other):
        return _exact(self) >= _exact(other)

    def __hash__(self):
        # Python's numeric hash of the exact value, so an XReal hashes as
        # the equal float, int or Fraction; a NaN by its own hi
        v = _exact(self)
        return hash(v) if v == v else hash(self.hi)

    def __float__(self):
        return self.hi + self.lo

    def __repr__(self):
        return f"XReal({self.hi!r}, {self.lo!r})"

    def __format__(self, spec):
        return format(float(self), spec)


# Trusted literal constants (40 digits).
PI = XReal.parse("3.141592653589793238462643383279502884197169399375105820975")
TWO_PI = XReal.from_pair(dd_mul_f(PI.pair, 2.0))
SQRT3 = XReal.from_pair(dd_sqrt((3.0, 0.0)))
SQRT_PI = XReal.from_pair(dd_sqrt(PI.pair))
EULER_GAMMA = XReal.parse(
    "0.5772156649015328606065120900824024310421593359399235988058"
)
LN3 = XReal.from_pair(dd_ln((3.0, 0.0)))
