"""Exact integer and rational primitives shared by the rest of the package.

Integers are plain Python ``int`` (arbitrary precision).  Rationals are
``fractions.Fraction``, which already canonicalizes to lowest terms with a
positive denominator on construction, so structural equality is semantic
equality.  The stdlib supplies gcd, floor square root and binomial
coefficients; the divisor enumeration and the exact rational square root
are written here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb as _comb, gcd, isqrt as integer_sqrt

__all__ = [
    "gcd",
    "integer_sqrt",
    "make_rational",
    "as_fraction",
    "divisors",
    "rational_sqrt",
    "binomial",
]


def make_rational(num: int, den: int) -> Fraction:
    """num/den in lowest terms, positive denominator.  den == 0 raises."""
    return Fraction(num, den)


def as_fraction(x: Fraction | int) -> Fraction:
    """x itself when it is exactly a Fraction, else Fraction(x) (subclasses too).

    Fraction(x) would copy a Fraction through the slow numbers.Rational check.
    """
    return x if type(x) is Fraction else Fraction(x)


def divisors(n: int) -> list[int]:
    """All positive divisors of n > 0, ascending."""
    if n <= 0:
        raise ValueError("divisors requires a positive integer")
    small: list[int] = []
    large: list[int] = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    large.reverse()
    return small + large


def rational_sqrt(q: Fraction | int) -> Fraction | None:
    """Exact nonnegative square root of q, or None when q is not a rational square.

    Works on the canonical form: q = a/b in lowest terms is a square exactly
    when a and b are both perfect squares.
    """
    q = as_fraction(q)
    if q < 0:
        return None
    rn = integer_sqrt(q.numerator)
    rd = integer_sqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def binomial(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n; anything else raises."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial({n}, {k}) out of range")
    return _comb(n, k)
