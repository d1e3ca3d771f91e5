"""Exact integer and rational primitives shared by the rest of the package.

Integers are plain Python ``int`` (arbitrary precision).  Rationals are
``fractions.Fraction``, which already canonicalizes to lowest terms with a
positive denominator on construction, so structural equality is semantic
equality; callers build them with Fraction and take floor square roots and
binomial coefficients from math.isqrt and math.comb.  The divisor
enumeration and the exact rational square root are written here, and so is
FrozenRecord, the base of the package's immutable value types.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "gcd",
    "as_fraction",
    "divisors",
    "rational_sqrt",
]


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
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# A record's __init__ stores its fields with this, past FrozenRecord.__setattr__;
# a module global is looked up faster than object.__setattr__.
_store = object.__setattr__


class FrozenRecord:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in __match_args__ and writes its
    own __init__, which validates and then stores each field with _store
    (object.__setattr__).  Writing the instance __dict__ directly would make
    every later attribute read slower.  Assignment and deletion raise
    AttributeError.  The base gives equality and hash over the fields, with
    records of different types never equal; the repr Name(field=value, ...);
    and __replace__ (copy.replace), which builds a new record through
    __init__ and so validates again.  Pickling restores the attributes as
    they were, without __init__.
    """

    __match_args__: tuple[str, ...] = ()

    @property
    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __replace__(self, **changes: object) -> FrozenRecord:
        """A copy with some fields changed, validated again (copy.replace)."""
        for name in self.__match_args__:
            changes.setdefault(name, getattr(self, name))
        return self.__class__(**changes)
