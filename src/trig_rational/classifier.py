"""Classify tan^2, tan, cos^2 and cos at rational multiples of pi.

Each function of r*pi is either undefined (tan at odd multiples of pi/2),
an exact rational, or irrational; the verdict depends only on the reduced
denominator.  The rational values are scarce: tan^2 takes {0, 1, 1/3, 3},
tan takes {0, -1, 1}, cos takes {0, +-1, +-1/2} and cos^2 takes
{0, 1, 1/2, 1/4, 3/4}; everything else is irrational.
"""

from __future__ import annotations

from fractions import Fraction

from . import FUNCTIONS
from .angle import _cos_fold, _tan_fold
from .exact_core import FrozenRecord, _store, as_fraction

__all__ = [
    "TrigVerdict",
    "POLE",
    "IRRATIONAL",
    "FUNCTIONS",
    "classify",
    "classify_tan_squared",
    "classify_tan",
    "classify_cos_squared",
    "classify_cos",
]

class TrigVerdict(FrozenRecord):
    """Pole, Exact(value), or Irrational."""

    __match_args__ = ("kind", "value")
    kind: str  # "pole" | "exact" | "irrational"
    value: Fraction | None

    def __init__(self, kind: str, value: Fraction | None = None) -> None:
        if kind not in ("pole", "exact", "irrational"):
            raise ValueError(f"bad verdict kind {kind!r}")
        if (value is not None) != (kind == "exact"):
            raise ValueError("value present iff kind is exact")
        _store(self, "kind", kind)
        _store(self, "value", value)

    @classmethod
    def exact(cls, value: Fraction | int) -> "TrigVerdict":
        return cls("exact", as_fraction(value))

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


POLE = TrigVerdict("pole")
IRRATIONAL = TrigVerdict("irrational")


# the verdicts at the base denominators: tan^2 and cos^2 = 1/(1 + tan^2) by
# the reduced denominator, cos by its fold (d, n) into [0, 1]
_TAN2_VERDICTS = {1: TrigVerdict.exact(0), 2: POLE, 3: TrigVerdict.exact(3),
                  4: TrigVerdict.exact(1), 6: TrigVerdict.exact(Fraction(1, 3))}
_COS2_VERDICTS = {1: TrigVerdict.exact(1), 2: TrigVerdict.exact(0),
                  3: TrigVerdict.exact(Fraction(1, 4)), 4: TrigVerdict.exact(Fraction(1, 2)),
                  6: TrigVerdict.exact(Fraction(3, 4))}
_COS_VERDICTS = {(0, 1): TrigVerdict.exact(1), (1, 1): TrigVerdict.exact(-1),
                 (1, 2): TrigVerdict.exact(0), (1, 3): TrigVerdict.exact(Fraction(1, 2)),
                 (2, 3): TrigVerdict.exact(Fraction(-1, 2))}


def classify_tan_squared(r: Fraction | int) -> TrigVerdict:
    """tan^2(r*pi): Pole at denominator 2, exact on {1, 3, 4, 6}, else irrational.

    No fold: tan's period and parity keep the reduced denominator.
    """
    return _TAN2_VERDICTS.get(as_fraction(r).denominator, IRRATIONAL)


def classify_tan(r: Fraction | int) -> TrigVerdict:
    """tan(r*pi): exact only at denominators 1 and 4 (values 0 and +-1)."""
    _, n, sign = _tan_fold(r)
    if n == 1:
        return TrigVerdict.exact(0)
    if n == 2:
        return POLE
    if n == 4:
        return TrigVerdict.exact(sign)
    return IRRATIONAL


def classify_cos_squared(r: Fraction | int) -> TrigVerdict:
    """cos^2(r*pi) = 1/(1 + tan^2(r*pi)); the pole of tan^2 becomes the value 0."""
    return _COS2_VERDICTS.get(as_fraction(r).denominator, IRRATIONAL)


def classify_cos(r: Fraction | int) -> TrigVerdict:
    """cos(r*pi): exact only at cos-reduced denominators 1, 2, 3."""
    return _COS_VERDICTS.get(_cos_fold(r), IRRATIONAL)


def classify(r: Fraction | int, function: str) -> TrigVerdict:
    """Dispatch on one of the four function tags."""
    try:
        fn = _DISPATCH[function]
    except KeyError:
        raise ValueError(f"unknown function {function!r}") from None
    return fn(r)


_DISPATCH = {
    "tan2": classify_tan_squared,
    "tan": classify_tan,
    "cos2": classify_cos_squared,
    "cos": classify_cos,
}
