"""Classify tan^2, tan, cos^2 and cos at rational multiples of pi.

Each function of r*pi is either undefined (tan at odd multiples of pi/2),
an exact rational, or irrational; the verdict depends only on the reduced
denominator.  The rational values are scarce: tan^2 takes {0, 1, 1/3, 3},
tan takes {0, -1, 1}, cos takes {0, +-1, +-1/2} and cos^2 takes
{0, 1, 1/2, 1/4, 3/4}; everything else is irrational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angle import (
    cos_base_value,
    reduce_for_cos,
    reduce_for_tan,
    tan_squared_base_value,
)
from .exact_core import as_fraction

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

FUNCTIONS = ("tan2", "tan", "cos2", "cos")


@dataclass(frozen=True)
class TrigVerdict:
    """Pole, Exact(value), or Irrational."""

    kind: str  # "pole" | "exact" | "irrational"
    value: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("pole", "exact", "irrational"):
            raise ValueError(f"bad verdict kind {self.kind!r}")
        if (self.value is not None) != (self.kind == "exact"):
            raise ValueError("value present iff kind is exact")

    @classmethod
    def exact(cls, value: Fraction | int) -> "TrigVerdict":
        return cls("exact", as_fraction(value))

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


POLE = TrigVerdict("pole")
IRRATIONAL = TrigVerdict("irrational")


def classify_tan_squared(r: Fraction | int) -> TrigVerdict:
    """tan^2(r*pi): Pole at denominator 2, exact on {1, 3, 4, 6}, else irrational."""
    red = reduce_for_tan(r)
    if red.n == 2:
        return POLE
    if red.n in (1, 3, 4, 6):
        return TrigVerdict.exact(tan_squared_base_value(red.n))
    return IRRATIONAL


def classify_tan(r: Fraction | int) -> TrigVerdict:
    """tan(r*pi): exact only at denominators 1 and 4 (values 0 and +-1)."""
    red = reduce_for_tan(r)
    if red.n == 1:
        return TrigVerdict.exact(0)
    if red.n == 2:
        return POLE
    if red.n == 4:
        return TrigVerdict.exact(red.sign)
    return IRRATIONAL


def classify_cos_squared(r: Fraction | int) -> TrigVerdict:
    """cos^2(r*pi) = 1/(1 + tan^2(r*pi)); the pole of tan^2 becomes the value 0."""
    t = classify_tan_squared(r)
    if t.kind == "pole":
        return TrigVerdict.exact(0)
    if t.kind == "exact":
        return TrigVerdict.exact(1 / (1 + t.value))
    return IRRATIONAL


def classify_cos(r: Fraction | int) -> TrigVerdict:
    """cos(r*pi): exact only at cos-reduced denominators 1, 2, 3."""
    red = reduce_for_cos(r)
    if red.n in (1, 2, 3):
        return TrigVerdict.exact(cos_base_value(red))
    return IRRATIONAL


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
