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
from .angle import (
    ReducedAngle,
    _cos_fold,
    _tan_fold,
    cos_base_value,
    tan_squared_base_value,
)
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


# the verdicts at the base denominators, keyed as the folds return them
_TAN2_VERDICTS = {
    n: POLE if v is None else TrigVerdict.exact(v)
    for n in (1, 2, 3, 4, 6)
    for v in (tan_squared_base_value(n),)
}
_COS2_VERDICTS = {
    n: TrigVerdict.exact(0 if t.kind == "pole" else 1 / (1 + t.value))
    for n, t in _TAN2_VERDICTS.items()
}
_COS_VERDICTS = {
    (d, n): TrigVerdict.exact(cos_base_value(ReducedAngle(d, n)))
    for d, n in ((0, 1), (1, 1), (1, 2), (1, 3), (2, 3))
}


def classify_tan_squared(r: Fraction | int) -> TrigVerdict:
    """tan^2(r*pi): Pole at denominator 2, exact on {1, 3, 4, 6}, else irrational."""
    return _TAN2_VERDICTS.get(_tan_fold(r)[1], IRRATIONAL)


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
    return _COS2_VERDICTS.get(_tan_fold(r)[1], IRRATIONAL)


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
