"""Classify tan^2, tan, cos^2 and cos at rational multiples of pi.

Each function of r*pi is either undefined (tan at odd multiples of pi/2),
an exact rational, or irrational; the verdict is read off the reduced
fraction d/n, by n alone for tan^2 and cos^2 and by n with the residue of d
mod n (tan) or mod 2n (cos) for the signed functions.  The rational values
are scarce: tan^2 takes {0, 1, 1/3, 3}, tan takes {0, -1, 1}, cos takes
{0, +-1, +-1/2} and cos^2 takes {0, 1, 1/2, 1/4, 3/4}; everything else is
irrational.  _verdicts is the one reader of the tables: it gives an angle's
four verdicts on plain ints, scan takes all four and classify (and so
certify) takes its function's entry; _plain is the kernel's plain form of a
claim, which verify_certificate and scan check.
"""

from __future__ import annotations

from fractions import Fraction

from . import FUNCTIONS
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

WIRE_VERSION = 5  # the kernel's WIRE_VERSION, which a test pins it to


def _plain(num: int, den: int, function: str, v: TrigVerdict) -> tuple:
    """The kernel's plain form of the claim v on function(num/den * pi), num/den in lowest terms.

    It is what kernel.parse gives for the claim's wire tree; verify_certificate
    and scan hand it to kernel.check.
    """
    verdict = (v.kind,) if v.value is None else (v.kind, (v.value.numerator, v.value.denominator))
    return WIRE_VERSION, (num, den), function, verdict


# the verdicts at the base denominators, read off the reduced d/n: tan^2 and
# cos^2 = 1/(1 + tan^2) by n alone, tan by (n, d mod n) as it has period 1,
# cos by (n, d mod 2n) as it has period 2
_TAN2_VERDICTS = {1: TrigVerdict.exact(0), 2: POLE, 3: TrigVerdict.exact(3),
                  4: TrigVerdict.exact(1), 6: TrigVerdict.exact(Fraction(1, 3))}
_COS2_VERDICTS = {1: TrigVerdict.exact(1), 2: TrigVerdict.exact(0),
                  3: TrigVerdict.exact(Fraction(1, 4)), 4: TrigVerdict.exact(Fraction(1, 2)),
                  6: TrigVerdict.exact(Fraction(3, 4))}
_TAN_VERDICTS = {(1, 0): TrigVerdict.exact(0), (2, 1): POLE,
                 (4, 1): TrigVerdict.exact(1), (4, 3): TrigVerdict.exact(-1)}
_COS_VERDICTS = {(1, 0): TrigVerdict.exact(1), (1, 1): TrigVerdict.exact(-1),
                 (2, 1): TrigVerdict.exact(0), (2, 3): TrigVerdict.exact(0),
                 (3, 1): TrigVerdict.exact(Fraction(1, 2)),
                 (3, 5): TrigVerdict.exact(Fraction(1, 2)),
                 (3, 2): TrigVerdict.exact(Fraction(-1, 2)),
                 (3, 4): TrigVerdict.exact(Fraction(-1, 2))}


def classify_tan_squared(r: Fraction | int) -> TrigVerdict:
    """tan^2(r*pi): Pole at denominator 2, exact on {1, 3, 4, 6}, else irrational.

    No fold: tan's period and parity keep the reduced denominator.
    """
    return classify(r, "tan2")


def classify_tan(r: Fraction | int) -> TrigVerdict:
    """tan(r*pi): exact only at denominators 1 and 4 (values 0 and +-1)."""
    return classify(r, "tan")


def classify_cos_squared(r: Fraction | int) -> TrigVerdict:
    """cos^2(r*pi) = 1/(1 + tan^2(r*pi)); the pole of tan^2 becomes the value 0."""
    return classify(r, "cos2")


def classify_cos(r: Fraction | int) -> TrigVerdict:
    """cos(r*pi): exact only at reduced denominators 1, 2, 3."""
    return classify(r, "cos")


def _verdicts(num: int, den: int) -> tuple[TrigVerdict, TrigVerdict, TrigVerdict, TrigVerdict]:
    """The verdicts on tan^2, tan, cos^2 and cos (FUNCTIONS order) at num/den * pi.

    num/den is in lowest terms with den >= 1; the verdicts are read off the
    tables by den and the residue of num.
    """
    return (
        _TAN2_VERDICTS.get(den, IRRATIONAL),
        _TAN_VERDICTS.get((den, num % den), IRRATIONAL),
        _COS2_VERDICTS.get(den, IRRATIONAL),
        _COS_VERDICTS.get((den, num % (2 * den)), IRRATIONAL),
    )


def classify(r: Fraction | int, function: str) -> TrigVerdict:
    """The verdict on one of the four function tags: its entry of _verdicts."""
    try:
        i = FUNCTIONS.index(function)
    except ValueError:
        raise ValueError(f"unknown function {function!r}") from None
    r = as_fraction(r)
    return _verdicts(r.numerator, r.denominator)[i]
