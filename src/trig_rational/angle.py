"""Symbolic angle reduction and the double-angle algebra on tan^2.

Angles are rational multiples of pi.  tan has period 1 (in units of pi) and
is odd, so any r reduces to a representative d/n in [0, 1/2] plus a sign;
cos has period 2 and is even, so r reduces to d/n in [0, 1] with no sign.
Doubling an angle acts on T = tan^2 by T -> 4T/(1-T)^2, and inverting that
map is solving a quadratic whose discriminant decides rationality.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_core import (
    FrozenRecord, _cos_fold, _store, _tan_fold, as_fraction, gcd, rational_sqrt)

__all__ = [
    "PoleError",
    "ReducedAngle",
    "DoublingChain",
    "reduce_for_tan",
    "reduce_for_cos",
    "odd_part",
    "invert_double_angle",
    "integer_double_angle_preimages",
    "doubling_chain",
]


class PoleError(ValueError):
    """Raised where tan hits its pole."""


class ReducedAngle(FrozenRecord):
    """An angle d/n (lowest terms, d >= 0) with an orientation sign.

    Any such d/n is accepted; reduce_for_tan and reduce_for_cos return the
    canonical ones, folded into [0, 1/2] and [0, 1].  The sign only matters
    for odd functions of the angle (tan); it is +1 everywhere else.
    """

    __match_args__ = ("d", "n", "sign")
    d: int
    n: int
    sign: int

    def __init__(self, d: int, n: int, sign: int = 1) -> None:
        if n < 1 or d < 0 or gcd(d, n) != 1:
            raise ValueError(f"not a reduced angle: {d}/{n}")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _store(self, "d", d)
        _store(self, "n", n)
        _store(self, "sign", sign)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.d, self.n)


class DoublingChain(FrozenRecord):
    """Successive angle doublings, each folded back into [0, 1/2]."""

    __match_args__ = ("angles",)
    angles: tuple[ReducedAngle, ...]

    def __init__(self, angles: tuple[ReducedAngle, ...]) -> None:
        _store(self, "angles", angles)


def reduce_for_tan(r: Fraction | int) -> ReducedAngle:
    """Fold r into [0, 1/2] using tan's period 1 and oddness.

    tan((1-x)pi) = -tan(x pi), so x in (1/2, 1) maps to 1-x with sign -1.
    The pole representative 1/2 is kept as is.
    """
    r = as_fraction(r)
    return ReducedAngle(*_tan_fold(r.numerator, r.denominator))


def reduce_for_cos(r: Fraction | int) -> ReducedAngle:
    """Fold r into [0, 1] using cos's period 2 and evenness."""
    r = as_fraction(r)
    return ReducedAngle(*_cos_fold(r.numerator, r.denominator))


def odd_part(n: int) -> tuple[int, int]:
    """n = 2^a * q with q odd; returns (a, q)."""
    if n < 1:
        raise ValueError("odd_part requires n >= 1")
    a = (n & -n).bit_length() - 1  # n & -n is n's lowest set bit, 2^a
    return a, n >> a


def invert_double_angle(d_value: Fraction | int) -> list[Fraction]:
    """All rational T with 4T/(1-T)^2 = d_value, ascending.

    For D > 0 the preimages solve D*x^2 - 2(D+2)*x + D = 0, i.e.
    x = (D + 2 +- 2*sqrt(D+1)) / D, so rational preimages exist exactly when
    D+1 is a rational square; the two roots multiply to 1.
    """
    d_value = as_fraction(d_value)
    if d_value < 0:
        raise ValueError("tan^2 is never negative")
    if d_value == 0:
        return [Fraction(0)]
    root = rational_sqrt(d_value + 1)
    if root is None:
        return []
    lo = (d_value + 2 - 2 * root) / d_value
    hi = (d_value + 2 + 2 * root) / d_value
    return [lo, hi]


def integer_double_angle_preimages(u: int) -> list[Fraction]:
    """Integer preimages of an odd positive integer u under the doubling map.

    These are the integer roots of u*x^2 - 2(u+2)*x + u; the quadratic has
    rational roots only when u+1 is a perfect square, and integrality then
    filters the pair.
    """
    if u < 1 or u % 2 == 0:
        raise ValueError("expected an odd positive integer")
    return [x for x in invert_double_angle(u) if x.denominator == 1]


def doubling_chain(start: ReducedAngle, stop_den: int) -> DoublingChain:
    """Angle doublings from start down to denominator stop_den.

    Doubling d/n halves the denominator while it is even, so start.n must be
    stop_den times a power of two.  The start is kept as given; every
    doubling is folded into [0, 1/2].
    """
    if stop_den < 1 or start.n % stop_den != 0:
        raise ValueError(f"{stop_den} does not divide denominator {start.n}")
    ratio = start.n // stop_den
    if ratio & (ratio - 1):
        raise ValueError(f"{start.n}/{stop_den} is not a power of two")
    angles = [start]
    d, n = start.d, start.n
    while n > stop_den:
        d, n, _ = _tan_fold(d, n // 2)
        angles.append(ReducedAngle(d, n))
    return DoublingChain(tuple(angles))

