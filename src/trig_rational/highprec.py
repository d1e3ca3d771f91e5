"""Certified enclosures of tan^2(r*pi) and cos(r*pi) with exact rational endpoints.

Everything runs in fixed-point integer arithmetic at a working scale 2^w: a
real x is enclosed by integers lo <= x*2^w <= hi, every division is rounded
outward, and series truncations carry an explicit tail bound, so the
returned interval is a guarantee, not an estimate.

  * pi comes from the Machin combination pi = 16*arctan(1/5) - 4*arctan(1/239);
    each arctangent series alternates with strictly decreasing terms, so the
    tail is bounded by the first omitted term.
  * The angle is reduced symbolically first (exact fraction of pi, folded so
    the series argument stays in [0, pi/4]), then sin and cos come from
    their alternating power series with the same first-omitted-term bound.
  * tan^2 = sin^2 / cos^2 with outward-rounded interval division.

The public evaluators return intervals whose center sits on the dyadic grid
2^-(bits+4) with half-width 2^-(bits+1), so the width is exactly 2^-bits
(within the 2^(1-bits) contract) and enclosures at higher bit counts nest
inside those at lower ones by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .angle import PoleError, ReducedAngle, reduce_for_cos, reduce_for_tan
from .classifier import TrigVerdict
from .exact_core import as_fraction
from .polynomial import IntPolynomial

__all__ = [
    "RatInterval",
    "eval_tan_squared",
    "eval_cos",
    "eval_poly_at_tan_squared",
    "interval_eval",
    "crosscheck",
    "MIN_BITS",
    "MAX_BITS",
]

MIN_BITS = 8
MAX_BITS = 4096


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints.

    Membership tests cross-multiply integers; the value may be an int, a
    Fraction or a finite float, and is compared exactly.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x: Fraction | int | float) -> bool:
        return not self.excludes(x)

    def excludes(self, x: Fraction | int | float) -> bool:
        x = as_fraction(x)
        a, b = x.numerator, x.denominator
        lo, hi = self.lo, self.hi
        return (
            a * lo.denominator < lo.numerator * b
            or a * hi.denominator > hi.numerator * b
        )


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# ---------------------------------------------------------------- pi ------

_pi_cache: dict[int, tuple[int, int]] = {}


def _arctan_recip_scaled(x: int, w: int) -> tuple[int, int]:
    """Enclosure of arctan(1/x) * 2^w for integer x >= 2.

    arctan(1/x) = sum_k (-1)^k / ((2k+1) x^(2k+1)); the terms strictly
    decrease, so truncating after a term below one grid unit leaves a tail
    below one grid unit as well.
    """
    lo = hi = 0
    k = 0
    x2 = x * x
    xpow = x
    scale = 1 << w
    while True:
        q = scale // ((2 * k + 1) * xpow)
        if k % 2 == 0:
            lo += q
            hi += q + 1
        else:
            lo -= q + 1
            hi -= q
        if q == 0:
            return lo - 1, hi + 1
        k += 1
        xpow *= x2


def _pi_scaled(w: int) -> tuple[int, int]:
    """Enclosure of pi * 2^w, cached per scale.

    Two threads that miss the cache at once both compute the same value, and
    the second store overwrites the first with an equal one.
    """
    got = _pi_cache.get(w)
    if got is not None:
        return got
    # work 8 bits finer, then round outward
    a_lo, a_hi = _arctan_recip_scaled(5, w + 8)
    b_lo, b_hi = _arctan_recip_scaled(239, w + 8)
    lo = (16 * a_lo - 4 * b_hi) >> 8
    hi = _ceil_div(16 * a_hi - 4 * b_lo, 256)
    _pi_cache[w] = (lo, hi)
    return lo, hi


# ------------------------------------------------------------ sin / cos ---


def _sin_cos_scaled(th_lo: int, th_hi: int, w: int, want_sin: bool) -> tuple[int, int]:
    """Enclosure of sin or cos over a theta-interval inside [0, 0.8].

    Alternating series in interval arithmetic; all products shift down by w
    with outward rounding.  Stops once the term's upper bound is at most one
    grid unit, widening by one unit for the tail (terms decrease from the
    first step because theta^2 < 2).
    """
    t2_lo = (th_lo * th_lo) >> w
    t2_hi = -((-(th_hi * th_hi)) >> w)
    if want_sin:
        term_lo, term_hi = th_lo, th_hi
        d1, d2 = 2, 3
    else:
        one = 1 << w
        term_lo = term_hi = one
        d1, d2 = 1, 2
    s_lo, s_hi = term_lo, term_hi
    negative = True
    while True:
        term_lo = ((term_lo * t2_lo) >> w) // (d1 * d2)
        term_hi = -((-(term_hi * t2_hi)) >> w)
        term_hi = -((-term_hi) // (d1 * d2))
        if negative:
            s_lo -= term_hi
            s_hi -= term_lo
        else:
            s_lo += term_lo
            s_hi += term_hi
        if term_hi <= 1:
            return s_lo - 1, s_hi + 1
        negative = not negative
        d1 += 2
        d2 += 2


def _theta_scaled(num: int, den: int, w: int) -> tuple[int, int]:
    """Enclosure of (num/den)*pi at scale 2^w for num >= 0, den > 0."""
    pi_lo, pi_hi = _pi_scaled(w)
    return (pi_lo * num) // den, _ceil_div(pi_hi * num, den)


def _sinpi_scaled(d: int, n: int, w: int) -> tuple[int, int]:
    # d/n in [0, 1/2]; fold at 1/4 so the series argument stays small
    if 4 * d <= n:
        return _sin_cos_scaled(*_theta_scaled(d, n, w), w, want_sin=True)
    return _sin_cos_scaled(*_theta_scaled(n - 2 * d, 2 * n, w), w, want_sin=False)


def _cospi_scaled(d: int, n: int, w: int) -> tuple[int, int]:
    if 4 * d <= n:
        return _sin_cos_scaled(*_theta_scaled(d, n, w), w, want_sin=False)
    return _sin_cos_scaled(*_theta_scaled(n - 2 * d, 2 * n, w), w, want_sin=True)


def _sqr_scaled(lo: int, hi: int, w: int) -> tuple[int, int]:
    if lo >= 0:
        return (lo * lo) >> w, -((-(hi * hi)) >> w)
    if hi <= 0:
        return (hi * hi) >> w, -((-(lo * lo)) >> w)
    big = max(lo * lo, hi * hi)
    return 0, -((-big) >> w)


def _pad(lo: int, hi: int, w: int, bits: int) -> RatInterval:
    """Snap a raw enclosure (width <= 2^-(bits+4)) to the published form.

    Center rounds to the 2^-(bits+4) grid; the returned half-width 2^-(bits+1)
    leaves enough margin that higher-bits enclosures always nest.
    """
    shift = w - bits - 4
    center = (lo + hi + (1 << shift)) >> (shift + 1)
    grid = 1 << (bits + 4)
    return RatInterval(Fraction(center - 8, grid), Fraction(center + 8, grid))


# ------------------------------------------------------------ public ------


def eval_tan_squared(angle: ReducedAngle | Fraction | int, bits: int) -> RatInterval:
    """Certified enclosure of tan^2(angle * pi), width 2^-bits.

    The angle must not reduce to the pole (denominator 2).  Internal precision
    is raised automatically until the raw enclosure is tight enough, which
    also covers the blow-up of the division as the angle nears the pole.
    """
    angle = _as_tan_angle(angle)
    if bits < MIN_BITS:
        raise ValueError(f"bits must be at least {MIN_BITS}")
    if angle.n == 2:
        raise PoleError("tan^2 has a pole at denominator 2")
    return _eval_tan_squared_cached(angle.d, angle.n, bits)


@lru_cache(maxsize=None)
def _eval_tan_squared_cached(d: int, n: int, bits: int) -> RatInterval:
    guard = 16 + 2 * n.bit_length()
    while True:
        w = bits + 4 + guard
        s_lo, s_hi = _sinpi_scaled(d, n, w)
        c_lo, c_hi = _cospi_scaled(d, n, w)
        s2_lo, s2_hi = _sqr_scaled(s_lo, s_hi, w)
        c2_lo, c2_hi = _sqr_scaled(c_lo, c_hi, w)
        if c2_lo > 0:
            lo = (s2_lo << w) // c2_hi
            hi = _ceil_div(s2_hi << w, c2_lo)
            if hi - lo <= 1 << (w - bits - 4):
                return _pad(lo, hi, w, bits)
        guard *= 2


def eval_cos(angle: ReducedAngle | Fraction | int, bits: int) -> RatInterval:
    """Certified enclosure of cos(angle * pi), width 2^-bits."""
    if not isinstance(angle, ReducedAngle):
        angle = reduce_for_cos(angle)
    if bits < MIN_BITS:
        raise ValueError(f"bits must be at least {MIN_BITS}")
    return _eval_cos_cached(angle.d, angle.n, bits)


@lru_cache(maxsize=None)
def _eval_cos_cached(d: int, n: int, bits: int) -> RatInterval:
    flip = 2 * d > n
    if flip:
        d = n - d
    guard = 16
    while True:
        w = bits + 4 + guard
        lo, hi = _cospi_scaled(d, n, w)
        if flip:
            lo, hi = -hi, -lo
        if hi - lo <= 1 << (w - bits - 4):
            return _pad(lo, hi, w, bits)
        guard *= 2


def _as_tan_angle(angle: ReducedAngle | Fraction | int) -> ReducedAngle:
    if isinstance(angle, ReducedAngle):
        # fold cos-style representatives from (1/2, 1] into tan's range
        if 2 * angle.d > angle.n:
            return reduce_for_tan(angle.fraction)
        return angle
    return reduce_for_tan(angle)


def interval_eval(p: IntPolynomial, iv: RatInterval, bits: int) -> RatInterval:
    """Enclosure of p over iv by interval Horner in fixed point at scale 2^bits."""
    w = bits
    lo = (iv.lo.numerator << w) // iv.lo.denominator
    hi = _ceil_div(iv.hi.numerator << w, iv.hi.denominator)
    if p.is_zero:
        return RatInterval(Fraction(0), Fraction(0))
    acc_lo = acc_hi = p.coeffs[-1] << w
    for c in reversed(p.coeffs[:-1]):
        prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo = (min(prods) >> w) + (c << w)
        acc_hi = -((-max(prods)) >> w) + (c << w)
    return RatInterval(Fraction(acc_lo, 1 << w), Fraction(acc_hi, 1 << w))


def eval_poly_at_tan_squared(
    p: IntPolynomial, angle: ReducedAngle | Fraction | int, bits: int
) -> RatInterval:
    """Enclosure of p(tan^2(angle*pi)) with width at most 2^(8-bits) * n^3.

    The target width accounts for how steep p can be at large tan^2 values;
    the input enclosure is refined until the image interval meets it.
    """
    angle = _as_tan_angle(angle)
    if bits < MIN_BITS:
        raise ValueError(f"bits must be at least {MIN_BITS}")
    target = Fraction(angle.n**3, 1 << (bits - 8))
    b = bits
    while True:
        iv = eval_tan_squared(angle, b)
        img = interval_eval(p, iv, b + 8)
        width = img.width
        if width <= target:
            return img
        ratio = width / target
        b += max(16, (ratio.numerator // ratio.denominator).bit_length() + 8)


# ---------------------------------------------------------- crosscheck ----

_EXCEPTIONAL_TAN2 = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3))
# tan is rational iff tan^2 is 0 or 1
_EXCEPTIONAL_TAN2_FOR_TAN = (Fraction(0), Fraction(1))
_EXCEPTIONAL_COS2 = (
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(3, 4),
)
_EXCEPTIONAL_COS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
)


def crosscheck(
    r: Fraction | int, function: str, verdict: TrigVerdict, bits: int = 128
) -> bool:
    """Check a claimed verdict against certified numerics.

    Pole claims are checked symbolically (only the exact reduced angle is the
    pole).  Exact claims pass iff the claimed value lies in the enclosure.
    Irrational claims pass once some refinement up to the bit cap excludes
    every member of the function's exceptional value set.
    """
    if function == "cos":
        if verdict.kind == "pole":
            return False
        red = reduce_for_cos(r)
        if verdict.kind == "exact":
            return verdict.value in eval_cos(red, bits)
        return _refine_excludes(lambda b: eval_cos(red, b), _EXCEPTIONAL_COS, bits)

    red = reduce_for_tan(r)
    at_pole = red.n == 2
    if function == "tan2":
        if verdict.kind == "pole":
            return at_pole
        if at_pole:
            return False
        if verdict.kind == "exact":
            return verdict.value in eval_tan_squared(red, bits)
        return _refine_excludes(
            lambda b: eval_tan_squared(red, b), _EXCEPTIONAL_TAN2, bits
        )
    if function == "tan":
        if verdict.kind == "pole":
            return at_pole
        if at_pole:
            return False
        if verdict.kind == "exact":
            v = verdict.value
            if v * v not in eval_tan_squared(red, bits):
                return False
            return v == 0 or (v > 0) == (red.sign > 0)
        return _refine_excludes(
            lambda b: eval_tan_squared(red, b), _EXCEPTIONAL_TAN2_FOR_TAN, bits
        )
    if function == "cos2":
        if verdict.kind == "pole":
            return False
        if at_pole:
            return verdict.kind == "exact" and verdict.value == 0

        def cos2_interval(b: int) -> RatInterval:
            # 1/(1 + t) = v/(u + v) for t = u/v, decreasing in t
            t = eval_tan_squared(red, b)
            lo, hi = t.lo, t.hi
            return RatInterval(
                Fraction(hi.denominator, hi.numerator + hi.denominator),
                Fraction(lo.denominator, lo.numerator + lo.denominator),
            )

        if verdict.kind == "exact":
            return verdict.value in cos2_interval(bits)
        return _refine_excludes(cos2_interval, _EXCEPTIONAL_COS2, bits)
    raise ValueError(f"unknown function {function!r}")


def _refine_excludes(make, values, bits: int) -> bool:
    b = bits
    while b <= MAX_BITS:
        iv = make(b)
        if all(iv.excludes(v) for v in values):
            return True
        b *= 2
    return False
