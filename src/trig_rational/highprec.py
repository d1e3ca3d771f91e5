"""Certified enclosures of tan^2(r*pi) and cos(r*pi) with exact rational endpoints.

Everything runs in fixed-point integer arithmetic at a working scale 2^w: a
real x is enclosed by integers lo <= x*2^w <= hi, every division is rounded
outward, and series truncations carry an explicit tail bound, so the
returned interval is a guarantee, not an estimate.

  * pi comes from the Machin combination pi = 16*arctan(1/5) - 4*arctan(1/239);
    each arctangent series alternates with strictly decreasing terms, so the
    tail is bounded by the first omitted term.
  * The angle is reduced symbolically first (exact fraction of pi, folded so
    the series argument stays in [0, pi/4]), then cos comes from the
    alternating series of cos or sin with the same first-omitted-term bound.
  * tan^2 x = (1 - cos 2x)/(1 + cos 2x) with outward-rounded division.  For
    odd n, 2x folds onto another angle of denominator n, so the four
    functions of every d/n together need one cos series per folded angle.

A published enclosure is an integer centre c on the grid G = 2^(bits+4): the
interval [(c-8)/G, (c+8)/G], so the width is exactly 2^-bits (within the
2^(1-bits) contract) and enclosures at higher bit counts nest inside those
at lower ones by construction.  The public evaluators return it as a
RatInterval; the cross-check never builds one and compares values p/q with
it by cross-multiplying integers, an irrational claim on the coarsest
enclosure that settles it.  It takes the claims of one angle together
(_crosscheck_angle: scan passes all four, `crosscheck` one), with one rule
per kind of claim: the angle is folded once for tan, and for cos only in a
cos claim, with exact_core's integer folds, so no angle module is loaded,
and one test of the tan^2 enclosure decides every irrational tan^2, tan and
cos^2 claim.  Three bounded LRU caches hold the work: pi per scale; the raw
cos enclosure per angle folded into [0, 1/2] and bits, which cos negates and
snaps per sign and tan^2 divides; and the tan^2 centre per angle folded into
[0, 1/2] and bits, which tan^2, tan and cos^2 share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from . import FUNCTIONS
from .exact_core import FrozenRecord, _cos_fold, _store, _tan_fold, as_fraction

if TYPE_CHECKING:  # annotations only: the cross-check loads no angle, polynomial or verdict
    from collections.abc import Iterable

    from .angle import ReducedAngle
    from .classifier import TrigVerdict
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


class RatInterval(FrozenRecord):
    """Closed interval with exact rational endpoints.

    Membership tests cross-multiply integers; the value may be an int, a
    Fraction or a finite float, and is compared exactly.
    """

    __match_args__ = ("lo", "hi")
    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
            raise ValueError("empty interval")
        _store(self, "lo", lo)
        _store(self, "hi", hi)

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


@lru_cache(maxsize=64)
def _pi_scaled(w: int) -> tuple[int, int]:
    """Enclosure of pi * 2^w, cached per scale."""
    # work 8 bits finer, then round outward
    a_lo, a_hi = _arctan_recip_scaled(5, w + 8)
    b_lo, b_hi = _arctan_recip_scaled(239, w + 8)
    lo = (16 * a_lo - 4 * b_hi) >> 8
    hi = _ceil_div(16 * a_hi - 4 * b_lo, 256)
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
    # sin starts at theta and divides by 2*3, 4*5, ...; cos at 1, by 1*2, 3*4, ...
    term_lo, term_hi = (th_lo, th_hi) if want_sin else (1 << w, 1 << w)
    s_lo, s_hi = term_lo, term_hi
    k = 2 if want_sin else 1
    negative = True
    while True:
        term_lo = ((term_lo * t2_lo) >> w) // (k * (k + 1))
        term_hi = -((-(term_hi * t2_hi)) >> w)
        term_hi = -((-term_hi) // (k * (k + 1)))
        if negative:
            s_lo -= term_hi
            s_hi -= term_lo
        else:
            s_lo += term_lo
            s_hi += term_hi
        if term_hi <= 1:
            return s_lo - 1, s_hi + 1
        negative = not negative
        k += 2


def _centre(lo: int, hi: int, w: int, bits: int) -> int:
    """Snap a raw enclosure (width <= 2^-(bits+4)) to its published centre.

    The centre rounds to the 2^-(bits+4) grid; the published half-width
    2^-(bits+1) leaves enough margin that higher-bits enclosures always nest.
    """
    shift = w - bits - 4
    return (lo + hi + (1 << shift)) >> (shift + 1)


def _published(centre: int, bits: int) -> RatInterval:
    grid = 1 << (bits + 4)
    return RatInterval(Fraction(centre - 8, grid), Fraction(centre + 8, grid))


# ------------------------------------------------------------ public ------

# Entries in the cos cache and in the tan^2 cache.  A scan revisits an angle
# within its own denominator, which this holds up to about 2000; the tan^2 of
# an even n reads cos at n/2, which scan visits just before n.
_CACHE_SIZE = 1024


def _check_bits(bits: int) -> None:
    if not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [{MIN_BITS}, {MAX_BITS}]")


def eval_tan_squared(angle: ReducedAngle | Fraction | int, bits: int) -> RatInterval:
    """Certified enclosure of tan^2(angle * pi), width 2^-bits.

    bits must lie in [MIN_BITS, MAX_BITS].  The angle must not reduce to the
    pole (denominator 2).  Internal precision is raised automatically until
    the raw enclosure is tight enough, which also covers the blow-up of the
    division as the angle nears the pole.
    """
    _check_bits(bits)
    d, n, _ = _tan_fold(*_ratio(angle))
    if n == 2:
        from .angle import PoleError

        raise PoleError("tan^2 has a pole at denominator 2")
    return _published(_tan2_centre(d, n, bits), bits)


@lru_cache(maxsize=_CACHE_SIZE)
def _tan2_centre(d: int, n: int, bits: int) -> int:
    # tan^2 x = (1 - c)/(1 + c) falls as c = cos 2x rises, so lo comes from
    # c_hi and hi from c_lo.  Near the pole 1 + c is about 5/n^2, so each
    # retry asks for about 4 bitlen(n) more bits.
    d2, n2 = (2 * d, n) if n % 2 else (d, n // 2)
    flip = 2 * d2 > n2
    extra = 0
    while True:
        c_lo, c_hi, w = _cos_raw(n2 - d2 if flip else d2, n2, bits + extra)
        if flip:
            c_lo, c_hi = -c_hi, -c_lo
        one = 1 << w
        if one + c_lo > 0:
            lo = ((one - c_hi) << w) // (one + c_hi)
            hi = _ceil_div((one - c_lo) << w, one + c_lo)
            if hi - lo <= 1 << (w - bits - 4):
                return _centre(lo, hi, w, bits)
        extra = 2 * extra + 4 * n.bit_length()


def eval_cos(angle: ReducedAngle | Fraction | int, bits: int) -> RatInterval:
    """Certified enclosure of cos(angle * pi), width 2^-bits, bits in [MIN_BITS, MAX_BITS]."""
    _check_bits(bits)
    return _published(_cos_centre(*_ratio(angle), bits), bits)


def _cos_centre(num: int, den: int, bits: int) -> int:
    # folded into [0, 1]; past 1/2, cos((1 - x) pi) = -cos(x pi), and the raw
    # enclosure is negated before it is snapped, so a tie rounds up either side
    d, n = _cos_fold(num, den)
    if 2 * d > n:
        lo, hi, w = _cos_raw(n - d, n, bits)
        return _centre(-hi, -lo, w, bits)
    return _centre(*_cos_raw(d, n, bits), bits)


@lru_cache(maxsize=_CACHE_SIZE)
def _cos_raw(d: int, n: int, bits: int) -> tuple[int, int, int]:
    """Raw enclosure (lo, hi, w) of cos(d/n * pi) * 2^w for d/n in [0, 1/2]."""
    # past 1/4, cos(x pi) = sin((1/2 - x) pi) keeps the series argument small
    num, den, want_sin = (d, n, False) if 4 * d <= n else (n - 2 * d, 2 * n, True)
    guard = 16
    while True:
        w = bits + 4 + guard
        pi_lo, pi_hi = _pi_scaled(w)
        th_lo, th_hi = (pi_lo * num) // den, _ceil_div(pi_hi * num, den)
        lo, hi = _sin_cos_scaled(th_lo, th_hi, w, want_sin)
        if hi - lo <= 1 << (w - bits - 4):
            return lo, hi, w
        guard *= 2


def _ratio(angle: ReducedAngle | Fraction | int) -> tuple[int, int]:
    """The angle as num, den in lowest terms; a ReducedAngle's sign is ignored."""
    if not isinstance(angle, (int, Fraction)):
        from .angle import ReducedAngle  # only an angle of another type loads angle.py

        if isinstance(angle, ReducedAngle):
            return angle.d, angle.n
    r = as_fraction(angle)
    return r.numerator, r.denominator


def interval_eval(p: IntPolynomial, iv: RatInterval, bits: int) -> RatInterval:
    """Enclosure of p over iv by interval Horner in fixed point at scale 2^bits."""
    w = bits
    lo = (iv.lo.numerator << w) // iv.lo.denominator
    hi = _ceil_div(iv.hi.numerator << w, iv.hi.denominator)
    acc_lo = acc_hi = 0
    for c in reversed(p.coeffs):
        prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo = (min(prods) >> w) + (c << w)
        acc_hi = -((-max(prods)) >> w) + (c << w)
    return RatInterval(Fraction(acc_lo, 1 << w), Fraction(acc_hi, 1 << w))


def eval_poly_at_tan_squared(
    p: IntPolynomial, angle: ReducedAngle | Fraction | int, bits: int
) -> RatInterval:
    """Enclosure of p(tan^2(angle*pi)) with width at most 2^(8-bits) * n^3.

    The target width accounts for how steep p can be at large tan^2 values;
    the input enclosure is refined until the image interval meets it.  Both
    bits and every refinement stay in [MIN_BITS, MAX_BITS]; a refinement
    that would pass MAX_BITS raises ValueError.
    """
    _check_bits(bits)
    target = Fraction(_ratio(angle)[1] ** 3, 1 << (bits - 8))
    b = bits
    while True:
        iv = eval_tan_squared(angle, b)
        img = interval_eval(p, iv, b + 8)
        width = img.width
        if width <= target:
            return img
        ratio = width / target
        b += max(16, (ratio.numerator // ratio.denominator).bit_length() + 8)
        if b > MAX_BITS:
            raise ValueError(f"the enclosure needs more than {MAX_BITS} bits")


# ---------------------------------------------------------- crosscheck ----

# exceptional values of tan^2 as (numerator, denominator) pairs, denominator
# > 0, in this order: tan is rational iff tan^2 is one of the first two, and
# cos^2 = 1/(1 + tan^2) takes 1, 1/2, 3/4 and 1/4 exactly where tan^2 takes
# these four, and 0 only at the pole
_EXCEPTIONAL_TAN2 = ((0, 1), (1, 1), (1, 3), (3, 1))
_EXCEPTIONAL_COS = ((0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2))


def crosscheck(
    r: Fraction | int, function: str, verdict: TrigVerdict, bits: int = 128
) -> bool:
    """Check a claimed verdict against certified numerics.

    `bits`, the precision of exact claims, must lie in [MIN_BITS,
    MAX_BITS].  Pole claims are checked symbolically (only the exact reduced
    angle is the pole).  Exact claims pass iff the claimed value lies in the
    enclosure at `bits`; cos^2 = 1/(1 + tan^2) falls as tan^2 rises, so a
    cos^2 claim p/q is the tan^2 claim (q - p)/p, and fails when p <= 0.
    Irrational claims pass iff the enclosure at w0 = max(32, 2 bitlen(n) + 8)
    bits, for the reduced denominator n and whatever `bits` is, excludes
    every member of the function's exceptional value set.

    That one test decides the claim.  An exceptional value the function
    takes lies in every enclosure, so a wrong irrational claim fails at any
    bits.  Otherwise each exceptional value is taken only at angles
    d'/n' pi with n' in {1, 2, 3, 4, 6}, so a non-exceptional angle d/n pi
    lies at least pi/(6 n) from each of them, and the function, monotone on
    the folded range, differs from each exceptional value by more than
    1/(10 n^2).  The tightest case is cos near +-1, with a gap of
    1 - cos(pi/(6 n)), about 1/(7 n^2).  The width at w0,
    2^-w0 < 2^-8/n^2, is below that, so a true irrational claim costs about
    2 log2(n) bits, and the work grows with the input's size, not its
    value.  Since the published enclosures nest for any b' > b (at b,
    [c-8, c+8]/G with G = 2^(b+4) holds x +- 7/G around the true value x,
    and at b' the enclosure lies inside x +- 9/G', within x +- 4.5/G), a
    refinement from `bits` upwards would reach the same answer.  The flat
    floor of 32 gives tan^2 at n and cos at n/2 the same w0 for n < 4096,
    so they still share one cos series.
    """
    _check_bits(bits)
    if function not in FUNCTIONS:
        raise ValueError(f"unknown function {function!r}")
    r = as_fraction(r)
    return _crosscheck_angle(r.numerator, r.denominator, ((function, verdict),), bits)[0]


def _crosscheck_angle(num: int, den: int, claims: Iterable, bits: int) -> list[bool]:
    """crosscheck of each claim (function, verdict) on the angle num/den.

    num/den is in lowest terms with den >= 1; each function is in FUNCTIONS.
    tan is folded once, cos only in a cos claim.  One rule per kind: at tan's
    pole (n = 2) tan^2 and tan claim the pole and cos^2 exact 0, and any other
    pole claim fails; an irrational claim's enclosure at w0 holds no
    exceptional value (one tan^2 test serves tan^2, tan and cos^2); an exact
    claim's value, mapped onto its family's enclosure at bits, lies in it.
    """
    w0 = max(32, 2 * den.bit_length() + 8)
    d, n, sign = _tan_fold(num, den)
    held = None  # the first exceptional tan^2 value that the enclosure at w0 holds
    results = []
    for function, verdict in claims:
        kind, cos = verdict.kind, function == "cos"
        if kind == "pole":  # only tan^2 and tan have one
            ok = n == 2 and function in ("tan2", "tan")
        elif n == 2 and not cos:  # and cos^2 is exactly 0 at it
            ok = function == "cos2" and verdict.value == 0
        elif kind != "exact" and cos:
            c = _cos_centre(num, den, w0)
            ok = _first_held(c, w0, _EXCEPTIONAL_COS) == len(_EXCEPTIONAL_COS)
        elif kind != "exact":
            if held is None:
                held = _first_held(_tan2_centre(d, n, w0), w0, _EXCEPTIONAL_TAN2)
            ok = held >= (2 if function == "tan" else len(_EXCEPTIONAL_TAN2))
        else:
            v = as_fraction(verdict.value)
            ok, p, q = True, v.numerator, v.denominator
            if function == "cos2":  # cos^2 = p/q is tan^2 = (q - p)/p
                ok, p, q = p > 0, q - p, p
            elif function == "tan":
                ok, p, q = p == 0 or (p > 0) == (sign > 0), p * p, q * q
            if ok:
                c = _cos_centre(num, den, bits) if cos else _tan2_centre(d, n, bits)
                ok = _first_held(c, bits, ((p, q),)) == 0
        results.append(ok)
    return results


def _first_held(c: int, b: int, values: tuple) -> int:
    """Index of the first (p, q), q > 0, whose p/q lies in [c - 8, c + 8] / 2^(b+4).

    len(values) when none does.
    """
    g = 1 << (b + 4)
    lo, hi = c - 8, c + 8
    for i, (p, q) in enumerate(values):
        if lo * q <= p * g <= hi * q:
            return i
    return len(values)
