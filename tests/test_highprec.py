"""Tests for the certified interval evaluation of tan^2 and cos."""

import concurrent.futures
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trig_rational.angle import PoleError, ReducedAngle
from trig_rational.classifier import IRRATIONAL, POLE, TrigVerdict, classify
from trig_rational.exact_core import gcd
from trig_rational.highprec import (
    MAX_BITS,
    MIN_BITS,
    RatInterval,
    crosscheck,
    eval_cos,
    eval_poly_at_tan_squared,
    eval_tan_squared,
    interval_eval,
)
from trig_rational.polynomial import IntPolynomial, tan_squared_poly


def test_rat_interval_basics():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.midpoint == Fraction(5, 12)
    assert Fraction(2, 5) in iv
    assert iv.excludes(Fraction(1, 4))
    assert iv.excludes(1)
    assert not iv.excludes(Fraction(1, 3))
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


_FRACTIONS = st.fractions(max_denominator=10**6) | st.fractions(max_denominator=4)


@settings(max_examples=500, deadline=None, database=None)
@given(st.data())
def test_rat_interval_matches_fraction_comparisons(data):
    # Fraction's own comparisons are the reference
    lo, hi = sorted(data.draw(st.lists(_FRACTIONS, min_size=2, max_size=2)))
    iv = RatInterval(lo, hi)
    x = data.draw(
        st.sampled_from([lo, hi])
        | st.sampled_from([lo, hi]).map(float)
        | st.sampled_from([lo, hi]).map(math.floor)
        | st.integers()
        | _FRACTIONS
        | st.floats(allow_nan=False, allow_infinity=False)
    )
    assert iv.excludes(x) == (x < lo or x > hi)
    assert (x in iv) == (lo <= x <= hi)


def test_eval_tan_squared_known_values():
    iv = eval_tan_squared(Fraction(1, 4), 64)
    assert 1 in iv
    assert iv.width <= Fraction(1, 1 << 64)
    assert 3 in eval_tan_squared(Fraction(1, 3), 64)
    assert Fraction(1, 3) in eval_tan_squared(Fraction(1, 6), 64)
    assert 0 in eval_tan_squared(0, 64)


def test_eval_tan_squared_accepts_unreduced_input():
    a = eval_tan_squared(Fraction(7, 6), 64)
    b = eval_tan_squared(ReducedAngle(1, 6), 64)
    assert (a.lo, a.hi) == (b.lo, b.hi)
    # cos-style representatives above 1/2 fold into tan's range
    c = eval_tan_squared(ReducedAngle(5, 6), 64)
    assert (c.lo, c.hi) == (b.lo, b.hi)


def test_eval_tan_squared_pole_and_bad_bits():
    with pytest.raises(PoleError):
        eval_tan_squared(Fraction(1, 2), 64)
    with pytest.raises(PoleError):
        eval_tan_squared(Fraction(3, 2), 64)
    with pytest.raises(ValueError):
        eval_tan_squared(Fraction(1, 5), MIN_BITS - 1)
    with pytest.raises(ValueError):
        eval_cos(Fraction(1, 5), MIN_BITS - 1)
    with pytest.raises(ValueError):
        eval_poly_at_tan_squared(tan_squared_poly(5), Fraction(1, 5), MIN_BITS - 1)


def test_eval_tan_squared_near_pole():
    # the division by cos^2 blows up near the pole; precision must keep up
    iv = eval_tan_squared(Fraction(499, 1000), 64)
    assert iv.width <= Fraction(1, 1 << 64)
    # complementary angle identity: tan^2((1/2 - x) pi) = 1 / tan^2(x pi)
    rec = eval_tan_squared(Fraction(1, 1000), 64)
    flipped = RatInterval(1 / rec.hi, 1 / rec.lo)
    assert max(iv.lo, flipped.lo) <= min(iv.hi, flipped.hi)


def test_eval_cos_known_values():
    assert Fraction(1, 2) in eval_cos(Fraction(1, 3), 64)
    assert 0 in eval_cos(Fraction(1, 2), 64)
    assert Fraction(-1, 2) in eval_cos(Fraction(2, 3), 64)
    assert 1 in eval_cos(0, 64)
    assert -1 in eval_cos(1, 64)
    iv = eval_cos(Fraction(1, 4), 64)
    assert iv.width <= Fraction(1, 1 << 64)
    for v in (0, 1, -1, Fraction(1, 2), Fraction(-1, 2)):
        assert iv.excludes(v)


def test_eval_widths_and_floats():
    rng = random.Random(909)
    for _ in range(40):
        n = rng.randrange(1, 50)
        d = rng.randrange(0, n) if n > 1 else 0
        if gcd(d, n) != 1:
            continue
        r = Fraction(d, n)
        c = eval_cos(r, 64)
        assert c.width <= Fraction(1, 1 << 64)
        assert abs(float(c.midpoint) - math.cos(d / n * math.pi)) < 1e-12
        if n != 2:
            t = eval_tan_squared(r, 64)
            assert t.width <= Fraction(1, 1 << 64)
            want = math.tan(d / n * math.pi) ** 2
            assert math.isclose(float(t.midpoint), want, rel_tol=1e-9, abs_tol=1e-12)


def test_enclosures_nest_as_bits_grow():
    rng = random.Random(2024)
    angles = []
    while len(angles) < 10:
        n = rng.randrange(3, 100)
        d = rng.randrange(1, n)
        if gcd(d, n) == 1 and n != 2:
            angles.append(Fraction(d, n))
    for r in angles:
        prev_t = prev_c = None
        for bits in (16, 32, 64, 128, 256):
            t = eval_tan_squared(r, bits)
            c = eval_cos(r, bits)
            if prev_t is not None:
                assert prev_t.lo <= t.lo and t.hi <= prev_t.hi
                assert prev_c.lo <= c.lo and c.hi <= prev_c.hi
            prev_t, prev_c = t, c


def test_cos_and_tan_squared_agree():
    # cos^2 enclosure must meet 1/(1 + tan^2) enclosure at every angle
    for n in range(1, 61):
        if n == 2:
            continue
        for d in range(n):
            if gcd(d, n) != 1 or 2 * d > n:
                continue
            r = Fraction(d, n)
            c = eval_cos(r, 128)
            t = eval_tan_squared(r, 128)
            assert c.lo >= 0
            lo1, hi1 = c.lo * c.lo, c.hi * c.hi
            lo2, hi2 = 1 / (1 + t.hi), 1 / (1 + t.lo)
            assert max(lo1, lo2) <= min(hi1, hi2)


def test_interval_eval_encloses_exact_values():
    rng = random.Random(515)
    for _ in range(200):
        coeffs = tuple(rng.randrange(-40, 41) for _ in range(rng.randrange(1, 7)))
        p = IntPolynomial(coeffs)
        a = Fraction(rng.randrange(-300, 300), rng.randrange(1, 40))
        b = a + Fraction(rng.randrange(0, 100), rng.randrange(1, 40))
        iv = RatInterval(a, b)
        img = interval_eval(p, iv, 96)
        for _ in range(5):
            x = a + (b - a) * Fraction(rng.randrange(0, 101), 100)
            assert img.lo <= p.eval(x) <= img.hi


def test_eval_poly_at_tan_squared_root_case():
    q7 = tan_squared_poly(7)
    img = eval_poly_at_tan_squared(q7, Fraction(1, 7), 128)
    assert img.lo <= 0 <= img.hi
    assert img.width <= Fraction(7**3, 1 << 120)


def test_eval_poly_at_tan_squared_nonroot_case():
    # tan^2(pi/7) is not a root of the denominator-5 polynomial
    q5 = tan_squared_poly(5)
    img = eval_poly_at_tan_squared(q5, Fraction(1, 7), 64)
    assert img.lo > 2


def test_residual_bound_at_high_precision():
    # the polynomial vanishes at its own angles, tightly, at 256 bits
    for n in range(3, 100, 2):
        p = tan_squared_poly(n)
        for d in range(1, n):
            if gcd(d, n) != 1:
                continue
            img = eval_poly_at_tan_squared(p, Fraction(d, n), 256)
            assert img.lo <= 0 <= img.hi
            assert max(abs(img.lo), abs(img.hi)) < Fraction(1, 1 << 200)


def test_sum_of_roots_numerically():
    for n in range(3, 32, 2):
        m = (n - 1) // 2
        total = Fraction(0)
        slack = Fraction(0)
        for k in range(1, m + 1):
            iv = eval_tan_squared(Fraction(k, n), 64)
            total += iv.midpoint
            slack += iv.width / 2
        assert abs(total - Fraction(n * (n - 1), 2)) <= slack


def test_crosscheck_examples():
    F = Fraction
    assert crosscheck(F(1, 6), "tan2", TrigVerdict.exact(F(1, 3)))
    assert not crosscheck(F(1, 5), "tan2", TrigVerdict.exact(1))
    assert crosscheck(F(1, 5), "tan2", IRRATIONAL)
    assert crosscheck(F(1, 2), "tan2", POLE)
    assert not crosscheck(F(1, 3), "tan2", POLE)
    assert not crosscheck(F(1, 2), "tan2", IRRATIONAL)

    assert crosscheck(F(3, 4), "tan", TrigVerdict.exact(-1))
    assert not crosscheck(F(3, 4), "tan", TrigVerdict.exact(1))
    assert crosscheck(F(1, 2), "tan", POLE)
    assert crosscheck(F(1, 6), "tan", IRRATIONAL)
    assert crosscheck(F(1, 5), "tan", IRRATIONAL)

    assert crosscheck(F(1, 2), "cos2", TrigVerdict.exact(0))
    assert not crosscheck(F(1, 2), "cos2", IRRATIONAL)
    assert not crosscheck(F(1, 2), "cos2", POLE)
    assert crosscheck(F(1, 6), "cos2", TrigVerdict.exact(F(3, 4)))
    assert crosscheck(F(1, 5), "cos2", IRRATIONAL)

    assert crosscheck(F(1, 3), "cos", TrigVerdict.exact(F(1, 2)))
    assert crosscheck(F(2, 3), "cos", TrigVerdict.exact(F(-1, 2)))
    assert not crosscheck(F(1, 3), "cos", TrigVerdict.exact(F(-1, 2)))
    assert crosscheck(F(1, 4), "cos", IRRATIONAL)
    assert not crosscheck(F(1, 2), "cos", POLE)

    with pytest.raises(ValueError):
        crosscheck(F(1, 6), "sin", IRRATIONAL)


def test_crosscheck_agrees_with_classifier():
    for n in range(1, 41):
        for d in range(n):
            if gcd(d, n) != 1:
                continue
            r = Fraction(d, n)
            for f in ("tan2", "tan", "cos2", "cos"):
                assert crosscheck(r, f, classify(r, f), bits=64)


def test_thread_safety_smoke():
    # exercise the shared pi cache and lru caches from several threads
    angles = [Fraction(d, 997) for d in range(1, 17)]

    def work(r):
        t = eval_tan_squared(r, 160)
        c = eval_cos(r, 160)
        return (t.lo, t.hi, c.lo, c.hi)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(work, angles))
    sequential = [work(r) for r in angles]
    assert threaded == sequential
    for t_lo, t_hi, c_lo, c_hi in threaded:
        assert t_hi - t_lo <= Fraction(1, 1 << 160)
        assert c_hi - c_lo <= Fraction(1, 1 << 160)


def test_bits_cap_constants():
    assert MIN_BITS == 8
    assert MAX_BITS >= 1024
