"""Tests for angle reduction and the doubling algebra on tan^2."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trig_rational import certifier
from trig_rational.angle import (
    ReducedAngle,
    _cos_fold,
    _tan_fold,
    doubling_chain,
    integer_double_angle_preimages,
    invert_double_angle,
    odd_part,
    reduce_for_cos,
    reduce_for_tan,
)
from trig_rational.classifier import classify_tan_squared
from trig_rational.exact_core import gcd


def _double(t):
    """The action of angle doubling on tan^2, T -> 4T/(1-T)^2, as the oracle."""
    return 4 * t / (1 - t) ** 2


def test_reduced_angle_validation():
    with pytest.raises(ValueError):
        ReducedAngle(2, 4)
    with pytest.raises(ValueError):
        ReducedAngle(-1, 3)
    with pytest.raises(ValueError):
        ReducedAngle(1, 0)
    with pytest.raises(ValueError):
        ReducedAngle(1, 3, 2)
    assert ReducedAngle(1, 3).fraction == Fraction(1, 3)
    assert ReducedAngle(1, 3).sign == 1


def test_reduce_for_tan_examples():
    assert reduce_for_tan(Fraction(7, 6)) == ReducedAngle(1, 6, 1)
    assert reduce_for_tan(Fraction(5, 6)) == ReducedAngle(1, 6, -1)
    assert reduce_for_tan(Fraction(-1, 4)) == ReducedAngle(1, 4, -1)
    assert reduce_for_tan(0) == ReducedAngle(0, 1, 1)
    assert reduce_for_tan(3) == ReducedAngle(0, 1, 1)
    assert reduce_for_tan(Fraction(1, 2)) == ReducedAngle(1, 2, 1)
    assert reduce_for_tan(Fraction(-1, 2)) == ReducedAngle(1, 2, 1)


def test_reduce_for_cos_examples():
    assert reduce_for_cos(Fraction(7, 3)) == ReducedAngle(1, 3)
    assert reduce_for_cos(Fraction(5, 3)) == ReducedAngle(1, 3)
    assert reduce_for_cos(Fraction(3, 2)) == ReducedAngle(1, 2)
    assert reduce_for_cos(Fraction(-1, 3)) == ReducedAngle(1, 3)
    assert reduce_for_cos(4) == ReducedAngle(0, 1)
    assert reduce_for_cos(-3) == ReducedAngle(1, 1)


def test_reduce_for_tan_properties():
    rng = random.Random(311)
    for _ in range(1000):
        r = Fraction(rng.randrange(-400, 401), rng.randrange(1, 120))
        red = reduce_for_tan(r)
        assert 0 <= 2 * red.d <= red.n
        assert reduce_for_tan(r + 1) == red
        neg = reduce_for_tan(-r)
        assert (neg.d, neg.n) == (red.d, red.n)
        if red.d != 0 and red.n != 2:
            assert neg.sign == -red.sign
        if red.n != 2:
            want = math.tan(float(r) * math.pi)
            got = red.sign * math.tan(red.d / red.n * math.pi)
            assert math.isclose(want, got, rel_tol=1e-6, abs_tol=1e-6)


def test_reduce_for_cos_properties():
    rng = random.Random(1213)
    for _ in range(1000):
        r = Fraction(rng.randrange(-400, 401), rng.randrange(1, 120))
        red = reduce_for_cos(r)
        assert red.sign == 1
        assert 0 <= red.fraction <= 1
        assert reduce_for_cos(r + 2) == red
        assert reduce_for_cos(-r) == red
        want = math.cos(float(r) * math.pi)
        got = math.cos(red.d / red.n * math.pi)
        assert math.isclose(want, got, rel_tol=0, abs_tol=1e-9)


class _SubFraction(Fraction):
    """A Fraction subclass: the folds must read it like a plain Fraction."""


_BIG = st.integers(-(10**30), 10**30)


@settings(max_examples=300, deadline=None, database=None)
@given(
    _BIG,
    _BIG.filter(bool),
    st.sampled_from([int, Fraction, _SubFraction]),
    st.integers(0, 100),
    st.integers(0, 1000).map(lambda j: 2 * j + 1),
    _BIG,
    _BIG,
)
def test_int_folds_match_reduced_angles(num, den, form, a, q, k1, k2):
    x = num if form is int else form(num, den)
    r = Fraction(x)
    # the reference folds in Fraction arithmetic: period 1 for tan, 2 for cos
    t = r - math.floor(r)
    t_ref = (1 - t, -1) if 2 * t > 1 else (t, 1)
    c = r - 2 * math.floor(r / 2)
    c = 2 - c if c > 1 else c
    tan = _tan_fold(x)
    assert tan == (t_ref[0].numerator, t_ref[0].denominator, t_ref[1])
    assert _cos_fold(x) == (c.numerator, c.denominator)
    assert all(type(v) is int for v in tan + _cos_fold(x))
    red, redc = reduce_for_tan(x), reduce_for_cos(x)
    assert tan == (red.d, red.n, red.sign)
    assert _cos_fold(x) == (redc.d, redc.n) and redc.sign == 1
    # numerators 2qk + 1 are coprime to n = 2^a q, so both angles reduce to n,
    # and their tan^2 and cos^2 certificates claim one verdict
    n = q << a
    r1, r2 = Fraction(2 * q * k1 + 1, n), Fraction(2 * q * k2 + 1, n)
    assert _tan_fold(r1)[1] == _tan_fold(r2)[1] == n
    for f in ("tan2", "cos2"):
        assert certifier.certify(r1, f).verdict == certifier.certify(r2, f).verdict


def test_odd_part():
    assert odd_part(12) == (2, 3)
    assert odd_part(7) == (0, 7)
    assert odd_part(8) == (3, 1)
    assert odd_part(1) == (0, 1)
    assert odd_part(3 << 100000) == (100000, 3)
    for n in (0, -8):
        with pytest.raises(ValueError):
            odd_part(n)
    rng = random.Random(64)
    for _ in range(200):
        n = rng.randrange(1, 1 << 30)
        a, q = odd_part(n)
        assert q % 2 == 1 and (1 << a) * q == n


def test_invert_double_angle_examples():
    assert invert_double_angle(3) == [Fraction(1, 3), 3]
    assert invert_double_angle(1) == []
    assert invert_double_angle(Fraction(1, 3)) == []
    assert invert_double_angle(0) == [0]
    assert invert_double_angle(8) == [Fraction(1, 2), 2]
    with pytest.raises(ValueError):
        invert_double_angle(-1)


def test_invert_double_angle_round_trip():
    rng = random.Random(5150)
    for _ in range(1000):
        d_value = Fraction(rng.randrange(0, 400), rng.randrange(1, 60))
        pre = invert_double_angle(d_value)
        for x in pre:
            assert _double(x) == d_value
        if d_value > 0 and pre:
            # the two preimages are reciprocal: complementary angles
            assert len(pre) == 2
            assert pre[0] * pre[1] == 1
            assert pre[0] <= pre[1]


def test_invert_double_angle_completeness():
    # any rational point in the image is recovered among the preimages
    rng = random.Random(616)
    for _ in range(1000):
        x = Fraction(rng.randrange(0, 300), rng.randrange(1, 60))
        if x == 1:
            continue
        assert x in invert_double_angle(_double(x))


def test_integer_double_angle_preimages():
    assert integer_double_angle_preimages(3) == [3]
    assert integer_double_angle_preimages(15) == []
    assert integer_double_angle_preimages(5) == []
    assert integer_double_angle_preimages(1) == []
    for bad in (0, -3, 4):
        with pytest.raises(ValueError):
            integer_double_angle_preimages(bad)


def test_no_odd_integer_preimages_above_three():
    for u in range(5, 2000, 2):
        assert integer_double_angle_preimages(u) == []


def test_doubling_chain_examples():
    c = doubling_chain(ReducedAngle(1, 24), 3)
    assert [a.fraction for a in c.angles] == [
        Fraction(1, 24),
        Fraction(1, 12),
        Fraction(1, 6),
        Fraction(1, 3),
    ]
    assert doubling_chain(ReducedAngle(1, 8), 8).angles == (ReducedAngle(1, 8),)
    assert doubling_chain(ReducedAngle(5, 12), 12).angles == (ReducedAngle(5, 12),)
    # folding: 5/12 doubles to 5/6, which reflects to 1/6
    c = doubling_chain(ReducedAngle(5, 12), 3)
    assert [a.fraction for a in c.angles] == [
        Fraction(5, 12),
        Fraction(1, 6),
        Fraction(1, 3),
    ]


def test_doubling_chain_preconditions():
    with pytest.raises(ValueError):
        doubling_chain(ReducedAngle(1, 24), 5)
    with pytest.raises(ValueError):
        doubling_chain(ReducedAngle(1, 24), 0)
    with pytest.raises(ValueError):
        # ratio 24/2 = 12 is not a power of two
        doubling_chain(ReducedAngle(1, 24), 2)


def test_doubling_chain_stays_reduced_and_folded():
    rng = random.Random(77)
    for _ in range(300):
        q = rng.choice([3, 5, 7, 9, 15, 25])
        n = q << rng.randrange(0, 7)
        while True:
            d = rng.randrange(1, n)
            if gcd(d, n) == 1:
                break
        chain = doubling_chain(reduce_for_tan(Fraction(d, n)), q)
        assert chain.angles[-1].n == q
        for a in chain.angles:
            assert 0 <= 2 * a.d <= a.n
        for prev, cur in zip(chain.angles, chain.angles[1:]):
            assert prev.n == 2 * cur.n or (cur.n == 1 and prev.n == 2)


def test_doubling_chain_avoids_tan_poles():
    # stopping at an odd q >= 3 or at 8 or 12, the chain never visits
    # denominator 2 or 4, where the doubling identity breaks down
    rng = random.Random(177)
    for stop in (3, 5, 7, 9, 15, 8, 12):
        for a in range(0, 6):
            n = stop << a
            while True:
                d = rng.randrange(1, n)
                if gcd(d, n) == 1:
                    break
            chain = doubling_chain(reduce_for_tan(Fraction(d, n)), stop)
            assert all(x.n not in (2, 4) for x in chain.angles)


def test_chain_transports_exact_values():
    chain = doubling_chain(ReducedAngle(1, 6), 3)
    assert chain.angles == (ReducedAngle(1, 6), ReducedAngle(1, 3))
    t6, t3 = classify_tan_squared(Fraction(1, 6)).value, classify_tan_squared(Fraction(1, 3)).value
    assert _double(t6) == t3


def test_chain_transports_float_values():
    rng = random.Random(404)
    for _ in range(200):
        q = rng.choice([5, 7, 9, 11, 15])
        n = q << rng.randrange(0, 6)
        while True:
            d = rng.randrange(1, n)
            if gcd(d, n) == 1:
                break
        chain = doubling_chain(reduce_for_tan(Fraction(d, n)), q)
        for prev, cur in zip(chain.angles, chain.angles[1:]):
            t_prev = math.tan(prev.d / prev.n * math.pi) ** 2
            t_cur = math.tan(cur.d / cur.n * math.pi) ** 2
            image = 4 * t_prev / (1 - t_prev) ** 2
            assert math.isclose(image, t_cur, rel_tol=1e-7)

