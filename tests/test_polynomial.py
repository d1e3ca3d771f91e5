"""Tests for the multiple-angle polynomials and rational root finding."""

import random
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trig_rational.exact_core import divisors
from trig_rational.polynomial import (
    IntPolynomial,
    rational_roots,
    tan_poly,
    tan_squared_poly,
    tan_squared_poly_at,
)


def test_int_polynomial_normalizes():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((0, 0)).is_zero
    assert not IntPolynomial((0, 1)).is_zero
    # trailing zeros pop off in linear time; a slice per zero took 3 s for 40,000
    start = time.perf_counter()
    assert IntPolynomial((1,) + (0,) * 200_000) == IntPolynomial((1,))
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        IntPolynomial(("x", 0))


def test_eval_examples():
    assert IntPolynomial((-3, 1)).eval(3) == 0
    assert IntPolynomial((5, -10, 1)).eval(1) == -4
    assert IntPolynomial((3, -10, 3)).eval(Fraction(1, 3)) == 0
    assert IntPolynomial(()).eval(Fraction(17, 3)) == 0


def test_tan_poly_small_cases():
    assert tan_poly(3).coeffs == (-3, 0, 1)
    assert tan_poly(5).coeffs == (5, 0, -10, 0, 1)
    assert tan_poly(7).coeffs == (-7, 0, 35, 0, -21, 0, 1)


def test_tan_squared_poly_small_cases():
    assert tan_squared_poly(3).coeffs == (-3, 1)
    assert tan_squared_poly(5).coeffs == (5, -10, 1)
    assert tan_squared_poly(7).coeffs == (-7, 35, -21, 1)
    assert tan_squared_poly(9).coeffs == (9, -84, 126, -36, 1)
    assert tan_squared_poly(15).coeffs == (
        -15,
        455,
        -3003,
        6435,
        -5005,
        1365,
        -105,
        1,
    )


def test_tan_polys_reject_even_or_small():
    for bad in (-3, 0, 1, 2, 4, 6, 100):
        with pytest.raises(ValueError):
            tan_poly(bad)
        with pytest.raises(ValueError) as built:
            tan_squared_poly(bad)
        with pytest.raises(ValueError) as evaluated:
            tan_squared_poly_at(bad, 1)
        assert str(evaluated.value) == str(built.value)


def test_tan_squared_poly_shape():
    # monic of degree (n-1)/2 with constant coefficient of magnitude n
    for n in range(3, 400, 2):
        q = tan_squared_poly(n)
        m = (n - 1) // 2
        assert q.degree == m
        assert q.coeffs[-1] == 1
        assert abs(q.coeffs[0]) == n
        assert q.coeffs[0] == (-1) ** m * n
        assert q.coeffs == tuple(
            (-1) ** (m + j) * comb(n, 2 * j + 1) for j in range(m + 1)
        )


def test_tan_squared_poly_at_divisors():
    # the power identity agrees with Horner on every rational root candidate
    for q in range(5, 402, 2):
        p = tan_squared_poly(q)
        for c in divisors(q):
            assert tan_squared_poly_at(q, c) == p.eval(c), (q, c)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(3, 301).map(lambda k: k | 1), st.integers(1, 10**12))
def test_tan_squared_poly_at_non_divisors(q, c):
    if q % c == 0:
        c += q
    assert tan_squared_poly_at(q, c) == tan_squared_poly(q).eval(c)


def test_collapse_identity():
    # substituting X^2 into the collapsed polynomial restores the full one
    for n in range(3, 100, 2):
        p = tan_poly(n)
        q = tan_squared_poly(n)
        expanded = [0] * (2 * q.degree + 1)
        for j, c in enumerate(q.coeffs):
            expanded[2 * j] = c
        assert tuple(expanded) == p.coeffs


def test_sum_of_roots_coefficient():
    # second-highest coefficient of a monic polynomial is minus the root sum
    for n in (7, 9, 15, 31):
        q = tan_squared_poly(n)
        assert -q.coeffs[-2] == n * (n - 1) // 2


def test_rational_roots_examples():
    assert rational_roots(IntPolynomial((3, -10, 3))) == [Fraction(1, 3), 3]
    assert rational_roots(tan_squared_poly(5)) == []
    assert rational_roots(tan_squared_poly(7)) == []
    assert rational_roots(tan_squared_poly(9)) == [3]
    assert rational_roots(tan_squared_poly(15)) == [3]
    assert rational_roots(IntPolynomial((-3, 1))) == [3]


def test_rational_roots_zero_constant():
    # stripping powers of X keeps 0 as a root
    assert rational_roots(IntPolynomial((0, -1, 1))) == [0, 1]
    assert rational_roots(IntPolynomial((0, 0, 0, 1))) == [0]
    assert rational_roots(IntPolynomial((7,))) == []


def test_rational_roots_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots(IntPolynomial(()))


def test_rational_roots_against_brute_force():
    # candidate grid: every reduced a/b with |a| <= 50, 0 < b <= 50, which is
    # complete for coefficients bounded by 30
    nums, dens = np.meshgrid(np.arange(-50, 51), np.arange(1, 51), indexing="ij")
    mask = np.gcd(np.abs(nums), dens) == 1
    a = nums[mask].astype(np.int64)
    b = dens[mask].astype(np.int64)
    rng = random.Random(2026)
    for _ in range(1000):
        deg = rng.randrange(1, 6)
        coeffs = [rng.randrange(-30, 31) for _ in range(deg + 1)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randrange(-30, 31)
        p = IntPolynomial(tuple(coeffs))
        # b^deg * p(a/b) in int64: at most 6 terms of size 30 * 50^5
        acc = np.zeros_like(a)
        bp = np.ones_like(b)
        for c in reversed(p.coeffs):
            acc = acc * a + c * bp
            bp = bp * b
        found = sorted(
            Fraction(int(x), int(y)) for x, y in zip(a[acc == 0], b[acc == 0])
        )
        assert rational_roots(p) == found
