"""Tests for the integer and rational primitives."""

import random
from fractions import Fraction

import pytest

from trig_rational.exact_core import (
    binomial,
    divisors,
    gcd,
    integer_sqrt,
    make_rational,
    rational_sqrt,
)


def test_gcd_examples():
    assert gcd(12, 18) == 6
    assert gcd(-7, 0) == 7
    assert gcd(0, 0) == 0
    assert gcd(3, 5) == 1


def test_make_rational_reduces():
    assert make_rational(2, 6) == Fraction(1, 3)
    r = make_rational(3, -9)
    assert (r.numerator, r.denominator) == (-1, 3)
    assert make_rational(10, 1) == 10
    assert make_rational(0, 7) == 0


def test_make_rational_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        make_rational(1, 0)


def test_divisors_examples():
    assert divisors(15) == [1, 3, 5, 15]
    assert divisors(1) == [1]
    assert divisors(9) == [1, 3, 9]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_divisors_requires_positive():
    for bad in (0, -4):
        with pytest.raises(ValueError):
            divisors(bad)


def test_divisors_pairing():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 10_000)
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        # divisors pair up around sqrt(n)
        assert all(ds[i] * ds[-1 - i] == n for i in range(len(ds)))


def test_divisors_match_brute_force():
    rng = random.Random(4821)
    for _ in range(100):
        n = rng.randrange(1, 2000)
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_integer_sqrt_examples():
    assert integer_sqrt(4) == 2
    assert integer_sqrt(32) == 5
    assert integer_sqrt(0) == 0
    assert integer_sqrt(1) == 1
    assert integer_sqrt(10**40) == 10**20


def test_integer_sqrt_floor_property():
    rng = random.Random(7)
    for _ in range(10_000):
        x = rng.randrange(0, 1 << 256)
        r = integer_sqrt(x)
        assert r * r <= x < (r + 1) * (r + 1)


def test_integer_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        integer_sqrt(-1)


def test_rational_sqrt_examples():
    assert rational_sqrt(4) == 2
    assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(2) is None
    assert rational_sqrt(Fraction(1, 2)) is None
    assert rational_sqrt(Fraction(3, 4)) is None
    assert rational_sqrt(Fraction(1, 3)) is None
    assert rational_sqrt(-1) is None
    assert rational_sqrt(Fraction(-4, 9)) is None


def test_rational_sqrt_round_trip():
    rng = random.Random(53)
    for _ in range(500):
        a = Fraction(rng.randrange(0, 300), rng.randrange(1, 300))
        assert rational_sqrt(a * a) == abs(a)


def test_rational_sqrt_result_squares_back():
    rng = random.Random(54)
    for _ in range(500):
        q = Fraction(rng.randrange(0, 300), rng.randrange(1, 300))
        root = rational_sqrt(q)
        if root is not None:
            assert root >= 0
            assert root * root == q
        else:
            # no rational square root: numerator or denominator of the
            # canonical form is not a perfect square
            rn = integer_sqrt(q.numerator)
            rd = integer_sqrt(q.denominator)
            assert rn * rn != q.numerator or rd * rd != q.denominator


def test_binomial_examples():
    assert binomial(7, 3) == 35
    assert binomial(5, 3) == 10
    assert binomial(9, 0) == 1
    assert binomial(9, 9) == 1
    assert binomial(0, 0) == 1


def test_binomial_out_of_range():
    for n, k in ((-1, 0), (3, -1), (3, 4)):
        with pytest.raises(ValueError):
            binomial(n, k)


def test_binomial_pascal_triangle():
    row = [1]
    for n in range(1, 65):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        for k, expect in enumerate(row):
            assert binomial(n, k) == expect


# ------------------------------------------------- the value types --------


def _replace(obj, **changes):
    return obj.__replace__(**changes)


def _records():
    """(type, full positional args, required count, repr, other, bad changes)."""
    from trig_rational.angle import DoublingChain, ReducedAngle
    from trig_rational.certifier import Certificate, Exclusion
    from trig_rational.classifier import TrigVerdict
    from trig_rational.highprec import RatInterval
    from trig_rational.polynomial import IntPolynomial

    angle = ReducedAngle(1, 8)
    angle_repr = "ReducedAngle(d=1, n=8, sign=1)"
    return [
        (ReducedAngle, (1, 5, 1), 2, "ReducedAngle(d=1, n=5, sign=1)", {"sign": -1}, [
            ({"n": 10, "d": 2}, "not a reduced angle: 2/10"),
            ({"n": 0}, "not a reduced angle: 1/0"),
            ({"d": -1}, "not a reduced angle: -1/5"),
            ({"sign": 0}, "sign must be +1 or -1"),
        ]),
        (DoublingChain, ((angle, ReducedAngle(1, 4)),), 1,
         f"DoublingChain(angles=({angle_repr}, ReducedAngle(d=1, n=4, sign=1)))",
         {"angles": (angle,)}, []),
        (TrigVerdict, ("irrational", None), 1, "TrigVerdict(kind='irrational', value=None)",
         {"kind": "exact", "value": Fraction(1, 3)}, [
            ({"kind": "rational"}, "bad verdict kind 'rational'"),
            ({"value": Fraction(1)}, "value present iff kind is exact"),
            ({"kind": "exact"}, "value present iff kind is exact"),
        ]),
        (IntPolynomial, ((-5, 10, -1),), 1, "IntPolynomial(coeffs=(-5, 10, -1))",
         {"coeffs": (1,)}, [({"coeffs": ("x",)}, "invalid literal for int()")]),
        (RatInterval, (Fraction(0), Fraction(1, 2)), 2,
         "RatInterval(lo=Fraction(0, 1), hi=Fraction(1, 2))", {"hi": Fraction(1)}, [
            ({"lo": Fraction(1)}, "empty interval"),
        ]),
        (Exclusion, (3, "angle", None), 2,
         "Exclusion(candidate=3, method='angle', q_value=None)", {"candidate": 1}, [
            ({"method": "exact"}, "unknown exclusion method 'exact'"),
            ({"q_value": 0}, "wrong fields for a angle exclusion"),
            ({"method": "nonroot"}, "wrong fields for a nonroot exclusion"),
        ]),
        (Certificate, (Fraction(1, 5), "cos", TrigVerdict("irrational")), 3,
         "Certificate(input=Fraction(1, 5), function='cos', "
         "verdict=TrigVerdict(kind='irrational', value=None))",
         {"function": "tan"}, [({"function": "sin"}, "unknown function 'sin'")]),
    ]


def _positional(rec, cls, n):
    """The positional sub-patterns of a class pattern with n of them."""
    match rec:
        case cls(a) if n == 1:
            return (a,)
        case cls(a, b) if n == 2:
            return a, b
        case cls(a, b, c) if n == 3:
            return a, b, c
    return None


@pytest.mark.parametrize("index", range(7))
def test_record_types_api(index):
    import pickle
    import re

    records = _records()
    cls, args, required, text, other, bad = records[index]
    rec = cls(*args)
    fields = cls.__match_args__
    assert len(fields) == len(args)
    # positional, keyword and default construction
    assert tuple(getattr(rec, name) for name in fields) == args
    assert cls(**dict(zip(fields, args))) == rec
    assert cls(*args[:required]) == rec
    # equal records are equal and hash alike; a record equals no other type
    same = cls(*args)
    assert same is not rec and same == rec and hash(same) == hash(rec)
    assert not rec != same
    assert rec != args and len({rec, same}) == 1
    with pytest.raises(TypeError):
        rec < same
    for other_cls, other_args, *_ in records:
        if other_cls is not cls:
            assert rec != other_cls(*other_args)
    changed = _replace(rec, **other)
    assert changed != rec and type(changed) is cls
    assert {name: getattr(changed, name) for name in other} == other
    assert all(getattr(changed, name) == getattr(rec, name)
               for name in fields if name not in other)
    assert repr(rec) == text
    # frozen: no field or new attribute can be set or deleted
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in fields) == args
    copy = pickle.loads(pickle.dumps(rec))
    assert copy == rec and type(copy) is cls and repr(copy) == text
    assert _positional(rec, cls, len(fields)) == args
    # __replace__ builds a new record and re-runs its validation
    assert _replace(rec) == rec and _replace(rec) is not rec
    for changes, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**{**dict(zip(fields, args)), **changes})
        with pytest.raises(ValueError, match=re.escape(message)):
            _replace(rec, **changes)
    with pytest.raises(TypeError):
        _replace(rec, no_such_field=1)

