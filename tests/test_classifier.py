"""Tests for the exact classification of tan^2, tan, cos^2 and cos."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from trig_rational.classifier import (
    FUNCTIONS,
    IRRATIONAL,
    POLE,
    TrigVerdict,
    classify,
    classify_cos,
    classify_cos_squared,
    classify_tan,
    classify_tan_squared,
)
from trig_rational.exact_core import gcd, rational_sqrt


def test_verdict_validation():
    with pytest.raises(ValueError):
        TrigVerdict("maybe")
    with pytest.raises(ValueError):
        TrigVerdict("exact")
    with pytest.raises(ValueError):
        TrigVerdict("pole", Fraction(1))
    v = TrigVerdict.exact(Fraction(1, 3))
    assert v.is_exact and v.value == Fraction(1, 3)
    assert not POLE.is_exact and not IRRATIONAL.is_exact


def test_tan_squared_examples():
    assert classify_tan_squared(Fraction(1, 6)) == TrigVerdict.exact(Fraction(1, 3))
    assert classify_tan_squared(Fraction(1, 5)) == IRRATIONAL
    assert classify_tan_squared(Fraction(1, 2)) == POLE
    assert classify_tan_squared(Fraction(1, 4)) == TrigVerdict.exact(1)
    assert classify_tan_squared(Fraction(1, 3)) == TrigVerdict.exact(3)
    assert classify_tan_squared(5) == TrigVerdict.exact(0)


def test_tan_examples():
    assert classify_tan(Fraction(3, 4)) == TrigVerdict.exact(-1)
    assert classify_tan(Fraction(1, 3)) == IRRATIONAL
    assert classify_tan(2) == TrigVerdict.exact(0)
    assert classify_tan(Fraction(1, 2)) == POLE
    assert classify_tan(Fraction(-1, 4)) == TrigVerdict.exact(-1)
    assert classify_tan(Fraction(1, 6)) == IRRATIONAL


def test_cos_squared_examples():
    assert classify_cos_squared(Fraction(1, 3)) == TrigVerdict.exact(Fraction(1, 4))
    assert classify_cos_squared(Fraction(1, 2)) == TrigVerdict.exact(0)
    assert classify_cos_squared(Fraction(1, 5)) == IRRATIONAL
    assert classify_cos_squared(Fraction(1, 6)) == TrigVerdict.exact(Fraction(3, 4))
    assert classify_cos_squared(7) == TrigVerdict.exact(1)


def test_cos_examples():
    assert classify_cos(Fraction(2, 3)) == TrigVerdict.exact(Fraction(-1, 2))
    assert classify_cos(Fraction(1, 4)) == IRRATIONAL
    assert classify_cos(1) == TrigVerdict.exact(-1)
    assert classify_cos(Fraction(1, 2)) == TrigVerdict.exact(0)
    assert classify_cos(Fraction(1, 3)) == TrigVerdict.exact(Fraction(1, 2))
    assert classify_cos(Fraction(1, 5)) == IRRATIONAL


def test_dispatch():
    r = Fraction(1, 6)
    assert classify(r, "tan2") == classify_tan_squared(r)
    assert classify(r, "tan") == classify_tan(r)
    assert classify(r, "cos2") == classify_cos_squared(r)
    assert classify(r, "cos") == classify_cos(r)
    with pytest.raises(ValueError):
        classify(r, "sin")
    assert FUNCTIONS == ("tan2", "tan", "cos2", "cos")


def test_exact_value_census():
    # across two full periods, the exact values form the familiar short lists
    seen = {f: set() for f in FUNCTIONS}
    poles = {f: set() for f in FUNCTIONS}
    for n in range(1, 61):
        for d in range(2 * n):
            if gcd(d, n) != 1:
                continue
            r = Fraction(d, n)
            for f in FUNCTIONS:
                v = classify(r, f)
                if v.is_exact:
                    seen[f].add(v.value)
                elif v.kind == "pole":
                    poles[f].add(r)
    F = Fraction
    assert seen["tan2"] == {0, 1, F(1, 3), 3}
    assert seen["tan"] == {0, -1, 1}
    assert seen["cos2"] == {0, 1, F(1, 2), F(1, 4), F(3, 4)}
    assert seen["cos"] == {0, 1, -1, F(1, 2), F(-1, 2)}
    assert poles["tan2"] == poles["tan"] == {F(1, 2), F(3, 2)}
    assert poles["cos2"] == poles["cos"] == set()


def test_function_relations():
    for n in range(1, 201):
        for d in range(n):
            if gcd(d, n) != 1:
                continue
            r = Fraction(d, n)
            t2, t = classify_tan_squared(r), classify_tan(r)
            c2, c = classify_cos_squared(r), classify_cos(r)
            assert (t2.kind == "pole") == (t.kind == "pole")
            assert c2.kind != "pole" and c.kind != "pole"
            if t.is_exact:
                assert t2.is_exact and t2.value == t.value**2
            if t2.is_exact:
                # tan is rational exactly when tan^2 is a rational square
                assert t.is_exact == (rational_sqrt(t2.value) is not None)
            if c.is_exact:
                assert c2.is_exact and c2.value == c.value**2
            if c2.is_exact:
                assert c.is_exact == (rational_sqrt(c2.value) is not None)
            if t2.kind == "pole":
                assert c2 == TrigVerdict.exact(0)
            elif t2.is_exact:
                assert c2.is_exact and c2.value == 1 / (1 + t2.value)
            else:
                assert c2 == IRRATIONAL


def test_exact_values_match_floats():
    rng = random.Random(2718)
    for _ in range(1000):
        r = Fraction(rng.randrange(-500, 501), rng.randrange(1, 30))
        v = classify_cos(r)
        if v.is_exact:
            assert math.isclose(
                math.cos(float(r) * math.pi), float(v.value), abs_tol=1e-9
            )
        t = classify_tan(r)
        if t.is_exact:
            assert math.isclose(
                math.tan(float(r) * math.pi), float(t.value), abs_tol=1e-9
            )


def test_symmetries():
    rng = random.Random(31415)
    for _ in range(1000):
        r = Fraction(rng.randrange(-2000, 2001), rng.randrange(1, 200))
        assert classify_tan_squared(-r) == classify_tan_squared(r)
        assert classify_tan_squared(r + 1) == classify_tan_squared(r)
        assert classify_cos_squared(-r) == classify_cos_squared(r)
        assert classify_cos(-r) == classify_cos(r)
        assert classify_cos(r + 2) == classify_cos(r)
        t, tn = classify_tan(r), classify_tan(-r)
        assert tn.kind == t.kind
        if t.is_exact:
            assert tn.value == -t.value


def test_classifier_reads_the_reduced_fraction_without_the_angle_module():
    # every verdict comes from a table keyed by n, or by n and the numerator's
    # residue, so importing the classifier folds nothing and loads no angle
    code = "import sys, trig_rational.classifier; print('trig_rational.angle' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout == "False\n"
