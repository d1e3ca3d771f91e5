"""End-to-end acceptance checks, one per shipped guarantee.

Each criterion prints one pass/fail line with its running time, so the
suite output doubles as a short report.  A criterion that trips an assert
still prints its line before the failure propagates.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import _mutation
from trig_rational.angle import (
    integer_double_angle_preimages,
    invert_double_angle,
    reduce_for_cos,
)
from trig_rational.certifier import certificate_to_tree, certify, verify_certificate
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
from trig_rational.exact_core import gcd
from trig_rational.highprec import (
    crosscheck,
    eval_poly_at_tan_squared,
    eval_tan_squared,
)
from trig_rational.kernel import verify_certificate_json
from trig_rational.polynomial import rational_roots, tan_poly, tan_squared_poly


@contextmanager
def criterion(num, desc, budget):
    start = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.monotonic() - start
        status = "FAIL" if failed else "PASS"
        print(f"criterion {num} ({desc}): {status} ({elapsed:.2f} s)")
        if not failed:
            assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def _reduced_angles(max_den, periods=1):
    for n in range(1, max_den + 1):
        for d in range(periods * n):
            if gcd(d, n) == 1:
                yield d, n


def test_criterion_1_tan_squared_table():
    with criterion(1, "tan^2 table on denominators up to 360", 5.0):
        table = {
            1: TrigVerdict.exact(0),
            2: POLE,
            3: TrigVerdict.exact(3),
            4: TrigVerdict.exact(1),
            6: TrigVerdict.exact(Fraction(1, 3)),
        }
        for d, n in _reduced_angles(360):
            v = classify_tan_squared(Fraction(d, n))
            assert v == table.get(n, IRRATIONAL), (d, n)


def test_criterion_2_derived_tables():
    with criterion(2, "derived tan, cos^2 and cos tables", 30.0):
        cos2_table = {
            1: Fraction(1),
            2: Fraction(0),
            3: Fraction(1, 4),
            4: Fraction(1, 2),
            6: Fraction(3, 4),
        }
        seen = {"tan": set(), "cos2": set(), "cos": set()}
        # two periods, so that cos reaches every one of its exact values
        for d, n in _reduced_angles(360, periods=2):
            r = Fraction(d, n)
            t = classify_tan(r)
            c2 = classify_cos_squared(r)
            c = classify_cos(r)
            if n == 1:
                assert t == TrigVerdict.exact(0)
            elif n == 2:
                assert t == POLE
            elif n == 4:
                assert t == TrigVerdict.exact(1 if d % 4 == 1 else -1)
            else:
                assert t == IRRATIONAL
            if n in cos2_table:
                assert c2 == TrigVerdict.exact(cos2_table[n])
            else:
                assert c2 == IRRATIONAL
            redc = reduce_for_cos(r)
            if redc.n == 1:
                assert c == TrigVerdict.exact(1 if redc.d == 0 else -1)
            elif redc.n == 2:
                assert c == TrigVerdict.exact(0)
            elif redc.n == 3:
                half = Fraction(1, 2) if redc.d == 1 else Fraction(-1, 2)
                assert c == TrigVerdict.exact(half)
            else:
                assert c == IRRATIONAL
            for f, v in (("tan", t), ("cos2", c2), ("cos", c)):
                if v.is_exact:
                    seen[f].add(v.value)
        assert seen["tan"] == {0, -1, 1}
        assert seen["cos2"] == {0, 1, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)}
        assert seen["cos"] == {0, 1, -1, Fraction(1, 2), Fraction(-1, 2)}


def test_criterion_3_polynomial_shape():
    with criterion(3, "polynomial shape for odd n up to 999", 10.0):
        for n in range(3, 1000, 2):
            m = (n - 1) // 2
            q = tan_squared_poly(n)
            assert q.degree == m
            assert q.coeffs[-1] == 1
            assert q.coeffs[0] == (-1) ** m * n
            p = tan_poly(n)
            expanded = [0] * (2 * m + 1)
            for j, c in enumerate(q.coeffs):
                expanded[2 * j] = c
            assert tuple(expanded) == p.coeffs


def test_criterion_4_rational_roots():
    with criterion(4, "rational roots of the collapsed polynomials", 30.0):
        for n in range(3, 298, 2):
            expect = [Fraction(3)] if n % 3 == 0 else []
            assert rational_roots(tan_squared_poly(n)) == expect, n


def test_criterion_5_doubling_preimages():
    with criterion(5, "integer doubling preimages", 5.0):
        assert invert_double_angle(Fraction(3)) == [Fraction(1, 3), Fraction(3)]
        assert invert_double_angle(Fraction(1)) == []
        assert integer_double_angle_preimages(3) == [3]
        for u in range(5, 10000, 2):
            assert integer_double_angle_preimages(u) == [], u


def test_criterion_6_certificates():
    with criterion(6, "certificates verify and resist mutation", 60.0):
        trees = []
        for d, n in _reduced_angles(500):
            r = Fraction(d, n)
            for f in FUNCTIONS:
                cert = certify(r, f)
                assert cert.verdict == classify(r, f), (r, f)
                res = verify_certificate(cert)
                assert res.ok, (r, f, res.reason)
                # every angle up to 6, so that the sample holds exact verdicts
                if n <= 6 or (len(trees) < 400 and (n + d) % 97 == 0):
                    trees.append(certificate_to_tree(cert))
        assert any(tree["verdict"]["kind"] == "exact" for tree in trees)
        corrupted = 0
        for tree in trees:
            for bad in _mutation.wrong_verdicts(tree):
                assert not verify_certificate_json(json.dumps(bad)).ok, bad
                corrupted += 1
        assert corrupted >= 100, corrupted


def test_criterion_7_numeric_crosscheck():
    with criterion(7, "numeric cross-check at 128 bits", 60.0):
        for d, n in _reduced_angles(200):
            r = Fraction(d, n)
            for f in FUNCTIONS:
                assert crosscheck(r, f, classify(r, f), bits=128), (r, f)
        bound = Fraction(1, 1 << 100)
        for n in range(3, 100, 2):
            p = tan_squared_poly(n)
            for d in range(1, n):
                if gcd(d, n) != 1:
                    continue
                img = eval_poly_at_tan_squared(p, Fraction(d, n), 128)
                assert img.lo <= 0 <= img.hi, (d, n)
                assert img.width < bound, (d, n)


def test_criterion_8_sum_of_squared_tangents():
    with criterion(8, "sum of squared tangents", 30.0):
        for n in (7, 15, 31):
            q = tan_squared_poly(n)
            target = Fraction(n * (n - 1), 2)
            assert -q.coeffs[-2] == target
            m = (n - 1) // 2
            total = Fraction(0)
            slack = Fraction(0)
            for k in range(1, m + 1):
                iv = eval_tan_squared(Fraction(k, n), 128)
                total += iv.midpoint
                slack += iv.width / 2
            assert abs(total - target) <= slack, n
