"""Tests for the verifier kernel: independence from the generator, lazy loading."""

import ast
import json
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _mutation
import trig_rational
from trig_rational import certifier, classifier, kernel
from trig_rational.angle import PoleError, invert_double_angle
from trig_rational.certifier import (
    certificate_to_tree, certify, to_json, verdict_to_tree, verify_certificate)
from trig_rational.classifier import TrigVerdict, classify
from trig_rational.exact_core import gcd
from trig_rational.highprec import eval_cos, eval_tan_squared

# every module of the package that builds certificates, as opposed to checking them
GENERATOR = ("certifier", "angle", "classifier", "polynomial", "highprec", "exact_core")


def _python(*args, stdin=""):
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, check=True
    )


def test_kernel_imports_only_the_standard_library():
    tree = ast.parse(Path(kernel.__file__).read_text(encoding="utf-8"))
    froms = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert all(n.level == 0 for n in froms)  # no relative import
    names = {n.module for n in froms}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert names <= set(sys.stdlib_module_names)


def test_kernel_verifies_without_the_generator():
    good = to_json(certify(Fraction(1, 15)))
    bad = good.replace('{"kind": "irrational"}', '{"kind": "exact", "value": "3/1"}')
    assert bad != good
    code = f"""
import sys
for name in {GENERATOR!r}:
    sys.modules["trig_rational." + name] = None  # importing it now raises
try:
    import trig_rational.certifier
except ImportError:
    pass
else:
    raise SystemExit("the generator is importable")
import trig_rational
for line in sys.stdin:
    print(trig_rational.verify_certificate_json(line))
"""
    out = _python("-c", code, stdin=f"{good}\n{bad}\n").stdout
    assert out.splitlines() == [
        "VerificationResult(ok=True, reason='')",
        "VerificationResult(ok=False, reason='verdict not entailed')",
    ]


def test_kernel_rejects_what_a_broken_generator_emits(monkeypatch):
    # the generator's verdict is off: the root 3 of p_q claimed as tan^2 at
    # an angle of odd part q, or another function's verdict; the kernel
    # derives the verdict from the input alone
    real = certifier.classify
    other = {"tan2": "cos2", "cos2": "tan2", "tan": "cos", "cos": "tan"}
    broken = [
        (lambda r, f: TrigVerdict.exact(3),
         ((Fraction(1, 15), "tan2"), (Fraction(3, 40), "cos"), (Fraction(7, 90), "tan"))),
        (lambda r, f: real(r, other[f]),
         ((Fraction(1, 6), "tan2"), (Fraction(3, 4), "tan"), (Fraction(1, 3), "cos"))),
    ]
    for classify_, inputs in broken:
        monkeypatch.setattr(certifier, "classify", classify_)
        for r, f in inputs:
            cert = certify(r, f)
            assert cert.verdict != real(r, f)
            assert verify_certificate(cert).reason == "verdict not entailed", (r, f)


def test_verification_result_api():
    VR = kernel.VerificationResult
    good, bad = VR(True), VR(False, "verdict not entailed")
    assert (good.ok, good.reason) == (True, "")
    assert (bad.ok, bad.reason) == (False, "verdict not entailed")
    assert VR(ok=False, reason="x") == VR(False, "x")
    assert bool(good) is True and bool(bad) is False
    assert repr(good) == "VerificationResult(ok=True, reason='')"
    assert repr(bad) == "VerificationResult(ok=False, reason='verdict not entailed')"
    # equal results are equal and hash alike; a result equals no other type
    assert good == VR(True, "") and hash(good) == hash(VR(True, ""))
    assert good != bad and good != VR(True, "x")
    assert good != (True, "") and bad != (False, "verdict not entailed")
    assert len({good, VR(True), bad}) == 2
    with pytest.raises(TypeError):
        good < bad
    for name in ("ok", "reason", "other"):
        with pytest.raises(AttributeError):
            setattr(good, name, False)
        with pytest.raises(AttributeError):
            delattr(good, name)
    assert (good.ok, good.reason) == (True, "")
    assert pickle.loads(pickle.dumps(bad)) == bad


def test_plain_forms_agree():
    # the kernel parses the wire tree to the same plain form that
    # verify_certificate builds from the certificate records
    for n in range(1, 61):
        for d in range(n):
            if gcd(d, n) != 1:
                continue
            for f in classifier.FUNCTIONS:
                cert = certify(Fraction(d, n), f)
                plain = kernel.parse(certificate_to_tree(cert))
                assert plain == certifier._plain(cert)
                assert kernel.check(plain).ok


def test_kernel_arithmetic_matches_the_library():
    # the generator keeps its own copies, so that certify loads no kernel
    assert trig_rational.FUNCTIONS == classifier.FUNCTIONS == kernel.FUNCTIONS
    assert certifier.WIRE_VERSION == kernel.WIRE_VERSION
    # the kernel's base table is the classifier's, written out again
    tan2 = {n: (v.kind,) if v.value is None else (v.kind, (v.value.numerator, v.value.denominator))
            for n, v in classifier._TAN2_VERDICTS.items()}
    assert kernel._TAN2 == tan2


def test_base_table_matches_the_enclosures():
    # fact 1 without the kernel: each table value lies in the certified
    # tan^2 enclosure at every reduced angle of its denominator
    for n, value in kernel._TAN2.items():
        for d in range(-2 * n, 2 * n):
            if gcd(d, n) != 1:
                continue
            if value == ("pole",):
                with pytest.raises(PoleError):
                    eval_tan_squared(Fraction(d, n), 64)
                continue
            for bits in (8, 64, 4096):
                assert Fraction(*value[1]) in eval_tan_squared(Fraction(d, n), bits)


def _sign(iv) -> int:
    return 1 if iv.lo > 0 else -1 if iv.hi < 0 else 0


def test_sign_folds_match_the_enclosure_signs():
    # fact 2 without the kernel: where tan or cos is exact, the kernel takes
    # the value with the sign of a certified enclosure and refuses its
    # negation, over several whole periods and negative numerators
    checked = 0
    for function, dens in (("tan", (1, 4)), ("cos", (1, 2, 3))):
        for den in dens:
            for num in range(-7 * den, 7 * den + 1):
                if gcd(num, den) != 1:
                    continue
                r = Fraction(num, den)
                if function == "tan":  # tan x and sin 2x = cos(2x - pi/2) share a sign
                    sign = _sign(eval_cos(2 * r - Fraction(1, 2), 64))
                else:
                    sign = _sign(eval_cos(r, 64))
                cert = kernel.parse(certificate_to_tree(certify(r, function)))
                p, q = cert[3][1]
                good = (sign * abs(p), q)
                assert kernel.check(cert[:3] + (("exact", good),)).ok, r
                if p:
                    bad = (-good[0], q)
                    assert not kernel.check(cert[:3] + (("exact", bad),)).ok
                    checked += 1
    assert checked == 28 + 15 + 28  # tan at d/4, cos at d/1 and at d/3


@settings(max_examples=300, deadline=None, database=None)
@given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
def test_doubling_identity_in_exact_arithmetic(t, x):
    # fact 3 without the kernel, in Fractions only
    # tan 2x = 2t/(1 - t^2), so with T = t^2, tan^2 2x = 4T/(1 - T)^2
    if t * t != 1:
        T = t * t
        assert (2 * t / (1 - t * t)) ** 2 == 4 * T / (1 - T) ** 2
    # at the stops 8 and 12 the doubled angle is pi/4 and pi/6, where
    # tan^2 = D = u/v is 1 and 1/3; for x != 1, 4x/(1 - x)^2 = u/v exactly
    # when x is a root of u x^2 - 2(u + 2v) x + u, since
    # v (1 - x)^2 (4x/(1 - x)^2 - u/v) = -(u x^2 - 2(u + 2v) x + u)
    if x != 1:
        for u, v in ((1, 1), (1, 3)):
            quadratic = u * x * x - 2 * (u + 2 * v) * x + u
            doubled = 4 * x / (1 - x) ** 2
            assert v * (1 - x) ** 2 * (doubled - Fraction(u, v)) == -quadratic
            assert (quadratic == 0) == (doubled == Fraction(u, v))


def test_doubling_halves_an_even_reduced_denominator():
    # fact 3: doubling d/n with n even and gcd(d, n) = 1 (so d is odd) lands on
    # reduced denominator n/2, so the chain from n = 2^a q reaches q, 8 or 12
    for n in range(2, 500, 2):
        for d in range(-n, n):
            if gcd(d, n) == 1:
                assert d % 2 == 1
                assert Fraction(2 * d, n).denominator == n // 2
    # and the stops' doubled angles are the base denominators 4 and 6
    assert [Fraction(2, n).denominator for n in (8, 12)] == [4, 6]


def test_backward_quadratic_discriminants_are_not_squares():
    # fact 3 at the stops 8 and 12, without the kernel: the doubled angles
    # have the reduced denominators 4 and 6, where tan^2 = D = u/v is 1 and
    # 1/3, so tan^2 at a stop is a root of u x^2 - 2(u + 2v) x + u; its
    # discriminant 16 v (u + v), 32 and 192, is no square, so no root is
    # rational, and the library's own preimage solver finds none either
    for stop, (u, v) in ((8, (1, 1)), (12, (1, 3))):
        assert classifier._TAN2_VERDICTS[stop // 2] == TrigVerdict.exact(Fraction(u, v))
        disc = 4 * (u + 2 * v) ** 2 - 4 * u * u
        assert disc == 16 * v * (u + v) == {8: 32, 12: 192}[stop]
        assert isqrt(disc) ** 2 != disc
        assert invert_double_angle(Fraction(u, v)) == []


def test_doubling_keeps_integers_only_at_0_and_3():
    # the core of fact 4, the doubling lemma, by
    # integer divisibility only: T(c) = 4c/(c - 1)^2 and T(T(c)) are both integers,
    # for an integer 0 <= c < 10^5 with c != 1, only at c = 0 and c = 3
    # (T(2) = 8, but T(8) = 32/49)
    both = []
    for c in range(10**5):
        if c == 1 or 4 * c % (c - 1) ** 2:
            continue
        t = 4 * c // (c - 1) ** 2
        if t != 1 and 4 * t % (t - 1) ** 2 == 0:
            both.append(c)
    assert both == [0, 3]


def test_tan2_increases_and_misses_0_and_3_past_the_base_table():
    # fact 5 without the kernel: on each grid k/n of [0, 1/2) the certified
    # tan^2 enclosures ascend and are disjoint, and at every reduced angle
    # with odd denominator 5 <= q < 100 they exclude 0 = tan^2(0) and
    # 3 = tan^2(1/3)
    for n in range(2, 41):
        ivs = [eval_tan_squared(Fraction(k, 2 * n), 64) for k in range(n)]
        assert all(a.hi < b.lo for a, b in zip(ivs, ivs[1:])), n
    for q in range(5, 100, 2):
        for k in range(1, q):
            if gcd(k, q) == 1:
                iv = eval_tan_squared(Fraction(k, q), 64)
                assert 0 not in iv and 3 not in iv, (k, q)


def test_rational_squares_are_squares_of_both_terms():
    # fact 6 without the kernel: a/b in lowest terms is the square of a
    # rational p/q exactly when a and b are squares, for a < 200 and b < 200
    # (p/q in lowest terms squares to p^2/q^2, in lowest terms, so p, q < 15)
    squares = {Fraction(p, q) ** 2 for p in range(15) for q in range(1, 15)}
    for a in range(200):
        for b in range(1, 200):
            if gcd(a, b) == 1:
                both = isqrt(a) ** 2 == a and isqrt(b) ** 2 == b
                assert (Fraction(a, b) in squares) == both, (a, b)


def test_kernel_accepts_exactly_the_classifier_verdict_in_a_box():
    # every input d/n with n <= 12 and d in [-2n, 2n], so shifted by whole
    # periods and negative, for all four functions: of the true verdict, each
    # other one in _mutation.VERDICTS and the true value nudged, the kernel
    # accepts exactly classify's
    rejected = 0
    for n in range(1, 13):
        for d in range(-2 * n, 2 * n + 1):
            if gcd(d, n) != 1:
                continue
            for f in classifier.FUNCTIONS:
                tree = {"version": kernel.WIRE_VERSION, "input": f"{d}/{n}", "function": f,
                        "verdict": verdict_to_tree(classify(Fraction(d, n), f))}
                assert kernel.verify_certificate_json(json.dumps(tree)).ok, tree
                for bad in _mutation.wrong_verdicts(tree):
                    res = kernel.verify_certificate_json(json.dumps(bad))
                    assert res.reason == "verdict not entailed", bad
                    rejected += 1
    assert rejected > 10_000, rejected


def test_package_import_loads_no_submodule():
    code = """
import sys
import trig_rational
print(sorted(m for m in sys.modules if m.startswith("trig_rational.")))
"""
    assert _python("-c", code).stdout == "[]\n"


def test_lazy_names_are_exactly_all():
    assert dir(trig_rational) == sorted(trig_rational.__all__)
    star: dict = {}
    exec("from trig_rational import *", star)
    assert set(star) - {"__builtins__"} == set(trig_rational.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        trig_rational.no_such_name
    # the package reads the kernel's names from the kernel
    for name in ("verify_certificate_json", "VerificationResult", "CertificateFormatError"):
        assert getattr(trig_rational, name) is getattr(kernel, name)


def test_verifying_loads_no_generator_module():
    text = to_json(certify(Fraction(1, 15), "cos"))
    code = """
import sys
import trig_rational
assert trig_rational.verify_certificate_json(sys.stdin.read()).ok
print(sorted(m for m in sys.modules if m.startswith("trig_rational.")))
"""
    assert _python("-c", code, stdin=text).stdout == "['trig_rational.kernel']\n"

    # -X importtime lists every module the command imports.  verify needs
    # neither dataclasses (which pulls in inspect) nor fractions; what site's
    # .pth files load, listed before site itself, is not the program's
    res = _python("-X", "importtime", "-m", "trig_rational", "verify", stdin=text)
    assert res.stdout == "pass\n"
    program = re.split(r"\| site$", res.stderr, flags=re.M)[-1]
    modules = set(re.findall(r"\| +([\w.]+)$", program, re.M))
    loaded = {m.partition(".")[2] for m in modules if m.startswith("trig_rational.")}
    assert loaded == {"cli", "kernel"}, loaded
    assert not modules & {"dataclasses", "fractions"}, modules
