"""Tests for the verifier kernel: independence from the generator, lazy loading."""

import ast
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import trig_rational
from trig_rational import certifier, classifier, kernel
from trig_rational.angle import PoleError
from trig_rational.certifier import (
    BackwardQuadraticStep, BaseStep, ChainStep, PolyStep, SqrtStep, certificate_to_tree,
    certify, to_json, verify_certificate)
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
    bad = good.replace('"q": "15"', '"q": "17"')
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
        "VerificationResult(ok=False, reason='odd part mismatch')",
    ]


def test_kernel_rejects_what_a_broken_generator_emits(monkeypatch):
    # the generator's steps are off, in the odd part or in the chain; the
    # kernel derives both from the input alone
    real = certifier._tan2_steps
    broken = [
        (lambda chain, poly: (chain, poly.__replace__(q=poly.q + 2)), "odd part mismatch"),
        (lambda chain, poly: (ChainStep(chain.doublings + 1), poly), "chain length mismatch"),
    ]
    for breaks, reason in broken:
        def tan2_steps(n, breaks=breaks):
            return breaks(*real(n))

        monkeypatch.setattr(certifier, "_tan2_steps", tan2_steps)
        for r, f in ((Fraction(1, 5), "tan2"), (Fraction(3, 40), "cos"), (Fraction(7, 90), "tan")):
            cert = certify(r, f)
            assert cert.steps != real(r.denominator)
            assert verify_certificate(cert).reason == reason, (r, f)


def test_verification_result_api():
    VR = kernel.VerificationResult
    good, bad = VR(True), VR(False, "odd part mismatch")
    assert (good.ok, good.reason) == (True, "")
    assert (bad.ok, bad.reason) == (False, "odd part mismatch")
    assert VR(ok=False, reason="x") == VR(False, "x")
    assert bool(good) is True and bool(bad) is False
    assert repr(good) == "VerificationResult(ok=True, reason='')"
    assert repr(bad) == "VerificationResult(ok=False, reason='odd part mismatch')"
    # equal results are equal and hash alike; a result equals no other type
    assert good == VR(True, "") and hash(good) == hash(VR(True, ""))
    assert good != bad and good != VR(True, "x")
    assert good != (True, "") and bad != (False, "odd part mismatch")
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


def test_step_records_match_the_kernel_grammar():
    # the kernel's table is the step grammar: each record's tag is a wire
    # type, and its fields are that type's wire keys, in order
    steps = (BaseStep, ChainStep, PolyStep, BackwardQuadraticStep, SqrtStep)
    assert set(certifier.CertStep.__args__) == set(steps)
    assert {cls._tag for cls in steps} == kernel._STEP_KEYS.keys()
    for cls in steps:
        assert cls.__match_args__ == kernel._STEP_KEYS[cls._tag], cls


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
    assert kernel.FUNCTIONS == classifier.FUNCTIONS
    # the kernel's base table is the classifier's, written out again
    tan2 = {n: None if v.kind == "pole" else (v.value.numerator, v.value.denominator)
            for n, v in classifier._TAN2_VERDICTS.items()}
    assert kernel._TAN2 == tan2


def test_base_table_matches_the_enclosures():
    # fact 1 without the kernel: each table value lies in the certified
    # tan^2 enclosure at every reduced angle of its denominator
    for n, value in kernel._TAN2.items():
        for d in range(-2 * n, 2 * n):
            if gcd(d, n) != 1:
                continue
            if value is None:
                with pytest.raises(PoleError):
                    eval_tan_squared(Fraction(d, n), 64)
                continue
            for bits in (8, 64, 4096):
                assert Fraction(*value) in eval_tan_squared(Fraction(d, n), bits)


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
                assert kernel.check(cert[:3] + (("exact", good),) + cert[4:]).ok, r
                if p:
                    bad = (-good[0], q)
                    assert not kernel.check(cert[:3] + (("exact", bad),) + cert[4:]).ok
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


def test_doubling_keeps_integers_only_at_0_and_3():
    # the core of fact 4, the doubling lemma the poly step rests on, by
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
    # the kernel's names are the ones the certifier re-exports
    for name in ("verify_certificate_json", "VerificationResult", "CertificateFormatError"):
        assert getattr(trig_rational, name) is getattr(certifier, name) is getattr(kernel, name)


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
    assert "kernel" in loaded and not loaded & set(GENERATOR), loaded
    assert not modules & {"dataclasses", "fractions"}, modules
