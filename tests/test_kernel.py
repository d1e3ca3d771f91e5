"""Tests for the verifier kernel: independence from the generator, lazy loading."""

import ast
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import trig_rational
from trig_rational import certifier, classifier, kernel
from trig_rational.certifier import certificate_to_tree, certify, to_json, verify_certificate
from trig_rational.exact_core import divisors, gcd
from trig_rational.polynomial import tan_squared_poly_at

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
    bad = good.replace('"128"', '"129"')
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
        "VerificationResult(ok=False, reason='exact evaluation mismatch')",
    ]


def test_kernel_rejects_what_a_broken_generator_emits(monkeypatch):
    # the generator's polynomial values are off by one; the kernel computes its own
    real = certifier._poly_value_at
    real.cache_clear()
    certifier._tan2_steps.cache_clear()
    monkeypatch.setattr(certifier, "_poly_value_at", lambda q, c: real(q, c) + 1)
    try:
        cert = certify(Fraction(1, 5))
        assert [e.q_value for e in cert.steps[1].exclusions] == [-3, -19]
        assert verify_certificate(cert).reason == "exact evaluation mismatch"
    finally:
        certifier._tan2_steps.cache_clear()  # drop the broken steps


def test_plain_forms_agree():
    # the kernel parses the wire tree to the same plain form that
    # verify_certificate builds from the dataclasses
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
    for q in range(5, 600, 2):
        assert list(kernel._divisors(q)) == divisors(q)
        for c in divisors(q):
            assert kernel._p_at(q, c) == tan_squared_poly_at(q, c)


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

    # -X importtime lists every module the command imports
    res = _python("-X", "importtime", "-m", "trig_rational", "verify", stdin=text)
    assert res.stdout == "pass\n"
    loaded = set(re.findall(r"\| +trig_rational\.(\w+)$", res.stderr, re.M))
    assert "kernel" in loaded and not loaded & set(GENERATOR), loaded
