"""Tests for certificate generation, verification and the wire format."""

import hashlib
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import _mutation
from trig_rational import certifier, kernel, polynomial
from trig_rational.angle import reduce_for_cos, reduce_for_tan
from trig_rational.certifier import (
    BackwardQuadraticStep,
    BaseStep,
    CertificateFormatError,
    ChainStep,
    Exclusion,
    PolyStep,
    SqrtStep,
    certificate_from_tree,
    certificate_to_tree,
    certify,
    exclude_candidate,
    from_json,
    to_json,
    verify_certificate_json,
)
from trig_rational.classifier import FUNCTIONS, IRRATIONAL, POLE, TrigVerdict, classify
from trig_rational.exact_core import gcd
from trig_rational.highprec import crosscheck


def replace(record, **changes):
    return record.__replace__(**changes)


def _tree_json(cert, indent=None):
    return json.dumps(certificate_to_tree(cert), sort_keys=True, indent=indent)


def verify_certificate(cert):
    """certifier.verify_certificate, after checking that to_json's template
    writes cert exactly as json.dumps writes its tree: every hand-built and
    tampered certificate below goes through here."""
    assert to_json(cert) == _tree_json(cert), cert
    return certifier.verify_certificate(cert)


# ------------------------------------------------------------ generation --


def test_certify_base_cases():
    cert = certify(Fraction(1, 6))
    assert cert.function == "tan2"
    assert cert.verdict == TrigVerdict.exact(Fraction(1, 3))
    assert cert.steps == (BaseStep(),)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 2))
    assert cert.verdict == POLE
    assert cert.steps == (BaseStep(),)
    assert verify_certificate(cert)

    cert = certify(0)
    assert cert.verdict == TrigVerdict.exact(0)
    assert verify_certificate(cert)

    with pytest.raises(ValueError):
        certify(Fraction(1, 6), "sin")


def test_certify_odd_denominator_five():
    cert = certify(Fraction(1, 5))
    assert cert.verdict == IRRATIONAL
    chain, poly = cert.steps
    assert chain == ChainStep(0)
    assert poly.q == 5
    assert [e.candidate for e in poly.exclusions] == [1, 5]
    assert [e.method for e in poly.exclusions] == ["nonroot", "nonroot"]
    assert [e.q_value for e in poly.exclusions] == [-4, -20]
    assert verify_certificate(cert)


def test_certify_denominator_fifteen():
    cert = certify(Fraction(1, 15))
    chain, poly = cert.steps
    assert chain == ChainStep(0)
    assert poly.q == 15
    assert [e.candidate for e in poly.exclusions] == [1, 3, 5, 15]
    assert [e.method for e in poly.exclusions] == [
        "nonroot",
        "angle",
        "nonroot",
        "nonroot",
    ]
    assert [e.q_value for e in poly.exclusions] == [
        128,
        None,
        306560,
        -220938240,
    ]
    # 3 = tan^2(pi/3) is a root of the polynomial, at another angle than 2/15
    assert poly.exclusions[1] == Exclusion(Fraction(3), "angle")
    assert verify_certificate(cert)


def test_exclusion_fields_are_ints():
    cert = certify(Fraction(7, 90), "cos")  # odd part 45: roots and nonroots
    for c in (cert, from_json(to_json(cert))):
        exclusions = c.steps[-1].exclusions
        assert {e.method for e in exclusions} == {"nonroot", "angle"}
        for e in exclusions:
            assert type(e.candidate) is int
            assert type(e.q_value) is int or e.method == "angle"
    for e in exclude_candidate(15, 2, 3), exclude_candidate(15, 2, Fraction(5)):
        assert type(e.candidate) is int
        assert type(e.q_value) is int or e.method == "angle"
    # equality is by value, so a Fraction-valued candidate still matches
    assert Exclusion(Fraction(3), "angle") == Exclusion(3, "angle")


def test_certifier_caches_are_bounded():
    cached = [
        f
        for module in (certifier, kernel, polynomial)
        for f in vars(module).values()
        if hasattr(f, "cache_info")
    ]
    assert certifier._tan2_steps in cached and certifier._poly_value_at in cached
    assert kernel._p_at in cached
    for f in cached:
        assert f.cache_info().maxsize is not None, f.__name__


class _SubFraction(Fraction):
    """A Fraction subclass; the entry points convert it to a plain Fraction."""


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.integers(-400, 400),
    st.just(1) | st.integers(1, 150),
    st.sampled_from(FUNCTIONS),
)
def test_entry_points_agree_across_input_types(num, den, f):
    r = Fraction(num, den)
    verdict = classify(r, f)
    cert = certify(r, f)
    forms = [_SubFraction(num, den)] + ([num // den] if r.denominator == 1 else [])
    for x in forms:
        assert reduce_for_tan(x) == reduce_for_tan(r)
        assert reduce_for_cos(x) == reduce_for_cos(r)
        assert classify(x, f) == verdict
        got = certify(x, f)
        assert got == cert and type(got.input) is Fraction
        assert to_json(got) == to_json(cert)
        assert crosscheck(x, f, verdict)


def test_certify_chained_denominator():
    # 1/40 -> 1/20 -> 1/10 -> 1/5: three doublings down to the odd part
    cert = certify(Fraction(1, 40))
    chain, poly = cert.steps
    assert chain == ChainStep(3)
    assert poly == certify(Fraction(1, 5)).steps[1]
    assert verify_certificate(cert)


def test_certify_power_of_two_denominator():
    cert = certify(Fraction(1, 8))
    assert cert.verdict == IRRATIONAL
    assert cert.steps == (ChainStep(0), BackwardQuadraticStep(8))
    assert verify_certificate(cert)

    # 5/16 -> 3/8, then the quadratic at 8
    cert = certify(Fraction(5, 16))
    assert cert.steps == (ChainStep(1), BackwardQuadraticStep(8))
    assert verify_certificate(cert)
    cert = certify(Fraction(1, 1024))
    assert cert.steps == (ChainStep(7), BackwardQuadraticStep(8))
    assert verify_certificate(cert)


def test_certify_three_times_power_of_two():
    cert = certify(Fraction(1, 12))
    assert cert.steps == (ChainStep(0), BackwardQuadraticStep(12))
    assert verify_certificate(cert)

    # 1/24 -> 1/12, then the quadratic at 12
    cert = certify(Fraction(1, 24))
    assert cert.steps == (ChainStep(1), BackwardQuadraticStep(12))
    assert verify_certificate(cert)
    cert = certify(Fraction(7, 3 * 1024))
    assert cert.steps == (ChainStep(8), BackwardQuadraticStep(12))
    assert verify_certificate(cert)


def test_certify_tan_structures():
    # the function fixes how tan relates to tan^2: no identity step
    cert = certify(Fraction(3, 4), "tan")
    assert cert.verdict == TrigVerdict.exact(-1)
    assert cert.steps == (BaseStep(),)
    assert verify_certificate(cert)

    # rational tan^2 whose square root is not rational
    cert = certify(Fraction(1, 3), "tan")
    assert cert.verdict == IRRATIONAL
    assert cert.steps == (BaseStep(), SqrtStep())
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 6), "tan")
    assert cert.steps == (BaseStep(), SqrtStep())
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 2), "tan")
    assert cert.verdict == POLE
    assert verify_certificate(cert)

    # irrational tan^2 needs no square-root step
    cert = certify(Fraction(1, 5), "tan")
    assert cert.verdict == IRRATIONAL
    assert not any(isinstance(s, SqrtStep) for s in cert.steps)
    assert verify_certificate(cert)


def test_certify_cos_squared_structures():
    # the tan^2 pole is cos^2 = 0; the steps are those of tan^2
    cert = certify(Fraction(1, 2), "cos2")
    assert cert.verdict == TrigVerdict.exact(0)
    assert cert.steps == certify(Fraction(1, 2)).steps == (BaseStep(),)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 6), "cos2")
    assert cert.verdict == TrigVerdict.exact(Fraction(3, 4))
    assert verify_certificate(cert)

    cert = certify(Fraction(2, 7), "cos2")
    assert cert.verdict == IRRATIONAL
    assert cert.steps == certify(Fraction(2, 7)).steps
    assert verify_certificate(cert)


def test_certify_cos_structures():
    cert = certify(Fraction(2, 3), "cos")
    assert cert.verdict == TrigVerdict.exact(Fraction(-1, 2))
    assert cert.steps == (BaseStep(),)
    assert verify_certificate(cert)

    # cos^2 = 1/2 is rational but cos is not
    cert = certify(Fraction(1, 4), "cos")
    assert cert.verdict == IRRATIONAL
    assert cert.steps == (BaseStep(), SqrtStep())
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 6), "cos")
    assert cert.steps == (BaseStep(), SqrtStep())
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 2), "cos")
    assert cert.verdict == TrigVerdict.exact(0)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 5), "cos")
    assert cert.verdict == IRRATIONAL
    assert not any(isinstance(s, SqrtStep) for s in cert.steps)
    assert verify_certificate(cert)


def test_certify_and_verify_sweep():
    for n in range(1, 121):
        for d in range(n):
            if gcd(d, n) != 1:
                continue
            r = Fraction(d, n)
            for f in FUNCTIONS:
                cert = certify(r, f)
                assert cert.verdict == classify(r, f)
                res = verify_certificate(cert)
                assert res.ok, (r, f, res.reason)


# ------------------------------------------------------------ exclusions --


def test_exclude_candidate_nonroot():
    exc = exclude_candidate(5, 1, 5)
    assert exc.method == "nonroot"
    assert exc.q_value == -20
    assert exclude_candidate(5, 1, 1).q_value == -4


def test_exclude_candidate_angle():
    # 3 is a root whenever 3 | q; it is tan^2 at 1/3, never at 2 d'/q
    assert exclude_candidate(9, 1, 3) == Exclusion(Fraction(3), "angle")
    assert exclude_candidate(15, 2, 3) == Exclusion(Fraction(3), "angle")
    # bits is accepted and ignored
    assert exclude_candidate(15, 2, 3, 128) == exclude_candidate(15, 2, 3, bits=8)


def test_exclude_candidate_validation():
    with pytest.raises(ValueError):
        exclude_candidate(4, 1, 1)  # even q
    with pytest.raises(ValueError):
        exclude_candidate(3, 1, 1)  # too small
    with pytest.raises(ValueError):
        exclude_candidate(9, 0, 1)
    with pytest.raises(ValueError):
        exclude_candidate(9, 9, 1)
    with pytest.raises(ValueError):
        exclude_candidate(15, 5, 1)  # d' shares a factor with q
    with pytest.raises(ValueError):
        exclude_candidate(9, 1, 0)
    with pytest.raises(ValueError):
        exclude_candidate(9, 1, -3)
    with pytest.raises(ValueError):
        exclude_candidate(5, 1, Fraction(1, 2))  # not an integer


def test_exclusion_field_discipline():
    with pytest.raises(ValueError):
        Exclusion(Fraction(3), "separation", q_value=Fraction(1))
    with pytest.raises(ValueError):
        Exclusion(Fraction(3), "nonroot")
    with pytest.raises(ValueError):
        Exclusion(Fraction(3), "guesswork", q_value=Fraction(1))


# ----------------------------------------------------------- verification --


def test_verify_rejects_forged_verdicts():
    forged = replace(certify(Fraction(1, 6)), verdict=IRRATIONAL)
    res = verify_certificate(forged)
    assert not res.ok and res.reason == "verdict not entailed"

    forged = replace(certify(Fraction(1, 5)), verdict=TrigVerdict.exact(1))
    res = verify_certificate(forged)
    assert not res.ok and res.reason == "verdict not entailed"

    forged = replace(certify(Fraction(1, 2)), verdict=IRRATIONAL)
    assert not verify_certificate(forged).ok


def test_verify_rejects_base_tampering():
    # the base step has no fields: the input's denominator decides whether it
    # is the right step, and the table gives the value
    cert = certify(Fraction(1, 6))
    for steps in ((), cert.steps + cert.steps, (ChainStep(0),), (SqrtStep(),)):
        bad = replace(cert, steps=steps)
        assert verify_certificate(bad).reason == "expected a single base step"
    bad = replace(certify(Fraction(1, 5)), steps=(BaseStep(),))
    assert (
        verify_certificate(bad).reason == "expected a chain step and a concluding step"
    )


def test_verify_rejects_chain_tampering():
    cert = certify(Fraction(1, 5))
    chain, poly = cert.steps
    for doublings in (1, -1, 2**64):
        bad = replace(cert, steps=(ChainStep(doublings), poly))
        assert verify_certificate(bad).reason == "chain length mismatch"
    # each takes three doublings, down to 5, 8 and 12
    for r in (Fraction(1, 40), Fraction(1, 64), Fraction(5, 96)):
        long_chain, last = certify(r).steps
        assert long_chain == ChainStep(3)
        for wrong in (2, 4, 0):
            bad = replace(cert, input=r, steps=(ChainStep(wrong), last))
            assert verify_certificate(bad).reason == "chain length mismatch", r
    bad = replace(cert, steps=(chain,))
    assert (
        verify_certificate(bad).reason == "expected a chain step and a concluding step"
    )
    quad = certify(Fraction(1, 8)).steps[1]
    bad = replace(cert, steps=(chain, quad))
    assert verify_certificate(bad).reason == "expected a poly step"


def test_verify_rejects_poly_tampering():
    cert = certify(Fraction(1, 5))
    chain, poly = cert.steps
    exc = poly.exclusions

    bad = replace(cert, steps=(chain, replace(poly, q=7)))
    assert verify_certificate(bad).reason == "odd part mismatch"

    bad = replace(cert, steps=(chain, replace(poly, exclusions=exc[:1])))
    assert verify_certificate(bad).reason == "exclusion count mismatch"

    wrong_value = (replace(exc[0], q_value=Fraction(7)), exc[1])
    bad = replace(cert, steps=(chain, replace(poly, exclusions=wrong_value)))
    assert verify_certificate(bad).reason == "exact evaluation mismatch"


def test_verify_rejects_root_marked_nonroot():
    cert = certify(Fraction(1, 9))
    chain, poly = cert.steps
    assert poly.exclusions[1].method == "angle"
    lie = Exclusion(Fraction(3), "nonroot", q_value=Fraction(0))
    exclusions = (poly.exclusions[0], lie, poly.exclusions[2])
    bad = replace(cert, steps=(chain, replace(poly, exclusions=exclusions)))
    assert verify_certificate(bad).reason == "candidate is a root but marked nonroot"


def test_verify_rejects_angle_tampering():
    cert = certify(Fraction(1, 9))
    chain, poly = cert.steps

    ordered = (poly.exclusions[1], poly.exclusions[0], poly.exclusions[2])
    bad = replace(cert, steps=(chain, replace(poly, exclusions=ordered)))
    assert verify_certificate(bad).reason == "exclusion candidate mismatch"

    # 5 is no base value, so an angle exclusion proves nothing about it
    cert = certify(Fraction(1, 15))
    chain, poly = cert.steps
    exclusions = list(poly.exclusions)
    exclusions[2] = Exclusion(Fraction(5), "angle")
    bad = replace(cert, steps=(chain, replace(poly, exclusions=tuple(exclusions))))
    assert verify_certificate(bad).reason == "candidate not separated"

    with pytest.raises(ValueError):
        Exclusion(Fraction(3), "angle", q_value=Fraction(1))


def test_verify_rejects_quadratic_tampering():
    cert = certify(Fraction(1, 8))
    chain, quad = cert.steps
    for den in (12, 9, 4, 0):
        bad = replace(cert, steps=(chain, BackwardQuadraticStep(den)))
        assert verify_certificate(bad).reason == "landing denominator mismatch"
    cert = certify(Fraction(1, 24))
    bad = replace(cert, steps=(cert.steps[0], BackwardQuadraticStep(8)))
    assert verify_certificate(bad).reason == "landing denominator mismatch"

    poly = certify(Fraction(1, 5)).steps[1]
    bad = replace(cert, steps=(cert.steps[0], poly))
    assert verify_certificate(bad).reason == "expected a backward quadratic step"


def test_verify_recomputes_the_quadratic_square_test(monkeypatch):
    # with D = 3 at the stop 8 the discriminant 4*5^2 - 4*3^2 = 64 is a square,
    # so the same step would no longer prove anything
    cert = certify(Fraction(1, 8))
    assert verify_certificate(cert)
    monkeypatch.setitem(kernel._TAN2, 4, (3, 1))  # the kernel's own base table
    assert verify_certificate(cert).reason == "verdict not entailed"
    assert verify_certificate(certify(Fraction(1, 12)))


def test_verify_rejects_identity_and_sqrt_tampering():
    # the identities tying tan, cos2 and cos to tan2 are fixed by the declared
    # function: declaring another one without changing the verdict must fail
    for f in ("cos2", "tan", "cos"):
        forged = replace(certify(Fraction(1, 6)), function=f)
        assert not verify_certificate(forged).ok, f
    cert = certify(Fraction(1, 6), "cos2")
    bad = replace(cert, steps=cert.steps + (SqrtStep(),))
    assert verify_certificate(bad).reason == "expected a single base step"

    # the square-root marker must be present exactly when the exact square
    # has no rational root
    cert = certify(Fraction(1, 3), "tan")
    bad = replace(cert, steps=cert.steps[:-1])
    assert verify_certificate(bad).reason == "missing square-root step"
    bad = replace(cert, steps=cert.steps + (SqrtStep(),))
    assert verify_certificate(bad).reason == "expected a single base step"

    cert = certify(Fraction(1, 4), "tan")
    padded = replace(cert, verdict=IRRATIONAL, steps=cert.steps + (SqrtStep(),))
    reason = verify_certificate(padded).reason
    assert reason == "square-root step on a rational square root"

    cert = certify(Fraction(1, 5), "cos")
    padded = replace(cert, steps=cert.steps + (SqrtStep(),))
    reason = verify_certificate(padded).reason
    assert reason == "square-root step without an exact square"


# ------------------------------------------------------------ wire format --


def test_json_round_trip_examples():
    cases = [
        (Fraction(1, 6), "tan2"),
        (Fraction(1, 15), "tan2"),
        (Fraction(1, 8), "tan2"),
        (Fraction(1, 24), "tan2"),
        (Fraction(3, 4), "tan"),
        (Fraction(1, 3), "tan"),
        (Fraction(1, 4), "cos"),
        (Fraction(1, 2), "cos2"),
        (Fraction(2, 9), "cos"),
    ]
    for r, f in cases:
        cert = certify(r, f)
        text = to_json(cert)
        assert from_json(text) == cert
        assert verify_certificate_json(text).ok
        # canonical serialization is stable
        assert to_json(from_json(text)) == text
    # indent is cosmetic only
    cert = certify(Fraction(1, 15))
    assert from_json(to_json(cert, indent=2)) == cert


def test_wire_tree_shape():
    tree = certificate_to_tree(certify(Fraction(1, 15)))
    assert tree["version"] == 3 and not isinstance(tree["version"], bool)
    assert tree["input"] == "1/15"
    assert tree["function"] == "tan2"
    assert tree["verdict"] == {"kind": "irrational"}
    chain, poly = tree["steps"]
    assert chain == {"type": "chain", "doublings": "0"}
    assert poly["type"] == "poly"
    assert set(poly) == {"type", "q", "exclusions"}
    assert poly["q"] == "15"
    assert [e["candidate"] for e in poly["exclusions"]] == ["1", "3", "5", "15"]
    nonroot = poly["exclusions"][0]
    assert set(nonroot) == {"candidate", "method", "Q_value"}
    assert nonroot["Q_value"] == "128"
    assert poly["exclusions"][1] == {"candidate": "3", "method": "angle"}

    tree = certificate_to_tree(certify(Fraction(5, 48), "tan"))
    assert tree["steps"] == [
        {"type": "chain", "doublings": "2"},
        {"type": "backward_quadratic", "den": "12"},
    ]

    tree = certificate_to_tree(certify(Fraction(1, 6)))
    assert tree["verdict"] == {"kind": "exact", "value": "1/3"}
    assert tree["steps"] == [{"type": "base"}]

    tree = certificate_to_tree(certify(Fraction(1, 4), "cos"))
    assert tree["steps"] == [{"type": "base"}, {"type": "sqrt_step"}]


def _tree(r=Fraction(1, 6), f="tan2"):
    return certificate_to_tree(certify(r, f))


def test_parser_rejects_malformed_trees():
    assert verify_certificate_json(json.dumps(_tree())).ok

    def reject(tree, hint):
        res = verify_certificate_json(json.dumps(tree))
        assert not res.ok, hint
        with pytest.raises(CertificateFormatError):
            from_json(json.dumps(tree))

    t = _tree()
    t["extra"] = 1
    reject(t, "unknown top-level field")
    t = _tree()
    del t["version"]
    reject(t, "missing version")
    t = _tree()
    t["version"] = 2
    reject(t, "wrong version")
    t = _tree()
    t["version"] = 4
    reject(t, "unknown version")
    t = _tree()
    t["version"] = True
    reject(t, "boolean version")
    t = _tree()
    t["version"] = "3"
    reject(t, "stringly version")
    t = _tree()
    t["input"] = "2/12"
    reject(t, "non-canonical rational")
    t = _tree()
    t["input"] = "+1/6"
    reject(t, "sign prefix")
    t = _tree()
    t["input"] = "007/42"
    reject(t, "leading zeros")
    t = _tree()
    t["input"] = "1/0"
    reject(t, "zero denominator")
    t = _tree()
    t["input"] = 0.1667
    reject(t, "float angle")
    t = _tree()
    t["function"] = "sin"
    reject(t, "unknown function")
    t = _tree()
    t["steps"] = "base"
    reject(t, "steps not a list")
    t = _tree()
    t["verdict"] = {"kind": "pole", "value": "0/1"}
    reject(t, "value on a pole verdict")
    t = _tree()
    t["verdict"] = {"kind": "exact"}
    reject(t, "exact without value")
    t = _tree()
    t["verdict"] = {"kind": "transcendental"}
    reject(t, "unknown verdict kind")
    t = _tree()
    t["verdict"]["value"] = "2/6"
    reject(t, "non-canonical verdict value")
    t = _tree()
    t["steps"][0]["surprise"] = 1
    reject(t, "unknown step field")
    t = _tree(Fraction(1, 15))
    del t["steps"][0]["doublings"]
    reject(t, "missing step field")
    t = _tree()
    t["steps"][0]["type"] = "magic"
    reject(t, "unknown step type")
    for doublings in ("01", "+1", "-0", "1.0", 1, 1.0, True, None):
        t = _tree(Fraction(1, 30))
        t["steps"][0]["doublings"] = doublings
        reject(t, f"non-canonical doublings {doublings!r}")
    t = _tree(Fraction(1, 24))
    t["steps"][1]["den"] = 12
    reject(t, "JSON-integer quadratic stop")
    # fields that version 2 carried and version 3 derives
    t = _tree()
    t["steps"][0]["value"] = "1/3"
    reject(t, "base step with a v2 value")
    t = _tree()
    t["steps"][0]["angle"] = {"d": "1", "n": "6", "sign": 1}
    reject(t, "base step with a v2 angle")
    t = _tree(Fraction(1, 30))
    t["steps"][0]["angles"] = [{"d": "1", "n": "30", "sign": 1}]
    reject(t, "chain step with v2 angles")
    t = _tree(Fraction(1, 30))
    t["steps"][0] = {"type": "chain", "angles": [{"d": "1", "n": "30", "sign": 1}]}
    reject(t, "v2 chain step")
    t = _tree(Fraction(1, 8))
    t["steps"][1]["D"] = "1/1"
    reject(t, "quadratic step with a v2 D")
    t = _tree(Fraction(1, 3), "tan")
    t["steps"][1]["radicand"] = "3/1"
    reject(t, "square-root step with a v2 radicand")
    t = _tree(Fraction(1, 6), "cos2")
    t["steps"].insert(0, {"type": "identity_step", "relation": "cos2 = 1/(1+tan2)"})
    reject(t, "v2 identity step")
    t = _tree(Fraction(1, 15))
    t["steps"][1]["exclusions"][0]["method"] = "magic"
    reject(t, "unknown exclusion method")
    t = _tree(Fraction(1, 15))
    t["steps"][1]["exclusions"][0]["bits"] = 64
    reject(t, "nonroot with a v1 separation field")
    t = _tree(Fraction(1, 15))
    t["steps"][1]["exclusions"][1]["Q_value"] = "0"
    reject(t, "angle exclusion with a Q_value")
    t = _tree(Fraction(1, 15))
    del t["steps"][1]["exclusions"][0]["Q_value"]
    reject(t, "nonroot without a Q_value")
    t = _tree(Fraction(1, 15))
    t["steps"][1]["coeffs"] = [
        "-15", "455", "-3003", "6435", "-5005", "1365", "-105", "1"]
    reject(t, "poly step with v1 coefficients")
    t = _tree(Fraction(1, 15))
    t["steps"][1]["candidates"] = ["1", "3", "5", "15"]
    reject(t, "poly step with a v1 candidate list")

    assert not verify_certificate_json("not json").ok
    assert not verify_certificate_json("[]").ok
    assert not verify_certificate_json('"1/6"').ok

    # numbers over the int-from-string digit limit, and nesting past the
    # recursion limit, are format errors rather than exceptions
    t = _tree()
    t["input"] = "1/" + "7" * 5000
    reject(t, "input over the digit limit")
    t = _tree()
    t["verdict"]["value"] = "1/" + "7" * 5000
    reject(t, "verdict value over the digit limit")
    for text in ('{"version": ' + "9" * 5000 + "}", "[" * 100000 + "]" * 100000):
        assert not verify_certificate_json(text).ok
        with pytest.raises(CertificateFormatError):
            from_json(text)
    with pytest.raises(CertificateFormatError):
        certificate_from_tree({**_tree(), 1: "non-string key"})


def test_json_round_trip_sweep():
    for n in range(1, 61):
        for d in range(n):
            if gcd(d, n) != 1:
                continue
            r = Fraction(d, n)
            for f in FUNCTIONS:
                cert = certify(r, f)
                text = to_json(cert)
                assert from_json(text) == cert
                res = verify_certificate_json(text)
                assert res.ok, (r, f, res.reason)


def test_any_single_field_mutation_fails():
    # a certificate must not survive any change to one of its numbers
    cases = [
        (Fraction(1, 6), "tan2"),
        (Fraction(1, 15), "tan2"),
        (Fraction(1, 9), "tan2"),
        (Fraction(1, 24), "tan2"),
        (Fraction(1, 8), "cos2"),
        (Fraction(3, 4), "tan"),
        (Fraction(2, 3), "cos"),
        (Fraction(7, 45), "tan2"),
        (Fraction(1, 105), "cos2"),
        (Fraction(1, 252), "tan"),  # two doublings down to 63
        (Fraction(1, 315), "tan2"),  # 12 divisors
        (Fraction(11, 1890), "cos"),  # 945: 16 divisors, one doubling
    ]
    # a pole and a base value with a square-root marker carry no number at
    # all outside the input: there is nothing to mutate
    bare = [(Fraction(1, 2), "tan2"), (Fraction(1, 3), "tan"), (Fraction(1, 4), "cos")]
    for r, f in bare:
        tree = certificate_to_tree(certify(r, f))
        assert _mutation.mutation_sites(tree) == []
        assert verify_certificate_json(json.dumps(tree)).ok
    total = 0
    for r, f in cases:
        tree = certificate_to_tree(certify(r, f))
        sites = _mutation.mutation_sites(tree)
        assert sites
        for site in sites:
            mutated = _mutation.apply_mutation(tree, site)
            assert mutated != tree
            res = verify_certificate_json(json.dumps(mutated))
            assert not res.ok, (r, f, site)
            total += 1
    assert total >= 90


def test_mutation_helper_targets_numbers_only():
    trees = [certificate_to_tree(certify(r, f))
             for r, f in [(Fraction(1, 15), "tan2"), (Fraction(1, 6), "cos2")]]
    sites = [site for tree in trees for site in _mutation.mutation_sites(tree)]
    kinds = {kind for _, kind in sites}
    # version is the only JSON integer left, and it is outside the sites
    assert kinds == {"int_string", "rational_string"}
    # top-level fields stay untouched
    for path, _ in sites:
        assert path[0] in ("verdict", "steps")


def test_format_errors_name_the_json_path():
    exc = ("steps", 1, "exclusions")
    cases = [
        ((*exc, 2, "Q_value"), "1/2", "steps[1].exclusions[2].Q_value"),
        ((*exc, 1, "candidate"), "03", "steps[1].exclusions[1].candidate"),
        ((*exc, 0, "method"), None, "steps[1].exclusions[0]"),
        ((*exc, 1, "method"), "separation", "steps[1].exclusions[1]"),
        (("steps", 1, "q"), "-0", "steps[1].q"),
        (("steps", 0, "doublings"), 0, "steps[0].doublings"),
        (("steps", 0, "angles"), [], "steps[0]"),
        (("steps", 1, "type"), "identity_step", "steps[1]"),
        (("verdict", "kind"), ["irrational"], "verdict"),
        (("input",), "2/30", "input"),
        (("version",), 2, "certificate"),
    ]
    for path, value, where in cases:
        tree = _tree(Fraction(1, 15))
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        res = verify_certificate_json(json.dumps(tree))
        assert res.reason.startswith(where + ": "), (path, res.reason)


def test_wire_bytes_are_pinned():
    # every reduced angle with denominator <= 30, all four functions: every
    # step type and both exclusion methods, byte for byte.  The digest is that
    # of the version-2 output with each tree rewritten to version 3 (identity
    # steps dropped, chain angles replaced by their count less one, base,
    # quadratic and square-root steps cut to their type and stop)
    digest = hashlib.sha256()
    for n in range(1, 31):
        for d in range(n):
            if gcd(d, n) == 1:
                for f in FUNCTIONS:
                    digest.update(to_json(certify(Fraction(d, n), f)).encode())
    assert digest.hexdigest() == (
        "995df61827155e0ab1f7cf6b61f7b38a30306ed1697e664994d5de21c31643f6"
    )


@settings(max_examples=300, deadline=None, database=None)
@given(
    num=st.integers(-10**12, 10**12),
    q=st.integers(0, 1263).map(lambda i: 2 * i + 1),
    k=st.integers(0, 64),
    f=st.sampled_from(FUNCTIONS),
)
def test_template_matches_the_tree(num, q, k, f):
    # to_json writes the envelope by template around each step's cached
    # text; the bytes are those of json.dumps on the tree, written twice
    cert = certify(Fraction(num, q << k), f)
    text = _tree_json(cert)
    assert to_json(cert) == text
    assert to_json(cert) == text
    assert to_json(cert, indent=2) == _tree_json(cert, indent=2)


def test_template_matches_the_tree_on_odd_step_values():
    # a cache keyed by equality would mix these up: ChainStep(True) ==
    # ChainStep(1), but the tree prints "True"; Fraction(7) prints as "7"
    cert = certify(Fraction(1, 10))
    chain, poly = cert.steps
    lying = replace(poly, exclusions=(replace(poly.exclusions[0], q_value=Fraction(7)),
                                      *poly.exclusions[1:]))
    assert chain == ChainStep(1) == ChainStep(True)
    for steps in ((ChainStep(True), poly), (chain, poly), (chain, lying)):
        c = replace(cert, steps=steps)
        assert to_json(c) == _tree_json(c)
        assert verify_certificate_json(to_json(c)).ok == (steps[0] is chain and steps[1] is poly)
    assert '"doublings": "True"' in to_json(replace(cert, steps=(ChainStep(True), poly)))
    for c in (replace(cert, input=7), replace(cert, steps=()),
              replace(certify(Fraction(1, 3), "cos"), verdict=TrigVerdict.exact(-3))):
        assert to_json(c) == _tree_json(c)


def test_each_step_is_rendered_once(monkeypatch):
    certifier._tan2_steps.cache_clear()
    renders = []
    dumps = json.dumps

    def counting_dumps(obj, **kw):
        renders.append(obj)
        return dumps(obj, **kw)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    certs = [certify(Fraction(d, n), f)
             for n in (5, 6, 8, 12, 30, 45) for d in range(n) if gcd(d, n) == 1
             for f in FUNCTIONS]
    assert renders == []  # certify renders nothing
    # the one SqrtStep instance may have been written before
    unrendered = {id(s) for cert in certs for s in cert.steps if "_json" not in vars(s)}
    assert len(unrendered) >= 11
    for _ in range(2):
        for cert in certs:
            to_json(cert)
    assert len(renders) == len(unrendered)


def test_unwritable_step_is_not_cached():
    # the three inputs with odd parts past 2,527 (2,531, 2,749 and 2,999)
    # whose Q_values exceed the default int-to-str limit: certify succeeds,
    # and every to_json raises, not only the first
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        for r, f in ((Fraction(1, 2531), "tan2"), (Fraction(5, 10996), "cos"),
                     (Fraction(-7, 5998) + 3, "tan")):
            cert = certify(r, f)
            for _ in range(2):
                with pytest.raises(ValueError):
                    to_json(cert)
            assert "_json" not in vars(cert.steps[1])
    finally:
        sys.set_int_max_str_digits(old)


def test_version_1_certificates_are_rejected():
    v1 = {
        "version": 1,
        "input": "1/5",
        "function": "tan2",
        "verdict": {"kind": "irrational"},
        "steps": [
            {"type": "chain", "angles": [{"d": "1", "n": "5", "sign": 1}]},
            {"type": "poly", "q": "5", "coeffs": ["5", "-10", "1"],
             "candidates": ["1", "5"],
             "exclusions": [
                 {"candidate": "1", "method": "nonroot", "Q_value": "-4"},
                 {"candidate": "5", "method": "nonroot", "Q_value": "-20"}]},
        ],
    }
    res = verify_certificate_json(json.dumps(v1))
    assert res.reason == "certificate: unsupported version 1"


def test_version_2_certificates_are_rejected():
    v2 = {
        "version": 2,
        "input": "1/10",
        "function": "cos",
        "verdict": {"kind": "irrational"},
        "steps": [
            {"type": "identity_step", "relation": "cos2 = 1/(1+tan2)"},
            {"type": "identity_step", "relation": "cos2 = cos^2"},
            {"type": "chain", "angles": [
                {"d": "1", "n": "10", "sign": 1}, {"d": "1", "n": "5", "sign": 1}]},
            {"type": "poly", "q": "5", "exclusions": [
                {"candidate": "1", "method": "nonroot", "Q_value": "-4"},
                {"candidate": "5", "method": "nonroot", "Q_value": "-20"}]},
        ],
    }
    res = verify_certificate_json(json.dumps(v2))
    assert res.reason == "certificate: unsupported version 2"
    # the same certificate in version 3
    v3 = {**v2, "version": 3,
          "steps": [{"type": "chain", "doublings": "1"}, v2["steps"][3]]}
    assert from_json(json.dumps(v3)) == certify(Fraction(1, 10), "cos")
    assert verify_certificate_json(json.dumps(v3)).ok


@settings(max_examples=300, deadline=None, database=None)
@given(
    a=st.integers(0, 64),
    q=st.integers(0, 150).map(lambda i: 2 * i + 1),
    k=st.integers(1, 10**6),
    shift=st.integers(-3, 3),
    sign=st.sampled_from([1, -1]),
    f=st.sampled_from(FUNCTIONS),
)
def test_doublings_round_trip_and_bind(a, q, k, shift, sign, f):
    # denominators 2^a * q: any input round-trips and verifies, and a chain
    # that claims one doubling more or less is rejected
    n = q << a
    num = k % n
    assume(gcd(num, n) == 1)
    r = sign * (Fraction(num, n) + shift)
    cert = certify(r, f)
    assert cert.verdict == classify(r, f)
    text = to_json(cert)
    assert verify_certificate_json(text).ok, (r, f)
    tree = json.loads(text)
    chain = [s for s in tree["steps"] if s["type"] == "chain"]
    assert len(chain) == (n not in (1, 2, 3, 4, 6))
    for s in chain:
        doublings = int(s["doublings"])
        assert doublings == a - {1: 3, 3: 2}.get(q, 0)
        for wrong in (doublings - 1, doublings + 1):
            s["doublings"] = str(wrong)
            res = verify_certificate_json(json.dumps(tree))
            assert res.reason == "chain length mismatch", (r, f, wrong)


def test_long_chain_certificates_stay_small():
    # 14000 doublings; the input alone has 4216 digits, under the default
    # int-to-str limit.  The chain is one number on the wire.
    r = Fraction(1, 5 << 14000)
    start = time.perf_counter()
    for f in FUNCTIONS:
        text = to_json(certify(r, f))
        assert len(text) < 5000, f
        assert '"doublings": "14000"' in text
        res = verify_certificate_json(text)
        assert res.ok, (f, res.reason)
    assert time.perf_counter() - start < 2.0


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_PROPERTY_CASES = [
    (Fraction(1, 15), "tan2"),
    (Fraction(1, 24), "cos2"),
    (Fraction(1, 3), "tan"),
    (Fraction(1, 4), "cos"),
]


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_verify_json_never_raises(data):
    r, f = data.draw(st.sampled_from(_PROPERTY_CASES))
    tree = certificate_to_tree(certify(r, f))
    # the empty path swaps the whole certificate for a random JSON tree
    path = data.draw(st.sampled_from(list(_paths(tree))))
    value = data.draw(_JSON_VALUES)
    if path:
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        tree = value
    res = verify_certificate_json(json.dumps(tree))
    assert isinstance(res.ok, bool) and (res.ok or res.reason)
