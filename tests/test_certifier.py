"""Tests for certificate generation, verification and the wire format."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _mutation
from trig_rational.angle import ReducedAngle, reduce_for_cos, reduce_for_tan
from trig_rational.certifier import (
    COS2_RELATION,
    COS_RELATION,
    TAN_RELATION,
    BackwardQuadraticStep,
    BaseStep,
    CertificateFormatError,
    ChainStep,
    Exclusion,
    IdentityStep,
    PolyStep,
    SqrtStep,
    certificate_from_tree,
    certificate_to_tree,
    certify,
    exclude_candidate,
    from_json,
    to_json,
    verify_certificate,
    verify_certificate_json,
)
from trig_rational.classifier import FUNCTIONS, IRRATIONAL, POLE, TrigVerdict, classify
from trig_rational.exact_core import gcd
from trig_rational.highprec import crosscheck


# ------------------------------------------------------------ generation --


def test_certify_base_cases():
    cert = certify(Fraction(1, 6))
    assert cert.function == "tan2"
    assert cert.verdict == TrigVerdict.exact(Fraction(1, 3))
    assert cert.steps == (BaseStep(ReducedAngle(1, 6), Fraction(1, 3)),)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 2))
    assert cert.verdict == POLE
    assert cert.steps == (BaseStep(ReducedAngle(1, 2), None),)
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
    assert chain == ChainStep((ReducedAngle(1, 5),))
    assert poly.q == 5
    assert [e.candidate for e in poly.exclusions] == [1, 5]
    assert [e.method for e in poly.exclusions] == ["nonroot", "nonroot"]
    assert [e.q_value for e in poly.exclusions] == [-4, -20]
    assert verify_certificate(cert)


def test_certify_denominator_fifteen():
    cert = certify(Fraction(1, 15))
    chain, poly = cert.steps
    assert chain == ChainStep((ReducedAngle(1, 15),))
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
    cert = certify(Fraction(1, 40))
    chain, poly = cert.steps
    assert [a.fraction for a in chain.angles] == [
        Fraction(1, 40),
        Fraction(1, 20),
        Fraction(1, 10),
        Fraction(1, 5),
    ]
    assert poly.q == 5
    # the doubled endpoint feeding the polynomial root is 2/5
    assert verify_certificate(cert)


def test_certify_power_of_two_denominator():
    cert = certify(Fraction(1, 8))
    assert cert.verdict == IRRATIONAL
    chain, quad = cert.steps
    assert chain == ChainStep((ReducedAngle(1, 8),))
    assert quad == BackwardQuadraticStep(8, Fraction(1), (1, -6, 1), 32, None)
    assert verify_certificate(cert)

    cert = certify(Fraction(5, 16))
    chain, quad = cert.steps
    assert [a.fraction for a in chain.angles] == [Fraction(5, 16), Fraction(3, 8)]
    assert quad.den == 8
    assert verify_certificate(cert)


def test_certify_three_times_power_of_two():
    cert = certify(Fraction(1, 12))
    chain, quad = cert.steps
    assert chain == ChainStep((ReducedAngle(1, 12),))
    assert quad == BackwardQuadraticStep(12, Fraction(1, 3), (1, -14, 1), 192, None)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 24))
    chain, quad = cert.steps
    assert [a.fraction for a in chain.angles] == [Fraction(1, 24), Fraction(1, 12)]
    assert quad.den == 12
    assert verify_certificate(cert)


def test_certify_tan_structures():
    cert = certify(Fraction(3, 4), "tan")
    assert cert.verdict == TrigVerdict.exact(-1)
    assert cert.steps[0] == IdentityStep(TAN_RELATION)
    assert cert.steps[1] == BaseStep(ReducedAngle(1, 4, -1), Fraction(1))
    assert verify_certificate(cert)

    # rational tan^2 whose square root is not rational
    cert = certify(Fraction(1, 3), "tan")
    assert cert.verdict == IRRATIONAL
    assert cert.steps[-1] == SqrtStep(Fraction(3), None)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 6), "tan")
    assert cert.steps[-1] == SqrtStep(Fraction(1, 3), None)
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
    cert = certify(Fraction(1, 2), "cos2")
    assert cert.verdict == TrigVerdict.exact(0)
    assert cert.steps[0] == IdentityStep(COS2_RELATION)
    assert cert.steps[1] == BaseStep(ReducedAngle(1, 2), None)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 6), "cos2")
    assert cert.verdict == TrigVerdict.exact(Fraction(3, 4))
    assert verify_certificate(cert)

    cert = certify(Fraction(2, 7), "cos2")
    assert cert.verdict == IRRATIONAL
    assert verify_certificate(cert)


def test_certify_cos_structures():
    cert = certify(Fraction(2, 3), "cos")
    assert cert.verdict == TrigVerdict.exact(Fraction(-1, 2))
    assert cert.steps[0] == IdentityStep(COS2_RELATION)
    assert cert.steps[1] == IdentityStep(COS_RELATION)
    assert cert.steps[2] == BaseStep(ReducedAngle(1, 3, -1), Fraction(3))
    assert verify_certificate(cert)

    # cos^2 = 1/2 is rational but cos is not
    cert = certify(Fraction(1, 4), "cos")
    assert cert.verdict == IRRATIONAL
    assert cert.steps[-1] == SqrtStep(Fraction(1, 2), None)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 6), "cos")
    assert cert.steps[-1] == SqrtStep(Fraction(3, 4), None)
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
    cert = certify(Fraction(1, 6))
    bad = replace(cert, steps=(BaseStep(ReducedAngle(1, 6), Fraction(3)),))
    assert verify_certificate(bad).reason == "base value mismatch"
    bad = replace(cert, steps=(BaseStep(ReducedAngle(1, 6, -1), Fraction(1, 3)),))
    assert verify_certificate(bad).reason == "base step angle mismatch"
    bad = replace(cert, steps=cert.steps + cert.steps)
    assert verify_certificate(bad).reason == "expected a single base step"


def test_verify_rejects_chain_tampering():
    cert = certify(Fraction(1, 5))
    chain, poly = cert.steps
    bad = replace(cert, steps=(ChainStep((ReducedAngle(2, 5),)), poly))
    assert verify_certificate(bad).reason == "chain mismatch"
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

    checks = [
        (replace(quad, den=12), "landing denominator mismatch"),
        (replace(quad, d_value=Fraction(2)), "doubled-angle value mismatch"),
        (replace(quad, quad_coeffs=(1, -6, 2)), "quadratic coefficients mismatch"),
        (replace(quad, discriminant=36), "discriminant mismatch"),
        (replace(quad, square_witness=Fraction(6)), "square test mismatch"),
    ]
    for bad_step, reason in checks:
        bad = replace(cert, steps=(chain, bad_step))
        assert verify_certificate(bad).reason == reason

    poly = certify(Fraction(1, 5)).steps[1]
    bad = replace(cert, steps=(chain, poly))
    assert verify_certificate(bad).reason == "expected a backward quadratic step"


def test_verify_rejects_identity_and_sqrt_tampering():
    cert = certify(Fraction(1, 6), "cos2")
    bad = replace(cert, steps=(IdentityStep(TAN_RELATION),) + cert.steps[1:])
    assert verify_certificate(bad).reason.startswith("missing identity step")

    # declaring a different function without reshaping the steps must fail
    assert not verify_certificate(replace(certify(Fraction(1, 6)), function="cos2")).ok

    cert = certify(Fraction(1, 3), "tan")
    bad = replace(cert, steps=cert.steps[:-1] + (SqrtStep(Fraction(2), None),))
    assert verify_certificate(bad).reason == "radicand mismatch"
    bad = replace(cert, steps=cert.steps[:-1] + (SqrtStep(Fraction(3), Fraction(2)),))
    assert verify_certificate(bad).reason == "square test mismatch"
    bad = replace(cert, steps=cert.steps[:-1])
    assert verify_certificate(bad).reason == "missing square-root step"

    # a square-root step claiming a rational root proves nothing irrational
    cert = certify(Fraction(1, 4), "tan")
    padded = replace(
        cert,
        verdict=IRRATIONAL,
        steps=cert.steps + (SqrtStep(Fraction(1), Fraction(1)),),
    )
    assert verify_certificate(padded).reason == "verdict not entailed"


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
    assert tree["version"] == 2 and not isinstance(tree["version"], bool)
    assert tree["input"] == "1/15"
    assert tree["function"] == "tan2"
    assert tree["verdict"] == {"kind": "irrational"}
    chain, poly = tree["steps"]
    assert chain["type"] == "chain"
    assert chain["angles"][0] == {"d": "1", "n": "15", "sign": 1}
    assert poly["type"] == "poly"
    assert set(poly) == {"type", "q", "exclusions"}
    assert poly["q"] == "15"
    assert [e["candidate"] for e in poly["exclusions"]] == ["1", "3", "5", "15"]
    nonroot = poly["exclusions"][0]
    assert set(nonroot) == {"candidate", "method", "Q_value"}
    assert nonroot["Q_value"] == "128"
    assert poly["exclusions"][1] == {"candidate": "3", "method": "angle"}

    tree = certificate_to_tree(certify(Fraction(1, 8)))
    quad = tree["steps"][1]
    assert quad == {
        "type": "backward_quadratic",
        "den": "8",
        "D": "1/1",
        "quad_coeffs": ["1", "-6", "1"],
        "discriminant": "32",
        "square_witness": None,
    }

    tree = certificate_to_tree(certify(Fraction(1, 6)))
    assert tree["verdict"] == {"kind": "exact", "value": "1/3"}

    tree = certificate_to_tree(certify(Fraction(1, 4), "cos"))
    assert tree["steps"][0] == {"type": "identity_step", "relation": COS2_RELATION}
    assert tree["steps"][1] == {"type": "identity_step", "relation": COS_RELATION}
    assert tree["steps"][-1] == {
        "type": "sqrt_step",
        "radicand": "1/2",
        "square_test_result": None,
    }


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
    t["version"] = 1
    reject(t, "wrong version")
    t = _tree()
    t["version"] = 3
    reject(t, "unknown version")
    t = _tree()
    t["version"] = True
    reject(t, "boolean version")
    t = _tree()
    t["version"] = "2"
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
    t = _tree()
    del t["steps"][0]["value"]
    reject(t, "missing step field")
    t = _tree()
    t["steps"][0]["type"] = "magic"
    reject(t, "unknown step type")
    t = _tree()
    t["steps"][0]["angle"]["sign"] = 0
    reject(t, "bad sign")
    t = _tree()
    t["steps"][0]["angle"]["d"] = "2"
    t["steps"][0]["angle"]["n"] = "4"
    reject(t, "unreduced angle")
    t = _tree()
    t["steps"][0]["angle"]["sign"] = "1"
    reject(t, "stringly sign")
    t = _tree()
    t["steps"][0]["angle"]["sign"] = 1.0
    reject(t, "float sign")
    t = _tree()
    t["steps"][0]["angle"]["sign"] = True
    reject(t, "boolean sign")
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
    t = _tree(Fraction(1, 8))
    t["steps"][1]["quad_coeffs"] = ["1", "-6"]
    reject(t, "short quadratic")

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
        (Fraction(1, 2), "tan2"),
        (Fraction(1, 15), "tan2"),
        (Fraction(1, 9), "tan2"),
        (Fraction(1, 24), "tan2"),
        (Fraction(1, 8), "cos2"),
        (Fraction(3, 4), "tan"),
        (Fraction(1, 3), "tan"),
        (Fraction(2, 3), "cos"),
        (Fraction(1, 4), "cos"),
        (Fraction(7, 45), "tan2"),
        (Fraction(1, 105), "cos2"),
    ]
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
    assert kinds == {"int", "int_string", "rational_string"}
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
        (("steps", 0, "angles", 0, "sign"), True, "steps[0].angles[0].sign"),
        (("verdict", "kind"), ["irrational"], "verdict"),
        (("input",), "2/30", "input"),
        (("version",), 1, "certificate"),
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
    # step type and both exclusion methods, byte for byte
    digest = hashlib.sha256()
    for n in range(1, 31):
        for d in range(n):
            if gcd(d, n) == 1:
                for f in FUNCTIONS:
                    digest.update(to_json(certify(Fraction(d, n), f)).encode())
    assert digest.hexdigest() == (
        "c996a62ca037a229c0f22768c6ed84218b81ce30d94be2dbc1bbc203dff36ff1"
    )


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
