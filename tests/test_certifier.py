"""Tests for certificate generation, verification and the wire format."""

import copy
import hashlib
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import _mutation
from trig_rational import certifier, highprec, kernel, polynomial
from trig_rational.angle import reduce_for_cos, reduce_for_tan
from trig_rational.certifier import (
    Certificate,
    Exclusion,
    certificate_from_tree,
    certificate_to_tree,
    certify,
    exclude_candidate,
    from_json,
    to_json,
)
from trig_rational.classifier import FUNCTIONS, IRRATIONAL, POLE, TrigVerdict, classify
from trig_rational.exact_core import gcd
from trig_rational.highprec import crosscheck
from trig_rational.kernel import CertificateFormatError, verify_certificate_json


def replace(record, **changes):
    return record.__replace__(**changes)


def _tree_json(cert):
    return json.dumps(certificate_to_tree(cert), sort_keys=True)


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
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 2))
    assert cert.verdict == POLE
    assert verify_certificate(cert)

    cert = certify(0)
    assert cert.verdict == TrigVerdict.exact(0)
    assert verify_certificate(cert)

    with pytest.raises(ValueError):
        certify(Fraction(1, 6), "sin")


def test_certify_odd_denominator_five():
    cert = certify(Fraction(1, 5))
    assert cert.verdict == IRRATIONAL
    assert verify_certificate(cert)


def test_certify_denominator_fifteen():
    # 3 = tan^2(pi/3) is a root of the polynomial at 15, but the doubling
    # lemma needs no candidates: the certificate is the claim alone, and
    # claiming the root is rejected
    cert = certify(Fraction(1, 15))
    assert cert == Certificate(Fraction(1, 15), "tan2", IRRATIONAL)
    assert cert.__match_args__ == ("input", "function", "verdict")
    assert verify_certificate(cert)
    forged = replace(cert, verdict=TrigVerdict.exact(3))
    assert verify_certificate(forged).reason == "verdict not entailed"


def test_exclusion_fields_are_ints():
    # exclude_candidate still rules out single candidates, with int fields;
    # 45 has roots and nonroots among its divisors
    exclusions = [exclude_candidate(45, 2, c) for c in (1, 3, 5, 9, 15, 45)]
    assert {e.method for e in exclusions} == {"nonroot", "angle"}
    for e in (*exclusions, exclude_candidate(15, 2, Fraction(5))):
        assert type(e.candidate) is int
        assert type(e.q_value) is int or e.method == "angle"
    # equality is by value, so a Fraction-valued candidate still matches
    assert Exclusion(Fraction(3), "angle") == Exclusion(3, "angle")


def test_certifier_caches_are_bounded():
    # certify and the kernel keep no cache; every other cache is bounded
    cached = {
        module: [f for f in vars(module).values() if hasattr(f, "cache_info")]
        for module in (certifier, kernel, polynomial, highprec)
    }
    assert cached[certifier] == cached[kernel] == []
    assert cached[highprec]
    for functions in cached.values():
        for f in functions:
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
    # 1/40 -> 1/20 -> 1/10 -> 1/5: three doublings down to the odd part,
    # which the kernel derives; nothing of the chain is on the wire
    cert = certify(Fraction(1, 40))
    assert cert.verdict == IRRATIONAL
    assert certificate_to_tree(cert).keys() == {"version", "input", "function", "verdict"}
    assert verify_certificate(cert)


def test_certify_power_of_two_denominator():
    # 1/8 is the stop; 5/16 -> 3/8, and 1/1024 takes seven doublings to it
    for r in (Fraction(1, 8), Fraction(5, 16), Fraction(1, 1024)):
        cert = certify(r)
        assert cert.verdict == IRRATIONAL
        assert verify_certificate(cert)


def test_certify_three_times_power_of_two():
    # 1/12 is the stop; 1/24 -> 1/12, and 7/3072 takes eight doublings to it
    for r in (Fraction(1, 12), Fraction(1, 24), Fraction(7, 3 * 1024)):
        cert = certify(r)
        assert cert.verdict == IRRATIONAL
        assert verify_certificate(cert)


def test_certify_tan_structures():
    cert = certify(Fraction(3, 4), "tan")
    assert cert.verdict == TrigVerdict.exact(-1)
    assert verify_certificate(cert)

    # rational tan^2 whose square root is not rational
    for r in (Fraction(1, 3), Fraction(1, 6)):
        cert = certify(r, "tan")
        assert cert.verdict == IRRATIONAL
        assert verify_certificate(cert)

    cert = certify(Fraction(1, 2), "tan")
    assert cert.verdict == POLE
    assert verify_certificate(cert)

    # irrational tan^2
    cert = certify(Fraction(1, 5), "tan")
    assert cert.verdict == IRRATIONAL
    assert verify_certificate(cert)


def test_certify_cos_squared_structures():
    # the tan^2 pole is cos^2 = 0
    cert = certify(Fraction(1, 2), "cos2")
    assert cert.verdict == TrigVerdict.exact(0)
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
    assert verify_certificate(cert)

    # cos^2 = 1/2 and 3/4 are rational but cos is not
    for r in (Fraction(1, 4), Fraction(1, 6)):
        cert = certify(r, "cos")
        assert cert.verdict == IRRATIONAL
        assert verify_certificate(cert)

    cert = certify(Fraction(1, 2), "cos")
    assert cert.verdict == TrigVerdict.exact(0)
    assert verify_certificate(cert)

    cert = certify(Fraction(1, 5), "cos")
    assert cert.verdict == IRRATIONAL
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
    # the table gives tan^2 at the base denominators: every other claim there
    # fails, and so does a base claim moved past the table
    for n in (1, 2, 3, 4, 6):
        cert = certify(Fraction(1, n))
        for bad in _mutation.wrong_verdicts(certificate_to_tree(cert)):
            assert verify_certificate_json(json.dumps(bad)).reason == "verdict not entailed"
        for m in (5, 8, 12):
            bad = replace(cert, input=Fraction(1, m))
            assert verify_certificate(bad).reason == "verdict not entailed", (n, m)


def test_verify_rejects_chain_tampering():
    # the chain is not on the wire: the kernel reads its length off the power
    # of two in the input's denominator.  Along the chains down to 5, 8 and
    # 12 and along 6 -> 3 and 4 -> 2 -> 1, a claim moved to another link
    # verifies exactly when it is that link's own
    for chain in ((40, 20, 10, 5), (64, 32, 16, 8), (96, 48, 24, 12), (6, 3), (4, 2, 1)):
        for f in FUNCTIONS:
            certs = [certify(Fraction(1, n), f) for n in chain]
            for cert in certs:
                for other in certs:
                    moved = replace(cert, input=other.input)
                    assert verify_certificate(moved).ok == (cert.verdict == other.verdict)


def test_verify_rejects_poly_tampering():
    # the odd part is not on the wire: the kernel reads it off the input.
    # An irrational tan^2 or cos^2 claim holds at every odd part q >= 5,
    # small or prime of 19 or 20 digits, and at no base denominator with odd
    # part 1 or 3, where both are rational or (tan^2 at 1/2) a pole
    for q in (5, 7, 9, 15, 45, 2**61 - 1, 10**19 + 51):
        for f in ("tan2", "cos2"):
            cert = certify(Fraction(2, q), f)
            assert cert.verdict == IRRATIONAL and verify_certificate(cert)
            for r in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)):
                res = verify_certificate(replace(cert, input=r))
                assert res.reason == "verdict not entailed", (q, f, r)


def test_verify_rejects_root_marked_nonroot():
    # 3 = tan^2(pi/3) is a root of p_q whenever 3 divides q; the lemma proves
    # s != 3 from the angle, so claiming the root is rejected, as is 0
    for q in (9, 15, 45):
        cert = certify(Fraction(1, q))
        assert verify_certificate(cert)
        for verdict in (TrigVerdict.exact(3), TrigVerdict.exact(0)):
            forged = replace(cert, verdict=verdict)
            assert verify_certificate(forged).reason == "verdict not entailed"


def test_verify_rejects_angle_tampering():
    # a certificate is its claim about its input: moved to another angle, it
    # verifies exactly when that angle has the same verdict
    cert = certify(Fraction(1, 9))
    for r in (Fraction(1, 7), Fraction(2, 27), Fraction(1, 18), Fraction(4, 9) + 7):
        assert verify_certificate(replace(cert, input=r)), r
    for r in (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2), Fraction(0)):
        assert verify_certificate(replace(cert, input=r)).reason == "verdict not entailed", r
    # an exact cos claim binds the sign fold: cos(pi/3) = 1/2 holds at 5/3,
    # 7/3 and -1/3, and fails at 2/3 and 4/3
    cert = certify(Fraction(1, 3), "cos")
    for r in (Fraction(5, 3), Fraction(7, 3), Fraction(-1, 3)):
        assert verify_certificate(replace(cert, input=r)), r
    for r in (Fraction(2, 3), Fraction(4, 3)):
        assert verify_certificate(replace(cert, input=r)).reason == "verdict not entailed", r


def test_verify_rejects_quadratic_tampering():
    # the stop is not on the wire: the kernel reads it off the input.  One
    # doubling takes the stops 8 and 12 to the base denominators 4 and 6;
    # the doubled angle's exact verdict, claimed at the stop, is rejected
    for stop in (8, 12):
        for f in FUNCTIONS:
            cert = certify(Fraction(1, stop), f)
            assert cert.verdict == IRRATIONAL and verify_certificate(cert)
            doubled = classify(Fraction(2, stop), f)
            if doubled != IRRATIONAL:
                forged = replace(cert, verdict=doubled)
                assert verify_certificate(forged).reason == "verdict not entailed", (stop, f)


def test_verify_rejects_identity_and_sqrt_tampering():
    # the identities tying tan, cos2 and cos to tan2 are fixed by the declared
    # function: declaring another one without changing the verdict must fail
    for f in ("cos2", "tan", "cos"):
        forged = replace(certify(Fraction(1, 6)), function=f)
        assert not verify_certificate(forged).ok, f

    # where the square is rational with no rational root, the value is
    # irrational: claiming the square, or the rationals next to its root, fails
    for r, f, square in ((Fraction(1, 3), "tan", Fraction(3)),
                         (Fraction(1, 6), "tan", Fraction(1, 3)),
                         (Fraction(1, 4), "cos", Fraction(1, 2)),
                         (Fraction(1, 6), "cos", Fraction(3, 4))):
        cert = certify(r, f)
        assert cert.verdict == IRRATIONAL
        for value in (square, -square, Fraction(1), Fraction(1, 2), Fraction(3, 4)):
            forged = replace(cert, verdict=TrigVerdict.exact(value))
            assert verify_certificate(forged).reason == "verdict not entailed", (r, f, value)

    # where the root is rational, irrational is refused; a pole and an
    # irrational square carry over, so no exact root of them is accepted
    for r, f in ((Fraction(1, 4), "tan"), (Fraction(1, 3), "cos"), (Fraction(3, 4), "tan")):
        forged = replace(certify(r, f), verdict=IRRATIONAL)
        assert verify_certificate(forged).reason == "verdict not entailed", (r, f)
    for r, f in ((Fraction(1, 2), "tan"), (Fraction(1, 5), "cos"), (Fraction(1, 5), "tan")):
        forged = replace(certify(r, f), verdict=TrigVerdict.exact(1))
        assert verify_certificate(forged).reason == "verdict not entailed", (r, f)


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


def test_wire_tree_shape():
    tree = certificate_to_tree(certify(Fraction(1, 15)))
    assert tree == {
        "version": 5, "input": "1/15", "function": "tan2", "verdict": {"kind": "irrational"}}
    assert not isinstance(tree["version"], bool)

    tree = certificate_to_tree(certify(Fraction(1, 6)))
    assert tree["verdict"] == {"kind": "exact", "value": "1/3"}
    tree = certificate_to_tree(certify(Fraction(3, 4), "tan"))
    assert tree["verdict"] == {"kind": "exact", "value": "-1/1"}
    tree = certificate_to_tree(certify(Fraction(1, 2)))
    assert tree["verdict"] == {"kind": "pole"}

    # hand-built records write the same bytes by template as through the tree
    cert = certify(Fraction(1, 10))
    for c in (replace(cert, input=7),
              replace(certify(Fraction(1, 3), "cos"), verdict=TrigVerdict.exact(-3))):
        assert to_json(c) == _tree_json(c)


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
    for version in (1, 2, 3, 4):
        t = _tree()
        t["version"] = version
        reject(t, f"old version {version}")
    t = _tree()
    t["version"] = 6
    reject(t, "unknown version")
    t = _tree()
    t["version"] = True
    reject(t, "boolean version")
    t = _tree()
    t["version"] = "5"
    reject(t, "stringly version")
    t = _tree()
    t["version"] = 5.0
    reject(t, "float version")
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
    t["input"] = "1"
    reject(t, "integer angle without a denominator")
    t = _tree()
    t["input"] = 0.1667
    reject(t, "float angle")
    t = _tree()
    t["function"] = "sin"
    reject(t, "unknown function")
    t = _tree()
    t["function"] = ["tan2"]
    reject(t, "function not a string")
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
    t["verdict"]["value"] = "-0/1"
    reject(t, "negative zero")
    # the step lists that version 4 and earlier carried, and version 5 derives
    t = _tree()
    t["steps"] = [{"type": "base"}]
    reject(t, "v4 base step")
    t = _tree(Fraction(1, 15))
    t["steps"] = [{"type": "chain", "doublings": "0"}, {"type": "poly", "q": "15"}]
    reject(t, "v4 chain and poly steps")
    t = _tree()
    t["steps"] = []
    reject(t, "an empty step list")

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
    # a certificate must not survive any change to its claim: another
    # verdict, or its exact value nudged
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
        (Fraction(1, 315), "tan2"),
        (Fraction(11, 1890), "cos"),  # 945, one doubling
    ]
    # every function at small and large odd parts (2^61 - 1 and 10^19 + 51
    # are prime), short and long chains and both stops; then exact values,
    # some with a sign
    cases += [
        (r, f)
        for r in (Fraction(1, 7), Fraction(3, 10), Fraction(5, 12), Fraction(1, 16),
                  Fraction(7, 48), Fraction(1, 3 << 40), Fraction(2, 5 << 40),
                  Fraction(1, 2**61 - 1), Fraction(5, 3 * 7 * 11 * 13),
                  Fraction(-3, 10**19 + 51))
        for f in FUNCTIONS
    ]
    cases += [(Fraction(5, 6), "tan2"), (Fraction(5, 6), "cos2"), (Fraction(2, 3), "cos2"),
              (Fraction(5, 4), "tan"), (Fraction(5, 4), "cos2"), (Fraction(-1, 3), "cos")]
    # a pole and an irrational verdict carry no number at all outside the
    # input: only a swap of the verdict changes them
    bare = [(Fraction(1, 2), "tan2"), (Fraction(1, 3), "tan"), (Fraction(1, 4), "cos")]
    for r, f in bare:
        tree = certificate_to_tree(certify(r, f))
        assert _mutation.mutation_sites(tree) == []
        assert verify_certificate_json(json.dumps(tree)).ok
    total = 0
    for r, f in cases:
        tree = certificate_to_tree(certify(r, f))
        bad_trees = _mutation.wrong_verdicts(tree)
        assert len(bad_trees) >= len(_mutation.VERDICTS) - 1
        for bad in bad_trees:
            assert bad != tree
            res = verify_certificate_json(json.dumps(bad))
            assert not res.ok, (r, f, bad["verdict"])
            total += 1
    assert total >= 90, total


def test_mutation_helper_targets_numbers_only():
    trees = [certificate_to_tree(certify(r, f))
             for r, f in [(Fraction(1, 15), "tan2"), (Fraction(1, 6), "cos2")]]
    sites = [site for tree in trees for site in _mutation.mutation_sites(tree)]
    # the exact value is the only number outside the input and the version
    assert sites == [(("verdict", "value"), "rational_string")]
    for tree in trees:
        swaps = _mutation.wrong_verdicts(tree)
        # each swap changes the verdict and nothing else, and stays well formed
        assert all(bad.keys() == tree.keys() for bad in swaps)
        assert all({k: v for k, v in bad.items() if k != "verdict"}
                   == {k: v for k, v in tree.items() if k != "verdict"} for bad in swaps)
        assert tree["verdict"] not in [bad["verdict"] for bad in swaps]
        for bad in swaps:
            certificate_from_tree(bad)


_MISSING = object()


def test_format_errors_name_the_json_path():
    # the whole reason, one case per place the parser fails: the JSON path of
    # the failing element, then what is wrong with it
    fields = "['function', 'input', 'verdict', 'version']"
    cases = [
        ((), [], "certificate: expected an object"),
        ((), "1/6", "certificate: expected an object"),
        (("verdict",), "irrational", "verdict: expected an object"),
        (("verdict",), ["pole"], "verdict: expected an object"),
        (("version",), _MISSING, "certificate: unsupported version None"),
        (("version",), True, "certificate: unsupported version True"),
        (("version",), "5", "certificate: unsupported version '5'"),
        (("version",), 5.0, "certificate: unsupported version 5.0"),
        (("version",), 4, "certificate: unsupported version 4"),
        (("version",), 3, "certificate: unsupported version 3"),
        (("version",), [5], "certificate: unsupported version [5]"),
        (("steps",), [], f"certificate: fields must be exactly {fields}, got "
                         "['function', 'input', 'steps', 'verdict', 'version']"),
        (("input",), _MISSING, "certificate: fields must be exactly "
                           f"{fields}, got ['function', 'verdict', 'version']"),
        (("verdict", "kind"), _MISSING, "verdict: unsupported kind None"),
        (("verdict", "kind"), None, "verdict: unsupported kind None"),
        (("verdict", "kind"), ["exact"], "verdict: unsupported kind ['exact']"),
        (("verdict", "kind"), 1, "verdict: unsupported kind 1"),
        (("verdict", "kind"), "transcendental", "verdict: unsupported kind 'transcendental'"),
        (("verdict", "sign"), 1,
         "verdict: fields must be exactly ['kind', 'value'], got ['kind', 'sign', 'value']"),
        (("verdict", "value"), _MISSING,
         "verdict: fields must be exactly ['kind', 'value'], got ['kind']"),
        (("verdict",), {"kind": "pole", "value": "0/1"},
         "verdict: fields must be exactly ['kind'], got ['kind', 'value']"),
        (("verdict", "value"), "1/2/3", "verdict.value: expected a canonical num/den string"),
        (("verdict", "value"), "01/3", "verdict.value: expected a canonical num/den string"),
        (("verdict", "value"), "-0/1", "verdict.value: expected a canonical num/den string"),
        (("verdict", "value"), 3, "verdict.value: expected a canonical num/den string"),
        (("verdict", "value"), "2/6", "verdict.value: not in lowest terms"),
        (("input",), "2/30", "input: not in lowest terms"),
        (("input",), 0.5, "input: expected a canonical num/den string"),
        (("input",), "1/0", "input: expected a canonical num/den string"),
        (("function",), 2, "function: expected a string"),
        (("function",), ["tan2"], "function: expected a string"),
        (("function",), "sin", "certificate: unknown function 'sin'"),
        # the first failure in order: version and keys, input, the function's
        # type, the verdict, then an unknown function
        (("function",), 2, "input: not in lowest terms", {"input": "2/6"}),
        (("verdict",), "x", "function: expected a string", {"function": 2}),
        (("function",), "sin", "verdict: unsupported kind None", {"verdict": {}}),
        (("version",), 4, "certificate: unsupported version 4", {"input": "x", "steps": []}),
    ]
    for path, value, reason, *more in cases:
        tree = _tree()
        node = tree
        for key in path[:-1]:
            node = node[key]
        if not path:
            tree = value
        elif value is _MISSING:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        for extra in more:
            tree.update(extra)
        assert verify_certificate_json(json.dumps(tree)).reason == reason, (path, value)
        with pytest.raises(CertificateFormatError) as e:
            kernel.parse(tree)
        assert str(e.value) == reason, (path, value)
    # a Python tree may have keys that JSON cannot: sorted as strings
    with pytest.raises(CertificateFormatError) as e:
        kernel.parse({**_tree(), 1: "x"})
    assert str(e.value) == (f"certificate: fields must be exactly {fields}, got "
                            "['1', 'function', 'input', 'verdict', 'version']")
    tree = _tree()
    tree["verdict"] = {"kind": "irrational", ("kind",): "x"}
    with pytest.raises(CertificateFormatError) as e:
        kernel.parse(tree)
    assert str(e.value) == "verdict: fields must be exactly ['kind'], got [\"('kind',)\", 'kind']"
    # text that is not JSON fails before there is a tree to name a path in
    for text in ("not json", b"\xff{", "[" * 2000 + "]" * 2000):
        assert verify_certificate_json(text).reason.startswith("invalid JSON: "), text[:5]
    # text past the size cap fails on its size before it is decoded
    text = "[" * 100000 + "]" * 100000
    assert verify_certificate_json(text).reason == "certificate: larger than 16384 bytes"
    # over the int-from-string digit limit, at its default
    if hasattr(sys, "set_int_max_str_digits"):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            for path in (("input",), ("verdict", "value")):
                tree = _tree()
                node = tree
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = "1/" + "7" * 5000
                reason = ".".join(path) + ": too many digits"
                assert verify_certificate_json(json.dumps(tree)).reason == reason
        finally:
            sys.set_int_max_str_digits(old)


def test_from_json_shares_the_size_cap():
    # both readers of JSON text go through kernel.loads, so they accept and
    # reject the same sizes with the same message
    cert = certify(Fraction(1, 15))
    text = to_json(cert)
    padded = text + " " * (kernel.MAX_BYTES - len(text))
    assert len(padded.encode()) == 16384
    for data in (padded, padded.encode()):
        assert from_json(data) == cert
        with pytest.raises(CertificateFormatError) as e:
            from_json(data + data[-1:])
        assert str(e.value) == "certificate: larger than 16384 bytes"
        assert verify_certificate_json(data + data[-1:]).reason == str(e.value)


def test_wire_bytes_are_pinned():
    # every reduced angle with denominator <= 30, all four functions: every
    # verdict kind, byte for byte.  The digest is that of the version-4
    # output with each tree rewritten to version 5 (the steps dropped, the
    # version set to 5) and dumped again with sorted keys
    digest = hashlib.sha256()
    for n in range(1, 31):
        for d in range(n):
            if gcd(d, n) == 1:
                for f in FUNCTIONS:
                    digest.update(to_json(certify(Fraction(d, n), f)).encode())
    assert digest.hexdigest() == (
        "eb161586877a06b988ff672692f63fe329b1a569e05751f88e2780eb37ff5927"
    )


@settings(max_examples=300, deadline=None, database=None)
@given(
    num=st.integers(-10**12, 10**12),
    q=st.integers(0, 1263).map(lambda i: 2 * i + 1),
    k=st.integers(0, 64),
    f=st.sampled_from(FUNCTIONS),
)
def test_template_matches_the_tree(num, q, k, f):
    # to_json writes the four fields by template; the bytes are those of
    # json.dumps on the tree, written twice
    cert = certify(Fraction(num, q << k), f)
    text = _tree_json(cert)
    assert to_json(cert) == text
    assert to_json(cert) == text


def test_unwritable_certificate_raises_on_every_write():
    # an odd part of 5,001 digits: certify succeeds without factoring it, and
    # at the default int-to-str limit the input cannot be written, on every
    # attempt, not only the first
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        for f in FUNCTIONS:
            cert = certify(Fraction(1, 10**5000 + 1), f)
            assert cert.verdict == IRRATIONAL
            for _ in range(2):
                with pytest.raises(ValueError):
                    to_json(cert)
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
    # the same certificate in version 5
    v5 = {k: v for k, v in v2.items() if k != "steps"} | {"version": 5}
    assert from_json(json.dumps(v5)) == certify(Fraction(1, 10), "cos")
    assert verify_certificate_json(json.dumps(v5)).ok


def test_version_3_certificates_are_rejected():
    v3 = {
        "version": 3,
        "input": "1/10",
        "function": "cos",
        "verdict": {"kind": "irrational"},
        "steps": [
            {"type": "chain", "doublings": "1"},
            {"type": "poly", "q": "5", "exclusions": [
                {"candidate": "1", "method": "nonroot", "Q_value": "-4"},
                {"candidate": "5", "method": "nonroot", "Q_value": "-20"}]},
        ],
    }
    res = verify_certificate_json(json.dumps(v3))
    assert res.reason == "certificate: unsupported version 3"
    with pytest.raises(CertificateFormatError, match="unsupported version 3"):
        from_json(json.dumps(v3))
    # version 5 drops the steps
    v5 = {k: v for k, v in v3.items() if k != "steps"} | {"version": 5}
    assert from_json(json.dumps(v5)) == certify(Fraction(1, 10), "cos")
    assert verify_certificate_json(json.dumps(v5)).ok


def test_version_4_certificates_are_rejected():
    v4 = {
        "version": 4,
        "input": "1/10",
        "function": "cos",
        "verdict": {"kind": "irrational"},
        "steps": [{"type": "chain", "doublings": "1"}, {"type": "poly", "q": "5"}],
    }
    res = verify_certificate_json(json.dumps(v4))
    assert res.reason == "certificate: unsupported version 4"
    with pytest.raises(CertificateFormatError, match="unsupported version 4"):
        from_json(json.dumps(v4))
    # version 5 drops the steps, and only them
    v5 = copy.deepcopy(v4)
    v5["version"] = 5
    del v5["steps"]
    assert from_json(json.dumps(v5)) == certify(Fraction(1, 10), "cos")
    assert verify_certificate_json(json.dumps(v5)).ok
    # a version-4 step list inside a version-5 certificate is a format error
    v5["steps"] = v4["steps"]
    res = verify_certificate_json(json.dumps(v5))
    assert res.reason.startswith(
        "certificate: fields must be exactly ['function', 'input', 'verdict', 'version']")


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
    # denominators 2^a * q: any input round-trips and verifies, and the claim
    # moved one doubling up or down the chain verifies exactly when it is
    # that angle's own verdict
    n = q << a
    num = k % n
    assume(gcd(num, n) == 1)
    r = sign * (Fraction(num, n) + shift)
    cert = certify(r, f)
    assert cert.verdict == classify(r, f)
    text = to_json(cert)
    assert verify_certificate_json(text).ok, (r, f)
    assert from_json(text) == cert
    for moved in (2 * r, r / 2):
        res = verify_certificate_json(to_json(replace(cert, input=moved)))
        assert res.ok == (classify(moved, f) == cert.verdict), (r, f, moved)


@settings(max_examples=200, deadline=None, database=None)
@given(
    num=st.integers(-10**12, 10**12),
    q=st.integers(0, 10**12 // 2 - 1).map(lambda i: 2 * i + 1),
    k=st.integers(0, 64),
    f=st.sampled_from(FUNCTIONS),
)
def test_large_odd_parts_certify_and_verify(num, q, k, f):
    # odd parts up to 10^12: certify factors nothing and evaluates no
    # polynomial, so any of them round-trips and verifies at once
    r = Fraction(num, q << k)
    cert = certify(r, f)
    assert cert.verdict == classify(r, f)
    res = verify_certificate_json(to_json(cert))
    assert res.ok, (r, f, res.reason)


def test_long_chain_certificates_stay_small():
    # 14000 doublings; the input alone has 4216 digits, under the default
    # int-to-str limit.  The chain is not on the wire.
    r = Fraction(1, 5 << 14000)
    start = time.perf_counter()
    for f in FUNCTIONS:
        text = to_json(certify(r, f))
        assert len(text) < 5000, f
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
