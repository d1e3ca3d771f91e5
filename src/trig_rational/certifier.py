"""Machine-checkable certificates for the trig classification.

A certificate is the claim that tan^2(r*pi) (or tan, cos, cos^2) is a pole,
an exact rational, or irrational: the input, the function and the verdict,
which certify takes from classify.  The proof is a function of the input's
reduced denominator alone, so it does not travel: the verifier, the kernel
(kernel.py, whose docstring states the facts it rests on), derives it and
the verdict it entails from the input, in exact arithmetic, and trusts
neither the classifier nor this module.

Serialization is strict JSON: rationals travel as "num/den" strings in
lowest terms.  The kernel parses and checks on plain ints and shares no code
or cache with this module; it rejects unknown fields, non-canonical numbers
and version drift.  This module builds certificates and writes them;
verify_certificate hands the kernel the claim's plain form, which the
classifier builds next to TrigVerdict (classifier._plain, which scan uses
too, without this module).  Only the functions that verify or parse import
the kernel, inside their bodies, so certify and to_json run without it; the
generator keeps its own WIRE_VERSION (the classifier's), equal to the
kernel's.  The kernel's own names, verify_certificate_json,
VerificationResult and CertificateFormatError, are read from the kernel or
the package, not from here.
"""

from __future__ import annotations

from fractions import Fraction

from . import FUNCTIONS
from .classifier import WIRE_VERSION, TrigVerdict, _plain, classify
from .exact_core import FrozenRecord, _store, as_fraction, gcd

__all__ = [
    "WIRE_VERSION",
    "Exclusion",
    "Certificate",
    "certify",
    "exclude_candidate",
    "verify_certificate",
    "certificate_to_tree",
    "certificate_from_tree",
    "verdict_to_tree",
    "to_json",
    "from_json",
]


# ----------------------------------------------------------- records ------


class Certificate(FrozenRecord):
    """The claim: the verdict on function(input * pi)."""

    __match_args__ = ("input", "function", "verdict")
    input: Fraction
    function: str
    verdict: TrigVerdict

    def __init__(self, input: Fraction, function: str, verdict: TrigVerdict) -> None:
        if function not in FUNCTIONS:
            raise ValueError(f"unknown function {function!r}")
        _store(self, "input", input)
        _store(self, "function", function)
        _store(self, "verdict", verdict)


class Exclusion(FrozenRecord):
    """Why one divisor candidate cannot equal s: exclude_candidate's result.

    Certificates carry no exclusions, since the doubling lemma needs none.
    candidate and q_value are Python ints: the candidate is a positive divisor
    of q and the polynomial has integer coefficients.  nonroot records the
    exact polynomial value at the candidate (nonzero); angle records nothing
    more: the candidate is 3 = tan^2(pi/3), and s is tan^2 at an angle with
    another denominator, so it is a different root than s.
    """

    __match_args__ = ("candidate", "method", "q_value")
    candidate: int
    method: str  # "nonroot" | "angle"
    q_value: int | None

    def __init__(self, candidate: int, method: str, q_value: int | None = None) -> None:
        if method not in ("nonroot", "angle"):
            raise ValueError(f"unknown exclusion method {method!r}")
        if (q_value is None) != (method == "angle"):
            raise ValueError(f"wrong fields for a {method} exclusion")
        _store(self, "candidate", candidate)
        _store(self, "method", method)
        _store(self, "q_value", q_value)


# ---------------------------------------------------------- generation ----


def certify(r: Fraction | int, function: str = "tan2") -> Certificate:
    """The certificate of classify's verdict on function(r * pi)."""
    r = as_fraction(r)
    return Certificate(r, function, classify(r, function))


def exclude_candidate(
    q: int, d_prime: int, candidate: Fraction | int, bits: int = 64
) -> Exclusion:
    """Rule out one rational-root candidate for s = tan^2(2 d' pi / q).

    candidate is a positive integer: the rational root theorem admits no
    other.  Exact evaluation settles non-roots.  The only rational root the
    polynomial can have is 3 = tan^2(pi/3), a base value at another
    denominator than q's, so a root gets an angle exclusion.  The exclusion
    does not depend on d', which is only checked; bits is ignored.  Both stay
    so that existing callers keep working.  certify does not call it: the
    doubling lemma needs no candidates.
    """
    candidate = as_fraction(candidate)
    if q < 5 or q % 2 == 0:
        raise ValueError("q must be odd and at least 5")
    if not 0 < d_prime < q or gcd(d_prime, q) != 1:
        raise ValueError("d_prime must be in (0, q) and coprime to q")
    if candidate <= 0:
        raise ValueError("candidates are positive")
    if candidate.denominator != 1:
        raise ValueError("candidates are integers")
    from .polynomial import tan_squared_poly_at  # certify needs no polynomial

    c = candidate.numerator
    value = tan_squared_poly_at(q, c)
    return Exclusion(c, "nonroot", q_value=value) if value else Exclusion(c, "angle")


# ------------------------------------------------------------ verify ------


def verify_certificate(cert: Certificate) -> VerificationResult:
    """Re-check the certificate in the kernel (kernel.check), from its plain form.

    The classifier and the generator's caches are never consulted.
    """
    from .kernel import check

    r = cert.input
    return check(_plain(r.numerator, r.denominator, cert.function, cert.verdict))


# ------------------------------------------------------------ wire --------
# The kernel parses; the encoder below writes what it accepts.


def certificate_to_tree(cert: Certificate) -> dict:
    """JSON-compatible tree with all big numbers as decimal strings."""
    return {
        "version": WIRE_VERSION,
        "input": _rat(cert.input),
        "function": cert.function,
        "verdict": verdict_to_tree(cert.verdict),
    }


def verdict_to_tree(v: TrigVerdict) -> dict:
    """{"kind": ...}, plus "value" when exact."""
    return {"kind": v.kind} if v.value is None else {"kind": v.kind, "value": _rat(v.value)}


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def certificate_from_tree(tree: object) -> Certificate:
    """Strict inverse of certificate_to_tree; raises CertificateFormatError.

    kernel.parse checks the tree; the message starts with a JSON path, such
    as verdict.value.
    """
    from .kernel import parse

    _, (num, den), function, (kind, *value) = parse(tree)
    return Certificate(
        Fraction(num, den), function, TrigVerdict(kind, *(Fraction(*v) for v in value)))


def to_json(cert: Certificate) -> str:
    """The bytes of json.dumps(certificate_to_tree(cert), sort_keys=True).

    They are written by template, in sorted key order, without building the
    tree.
    """
    v = cert.verdict
    value = "" if v.value is None else f', "value": "{_rat(v.value)}"'
    return (
        f'{{"function": "{cert.function}", "input": "{_rat(cert.input)}", '
        f'"verdict": {{"kind": "{v.kind}"{value}}}, "version": {WIRE_VERSION}}}'
    )


def from_json(text: str | bytes) -> Certificate:
    from .kernel import loads

    return certificate_from_tree(loads(text))
