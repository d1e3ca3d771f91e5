"""Machine-checkable certificates for the trig classification.

A certificate is the claim that tan^2(r*pi) (or tan, cos, cos^2) is a pole,
an exact rational, or irrational: the input, the function and the verdict,
which certify takes from classify.  The proof is a function of the input's
reduced denominator n = 2^a * q (q odd) alone, so it does not travel: the
verifier, the kernel (kernel.py), derives it and the verdict it entails from
the input, and trusts neither the classifier nor this module.  From n it
derives:

  * the base table, when n is one of 1, 2, 3, 4, 6 (the pole at 2);
  * otherwise the doubling chain: a doublings take n down to q >= 5, or
    a - 3 and a - 2 doublings down to the stops 8 and 12 for q = 1 and 3;
    a rational tan^2 would stay rational along the way, and no doubling
    meets the pole;
  * at q >= 5, the doubling lemma: one more doubling lands on s = tan^2 at
    an angle with reduced denominator q, a root of the monic integer
    polynomial tan_squared_poly(q), so a rational s is an integer;
    doubling keeps the denominator q, so T(s) = 4s/(1 - s)^2 and T(T(s))
    would be integers too, which holds only at 0 and 3, the tan^2 at
    denominators 1 and 3.  Neither side builds or evaluates the polynomial;
  * at the stops 8 and 12, the backward quadratic: one more doubling hits
    D = 1 or 1/3, so a rational tan^2 would be a rational root of an
    integer quadratic whose discriminant is not a perfect square;
  * for tan and cos, the square-root test: a rational square (tan^2, or
    cos^2 = 1/(1 + tan^2)) with no rational root makes the value irrational.

Every step is exact: no interval arithmetic is involved.  Serialization is
strict JSON: rationals travel as "num/den" strings in lowest terms.  The
kernel parses and checks on plain ints and shares no code or cache with this
module; it rejects unknown fields, non-canonical numbers and version drift.
This module loads the kernel only when it verifies or parses, or when a
re-exported kernel name is first read, so certify and to_json run without
it; it keeps its own WIRE_VERSION, equal to the kernel's.  This module
builds certificates, writes them, and maps them to and from the kernel's
plain form.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import FUNCTIONS
from .classifier import TrigVerdict, classify
from .exact_core import FrozenRecord, _store, as_fraction, gcd

WIRE_VERSION = 5  # the kernel's WIRE_VERSION, which a test pins it to

__all__ = [
    "WIRE_VERSION",
    "Exclusion",
    "Certificate",
    "VerificationResult",
    "CertificateFormatError",
    "certify",
    "exclude_candidate",
    "verify_certificate",
    "verify_certificate_json",
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


# ------------------------------------------------------ the kernel --------
# Loaded on first use, so that certify and to_json run without it.


def _from_kernel(name: str):
    """A stand-in for kernel.<name> that loads the kernel on its first call.

    That call binds the module global to the kernel's function, so later
    calls go straight there and run no import statement.
    """

    def stub(*args):
        from . import kernel

        globals()[name] = fn = getattr(kernel, name)
        return fn(*args)

    return stub


check = _from_kernel("check")
loads = _from_kernel("loads")
parse = _from_kernel("parse")


def __getattr__(name: str) -> object:
    """The kernel's names that this module re-exports, loaded on first use.

    Every other missing name is an AttributeError: the import system probes
    module attributes, and a catch-all would load the kernel on each probe.
    """
    if name not in ("CertificateFormatError", "VerificationResult", "verify_certificate_json"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import kernel

    globals()[name] = value = getattr(kernel, name)
    return value


# ------------------------------------------- the kernel's plain form ------


def verify_certificate(cert: Certificate) -> VerificationResult:
    """Re-check the certificate in the kernel (kernel.check), from its plain form.

    The classifier and the generator's caches are never consulted.
    """
    return check(_plain(cert))


def _plain(cert: Certificate) -> tuple:
    """The kernel's plain form of cert, as kernel.parse gives it for the wire tree."""
    r, v = cert.input, cert.verdict
    verdict = (v.kind,) if v.value is None else (v.kind, (v.value.numerator, v.value.denominator))
    return WIRE_VERSION, (r.numerator, r.denominator), cert.function, verdict


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
    _, (num, den), function, (kind, *value) = parse(tree)
    return Certificate(
        Fraction(num, den), function, TrigVerdict(kind, *(Fraction(*v) for v in value)))


def to_json(cert: Certificate, indent: int | None = None) -> str:
    """json.dumps(certificate_to_tree(cert), sort_keys=True, indent=indent).

    Without indent the same bytes are written by template, in sorted key
    order, without building the tree.
    """
    if indent is not None:
        return json.dumps(certificate_to_tree(cert), sort_keys=True, indent=indent)
    v = cert.verdict
    value = "" if v.value is None else f', "value": "{_rat(v.value)}"'
    return (
        f'{{"function": "{cert.function}", "input": "{_rat(cert.input)}", '
        f'"verdict": {{"kind": "{v.kind}"{value}}}, "version": {WIRE_VERSION}}}'
    )


def from_json(text: str | bytes) -> Certificate:
    return certificate_from_tree(loads(text))
