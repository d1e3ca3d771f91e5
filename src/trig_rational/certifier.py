"""Machine-checkable certificates for the trig classification.

A certificate spells out why tan^2(r*pi) (or tan, cos, cos^2) is a pole, an
exact rational, or irrational, so that a verifier can re-check the claim
with no trust in the classifier.  Everything follows from the reduced
denominator n = 2^a * q (q odd) of the input, so each step carries only
the parameters of its lemma:

  * base step: n is one of 1, 2, 3, 4, 6 and the value is the tabulated one.
  * chain step: the number of angle doublings from n down to the working
    denominator (q, 8 or 12); if the original tan^2 were rational, so would
    be the value at the end of the chain.  Every denominator on the way is
    the working one times a power of two, never 2 or 4, so no doubling
    meets the pole.
  * poly step: for odd q >= 5, one more doubling lands on s = tan^2 at an
    angle with reduced denominator q, a root of a monic integer polynomial;
    the rational root theorem confines any rational s to the positive
    divisors of q, and each divisor is ruled out either by exact evaluation
    (not a root) or, for the root 3 = tan^2(pi/3), by an exact angle
    comparison.  Neither side builds the polynomial: its value at a divisor
    c is, up to sign, the sqrt(-c) part of (1 + sqrt(-c))^q, one integer
    power by repeated squaring (polynomial.tan_squared_poly_at).
  * backward quadratic step: for q = 1 and q = 3 the chain stops at 8 or 12,
    where one more doubling hits a known exact value; a rational tan^2 would
    then be a rational root of an integer quadratic whose discriminant is
    not a perfect square.
  * square-root step: a field-less marker on tan and cos certificates whose
    square (tan^2, cos^2 = 1/(1 + tan^2)) is rational with no rational root.

Every step is exact: no interval arithmetic is involved.  Serialization is
strict JSON: arbitrary-precision integers and rationals travel as decimal
strings (rationals as "num/den" in lowest terms).  The verifier is the
kernel (kernel.py), which parses and checks on plain ints and shares no
code or cache with this module; it rejects unknown fields, non-canonical
numbers and version drift.  Data the verifier derives from (input,
function) anyway -- the chain's angles, the relations between the four
functions, the quadratic's constants, the polynomial and its divisor list
-- is not on the wire.  This module builds certificates, writes them, and
maps them to and from the kernel's plain form.

to_json writes by template: the envelope is formatted in sorted key order
around each step's JSON text, which is rendered from the step's tree on the
first write and kept on the step instance.  certify shares one step tuple
per reduced denominator, so each is rendered once.  The output is
byte-identical to json.dumps(certificate_to_tree(cert), sort_keys=True);
with indent, to_json goes through the tree.  A step's text, once written,
is reused even if the int-to-str digit limit is lowered afterwards.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache

from .angle import _cos_fold, _tan_fold, odd_part
from .classifier import _COS2_VERDICTS, _TAN2_VERDICTS, FUNCTIONS, IRRATIONAL, TrigVerdict
from .exact_core import FrozenRecord, _store, as_fraction, divisors, gcd, rational_sqrt
from .kernel import (
    WIRE_VERSION,
    CertificateFormatError,
    VerificationResult,
    check,
    loads,
    parse,
    verify_certificate_json,
)
from .polynomial import tan_squared_poly_at

__all__ = [
    "WIRE_VERSION",
    "BaseStep",
    "ChainStep",
    "Exclusion",
    "PolyStep",
    "BackwardQuadraticStep",
    "SqrtStep",
    "CertStep",
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


# ------------------------------------------------------------- steps ------


class _Step(FrozenRecord):
    @cached_property
    def _json(self) -> str:
        """The step's wire text, rendered by to_json on first use and kept.

        A render that raises (a number past the int-to-str digit limit) is
        not kept, so the next to_json raises too.
        """
        return json.dumps(_STEP_TREE[type(self)](self), sort_keys=True)


class BaseStep(_Step):
    """The reduced denominator is in {1, 2, 3, 4, 6}: tan^2 is tabulated."""


class ChainStep(_Step):
    """The number of angle doublings from the input's reduction to the stop.

    The stop is the working denominator: the odd part q, or 8 or 12.
    """

    __match_args__ = ("doublings",)
    doublings: int

    def __init__(self, doublings: int) -> None:
        _store(self, "doublings", doublings)


class Exclusion(FrozenRecord):
    """Why one divisor candidate cannot equal s.

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


class PolyStep(_Step):
    """s := tan^2 at the doubled chain end is a root of tan_squared_poly(q).

    The positive divisors of q are the only possible rational roots, and each
    one, in ascending order, carries an exclusion.
    """

    __match_args__ = ("q", "exclusions")
    q: int
    exclusions: tuple[Exclusion, ...]

    def __init__(self, q: int, exclusions: tuple[Exclusion, ...]) -> None:
        _store(self, "q", q)
        _store(self, "exclusions", exclusions)

    @cached_property
    def _plain(self) -> tuple:
        """The kernel's plain form, built once: certify shares one step per n."""
        return "poly", self.q, tuple([
            ("nonroot", e.candidate, e.q_value) if e.method == "nonroot" else ("angle", e.candidate)
            for e in self.exclusions])


class BackwardQuadraticStep(_Step):
    """The chain stops at den (8 or 12), whose doubled angle has a known tan^2.

    With that value D = u/v, a rational tan^2 at the chain end would be a
    rational root of u x^2 - 2(u+2v) x + u, whose discriminant 16 v (u+v) is
    not a perfect square.
    """

    __match_args__ = ("den",)
    den: int

    def __init__(self, den: int) -> None:
        _store(self, "den", den)


class SqrtStep(_Step):
    """The certified function's square is rational, but has no rational root."""


CertStep = BaseStep | ChainStep | PolyStep | BackwardQuadraticStep | SqrtStep


class Certificate(FrozenRecord):
    """The verdict on function(input * pi) and the steps that prove it."""

    __match_args__ = ("input", "function", "verdict", "steps")
    input: Fraction
    function: str
    verdict: TrigVerdict
    steps: tuple[CertStep, ...]

    def __init__(
        self, input: Fraction, function: str, verdict: TrigVerdict, steps: tuple[CertStep, ...]
    ) -> None:
        if function not in FUNCTIONS:
            raise ValueError(f"unknown function {function!r}")
        _store(self, "input", input)
        _store(self, "function", function)
        _store(self, "verdict", verdict)
        _store(self, "steps", steps)


# ---------------------------------------------------------- generation ----


_SQRT = SqrtStep()  # one instance, so its wire text is rendered once


def certify(r: Fraction | int, function: str = "tan2") -> Certificate:
    """Build a certificate for the verdict on function(r * pi)."""
    r = as_fraction(r)
    if function not in FUNCTIONS:
        raise ValueError(f"unknown function {function!r}")
    _, n, sign = _tan_fold(r)
    t_verdict, steps = _tan2_steps(n)
    if function == "tan2":
        return Certificate(r, function, t_verdict, steps)
    if function == "cos2":
        return Certificate(r, function, _COS2_VERDICTS.get(n, IRRATIONAL), steps)
    # tan and cos are signed square roots of tan^2 and cos^2
    if function == "tan":
        squared = t_verdict
    else:
        d, m = _cos_fold(r)
        squared, sign = _COS2_VERDICTS.get(n, IRRATIONAL), -1 if 2 * d > m else 1
    if squared.kind != "exact":
        return Certificate(r, function, squared, steps)
    root = rational_sqrt(squared.value)
    if root is None:
        return Certificate(r, function, IRRATIONAL, steps + (_SQRT,))
    return Certificate(r, function, TrigVerdict.exact(sign * root), steps)


@lru_cache(maxsize=1024)
def _tan2_steps(n: int) -> tuple[TrigVerdict, tuple[CertStep, ...]]:
    """The verdict on tan^2 at reduced denominator n, and the steps proving it.

    Both depend on n alone, so they are memoised per n.
    """
    if n in _TAN2_VERDICTS:
        return _TAN2_VERDICTS[n], (BaseStep(),)
    a, q = odd_part(n)
    if q >= 5:
        return IRRATIONAL, (ChainStep(a), PolyStep(q, _exclusions_for(q)))
    # odd part 1 or 3: stop at denominator 8 or 12, where doubling hits an
    # exact value and the double-angle preimage quadratic takes over
    if q == 1:
        return IRRATIONAL, (ChainStep(a - 3), BackwardQuadraticStep(8))
    return IRRATIONAL, (ChainStep(a - 2), BackwardQuadraticStep(12))


def exclude_candidate(
    q: int, d_prime: int, candidate: Fraction | int, bits: int = 64
) -> Exclusion:
    """Rule out one rational-root candidate for s = tan^2(2 d' pi / q).

    candidate is a positive integer: the rational root theorem admits no
    other.  Exact evaluation settles non-roots.  The only rational root the
    polynomial can have is 3 = tan^2(pi/3), a base value at another
    denominator than q's, so a root gets an angle exclusion.  The exclusion
    does not depend on d', which is only checked; bits is ignored.  Both stay
    so that existing callers keep working.
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
    return _exclusion(q, candidate.numerator)


def _exclusion(q: int, c: int) -> Exclusion:
    value = _poly_value_at(q, c)
    return Exclusion(c, "nonroot", q_value=value) if value else Exclusion(c, "angle")


@lru_cache(maxsize=1024)
def _poly_value_at(q: int, candidate: int) -> int:
    return tan_squared_poly_at(q, candidate)


def _exclusions_for(q: int) -> tuple[Exclusion, ...]:
    return tuple(_exclusion(q, c) for c in divisors(q))


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
    steps = tuple([_PLAIN_STEP[type(s)](s) for s in cert.steps])
    return WIRE_VERSION, (r.numerator, r.denominator), cert.function, verdict, steps


_PLAIN_STEP = {
    BaseStep: lambda s: ("base",),
    ChainStep: lambda s: ("chain", s.doublings),
    PolyStep: lambda s: s._plain,
    BackwardQuadraticStep: lambda s: ("backward_quadratic", s.den),
    SqrtStep: lambda s: ("sqrt_step",),
}
_STEP_OF = {  # plain step -> step record
    "base": BaseStep,
    "chain": ChainStep,
    "poly": lambda q, exclusions: PolyStep(
        q, tuple(Exclusion(c, method, *value) for method, c, *value in exclusions)),
    "backward_quadratic": BackwardQuadraticStep,
    "sqrt_step": SqrtStep,
}


# ------------------------------------------------------------ wire --------
# The kernel parses; the encoder below writes what it accepts.


def certificate_to_tree(cert: Certificate) -> dict:
    """JSON-compatible tree with all big numbers as decimal strings."""
    return {
        "version": WIRE_VERSION,
        "input": _rat(cert.input),
        "function": cert.function,
        "verdict": verdict_to_tree(cert.verdict),
        "steps": [_STEP_TREE[type(s)](s) for s in cert.steps],
    }


def verdict_to_tree(v: TrigVerdict) -> dict:
    """{"kind": ...}, plus "value" when exact."""
    return {"kind": v.kind} if v.value is None else {"kind": v.kind, "value": _rat(v.value)}


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _exclusion_tree(e: Exclusion) -> dict:
    if e.method == "angle":
        return {"candidate": str(e.candidate), "method": "angle"}
    return {"candidate": str(e.candidate), "method": "nonroot", "Q_value": str(e.q_value)}


_STEP_TREE = {
    BaseStep: lambda s: {"type": "base"},
    ChainStep: lambda s: {"type": "chain", "doublings": str(s.doublings)},
    PolyStep: lambda s: {
        "type": "poly", "q": str(s.q), "exclusions": list(map(_exclusion_tree, s.exclusions))},
    BackwardQuadraticStep: lambda s: {"type": "backward_quadratic", "den": str(s.den)},
    SqrtStep: lambda s: {"type": "sqrt_step"},
}


def certificate_from_tree(tree: object) -> Certificate:
    """Strict inverse of certificate_to_tree; raises CertificateFormatError.

    kernel.parse checks the tree; the message starts with a JSON path, such
    as steps[1].exclusions[2].Q_value.
    """
    _, (num, den), function, verdict, steps = parse(tree)
    kind, *value = verdict
    return Certificate(
        Fraction(num, den), function, TrigVerdict(kind, *(Fraction(*v) for v in value)),
        tuple(_STEP_OF[s[0]](*s[1:]) for s in steps))


def to_json(cert: Certificate, indent: int | None = None) -> str:
    """json.dumps(certificate_to_tree(cert), sort_keys=True, indent=indent).

    Without indent the same bytes are written by template: the envelope in
    sorted key order around each step's kept text (_Step._json).
    """
    if indent is not None:
        return json.dumps(certificate_to_tree(cert), sort_keys=True, indent=indent)
    v = cert.verdict
    value = "" if v.value is None else f', "value": "{_rat(v.value)}"'
    return (
        f'{{"function": "{cert.function}", "input": "{_rat(cert.input)}", '
        f'"steps": [{", ".join([s._json for s in cert.steps])}], '
        f'"verdict": {{"kind": "{v.kind}"{value}}}, "version": {WIRE_VERSION}}}'
    )


def from_json(text: str | bytes) -> Certificate:
    return certificate_from_tree(loads(text))
