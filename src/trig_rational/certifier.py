"""Machine-checkable certificates for the trig classification.

A certificate spells out why tan^2(r*pi) (or tan, cos, cos^2) is a pole, an
exact rational, or irrational.  certify takes the verdict from classify and
adds the steps that prove it; the verifier re-derives the verdict from the
input, so it trusts neither the classifier nor this module.  Everything
follows from the reduced denominator n = 2^a * q (q odd) of the input, so
each step carries only the parameters of its lemma:

  * base step: n is one of 1, 2, 3, 4, 6 and the value is the tabulated one.
  * chain step: the number of angle doublings from n down to the working
    denominator (q, 8 or 12); if the original tan^2 were rational, so would
    be the value at the end of the chain.  Every denominator on the way is
    the working one times a power of two, never 2 or 4, so no doubling
    meets the pole.
  * poly step: the odd part q >= 5.  One more doubling lands on s = tan^2
    at an angle with reduced denominator q, a root of the monic integer
    polynomial tan_squared_poly(q), so a rational s is an integer; doubling
    keeps the denominator q, so T(s) = 4s/(1 - s)^2 and T(T(s)) would be
    integers too, which holds only at 0 and 3, the tan^2 at denominators 1
    and 3.  This doubling lemma needs no candidate list, so the step
    carries nothing else, and neither side builds or evaluates the
    polynomial.
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
functions, the quadratic's constants, the polynomial and its roots -- is
not on the wire.  This module builds certificates, writes them, and
maps them to and from the kernel's plain form.  The step grammar is the
kernel's table (kernel._STEP_KEYS): each step class names its wire tag,
and its fields are that tag's wire keys, in order, so the plain form, the
tree and the wire text of a step are all derived from (tag, fields).

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

from .angle import odd_part
from .classifier import _TAN2_VERDICTS, FUNCTIONS, TrigVerdict, classify
from .exact_core import FrozenRecord, _store, as_fraction, gcd
from .kernel import (
    WIRE_VERSION,
    CertificateFormatError,
    VerificationResult,
    check,
    loads,
    parse,
    verify_certificate_json,
)

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
    """A proof step: _tag is its wire type, its fields are that type's wire keys."""

    _tag: str

    @cached_property
    def _plain(self) -> tuple:
        """The kernel's plain form: the tag, then the fields in wire order."""
        return (self._tag, *[getattr(self, k) for k in self.__match_args__])

    def _tree(self) -> dict:
        return {"type": self._tag, **{k: str(getattr(self, k)) for k in self.__match_args__}}

    @cached_property
    def _json(self) -> str:
        """The step's wire text, rendered by to_json on first use and kept.

        A render that raises (a number past the int-to-str digit limit) is
        not kept, so the next to_json raises too.
        """
        return json.dumps(self._tree(), sort_keys=True)


class BaseStep(_Step):
    """The reduced denominator is in {1, 2, 3, 4, 6}: tan^2 is tabulated."""

    _tag = "base"


class ChainStep(_Step):
    """The number of angle doublings from the input's reduction to the stop.

    The stop is the working denominator: the odd part q, or 8 or 12.
    """

    _tag = "chain"
    __match_args__ = ("doublings",)
    doublings: int

    def __init__(self, doublings: int) -> None:
        _store(self, "doublings", doublings)


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


class PolyStep(_Step):
    """s := tan^2 at the doubled chain end, reduced denominator q >= 5 odd.

    s is a root of the monic tan_squared_poly(q), so a rational s would be
    an integer, and so would T(s) and T(T(s)); only 0 and 3 qualify, and
    neither is tan^2 at denominator q.
    """

    _tag = "poly"
    __match_args__ = ("q",)
    q: int

    def __init__(self, q: int) -> None:
        _store(self, "q", q)


class BackwardQuadraticStep(_Step):
    """The chain stops at den (8 or 12), whose doubled angle has a known tan^2.

    With that value D = u/v, a rational tan^2 at the chain end would be a
    rational root of u x^2 - 2(u+2v) x + u, whose discriminant 16 v (u+v) is
    not a perfect square.
    """

    _tag = "backward_quadratic"
    __match_args__ = ("den",)
    den: int

    def __init__(self, den: int) -> None:
        _store(self, "den", den)


class SqrtStep(_Step):
    """The certified function's square is rational, but has no rational root."""

    _tag = "sqrt_step"


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
    """Build a certificate for classify's verdict on function(r * pi).

    An irrational verdict at a base denominator (tan or cos) is the root of
    a rational square, so the square-root marker follows the base step.
    """
    r = as_fraction(r)
    verdict = classify(r, function)
    steps = _tan2_steps(r.denominator)
    if verdict.kind == "irrational" and r.denominator in _TAN2_VERDICTS:
        steps += (_SQRT,)
    return Certificate(r, function, verdict, steps)


@lru_cache(maxsize=1024)
def _tan2_steps(n: int) -> tuple[CertStep, ...]:
    """The steps proving the tan^2 verdict at reduced denominator n, memoised per n."""
    if n in _TAN2_VERDICTS:
        return (BaseStep(),)
    a, q = odd_part(n)
    if q >= 5:
        return ChainStep(a), PolyStep(q)
    # odd part 1 or 3: stop at denominator 8 or 12, where doubling hits an
    # exact value and the double-angle preimage quadratic takes over
    if q == 1:
        return ChainStep(a - 3), BackwardQuadraticStep(8)
    return ChainStep(a - 2), BackwardQuadraticStep(12)


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
    steps = tuple([s._plain for s in cert.steps])
    return WIRE_VERSION, (r.numerator, r.denominator), cert.function, verdict, steps


# ------------------------------------------------------------ wire --------
# The kernel parses; the encoder below writes what it accepts.


def certificate_to_tree(cert: Certificate) -> dict:
    """JSON-compatible tree with all big numbers as decimal strings."""
    return {
        "version": WIRE_VERSION,
        "input": _rat(cert.input),
        "function": cert.function,
        "verdict": verdict_to_tree(cert.verdict),
        "steps": [s._tree() for s in cert.steps],
    }


def verdict_to_tree(v: TrigVerdict) -> dict:
    """{"kind": ...}, plus "value" when exact."""
    return {"kind": v.kind} if v.value is None else {"kind": v.kind, "value": _rat(v.value)}


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def certificate_from_tree(tree: object) -> Certificate:
    """Strict inverse of certificate_to_tree; raises CertificateFormatError.

    kernel.parse checks the tree; the message starts with a JSON path, such
    as steps[1].q.
    """
    _, (num, den), function, verdict, steps = parse(tree)
    kind, *value = verdict
    return Certificate(
        Fraction(num, den), function, TrigVerdict(kind, *(Fraction(*v) for v in value)),
        tuple([_step(*s) for s in steps]))


def _step(tag: str, *fields: int) -> CertStep:
    """The step record of a plain step."""
    return next(cls for cls in CertStep.__args__ if cls._tag == tag)(*fields)


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
