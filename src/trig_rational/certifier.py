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
strings (rationals as "num/den" in lowest terms), and the verifier rejects
unknown fields, non-canonical numbers and version drift.  Data the verifier
derives from (input, function) anyway -- the chain's angles, the relations
between the four functions, the quadratic's constants, the polynomial and
its divisor list -- is not on the wire.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple

from .angle import _cos_fold, _tan_fold, odd_part, tan_squared_base_value
from .classifier import _TAN2_VERDICTS, FUNCTIONS, IRRATIONAL, POLE, TrigVerdict
from .exact_core import as_fraction, divisors, gcd, rational_sqrt
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

WIRE_VERSION = 3


# ------------------------------------------------------------- steps ------


@dataclass(frozen=True)
class BaseStep:
    """The reduced denominator is in {1, 2, 3, 4, 6}: tan^2 is tabulated."""


@dataclass(frozen=True)
class ChainStep:
    """The number of angle doublings from the input's reduction to the stop.

    The stop is the working denominator: the odd part q, or 8 or 12.
    """

    doublings: int


@dataclass(frozen=True)
class Exclusion:
    """Why one divisor candidate cannot equal s.

    candidate and q_value are Python ints: the candidate is a positive divisor
    of q and the polynomial has integer coefficients.  nonroot records the
    exact polynomial value at the candidate (nonzero); angle records nothing
    more: the candidate is 3 = tan^2(pi/3), and s is tan^2 at an angle with
    another denominator, so it is a different root than s.
    """

    candidate: int
    method: str  # "nonroot" | "angle"
    q_value: int | None = None

    def __post_init__(self) -> None:
        if self.method not in ("nonroot", "angle"):
            raise ValueError(f"unknown exclusion method {self.method!r}")
        if (self.q_value is None) != (self.method == "angle"):
            raise ValueError(f"wrong fields for a {self.method} exclusion")


@dataclass(frozen=True)
class PolyStep:
    """s := tan^2 at the doubled chain end is a root of tan_squared_poly(q).

    The positive divisors of q are the only possible rational roots, and each
    one, in ascending order, carries an exclusion.
    """

    q: int
    exclusions: tuple[Exclusion, ...]


@dataclass(frozen=True)
class BackwardQuadraticStep:
    """The chain stops at den (8 or 12), whose doubled angle has a known tan^2.

    With that value D = u/v, a rational tan^2 at the chain end would be a
    rational root of u x^2 - 2(u+2v) x + u, whose discriminant 16 v (u+v) is
    not a perfect square.
    """

    den: int


@dataclass(frozen=True)
class SqrtStep:
    """The certified function's square is rational, but has no rational root."""


CertStep = BaseStep | ChainStep | PolyStep | BackwardQuadraticStep | SqrtStep


@dataclass(frozen=True)
class Certificate:
    input: Fraction
    function: str
    verdict: TrigVerdict
    steps: tuple[CertStep, ...]

    def __post_init__(self) -> None:
        if self.function not in FUNCTIONS:
            raise ValueError(f"unknown function {self.function!r}")


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------- generation ----


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
        return Certificate(r, function, _cos2_of(t_verdict), steps)
    # tan and cos are signed square roots of tan^2 and cos^2
    if function == "tan":
        squared = t_verdict
    else:
        d, m = _cos_fold(r)
        squared, sign = _cos2_of(t_verdict), -1 if 2 * d > m else 1
    if squared.kind != "exact":
        return Certificate(r, function, squared, steps)
    root = rational_sqrt(squared.value)
    if root is None:
        return Certificate(r, function, IRRATIONAL, steps + (SqrtStep(),))
    return Certificate(r, function, TrigVerdict.exact(sign * root), steps)


def _cos2_of(t_verdict: TrigVerdict) -> TrigVerdict:
    # cos^2 = 1/(1+tan^2); the tan^2 pole maps to the value 0
    if t_verdict.kind == "pole":
        return TrigVerdict.exact(0)
    if t_verdict.kind == "exact":
        return TrigVerdict.exact(1 / (1 + t_verdict.value))
    return IRRATIONAL


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


# --------------------------------------------------------- verification ---


class _Fail(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


_OK = VerificationResult(True)


def verify_certificate(cert: Certificate) -> VerificationResult:
    """Re-check the certificate against its input and the claimed verdict.

    From the input alone the verifier recomputes the angle reductions, the
    reduced denominator n = 2^a * q and which steps that n calls for, and
    checks each step's parameters against them: the number of doublings
    (a, a - 3 at stop 8, a - 2 at stop 12), the odd part q, the quadratic's
    stop, and the square-root marker, present exactly when the function's
    square is rational with no rational root.  The divisors of q, the exact
    polynomial values, the angle exclusion of the root 3, the discriminant
    and every square test are recomputed in exact arithmetic; the classifier
    is never consulted.
    """
    try:
        entailed = _entailed_verdict(cert)
    except _Fail as f:
        return VerificationResult(False, f.reason)
    if entailed != cert.verdict:
        return VerificationResult(False, "verdict not entailed")
    return _OK


def _entailed_verdict(cert: Certificate) -> TrigVerdict:
    r, steps = cert.input, cert.steps
    _, n, sign = _tan_fold(r)
    if cert.function == "tan2":
        return _core_tan2(n, steps)
    if cert.function == "cos2":
        return _cos2_of(_core_tan2(n, steps))
    if cert.function == "tan":
        return _root_from_core(n, steps, lambda t: t, sign)
    d, m = _cos_fold(r)
    return _root_from_core(n, steps, _cos2_of, -1 if 2 * d > m else 1)


def _core_tan2(n: int, steps: tuple[CertStep, ...]) -> TrigVerdict:
    """Check the tan^2 steps for reduced denominator n and return what they prove."""
    if n in (1, 2, 3, 4, 6):
        if steps != (BaseStep(),):
            raise _Fail("expected a single base step")
        value = tan_squared_base_value(n)
        return POLE if value is None else TrigVerdict.exact(value)
    if len(steps) != 2 or not isinstance(steps[0], ChainStep):
        raise _Fail("expected a chain step and a concluding step")
    chain, last = steps
    _, q = odd_part(n)
    stop = q if q >= 5 else 8 if q == 1 else 12
    # n is stop * 2^k (it is no base denominator), and k doublings reach stop
    if chain.doublings != (n // stop).bit_length() - 1:
        raise _Fail("chain length mismatch")
    if q >= 5:
        if not isinstance(last, PolyStep):
            raise _Fail("expected a poly step")
        _check_poly_step(last, q)
    else:
        if not isinstance(last, BackwardQuadraticStep):
            raise _Fail("expected a backward quadratic step")
        _check_quadratic_step(last, stop)
    return IRRATIONAL


def _check_poly_step(step: PolyStep, q: int) -> None:
    """Check one exclusion per positive divisor of q.

    An angle exclusion rests on tan^2 being strictly increasing on [0, pi/2).
    s = tan^2(theta pi), where theta is the chain end doubled and folded into
    (0, 1/2); its reduced denominator is q >= 5.  The candidate 3 is
    tan^2(pi/3), at denominator 3 and also in [0, 1/2), so it cannot equal s.
    """
    if step.q != q:
        raise _Fail("odd part mismatch")
    cands = divisors(q)
    if len(step.exclusions) != len(cands):
        raise _Fail("exclusion count mismatch")
    for cand, exc in zip(cands, step.exclusions):
        if exc.candidate != cand:
            raise _Fail("exclusion candidate mismatch")
        if exc.method == "nonroot":
            value = _poly_value_at(q, cand)
            if exc.q_value != value:
                raise _Fail("exact evaluation mismatch")
            if value == 0:
                raise _Fail("candidate is a root but marked nonroot")
        elif cand != 3:
            raise _Fail("candidate not separated")


def _check_quadratic_step(step: BackwardQuadraticStep, stop: int) -> None:
    if step.den != stop:
        raise _Fail("landing denominator mismatch")
    d_value = tan_squared_base_value(stop // 2)
    assert d_value is not None
    u, v = d_value.numerator, d_value.denominator
    if rational_sqrt(4 * (u + 2 * v) ** 2 - 4 * u * u) is not None:
        raise _Fail("verdict not entailed")


def _root_from_core(
    n: int, steps: tuple[CertStep, ...], square_of: Callable, sign: int
) -> TrigVerdict:
    """Verdict on sign * sqrt(square_of(tan^2)), from the tan^2 steps and a marker.

    A square that is not exact (a pole or irrational) carries over unchanged.
    """
    has_sqrt = bool(steps) and isinstance(steps[-1], SqrtStep)
    squared = square_of(_core_tan2(n, steps[:-1] if has_sqrt else steps))
    if squared.kind != "exact":
        if has_sqrt:
            raise _Fail("square-root step without an exact square")
        return squared
    root = rational_sqrt(squared.value)
    if root is not None:
        if has_sqrt:
            raise _Fail("square-root step on a rational square root")
        return TrigVerdict.exact(sign * root)
    if not has_sqrt:
        raise _Fail("missing square-root step")
    return IRRATIONAL


# ------------------------------------------------------------ wire --------
# One table (_EXCLUSION ... _CERTIFICATE) drives both directions.  Decoders raise _Bad,
# which gathers the JSON path as it unwinds: valid input builds no path strings.


class CertificateFormatError(ValueError):
    """Malformed certificate tree or JSON text."""


class _Bad(Exception):
    """args: the message, then the JSON path segments, innermost first."""


class _Codec(NamedTuple):  # to a JSON value and back; dec raises _Bad
    enc: Callable[[Any], Any]
    dec: Callable[[Any], Any]


# canonical numbers: no leading zeros, no -0, denominator >= 1, lowest terms
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")
_RAT_RE = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _parse_int(digits: str) -> int:  # every wire number goes through here
    try:
        return int(digits)
    except ValueError:  # over the interpreter's int-from-string digit limit
        raise _Bad("too many digits") from None


def _dec_int(v: object) -> int:
    if not isinstance(v, str) or not _INT_RE.fullmatch(v):
        raise _Bad("expected a canonical integer string")
    return _parse_int(v)


def _dec_rat(v: object) -> Fraction:
    m = _RAT_RE.fullmatch(v) if isinstance(v, str) else None
    if m is None:
        raise _Bad("expected a canonical num/den string")
    num, den = _parse_int(m[1]), _parse_int(m[2])
    if gcd(num, den) != 1:
        raise _Bad("not in lowest terms")
    return Fraction(num, den)


def _expect(ok: bool, v: Any, what: str) -> Any:
    if not ok:
        raise _Bad(f"expected {what}")
    return v


def _list(item: _Codec) -> _Codec:
    item_enc, item_dec = item

    def dec(v: object) -> tuple:
        if not isinstance(v, list):
            raise _Bad("expected a list")
        out = []
        for i, x in enumerate(v):
            try:
                out.append(item_dec(x))
            except _Bad as e:
                e.args += (f"[{i}]",)
                raise
        return tuple(out)

    return _Codec(lambda xs: list(map(item_enc, xs)), dec)


_INT = _Codec(str, _dec_int)
_RAT = _Codec(lambda x: f"{x.numerator}/{x.denominator}", _dec_rat)
_STR = _Codec(str, lambda v: _expect(isinstance(v, str), v, "a string"))
_Field = tuple[str, str, _Codec]  # (wire key, dataclass attribute, codec)


def _record(tag_key: str, tag_attr: str | None,
            variants: list[tuple[object, type, list[_Field]]]) -> _Codec:
    """Codec for one record kind, from its variants (tag, dataclass, fields).

    The tag sits under tag_key.  The dataclass's tag_attr, if set, holds the
    tag too; else the dataclass picks the variant.
    """
    specs = {}
    for tag, cls, fields in variants:
        head = {tag_key: tag}
        keys = set(head) | {key for key, _, _ in fields}
        specs[tag] = cls, head, keys, [(k, a, c.enc, c.dec) for k, a, c in fields]
    tag_of_cls = {cls: tag for tag, cls, _ in variants}

    def enc(obj: Any) -> dict:
        tag = tag_of_cls[type(obj)] if tag_attr is None else getattr(obj, tag_attr)
        _, head, _, fields = specs[tag]
        tree = head.copy()
        for key, attr, field_enc, _ in fields:
            tree[key] = field_enc(getattr(obj, attr))
        return tree

    def dec(tree: object) -> Any:
        if not isinstance(tree, dict):
            raise _Bad("expected an object")
        tag = tree.get(tag_key)
        # a missing tag, bool, float and unhashable tags select no variant
        spec = specs.get(tag) if type(tag) in (str, int) else None
        if spec is None:
            raise _Bad(f"unsupported {tag_key} {tag!r}")
        cls, _, keys, fields = spec
        if tree.keys() != keys:
            got = sorted(map(str, tree))  # a Python tree may have non-string keys
            raise _Bad(f"fields must be exactly {sorted(keys)}, got {got}")
        kwargs = {} if tag_attr is None else {tag_attr: tag}
        for key, attr, _, field_dec in fields:
            try:
                kwargs[attr] = field_dec(tree[key])
            except _Bad as e:
                e.args += (f".{key}",)
                raise
        try:
            return cls(**kwargs)
        except ValueError as e:  # the dataclass's own invariants
            raise _Bad(str(e)) from None

    return _Codec(enc, dec)


_EXCLUSION = _record("method", "method", [
    ("nonroot", Exclusion, [
        ("candidate", "candidate", _INT), ("Q_value", "q_value", _INT)]),
    ("angle", Exclusion, [("candidate", "candidate", _INT)]),
])
_STEP = _record("type", None, [
    ("base", BaseStep, []),
    ("chain", ChainStep, [("doublings", "doublings", _INT)]),
    ("poly", PolyStep, [
        ("q", "q", _INT), ("exclusions", "exclusions", _list(_EXCLUSION))]),
    ("backward_quadratic", BackwardQuadraticStep, [("den", "den", _INT)]),
    ("sqrt_step", SqrtStep, []),
])
_VERDICT = _record("kind", "kind", [
    ("exact", TrigVerdict, [("value", "value", _RAT)]),
    ("pole", TrigVerdict, []),
    ("irrational", TrigVerdict, []),
])
verdict_to_tree = _VERDICT.enc  # {"kind": ...}, plus "value" when exact
_CERTIFICATE = _record("version", None, [
    (WIRE_VERSION, Certificate, [
        ("input", "input", _RAT), ("function", "function", _STR),
        ("verdict", "verdict", _VERDICT), ("steps", "steps", _list(_STEP))]),
])


def certificate_to_tree(cert: Certificate) -> dict:
    """JSON-compatible tree with all big numbers as decimal strings."""
    return _CERTIFICATE.enc(cert)


def certificate_from_tree(tree: object) -> Certificate:
    """Strict inverse of certificate_to_tree; raises CertificateFormatError.

    The message starts with a JSON path, such as steps[1].exclusions[2].Q_value.
    """
    try:
        return _CERTIFICATE.dec(tree)
    except _Bad as e:
        msg, *path = e.args
        where = "".join(reversed(path)).lstrip(".") or "certificate"
        raise CertificateFormatError(f"{where}: {msg}") from None


def to_json(cert: Certificate, indent: int | None = None) -> str:
    return json.dumps(certificate_to_tree(cert), sort_keys=True, indent=indent)


def from_json(text: str) -> Certificate:
    try:
        tree = json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError: also huge int literals
        raise CertificateFormatError(f"invalid JSON: {e}") from None
    return certificate_from_tree(tree)


def verify_certificate_json(text: str) -> VerificationResult:
    """Parse and verify; malformed input is a verification failure, not a crash."""
    try:
        cert = from_json(text)
    except CertificateFormatError as e:
        return VerificationResult(False, str(e))
    return verify_certificate(cert)
