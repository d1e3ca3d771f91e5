"""Machine-checkable certificates for the trig classification.

A certificate spells out, number by number, why tan^2(r*pi) (or tan, cos,
cos^2) is a pole, an exact rational, or irrational, so that a verifier can
re-check the claim with no trust in the classifier:

  * base step: the reduced denominator is one of 1, 2, 3, 4, 6 and the value
    is the tabulated one.
  * chain step: successive angle doublings; if the original tan^2 were
    rational, so would be the value at the end of the chain.
  * poly step: for odd denominator q >= 5, one more doubling lands on a root
    s of a monic integer polynomial; the rational root theorem confines any
    rational s to the positive divisors of q, and each divisor is ruled out
    either by exact evaluation (not a root) or by an exact angle comparison
    (a root, but tan^2 at a base angle, which is not s's angle).  Neither
    side builds the polynomial: its value at a divisor c is, up to sign, the
    sqrt(-c) part of (1 + sqrt(-c))^q, one integer power by repeated
    squaring (polynomial.tan_squared_poly_at).
  * backward quadratic step: for denominators 8 * 2^a and 12 * 2^a the chain
    stops at 8 or 12, where one more doubling hits a known exact value D;
    a rational tan^2 would then be a rational root of an integer quadratic
    whose discriminant is not a perfect square.
  * identity and square-root steps tie tan, cos and cos^2 back to tan^2.

Every step is exact: no interval arithmetic is involved.  Serialization is
strict JSON: arbitrary-precision integers and rationals travel as decimal
strings (rationals as "num/den" in lowest terms), and the verifier rejects
unknown fields, non-canonical numbers and version drift.  Data the verifier
can derive from q (the polynomial, the divisor list) is not on the wire.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple

from .angle import (
    ReducedAngle,
    doubling_chain,
    odd_part,
    reduce_for_cos,
    reduce_for_tan,
    tan_squared_base_value,
)
from .classifier import FUNCTIONS, IRRATIONAL, POLE, TrigVerdict
from .exact_core import as_fraction, divisors, gcd, rational_sqrt
from .polynomial import tan_squared_poly_at

__all__ = [
    "WIRE_VERSION",
    "TAN_RELATION",
    "COS2_RELATION",
    "COS_RELATION",
    "BaseStep",
    "ChainStep",
    "Exclusion",
    "PolyStep",
    "BackwardQuadraticStep",
    "SqrtStep",
    "IdentityStep",
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

WIRE_VERSION = 2

TAN_RELATION = "tan2 = tan^2"
COS2_RELATION = "cos2 = 1/(1+tan2)"
COS_RELATION = "cos2 = cos^2"


# ------------------------------------------------------------- steps ------


@dataclass(frozen=True)
class BaseStep:
    """Tabulated tan^2 value at a reduced denominator in {1, 2, 3, 4, 6}.

    value is None exactly at the pole (denominator 2).
    """

    angle: ReducedAngle
    value: Fraction | None


@dataclass(frozen=True)
class ChainStep:
    """Angle doublings from the input's reduction down to the working denominator."""

    angles: tuple[ReducedAngle, ...]

    def __post_init__(self) -> None:
        if not self.angles:
            raise ValueError("empty chain")


@dataclass(frozen=True)
class Exclusion:
    """Why one divisor candidate cannot equal s.

    candidate and q_value are Python ints: the candidate is a positive divisor
    of q and the polynomial has integer coefficients.  nonroot records the
    exact polynomial value at the candidate (nonzero); angle records nothing
    more: the candidate is tan^2 at a base angle whose denominator differs
    from s's, so it is a different root than s.
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
    """A rational tan^2 at the chain end would be a rational root of this quadratic.

    D is the exact doubled-angle value (1 at denominator 8's double, 1/3 at
    12's); with D = u/v the quadratic is u x^2 - 2(u+2v) x + u and the
    discriminant 16 v (u+v) is checked for being a perfect square.
    """

    den: int
    d_value: Fraction
    quad_coeffs: tuple[int, int, int]
    discriminant: int
    square_witness: Fraction | None


@dataclass(frozen=True)
class SqrtStep:
    """Square-root extraction: the target value squares to radicand.

    square_test_result is the exact rational square root when one exists,
    None otherwise (which is what makes the target irrational).
    """

    radicand: Fraction
    square_test_result: Fraction | None


@dataclass(frozen=True)
class IdentityStep:
    """Algebraic relation connecting the certified function to tan^2."""

    relation: str

    def __post_init__(self) -> None:
        if self.relation not in (TAN_RELATION, COS2_RELATION, COS_RELATION):
            raise ValueError(f"unknown relation {self.relation!r}")


CertStep = (
    BaseStep | ChainStep | PolyStep | BackwardQuadraticStep | SqrtStep | IdentityStep
)


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
    red = reduce_for_tan(r)
    t_verdict, core = _tan2_steps(red)
    if function == "tan2":
        return Certificate(r, function, t_verdict, core)
    if function == "cos2":
        steps: tuple[CertStep, ...] = (IdentityStep(COS2_RELATION), *core)
        return Certificate(r, function, _cos2_of(t_verdict), steps)
    # tan and cos are signed square roots of tan^2 and cos^2
    if function == "tan":
        steps = (IdentityStep(TAN_RELATION), *core)
        squared, sign = t_verdict, red.sign
    else:
        steps = (IdentityStep(COS2_RELATION), IdentityStep(COS_RELATION), *core)
        redc = reduce_for_cos(r)
        squared, sign = _cos2_of(t_verdict), -1 if 2 * redc.d > redc.n else 1
    if squared.kind != "exact":
        return Certificate(r, function, squared, steps)
    root = rational_sqrt(squared.value)
    if root is None:
        steps += (SqrtStep(squared.value, None),)
        return Certificate(r, function, IRRATIONAL, steps)
    return Certificate(r, function, TrigVerdict.exact(sign * root), steps)


def _cos2_of(t_verdict: TrigVerdict) -> TrigVerdict:
    # cos^2 = 1/(1+tan^2); the tan^2 pole maps to the value 0
    if t_verdict.kind == "pole":
        return TrigVerdict.exact(0)
    if t_verdict.kind == "exact":
        return TrigVerdict.exact(1 / (1 + t_verdict.value))
    return IRRATIONAL


def _tan2_steps(red: ReducedAngle) -> tuple[TrigVerdict, tuple[CertStep, ...]]:
    if red.n in (1, 2, 3, 4, 6):
        value = tan_squared_base_value(red.n)
        verdict = POLE if value is None else TrigVerdict.exact(value)
        return verdict, (BaseStep(red, value),)
    _, q = odd_part(red.n)
    start = ReducedAngle(red.d, red.n)
    if q >= 5:
        chain = doubling_chain(start, q)
        step = PolyStep(q, _exclusions_for(q, chain.angles[-1].d))
        return IRRATIONAL, (ChainStep(chain.angles), step)
    # odd part 1 or 3: stop at denominator 8 or 12, where doubling hits an
    # exact value and the double-angle preimage quadratic takes over
    stop = 8 if q == 1 else 12
    chain = doubling_chain(start, stop)
    d_value = tan_squared_base_value(stop // 2)
    assert d_value is not None
    u, v = d_value.numerator, d_value.denominator
    coeffs = (u, -2 * (u + 2 * v), u)
    disc = 4 * (u + 2 * v) ** 2 - 4 * u * u
    step = BackwardQuadraticStep(stop, d_value, coeffs, disc, rational_sqrt(disc))
    return IRRATIONAL, (ChainStep(chain.angles), step)


def exclude_candidate(
    q: int, d_prime: int, candidate: Fraction | int, bits: int = 64
) -> Exclusion:
    """Rule out one rational-root candidate for s = tan^2(2 d' pi / q).

    candidate is a positive integer: the rational root theorem admits no
    other.  Exact evaluation settles non-roots.  The only rational root the
    polynomial can have is 3 = tan^2(pi/3), a base value at another
    denominator than q's, so a root gets an angle exclusion.  bits is ignored;
    it stays so that existing callers keep working.
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
    c = candidate.numerator
    value = _poly_value_at(q, c)
    if value != 0:
        return Exclusion(c, "nonroot", q_value=value)
    return Exclusion(c, "angle")


@lru_cache(maxsize=None)
def _poly_value_at(q: int, candidate: int) -> int:
    return tan_squared_poly_at(q, candidate)


@lru_cache(maxsize=None)
def _exclusions_for(q: int, d_prime: int) -> tuple[Exclusion, ...]:
    return tuple(exclude_candidate(q, d_prime, c) for c in divisors(q))


# --------------------------------------------------------- verification ---


class _Fail(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def verify_certificate(cert: Certificate) -> VerificationResult:
    """Re-check every number in the certificate and the claimed verdict.

    Angle reductions, chains, divisor lists, exact polynomial evaluations,
    angle comparisons and square tests are all recomputed, in exact
    arithmetic; the classifier is never consulted.
    """
    try:
        entailed = _entailed_verdict(cert)
    except _Fail as f:
        return VerificationResult(False, f.reason)
    if entailed != cert.verdict:
        return VerificationResult(False, "verdict not entailed")
    return VerificationResult(True)


def _entailed_verdict(cert: Certificate) -> TrigVerdict:
    r = cert.input
    steps = cert.steps
    if cert.function == "tan2":
        return _core_tan2(r, steps)
    if cert.function == "tan":
        _expect_identity(steps, 0, TAN_RELATION)
        return _root_from_core(r, steps[1:], lambda t: t, reduce_for_tan(r).sign)
    if cert.function == "cos2":
        _expect_identity(steps, 0, COS2_RELATION)
        return _cos2_of(_core_tan2(r, steps[1:]))
    _expect_identity(steps, 0, COS2_RELATION)
    _expect_identity(steps, 1, COS_RELATION)
    redc = reduce_for_cos(r)
    return _root_from_core(r, steps[2:], _cos2_of, -1 if 2 * redc.d > redc.n else 1)


def _expect_identity(steps: tuple[CertStep, ...], i: int, relation: str) -> None:
    if len(steps) <= i or steps[i] != IdentityStep(relation):
        raise _Fail(f"missing identity step {relation!r}")


def _core_tan2(r: Fraction, steps: tuple[CertStep, ...]) -> TrigVerdict:
    """Check the tan^2 portion of the step list and return what it proves."""
    red = reduce_for_tan(r)
    if red.n in (1, 2, 3, 4, 6):
        if len(steps) != 1 or not isinstance(steps[0], BaseStep):
            raise _Fail("expected a single base step")
        step = steps[0]
        if step.angle != red:
            raise _Fail("base step angle mismatch")
        value = tan_squared_base_value(red.n)
        if step.value != value:
            raise _Fail("base value mismatch")
        return POLE if value is None else TrigVerdict.exact(value)
    if len(steps) != 2 or not isinstance(steps[0], ChainStep):
        raise _Fail("expected a chain step and a concluding step")
    _, q = odd_part(red.n)
    second = steps[1]
    if q >= 5:
        if not isinstance(second, PolyStep):
            raise _Fail("expected a poly step")
        stop = q
    else:
        if not isinstance(second, BackwardQuadraticStep):
            raise _Fail("expected a backward quadratic step")
        stop = 8 if q == 1 else 12
    expected = doubling_chain(ReducedAngle(red.d, red.n), stop)
    if steps[0].angles != expected.angles:
        raise _Fail("chain mismatch")
    if any(a.n in (2, 4) for a in expected.angles):
        # never true for these stops; guards the doubling identity's pole
        raise _Fail("chain passes through denominator 2 or 4")
    d_prime = expected.angles[-1].d
    if isinstance(second, PolyStep):
        _check_poly_step(second, q, d_prime)
    else:
        _check_quadratic_step(second, stop)
    return IRRATIONAL


def _check_poly_step(step: PolyStep, q: int, d_prime: int) -> None:
    """Check one exclusion per positive divisor of q.

    An angle exclusion rests on tan^2 being strictly increasing on [0, pi/2).
    s = tan^2(theta pi), where theta = reduce_for_tan(2 d'/q) lies in (0, 1/2).
    The base angles 0, 1/3, 1/4, 1/6 lie in [0, 1/2) too, so a candidate equal
    to tan^2 at a base denominator other than theta's cannot equal s.
    """
    if step.q != q:
        raise _Fail("odd part mismatch")
    cands = divisors(q)
    if len(step.exclusions) != len(cands):
        raise _Fail("exclusion count mismatch")
    theta_n = reduce_for_tan(Fraction(2 * d_prime, q)).n
    for cand, exc in zip(cands, step.exclusions):
        if exc.candidate != cand:
            raise _Fail("exclusion candidate mismatch")
        if exc.method == "nonroot":
            value = _poly_value_at(q, cand)
            if exc.q_value != value:
                raise _Fail("exact evaluation mismatch")
            if value == 0:
                raise _Fail("candidate is a root but marked nonroot")
        elif not any(
            n != theta_n and tan_squared_base_value(n) == cand for n in (1, 3, 4, 6)
        ):
            raise _Fail("candidate not separated")


def _check_quadratic_step(step: BackwardQuadraticStep, stop: int) -> None:
    if step.den != stop:
        raise _Fail("landing denominator mismatch")
    d_value = tan_squared_base_value(stop // 2)
    assert d_value is not None
    if step.d_value != d_value:
        raise _Fail("doubled-angle value mismatch")
    u, v = d_value.numerator, d_value.denominator
    if step.quad_coeffs != (u, -2 * (u + 2 * v), u):
        raise _Fail("quadratic coefficients mismatch")
    disc = 4 * (u + 2 * v) ** 2 - 4 * u * u
    if step.discriminant != disc:
        raise _Fail("discriminant mismatch")
    witness = rational_sqrt(disc)
    if step.square_witness != witness:
        raise _Fail("square test mismatch")
    if witness is not None:
        raise _Fail("verdict not entailed")


def _root_from_core(
    r: Fraction, rest: tuple[CertStep, ...], square_of: Callable, sign: int
) -> TrigVerdict:
    """Verdict on sign * sqrt(square_of(tan^2)), from the steps after the identities.

    A square that is not exact (a pole or irrational) carries over unchanged.
    """
    has_sqrt = bool(rest) and isinstance(rest[-1], SqrtStep)
    squared = square_of(_core_tan2(r, rest[:-1] if has_sqrt else rest))
    if squared.kind != "exact":
        if has_sqrt:
            raise _Fail("square-root step without an exact square")
        return squared
    root = rational_sqrt(squared.value)
    if not has_sqrt:
        if root is None:
            raise _Fail("missing square-root step")
        return TrigVerdict.exact(sign * root)
    step = rest[-1]
    if step.radicand != squared.value:
        raise _Fail("radicand mismatch")
    if step.square_test_result != root:
        raise _Fail("square test mismatch")
    if root is not None:
        raise _Fail("verdict not entailed")
    return IRRATIONAL


# ------------------------------------------------------------ wire --------
# One table (_ANGLE ... _CERTIFICATE) drives both directions.  Decoders raise _Bad,
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


def _list(item: _Codec, length: int | None = None) -> _Codec:
    item_enc, item_dec = item

    def dec(v: object) -> tuple:
        if not isinstance(v, list) or length not in (None, len(v)):
            raise _Bad("expected a list" + (f" of {length} items" if length else ""))
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
_OPT_RAT = _Codec(
    lambda x: None if x is None else _RAT.enc(x),
    lambda v: None if v is None else _dec_rat(v),
)
# JSON scalars; int() and str() hand back their argument unchanged, at C speed
_JSON_INT = _Codec(int, lambda v: _expect(type(v) is int, v, "an integer"))
_STR = _Codec(str, lambda v: _expect(isinstance(v, str), v, "a string"))
_Field = tuple[str, str, _Codec]  # (wire key, dataclass attribute, codec)


def _record(tag_key: str | None, tag_attr: str | None,
            variants: list[tuple[object, type, list[_Field]]]) -> _Codec:
    """Codec for one record kind, from its variants (tag, dataclass, fields).

    The tag sits under tag_key (None: one untagged variant).  The dataclass's
    tag_attr, if set, holds the tag too; else the dataclass picks the variant.
    """
    specs = {}
    for tag, cls, fields in variants:
        head = {} if tag_key is None else {tag_key: tag}
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
        tag = None if tag_key is None else tree.get(tag_key)
        # bool, float and unhashable tags select no variant
        spec = specs.get(tag) if type(tag) in (str, int, type(None)) else None
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


_ANGLE = _record(None, None, [
    (None, ReducedAngle, [
        ("d", "d", _INT), ("n", "n", _INT), ("sign", "sign", _JSON_INT)]),
])
_EXCLUSION = _record("method", "method", [
    ("nonroot", Exclusion, [
        ("candidate", "candidate", _INT), ("Q_value", "q_value", _INT)]),
    ("angle", Exclusion, [("candidate", "candidate", _INT)]),
])
_STEP = _record("type", None, [
    ("base", BaseStep, [("angle", "angle", _ANGLE), ("value", "value", _OPT_RAT)]),
    ("chain", ChainStep, [("angles", "angles", _list(_ANGLE))]),
    ("poly", PolyStep, [
        ("q", "q", _INT), ("exclusions", "exclusions", _list(_EXCLUSION))]),
    ("backward_quadratic", BackwardQuadraticStep, [
        ("den", "den", _INT), ("D", "d_value", _RAT),
        ("quad_coeffs", "quad_coeffs", _list(_INT, 3)),
        ("discriminant", "discriminant", _INT),
        ("square_witness", "square_witness", _OPT_RAT)]),
    ("sqrt_step", SqrtStep, [
        ("radicand", "radicand", _RAT),
        ("square_test_result", "square_test_result", _OPT_RAT)]),
    ("identity_step", IdentityStep, [("relation", "relation", _STR)]),
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
