"""The certificate kernel: the strict wire parser and the checker, on plain ints.

This module uses only the standard library and imports nothing else from the
package, so a certificate can be checked without the code that made it.
``parse`` turns a JSON tree of the version-4 wire format into a plain
certificate, and ``check`` decides whether that certificate proves its
verdict.  A plain certificate is the wire tree with every object a tuple, its
tag first and its fields after it in wire order, and every number an int;
rationals are (num, den) pairs in lowest terms with den >= 1:

    (4, (num, den), function, verdict, steps)
    verdict    ("exact", (num, den)) | ("pole",) | ("irrational",)
    step       ("base",) | ("chain", doublings) | ("poly", q)
               | ("backward_quadratic", den) | ("sqrt_step",)

The checker trusts these facts and nothing else:

1. The base table: tan^2(d pi/n) at the reduced denominators n = 1, 2, 3,
   4, 6 is 0, a pole, 3, 1 and 1/3 (``_TAN2``).
2. The period and parity folds.  tan has period pi and is odd, so tan^2(r pi)
   depends only on the reduced denominator of r, and tan(r pi) < 0 exactly
   when r mod 1 lies in (1/2, 1).  cos has period 2 pi and is even, so
   cos(r pi) < 0 exactly when r folded into [0, 1] lies past 1/2.  And
   cos^2 = 1/(1 + tan^2), with cos^2 = 0 at the pole of tan^2.
3. The doubling map: doubling the angle takes T = tan^2 to 4T/(1 - T)^2 and
   halves an even reduced denominator, so a rational tan^2 stays rational
   down the chain; a rational root of u x^2 - 2(u + 2v) x + u (the preimage
   of D = u/v) needs a square discriminant.
4. The doubling lemma: for odd q >= 5 and gcd(k, q) = 1, s = tan^2(k pi/q)
   is irrational.  s is a root of the monic integer polynomial
   p_q(X) = sum_j (-1)^(m+j) C(q, 2j+1) X^j (q = 2m + 1), so by the rational
   root theorem a rational s is an integer.  Doubling keeps the reduced
   denominator q and never meets the pole, so T(s) = 4s/(1 - s)^2 and T(T(s))
   are roots of p_q too, hence integers.  As gcd(c, c - 1) = 1, T(c) is an
   integer only when (c - 1)^2 divides 4, so the squares s and T(s) lie in
   {0, 2, 3}; T(2) = 8 is no such value, so s is 0 or 3, the tan^2 at
   denominators 1 and 3 (fact 5 rules both out).
5. Monotonicity: tan^2 is strictly increasing on [0, pi/2), so tan^2 at an
   angle with reduced denominator q >= 5 is neither 0 = tan^2(0) nor
   3 = tan^2(pi/3).
6. A rational a/b in lowest terms is a square exactly when a and b are.
"""

from __future__ import annotations

import json
import re
from math import gcd, isqrt

__all__ = [
    "WIRE_VERSION",
    "FUNCTIONS",
    "CertificateFormatError",
    "VerificationResult",
    "loads",
    "parse",
    "check",
    "verify_certificate_json",
]

WIRE_VERSION = 4
FUNCTIONS = ("tan2", "tan", "cos2", "cos")


class CertificateFormatError(ValueError):
    """Malformed certificate tree or JSON text."""


class VerificationResult:
    """Whether a certificate proves its verdict, and if not, the first reason.

    Immutable.  Written out here, since the kernel imports no package module.
    """

    __slots__ = ("_ok", "_reason")

    def __init__(self, ok: bool, reason: str = "") -> None:
        self._ok, self._reason = ok, reason

    ok = property(lambda self: self._ok)
    reason = property(lambda self: self._reason)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._ok, self._reason) == (other._ok, other._reason)

    def __hash__(self) -> int:
        return hash((self._ok, self._reason))

    def __repr__(self) -> str:
        return f"VerificationResult(ok={self._ok!r}, reason={self._reason!r})"

    def __bool__(self) -> bool:
        return self._ok


def verify_certificate_json(text: str | bytes) -> VerificationResult:
    """Parse and check; malformed input is a verification failure, not a crash.

    Bytes are read as UTF-8.
    """
    try:
        cert = parse(loads(text))
    except CertificateFormatError as e:
        return VerificationResult(False, str(e))
    return check(cert)


# ------------------------------------------------------------ parser ------
# Parsers raise _Bad, which gathers the JSON path as it unwinds: valid input
# builds no path strings.


class _Bad(Exception):
    """args: the message, then the JSON path segments, innermost first."""


def loads(text: str | bytes) -> object:
    """json.loads, with bad UTF-8, huge int literals and deep nesting as format errors."""
    try:
        return json.loads(text.decode() if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as e:
        raise CertificateFormatError(f"invalid JSON: {e}") from None


def parse(tree: object) -> tuple:
    """The plain certificate of a wire tree; raises CertificateFormatError.

    The message starts with a JSON path, such as steps[1].q.
    """
    try:
        cert = _CERTIFICATE(tree)
        if cert[2] not in FUNCTIONS:
            raise _Bad(f"unknown function {cert[2]!r}")
        return cert
    except _Bad as e:
        msg, *path = e.args
        where = "".join(reversed(path)).lstrip(".") or "certificate"
        raise CertificateFormatError(f"{where}: {msg}") from None


# canonical numbers: no leading zeros, no -0, denominator >= 1, lowest terms
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")
_RAT_RE = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _parse_int(digits: str) -> int:  # every wire number goes through here
    try:
        return int(digits)
    except ValueError:  # over the interpreter's int-from-string digit limit
        raise _Bad("too many digits") from None


def _int(v: object) -> int:
    if not isinstance(v, str) or not _INT_RE.fullmatch(v):
        raise _Bad("expected a canonical integer string")
    return _parse_int(v)


def _rat(v: object) -> tuple[int, int]:
    m = _RAT_RE.fullmatch(v) if isinstance(v, str) else None
    if m is None:
        raise _Bad("expected a canonical num/den string")
    num, den = _parse_int(m[1]), _parse_int(m[2])
    if gcd(num, den) != 1:
        raise _Bad("not in lowest terms")
    return num, den


def _str(v: object) -> str:
    if not isinstance(v, str):
        raise _Bad("expected a string")
    return v


def _list(item):
    def parse_list(v: object) -> tuple:
        if not isinstance(v, list):
            raise _Bad("expected a list")
        out = []
        for i, x in enumerate(v):
            try:
                out.append(item(x))
            except _Bad as e:
                e.args += (f"[{i}]",)
                raise
        return tuple(out)

    return parse_list


def _record(tag_key: str, variants: dict):
    """Parser for one object kind: variants maps each tag to its (wire key, parser)s.

    The object must have exactly the tag key and its variant's keys.
    """
    specs = {tag: ({tag_key, *(k for k, _ in fs)}, fs) for tag, fs in variants.items()}

    def parse_record(tree: object) -> tuple:
        if not isinstance(tree, dict):
            raise _Bad("expected an object")
        tag = tree.get(tag_key)
        # a missing tag, bool, float and unhashable tags select no variant
        spec = specs.get(tag) if type(tag) in (str, int) else None
        if spec is None:
            raise _Bad(f"unsupported {tag_key} {tag!r}")
        keys, fields = spec
        if tree.keys() != keys:
            got = sorted(map(str, tree))  # a Python tree may have non-string keys
            raise _Bad(f"fields must be exactly {sorted(keys)}, got {got}")
        out = [tag]
        for key, field in fields:
            try:
                out.append(field(tree[key]))
            except _Bad as e:
                e.args += (f".{key}",)
                raise
        return tuple(out)

    return parse_record


# the step grammar: each type's wire keys in plain-form order, every one an int
_STEP_KEYS = {"base": (), "chain": ("doublings",), "poly": ("q",),
              "backward_quadratic": ("den",), "sqrt_step": ()}
_STEP = _record("type", {tag: [(k, _int) for k in keys] for tag, keys in _STEP_KEYS.items()})
_VERDICT = _record("kind", {"exact": [("value", _rat)], "pole": [], "irrational": []})
_CERTIFICATE = _record("version", {WIRE_VERSION: [
    ("input", _rat), ("function", _str), ("verdict", _VERDICT), ("steps", _list(_STEP)),
]})


# ----------------------------------------------------------- checker ------


class _Fail(Exception):
    """args[0]: the reason."""


_OK = VerificationResult(True)
_POLE, _IRRATIONAL = ("pole",), ("irrational",)
_TAN2 = {1: (0, 1), 2: None, 3: (3, 1), 4: (1, 1), 6: (1, 3)}  # None: the pole


def check(cert: tuple) -> VerificationResult:
    """Whether a plain certificate proves its verdict, with the first failure's reason.

    From the input alone the checker recomputes the reduced denominator
    n = 2^a * q and which steps that n calls for, and checks each step's
    parameters against them: the number of doublings (a, a - 3 at stop 8,
    a - 2 at stop 12), the odd part q, the quadratic's stop, and the
    square-root marker, present exactly when the function's square is
    rational with no rational root.  The poly step needs nothing more: the
    doubling lemma (fact 4) covers every odd q >= 5.  The discriminant and
    every square test are recomputed in exact arithmetic.
    """
    _, (num, den), function, verdict, steps = cert
    try:
        entailed = _entailed(num, den, function, steps)
    except _Fail as f:
        return VerificationResult(False, f.args[0])
    return _OK if entailed == verdict else VerificationResult(False, "verdict not entailed")


def _entailed(num: int, den: int, function: str, steps: tuple) -> tuple:
    # num/den is in lowest terms, so den is the reduced denominator of tan^2
    if function == "tan2":
        return _tan2(den, steps)
    if function == "cos2":
        return _cos2(_tan2(den, steps))
    if function == "tan":  # negative where num/den mod 1 lies past 1/2
        return _root(den, steps, None, -1 if 2 * (num % den) > den else 1)
    t = num % (2 * den)  # negative where num/den folded into [0, 1] lies past 1/2
    return _root(den, steps, _cos2, -1 if 2 * min(t, 2 * den - t) > den else 1)


def _cos2(tan2: tuple) -> tuple:
    if tan2 == _POLE:
        return "exact", (0, 1)
    if tan2[0] == "exact":
        u, v = tan2[1]
        return "exact", (v, u + v)  # 1/(1 + u/v), in lowest terms as u/v is
    return _IRRATIONAL


def _tan2(n: int, steps: tuple) -> tuple:
    """Check the tan^2 steps for reduced denominator n and return what they prove."""
    if n in _TAN2:
        if steps != (("base",),):
            raise _Fail("expected a single base step")
        value = _TAN2[n]
        return _POLE if value is None else ("exact", value)
    if len(steps) != 2 or steps[0][0] != "chain":
        raise _Fail("expected a chain step and a concluding step")
    (_, doublings), last = steps
    q = n // (n & -n)
    stop = q if q >= 5 else 8 if q == 1 else 12
    # n is stop * 2^k (it is no base denominator), and k doublings reach stop
    if doublings != (n // stop).bit_length() - 1:
        raise _Fail("chain length mismatch")
    if q >= 5:
        if last[0] != "poly":
            raise _Fail("expected a poly step")
        if last[1] != q:  # facts 4 and 5 settle every odd q >= 5
            raise _Fail("odd part mismatch")
    else:
        if last[0] != "backward_quadratic":
            raise _Fail("expected a backward quadratic step")
        if last[1] != stop:
            raise _Fail("landing denominator mismatch")
        u, v = _TAN2[stop // 2]
        if _is_square(4 * (u + 2 * v) ** 2 - 4 * u * u):
            raise _Fail("verdict not entailed")
    return _IRRATIONAL


def _root(n: int, steps: tuple, square_of, sign: int) -> tuple:
    """Verdict on sign * sqrt(square_of(tan^2)), from the tan^2 steps and a marker.

    square_of None means tan^2 itself.  A square that is not exact (a pole or
    irrational) carries over unchanged.
    """
    has_sqrt = bool(steps) and steps[-1][0] == "sqrt_step"
    squared = _tan2(n, steps[:-1] if has_sqrt else steps)
    if square_of is not None:
        squared = square_of(squared)
    if squared[0] != "exact":
        if has_sqrt:
            raise _Fail("square-root step without an exact square")
        return squared
    u, v = squared[1]
    if _is_square(u) and _is_square(v):
        if has_sqrt:
            raise _Fail("square-root step on a rational square root")
        return "exact", (sign * isqrt(u), isqrt(v))
    if not has_sqrt:
        raise _Fail("missing square-root step")
    return _IRRATIONAL


def _is_square(k: int) -> bool:
    return k >= 0 and isqrt(k) ** 2 == k
