"""The certificate kernel: the strict wire parser and the checker, on plain ints.

This module uses only the standard library and imports nothing else from the
package, so a certificate can be checked without the code that made it.
``parse`` turns a JSON tree of the version-5 wire format into a plain
certificate, checking the tag and the exact key set of each object; a format
error starts with the JSON path that failed, such as ``verdict.value``.
``loads``, which both readers of JSON text use, rejects text longer than
``MAX_BYTES`` before it decodes it, since no certificate comes near that size.
``check`` decides whether the verdict a certificate claims is the one that
facts 1-6 below give for its input and function.  A plain certificate is the
wire tree with every object a tuple, its tag first and its fields after it in
wire order, and every number an int; rationals are (num, den) pairs in lowest
terms with den >= 1:

    (5, (num, den), function, verdict)
    verdict    ("exact", (num, den)) | ("pole",) | ("irrational",)

A certificate is its claim.  The proof is a function of the input's reduced
denominator n = 2^a * q (q odd) alone, so the checker derives it and nothing
of it travels: n in the base table is fact 1; otherwise a doublings take n
to q >= 5, where facts 4 and 5 apply, or a - 3 and a - 2 doublings take it
to the stops 8 and 12, where fact 3's quadratic applies.  Either way tan^2 is
irrational.  Facts 2 and 6 then give tan, cos^2 and cos.

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
   down the chain, which no denominator 2 or 4 interrupts before a stop.  At
   the stops 8 and 12 the doubled angle has tan^2 = D = u/v = 1 and 1/3, so
   tan^2 at the stop is a root of u x^2 - 2(u + 2v) x + u, whose
   discriminant 16 v (u + v) is 32 and 192: no square, so no rational root.
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
    "MAX_BYTES",
]

WIRE_VERSION = 5
FUNCTIONS = ("tan2", "tan", "cos2", "cos")
# The longest certificate: its two rationals have at most the int-to-str
# limit's 4,300 digits each, so with the fixed envelope it is 8,684 bytes;
# the cap leaves about twice that.
MAX_BYTES = 16384


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
    """Parse and check; malformed input is a verification failure, not a crash."""
    try:
        cert = parse(loads(text))
    except CertificateFormatError as e:
        return VerificationResult(False, str(e))
    return check(cert)


# ------------------------------------------------------------ parser ------


def loads(text: str | bytes) -> object:
    """json.loads, with bad UTF-8, huge int literals and deep nesting as format errors.

    Bytes are read as UTF-8.  Input longer than MAX_BYTES, counted in UTF-8
    bytes, fails before anything is decoded.
    """
    # a str of more than MAX_BYTES characters has more than MAX_BYTES bytes
    if isinstance(text, str) and len(text) <= MAX_BYTES:
        size = len(text.encode("utf-8", "surrogatepass"))
    else:
        size = len(text)
    if size > MAX_BYTES:
        raise CertificateFormatError(f"certificate: larger than {MAX_BYTES} bytes")
    try:
        return json.loads(text.decode() if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as e:
        raise CertificateFormatError(f"invalid JSON: {e}") from None


def parse(tree: object) -> tuple:
    """The plain certificate of a wire tree; raises CertificateFormatError."""
    version = _object(tree, "version", "certificate")
    num_den = _rat(tree["input"], "input")
    function = tree["function"]
    if not isinstance(function, str):
        raise CertificateFormatError("function: expected a string")
    verdict = tree["verdict"]
    kind = _object(verdict, "kind", "verdict")
    verdict = (kind, _rat(verdict["value"], "verdict.value")) if kind == "exact" else (kind,)
    if function not in FUNCTIONS:
        raise CertificateFormatError(f"certificate: unknown function {function!r}")
    return version, num_den, function, verdict


# for each tag key, the exact key set of an object with each tag
_KEYS = {
    "version": {WIRE_VERSION: {"version", "input", "function", "verdict"}},
    "kind": {"exact": {"kind", "value"}, "pole": {"kind"}, "irrational": {"kind"}},
}


def _object(tree: object, tag_key: str, where: str) -> str | int:
    """The tag of an object that has exactly the keys _KEYS gives for it."""
    if not isinstance(tree, dict):
        raise CertificateFormatError(f"{where}: expected an object")
    tag = tree.get(tag_key)
    # a missing tag, bool, float and unhashable tags select no key set
    keys = _KEYS[tag_key].get(tag) if type(tag) in (str, int) else None
    if keys is None:
        raise CertificateFormatError(f"{where}: unsupported {tag_key} {tag!r}")
    if tree.keys() != keys:
        got = sorted(map(str, tree))  # a Python tree may have non-string keys
        raise CertificateFormatError(f"{where}: fields must be exactly {sorted(keys)}, got {got}")
    return tag


# canonical rationals: no leading zeros, no -0, denominator >= 1, lowest terms
_RAT_RE = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _rat(v: object, where: str) -> tuple[int, int]:
    m = _RAT_RE.fullmatch(v) if isinstance(v, str) else None
    if m is None:
        raise CertificateFormatError(f"{where}: expected a canonical num/den string")
    try:
        num, den = int(m[1]), int(m[2])
    except ValueError:  # over the interpreter's int-from-string digit limit
        raise CertificateFormatError(f"{where}: too many digits") from None
    if gcd(num, den) != 1:
        raise CertificateFormatError(f"{where}: not in lowest terms")
    return num, den


# ----------------------------------------------------------- checker ------


_OK, _NOT_ENTAILED = VerificationResult(True), VerificationResult(False, "verdict not entailed")
_POLE, _IRRATIONAL = ("pole",), ("irrational",)
# tan^2 at the base denominators (fact 1)
_TAN2 = {1: ("exact", (0, 1)), 2: _POLE, 3: ("exact", (3, 1)), 4: ("exact", (1, 1)),
         6: ("exact", (1, 3))}


def check(cert: tuple) -> VerificationResult:
    """Whether a plain certificate claims the verdict that facts 1-6 give for its input.

    The verdict is derived from the input and the function alone, with the
    square test in exact arithmetic; a certificate either claims it or fails
    with the reason "verdict not entailed".
    """
    _, (num, den), function, verdict = cert
    return _OK if _entailed(num, den, function) == verdict else _NOT_ENTAILED


def _entailed(num: int, den: int, function: str) -> tuple:
    # num/den is in lowest terms, so den is the reduced denominator of tan^2;
    # every denominator outside the base table reaches an odd part q >= 5
    # (facts 4 and 5) or a stop 8 or 12 (fact 3), so its tan^2 is irrational
    tan2 = _TAN2.get(den, _IRRATIONAL)
    if function == "tan2":
        return tan2
    if function == "cos2":
        return _cos2(tan2)
    # The sign matters only where the value is exact and nonzero: tan at den 4
    # and cos at den 1 and 3, where x/den (x the folded numerator) is 1/4, 3/4
    # and 0, 1, 1/3, 2/3.  2x/den is never 1 there, so > and >= agree, and 3x/den
    # passes 1 where 2x/den does; 2x = den only at den 2 (tan's pole, cos 0).
    if function == "tan":  # negative where num/den mod 1 lies past 1/2
        return _root(tan2, -1 if 2 * (num % den) > den else 1)
    t = num % (2 * den)  # negative where num/den folded into [0, 1] lies past 1/2
    return _root(_cos2(tan2), -1 if 2 * min(t, 2 * den - t) > den else 1)


def _cos2(tan2: tuple) -> tuple:
    if tan2 == _POLE:
        return "exact", (0, 1)
    if tan2[0] == "exact":
        u, v = tan2[1]
        return "exact", (v, u + v)  # 1/(1 + u/v), in lowest terms as u/v is
    return _IRRATIONAL


def _root(squared: tuple, sign: int) -> tuple:
    """Verdict on sign * sqrt(squared): a square that is not exact carries over."""
    if squared[0] != "exact":
        return squared
    u, v = squared[1]
    if _is_square(u) and _is_square(v):
        return "exact", (sign * isqrt(u), isqrt(v))
    return _IRRATIONAL


def _is_square(k: int) -> bool:
    return k >= 0 and isqrt(k) ** 2 == k
