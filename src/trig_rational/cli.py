"""Command-line front end: classify, certify, verify, scan, poly.

Exit codes: 0 success, 1 verification or cross-check failure or a certificate
that cannot be written, 2 usage error.
Scan output is deterministic (ascending denominator, then numerator) no
matter how many worker processes are used.  Each command imports what it
uses, so `verify` loads only the kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterable
from math import gcd

from .kernel import FUNCTIONS, verify_certificate_json

__all__ = ["run", "main"]

_ANGLE_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")
# The largest N whose coefficients C(N, 2j+1) all print under Python's
# default int-to-str limit of 4,300 digits; `poly` rejects larger N before
# building anything.
POLY_MAX_N = 14291


def _parse_angle(text: str) -> Fraction:
    from fractions import Fraction

    if not _ANGLE_RE.match(text):
        raise ValueError(f"angle must look like d/n or d, got {text!r}")
    num, _, den = text.partition("/")
    n = int(den or 1)
    if n == 0:
        raise ValueError("angle denominator must not be zero")
    return Fraction(int(num), n)


def _human_angle(r: Fraction, function: str) -> str:
    from .angle import _cos_fold, _tan_fold

    if function == "cos":
        d, n = _cos_fold(r)
        return f"{d}/{n}"
    d, n, sign = _tan_fold(r)
    minus = "-" if function == "tan" and sign < 0 else ""
    return f"{minus}{d}/{n}"


def _bits(text: str) -> int:
    """--bits, checked at parse time, before any work."""
    from .highprec import MAX_BITS, MIN_BITS

    if re.fullmatch(r"[0-9]{1,5}", text) and MIN_BITS <= int(text) <= MAX_BITS:
        return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer in [{MIN_BITS}, {MAX_BITS}]")


def _cmd_classify(args: argparse.Namespace) -> int:
    from .classifier import classify

    r = _parse_angle(args.angle)
    verdict = classify(r, args.function)
    if args.json:
        from .certifier import verdict_to_tree

        tree = {
            "input": f"{r.numerator}/{r.denominator}",
            "function": args.function,
            "reduced": _human_angle(r, args.function),
            "verdict": verdict_to_tree(verdict),
        }
        print(json.dumps(tree, sort_keys=True))
    else:
        angle = _human_angle(r, args.function)
        text = f"exact {verdict.value}" if verdict.kind == "exact" else verdict.kind
        print(f"{args.function}({angle} pi): {text}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .certifier import certify, to_json, verify_certificate

    r = _parse_angle(args.angle)
    cert = certify(r, args.function)
    if args.verify:
        result = verify_certificate(cert)
        if not result:
            print(f"verification failed: {result.reason}", file=sys.stderr)
            return 1
    try:
        text = to_json(cert)
    except ValueError as e:  # a number past the int-to-str digit limit
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # bytes from both sources, so bad UTF-8 is a verification failure
    if args.file is None or args.file == "-":
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        try:
            with open(args.file, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read {args.file}: {e}") from None
    result = verify_certificate_json(data)
    if args.json:
        print(json.dumps({"ok": result.ok, "reason": result.reason}, sort_keys=True))
    elif result.ok:
        print("pass")
    else:
        print(f"fail: {result.reason}")
    return 0 if result.ok else 1


def _cmd_poly(args: argparse.Namespace) -> int:
    if args.n > POLY_MAX_N:
        raise ValueError(f"poly takes N up to {POLY_MAX_N}, got {args.n}")
    from .polynomial import tan_squared_poly

    p = tan_squared_poly(args.n)
    print(str(list(p.coeffs)))
    return 0


def _numerators(n: int) -> list[int]:
    if n == 1:
        return [0]
    return [d for d in range(1, n) if gcd(d, n) == 1]


def _scan_denominator(task: tuple[int, bool, int]) -> tuple[dict, list[str]]:
    from fractions import Fraction

    from .certifier import certify, verify_certificate
    from .classifier import classify

    n, check_numerics, bits = task
    if check_numerics:
        from .highprec import crosscheck
    counts = {f: {"pole": 0, "exact": 0, "irrational": 0} for f in FUNCTIONS}
    failures: list[str] = []
    for d in _numerators(n):
        r = Fraction(d, n)
        for f in FUNCTIONS:
            verdict = classify(r, f)
            counts[f][verdict.kind] += 1
            cert = certify(r, f)
            if cert.verdict != verdict:
                failures.append(f"fail {f} {d}/{n}: certificate verdict disagrees")
                continue
            result = verify_certificate(cert)
            if not result:
                failures.append(f"fail {f} {d}/{n}: {result.reason}")
            elif check_numerics and not crosscheck(r, f, verdict, bits=bits):
                failures.append(f"fail {f} {d}/{n}: numeric cross-check")
    return counts, failures


def _add_scan_results(
    results: Iterable[tuple[dict, list[str]]], totals: dict, failures: list[str]
) -> None:
    """Add each denominator's counts to totals as it arrives, in order."""
    for counts, fails in results:
        for f in FUNCTIONS:
            for kind, c in counts[f].items():
                totals[f][kind] += c
        failures.extend(fails)


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.max_den < 1:
        raise ValueError("--max-den must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    # a generator, not a list: a list of every task would grow with
    # --max-den before any work is done
    tasks = ((n, args.crosscheck, args.bits) for n in range(1, args.max_den + 1))
    totals = {f: {"pole": 0, "exact": 0, "irrational": 0} for f in FUNCTIONS}
    failures: list[str] = []
    # more workers than denominators or CPUs would only idle
    jobs = min(args.jobs, args.max_den, os.cpu_count() or 1)
    if jobs > 1:
        from multiprocessing import Pool  # only scan --jobs pays for this import

        with Pool(processes=jobs) as pool:
            _add_scan_results(pool.imap(_scan_denominator, tasks, chunksize=8), totals, failures)
    else:
        _add_scan_results(map(_scan_denominator, tasks), totals, failures)
    angles = sum(totals[FUNCTIONS[0]].values())
    for line in failures:
        print(line)
    print(f"scanned {angles} angles with denominator <= {args.max_den}")
    for f in FUNCTIONS:
        t = totals[f]
        print(f"{f}: pole={t['pole']} exact={t['exact']} irrational={t['irrational']}")
    print(f"failures: {len(failures)}")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trig-rational",
        description="Classify tan^2, tan, cos^2 and cos at rational multiples of pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the verdict for one angle")
    p.add_argument("angle", help="rational multiple of pi, as d/n or d")
    p.add_argument("--function", choices=FUNCTIONS, default="tan2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("certify", help="print a verdict certificate as JSON")
    p.add_argument("angle", help="rational multiple of pi, as d/n or d")
    p.add_argument("--function", choices=FUNCTIONS, default="tan2")
    p.add_argument(
        "--verify", action="store_true", help="re-verify before printing"
    )
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("verify", help="check a certificate (file or stdin)")
    p.add_argument("file", nargs="?", help="certificate path, - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scan", help="sweep all reduced angles up to a denominator")
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--bits", type=_bits, default=128, help="cross-check precision")
    p.add_argument(
        "--crosscheck", action="store_true", help="also cross-check numerically"
    )
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("poly", help="print the tan^2 polynomial for odd n")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_poly)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
