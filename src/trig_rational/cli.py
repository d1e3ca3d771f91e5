"""Command-line front end: classify, certify, verify, scan, poly.

Exit codes: 0 success, 1 verification or cross-check failure, a scan
worker that exited without its result, or a stdout closed before the output
was written, 2 usage error.
Each command imports what it uses: `verify` loads only the kernel,
`certify` and `classify` load no kernel, only `scan` loads scan.py, and
json is loaded only by `classify --json`, `verify` and `scan`.

main() flushes stdout itself, so that writing to a reader that has gone
fails there and not at shutdown.  On that failure, in a print (the help
text's too, whose write argparse would ignore) or in the flush, it points
stdout at os.devnull, so that the output left in the buffer goes nowhere,
prints the one line "error: stdout closed" on stderr and exits 1.  It ends
the process by SystemExit, so atexit hooks run as usual, but first, on
every path, it moves every tracked object into the collector's permanent
generation (gc.freeze), which no collection walks, so the interpreter's
full collections at shutdown have nothing to do.  Those objects live until
the process ends anyway; the only garbage among them is the argument
parser's reference cycles, which hold no file.
run() leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

from . import FUNCTIONS

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
    from .exact_core import _cos_fold, _tan_fold

    if function == "cos":
        d, n = _cos_fold(r.numerator, r.denominator)
        return f"{d}/{n}"
    d, n, sign = _tan_fold(r.numerator, r.denominator)
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
    angle = _human_angle(r, args.function)
    if args.json:
        import json

        from .certifier import _rat, verdict_to_tree

        tree = {
            "input": _rat(r),
            "function": args.function,
            "reduced": angle,
            "verdict": verdict_to_tree(verdict),
        }
        print(json.dumps(tree, sort_keys=True))
    else:
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
    # every number in it is at most the input's, which parsed under the same
    # int-to-str digit limit
    print(to_json(cert))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .kernel import MAX_BYTES, verify_certificate_json

    # bytes from both sources, so bad UTF-8 is a verification failure; one
    # byte past the cap is enough for the kernel to reject an oversized input
    if args.file is None or args.file == "-":
        data = getattr(sys.stdin, "buffer", sys.stdin).read(MAX_BYTES + 1)
    else:
        try:
            with open(args.file, "rb") as fh:
                data = fh.read(MAX_BYTES + 1)
        except OSError as e:
            raise ValueError(f"cannot read {args.file}: {e}") from None
    result = verify_certificate_json(data)
    if args.json:
        import json

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


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.max_den < 1:
        raise ValueError("--max-den must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    from .scan import run as scan

    return scan(args.max_den, args.jobs, args.crosscheck, args.bits)


def _angle_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("angle", help="rational multiple of pi, as d/n or d")
    # argparse reads an argument that starts with "-" as an option unless its
    # matcher takes it for a negative number, which "-7/9" is too
    p._negative_number_matcher = re.compile(
        rf"-[0-9]+/[0-9]+$|{p._negative_number_matcher.pattern}")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse ignores an OSError from this write; main() reports it
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trig-rational",
        description="Classify tan^2, tan, cos^2 and cos at rational multiples of pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the verdict for one angle")
    _angle_argument(p)
    p.add_argument("--function", choices=FUNCTIONS, default="tan2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("certify", help="print a verdict certificate as JSON")
    _angle_argument(p)
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
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # see the module docstring
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed", file=sys.stderr)
        code = 1
    finally:
        gc.freeze()
    raise SystemExit(code)
