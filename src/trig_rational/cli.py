"""Command-line front end: classify, certify, verify, scan, poly.

Exit codes: 0 success, 1 verification or cross-check failure or a scan
worker that exited without its result, 2 usage error.
`scan --jobs J` splits the odd parts q into J stripes, each taking q, 2q, 4q,
... in turn; the scan process loads the package once, forks J - 1 children
that inherit it, runs one stripe itself and reads the others' results from
pipes (one process where os.fork is missing); a child whose scan process
is gone leaves between denominators.  Its output is deterministic
(ascending denominator, then numerator) for every J.  Each command imports
what it uses, so `verify` loads only the kernel.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
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
    # every number in it is at most the input's, which parsed under the same
    # int-to-str digit limit
    print(to_json(cert))
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


def _scan_denominator(n: int, check_numerics: bool, bits: int) -> tuple[dict, list[str]]:
    from fractions import Fraction

    from .certifier import certify, verify_certificate

    if check_numerics:
        from .highprec import crosscheck
    counts = {f: {"pole": 0, "exact": 0, "irrational": 0} for f in FUNCTIONS}
    failures: list[str] = []
    for d in _numerators(n):
        r = Fraction(d, n)
        for f in FUNCTIONS:
            cert = certify(r, f)
            counts[f][cert.verdict.kind] += 1
            result = verify_certificate(cert)
            if not result:
                failures.append(f"fail {f} {d}/{n}: {result.reason}")
            elif check_numerics and not crosscheck(r, f, cert.verdict, bits=bits):
                failures.append(f"fail {f} {d}/{n}: numeric cross-check")
    return counts, failures


def _add_counts(totals: dict, counts: dict) -> None:
    for f in FUNCTIONS:
        for kind, c in counts[f].items():
            totals[f][kind] += c


def _scan_stripe(
    stripe: int, stripes: int, max_den: int, check_numerics: bool, bits: int, scan_pid: int
) -> tuple[dict, list]:
    """Verdict counts, and [n, failure lines] for each n that failed, of one stripe.

    Stripe k of J takes, lazily and in order, each odd part q <= max_den with
    (q // 2) % J == k and, for each q, the denominators q, 2q, 4q, ... <= max_den,
    so the work that n shares with its odd part (and tan^2 with n/2) stays in
    one process and is done just before it is needed.  Run in a forked child,
    the stripe leaves by os._exit between denominators once scan_pid, the
    scan process, is no longer the child's parent: nobody would read it.
    """
    forked = os.getpid() != scan_pid
    counts = {f: {"pole": 0, "exact": 0, "irrational": 0} for f in FUNCTIONS}
    failed: list = []
    for q in range(2 * stripe + 1, max_den + 1, 2 * stripes):
        n = q
        while n <= max_den:
            if forked and os.getppid() != scan_pid:
                os._exit(1)
            n_counts, failures = _scan_denominator(n, check_numerics, bits)
            _add_counts(counts, n_counts)
            if failures:
                failed.append([n, failures])
            n *= 2
    return counts, failed


def _fork_stripe(stripe: int, scan: tuple, children: list) -> tuple[int, io.BufferedReader]:
    """Fork a child that writes _scan_stripe(stripe, *scan) as JSON to a pipe.

    Returns the child's pid and the pipe's read end.  The child leaves only by
    os._exit, so nothing the parent set up (buffers, atexit hooks) runs twice.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for _, fh in children:  # only the parent reads the earlier stripes
                fh.close()
            with open(w, "w") as out:
                json.dump(_scan_stripe(stripe, *scan), out)
            status = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.max_den < 1:
        raise ValueError("--max-den must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    # more stripes than odd parts or CPUs would only idle
    jobs = min(args.jobs, (args.max_den + 1) // 2, os.cpu_count() or 1)
    if not hasattr(os, "fork"):
        jobs = 1
    # loaded once, before any fork, so every stripe inherits them compiled
    from . import certifier, classifier  # noqa: F401

    if args.crosscheck:
        from . import highprec  # noqa: F401
    scan = (jobs, args.max_den, args.crosscheck, args.bits, os.getpid())
    # so that no child writes the parent's buffered output a second time
    sys.stdout.flush()
    sys.stderr.flush()
    children: list[tuple[int, io.BufferedReader]] = []
    try:
        for k in range(1, jobs):
            children.append(_fork_stripe(k, scan, children))
        results = [_scan_stripe(0, *scan)]
        outputs = [fh.read() for _, fh in children]
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, fh in children:
            fh.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    broken = False
    for (pid, _), status, data in zip(children, statuses, outputs):
        if status:
            print(f"error: scan worker {pid} exited with status {status}", file=sys.stderr)
            broken = True
        else:
            results.append(json.loads(data))
    if broken:
        return 1
    totals = {f: {"pole": 0, "exact": 0, "irrational": 0} for f in FUNCTIONS}
    failed = []
    for counts, stripe_failed in results:
        _add_counts(totals, counts)
        failed.extend(stripe_failed)
    failed.sort()  # by n, which is in one stripe only
    failures = [line for _, lines in failed for line in lines]
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
