"""The scan command: classify and check every reduced angle up to a denominator.

Scan works one angle at a time on plain ints (d, n): one call reads the
four verdicts off the classifier's tables (classifier._verdicts, the reader
that classify and certify go through too), and the kernel checks the plain
form of each claim (classifier._plain), so scan builds no Fraction or
Certificate record and loads neither certifier.py nor angle.py; a wrong
classifier still fails with "verdict not entailed".
With the cross-check, highprec checks the four claims of the angle in one
call too (highprec._crosscheck_angle).  A claim the kernel rejects is
reported once, as the kernel's failure; an angle's lines follow FUNCTIONS.

`scan --jobs J` splits the odd parts q into J stripes, each taking q, 2q, 4q,
... in turn; the scan process loads the package once, forks J - 1 children
that inherit it, runs one stripe itself and reads the others' results from
pipes (one process where os.fork is missing); a child whose scan process
is gone leaves between denominators.  Its output is deterministic
(ascending denominator, then numerator) for every J.  Only the scan command
loads this module.
"""

from __future__ import annotations

import io
import json
import os
import sys
from math import gcd

# loaded once, before any fork, so every stripe inherits them compiled
from . import FUNCTIONS
from .classifier import _plain, _verdicts
from .kernel import check

_UNCHECKED = (True,) * len(FUNCTIONS)  # the cross-check results without a cross-check


def _numerators(n: int) -> list[int]:
    if n == 1:
        return [0]
    return [d for d in range(1, n) if gcd(d, n) == 1]


def _scan_denominator(n: int, check_numerics: bool, bits: int) -> tuple[dict, list[str]]:
    if check_numerics:
        from .highprec import _crosscheck_angle
    counts = {f: {"pole": 0, "exact": 0, "irrational": 0} for f in FUNCTIONS}
    failures: list[str] = []
    numeric = _UNCHECKED
    for d in _numerators(n):
        verdicts = _verdicts(d, n)
        if check_numerics:
            numeric = _crosscheck_angle(d, n, zip(FUNCTIONS, verdicts), bits)
        for f, verdict, ok in zip(FUNCTIONS, verdicts, numeric):
            counts[f][verdict.kind] += 1
            result = check(_plain(d, n, f, verdict))
            if not result:
                failures.append(f"fail {f} {d}/{n}: {result.reason}")
            elif not ok:
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


def run(max_den: int, jobs: int, check_numerics: bool, bits: int) -> int:
    """Scan every reduced angle with denominator <= max_den (max_den, jobs >= 1).

    Prints the failures and the counts, and returns the exit status.
    """
    # more stripes than odd parts or CPUs would only idle
    jobs = min(jobs, (max_den + 1) // 2, os.cpu_count() or 1)
    if not hasattr(os, "fork"):
        jobs = 1
    if check_numerics:
        from . import highprec  # noqa: F401
    scan = (jobs, max_den, check_numerics, bits, os.getpid())
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
    print(f"scanned {angles} angles with denominator <= {max_den}")
    for f in FUNCTIONS:
        t = totals[f]
        print(f"{f}: pole={t['pole']} exact={t['exact']} irrational={t['irrational']}")
    print(f"failures: {len(failures)}")
    return 1 if failures else 0
