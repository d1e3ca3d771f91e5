"""Benchmark for trig-rational: three workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {scan,wire,pipe} --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src; nothing is
installed or built. With --trace 0 the run measures end-to-end metrics; with
--trace 1 it replays the same inputs stage by stage, with a span around every
call into the package, and reports per-layer metrics. The last line of
standard output is the result object; the line before it ("report {...}")
holds the environment, sample counts and failure reasons.

Each workload is a closed loop over a fixed list of requests, cycled until
--seconds is up, one-client requests alternating with two-way ones (scan:
--jobs 2; wire and pipe: two clients at once):
  scan  `python -m trig_rational scan --max-den 72 --crosscheck`, at jobs 1
        and at jobs 2. Odd parts repeat across many numerators, so the memo
        caches, warm verification and the numeric cross-check dominate; no
        wire.
  wire  every reduced angle up to 48 for all four functions, certify + to_json
        in one process, whose output a second process then reads with
        verify_certificate_json. Certify is cheap per odd part; encoding and
        parsing dominate.
  pipe  `certify A --function F | verify`, two fresh processes per input, over
        12 angles whose odd parts are spaced evenly over [301, 2527]; two-way
        requests pair neighbours. Nothing is shared, so polynomial build,
        exclusions, cold verify and start-up dominate. Larger odd parts hit
        the int-to-str digit limit of the wire encoder; the traced pipe run
        certifies three of them (workload.DEFECT_PROBE) and counts their
        failures.

Every request is timed at its fastest repeat (see Run.end_to_end). op_p50_s
and op_tail_s are taken over the one-client requests, so on scan and wire,
which have one request of each kind, they are equal. ops_per_s and
par_ops_per_s are the operations of one pass through the requests over its
time. The first request of each kind runs once untimed, to warm the page
cache. A failed operation counts as taking its time limit, so it ranks slower
than any success. --tiny shrinks every input for a smoke run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = str(Path(__file__).resolve().parent / "worker.py")
PY = sys.executable

SETUP_PROBES = 25
STARTUP_PROBES = 8
TAIL_PERCENTILE = 75
OVERHEAD_INPUTS = 4000  # inputs per run when measuring the tracing overhead
OP_LIMIT_S = {"scan": 120.0, "wire": 120.0, "pipe": 60.0}
# one-client requests per two-way request: pipe has twice as many one-client
# requests as pairs, so at two to one each gets about as many repeats
ONE_PER_TWO = {"scan": 1, "wire": 1, "pipe": 2}
RUN_LIMIT_S = 150.0  # every request ends by then, so the run exits within 180 s


@dataclass
class Outcome:
    """One request: its latency, operations attempted, failed, and why."""

    latency: float
    ops: int
    failed: int = 0
    wrong: int = 0
    reasons: Counter = field(default_factory=Counter)


class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.tiny = args.tiny
        self.tiny_args = ["--tiny"] if args.tiny else []
        self.started = perf_counter()
        self.env = dict(os.environ)
        # the digit limit stays at Python's default so the known crash shows
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.env["PYTHONPATH"] = str(SRC)

    def limit(self, op_limit: float) -> float:
        left = RUN_LIMIT_S - (perf_counter() - self.started)
        return max(1.0, min(op_limit, left))

    def popen(self, cmd: list[str], **kw) -> subprocess.Popen:
        return subprocess.Popen(cmd, cwd=ROOT, env=self.env, **kw)

    def run(self, cmd: list[str], timeout: float, stdin: bytes | None = None):
        """(returncode, stdout, stderr); returncode is None on timeout."""
        p = self.popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            out, err = p.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            out, err = p.communicate()
            return None, out, err
        return p.returncode, out, err

    # ------------------------------------------------------------ set-up --

    def setup_probe(self) -> float:
        """Launch to ready: interpreter, package import and input generation."""
        cmd = [PY, WORKER, "ready", self.workload, str(self.seed), *self.tiny_args]
        start = perf_counter()
        p = self.popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = p.stdout.readline().decode()
        elapsed = perf_counter() - start
        _, err = p.communicate(timeout=self.limit(60.0))
        if p.returncode != 0 or line.strip() != f"ready {SRC / 'trig_rational' / '__init__.py'}":
            sys.stderr.write(err.decode())
            raise SystemExit(f"set-up failed: package not importable from {SRC}")
        return elapsed

    # -------------------------------------------------------------- scan --

    def scan_request(self, max_den: int, jobs: int) -> Outcome:
        expected = workload.expected_scan_counts(max_den)
        angles = sum(expected["tan2"].values())
        ops = angles * len(workload.FUNCTIONS)
        cmd = [PY, "-m", "trig_rational", "scan", "--max-den", str(max_den),
               "--crosscheck", "--jobs", str(jobs)]
        start = perf_counter()
        code, out, err = self.run(cmd, self.limit(OP_LIMIT_S["scan"]))
        outcome = Outcome(perf_counter() - start, ops)
        lines = out.decode().splitlines()
        counts, reported_failures = _parse_scan(lines)
        if code is None:
            outcome.failed, outcome.reasons["timeout"] = ops, 1
        elif counts is None:
            outcome.failed, outcome.reasons[f"exit {code}, no summary"] = ops, 1
        elif counts != expected or f"scanned {angles} angles" not in out.decode():
            outcome.failed = outcome.wrong = ops
            outcome.reasons["counts differ from the reference table"] = 1
        elif reported_failures or code != 0:
            outcome.failed = outcome.wrong = max(reported_failures, 1)
            outcome.reasons[f"exit {code}, failures: {reported_failures}"] = 1
        return outcome

    # -------------------------------------------------------------- wire --

    def wire_request(self) -> Outcome:
        """The generator writes every certificate, then a second process reads
        and verifies them: one process busy at a time, as for one client."""
        inputs = workload.wire_inputs(self.seed, self.tiny)
        start = perf_counter()
        gen, certs, _ = self.run([PY, WORKER, "gen", str(self.seed), *self.tiny_args],
                                 self.limit(OP_LIMIT_S["wire"]))
        check, out, _ = self.run([PY, WORKER, "check"], self.limit(OP_LIMIT_S["wire"]), certs)
        outcome = Outcome(perf_counter() - start, len(inputs))
        results = out.decode().splitlines()
        for i, (r, f) in enumerate(inputs):
            line = results[i] if i < len(results) else "fail missing"
            _judge_line(outcome, line, workload.expected_verdict(r, f))
        if gen is None or check is None:
            outcome.reasons["timeout"] += 1
        elif gen or check:
            outcome.reasons[f"exit {gen}/{check}"] += 1
        return outcome

    # -------------------------------------------------------------- pipe --

    def pipe_request(self, angle: Fraction, function: str) -> Outcome:
        limit = self.limit(OP_LIMIT_S["pipe"])
        cert_cmd = [PY, "-m", "trig_rational", "certify", "--function", function,
                    "--", workload.angle_text(angle)]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        start = perf_counter()
        certify = self.popen(cert_cmd, **pipes)
        verify = self.popen([PY, "-m", "trig_rational", "verify"],
                            stdin=subprocess.PIPE, **pipes)
        try:
            text, err = certify.communicate(timeout=limit)
            out, _ = verify.communicate(text, timeout=limit)
        except subprocess.TimeoutExpired:
            for p in (certify, verify):
                p.kill()
                p.communicate()
            outcome = Outcome(limit, 1, failed=1)
            outcome.reasons["timeout"] = 1
            return outcome
        outcome = Outcome(perf_counter() - start, 1)
        if certify.returncode != 0:
            outcome.failed = 1
            last = (err.decode().strip().splitlines() or [""])[-1]
            outcome.reasons[f"certify exit {certify.returncode}: {last[:120]}"] = 1
        elif out.strip() != b"pass" or verify.returncode != 0:
            outcome.failed = outcome.wrong = 1
            outcome.reasons[f"verify: {out.decode().strip()[:120]}"] = 1
        elif workload.verdict_of(text.decode()) != ("irrational", None):
            outcome.failed = outcome.wrong = 1
            outcome.reasons["verdict is not irrational"] = 1
        return outcome

    # ------------------------------------------------------- end to end --

    def requests(self):
        """(one-client requests, two-way requests), each a list of calls that
        return an Outcome; the run cycles through both lists in order."""
        if self.workload == "scan":
            max_den = workload.scan_max_den(self.tiny)
            return ([partial(self.scan_request, max_den, 1)],
                    [partial(self.scan_request, max_den, 2)])
        if self.workload == "wire":
            one = [self.wire_request]
            pairs = [(self.wire_request, self.wire_request)]
        else:
            # neighbours in odd part go together, so a pair's two costs are alike
            inputs = workload.inputs_for("pipe", self.seed, self.tiny)
            one = [partial(self.pipe_request, r, f) for r, f in inputs]
            pairs = list(zip(one[0::2], one[1::2]))
        return one, [partial(_at_once, *pair) for pair in pairs]

    def end_to_end(self, report: dict) -> tuple[dict, list[Outcome]]:
        """Cycle through the requests until --seconds is up; time each at its
        fastest repeat.

        The shared host has slow spells of seconds to minutes, and they only
        ever add time, so a request's fastest repeat is the program's own
        cost. Each request repeats many times over the run, so some repeat
        almost always misses the spells, while the median of a run follows
        them. Set-up probes are spread over the run.
        """
        one, two = self.requests()
        warm = [one[0](), two[0]()]  # untimed, still checked
        a: list[list[Outcome]] = [[] for _ in one]
        b: list[list[Outcome]] = [[] for _ in two]
        setup = [self.setup_probe()]
        host = [host_probe()]
        start = perf_counter()
        ones = twos = 0
        while perf_counter() - start < self.seconds:
            for _ in range(ONE_PER_TWO[self.workload]):
                a[ones % len(one)].append(one[ones % len(one)]())
                ones += 1
            b[twos % len(two)].append(two[twos % len(two)]())
            twos += 1
            while len(setup) < SETUP_PROBES and (
                (perf_counter() - start) * SETUP_PROBES >= len(setup) * self.seconds
            ):
                setup.append(self.setup_probe())
                host.append(host_probe())
        limit = OP_LIMIT_S[self.workload]
        best_a = [_best(runs, limit) for runs in a if runs]
        best_b = [_best(runs, limit) for runs in b if runs]
        latencies = sorted(t for t, _ in best_a)
        tail_rank = _rank(len(latencies), TAIL_PERCENTILE)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report.update(
            host_probe_s=statistics.median(host),
            setup_samples_s=setup,
            one_client_requests=sum(map(len, a)),
            two_way_requests=sum(map(len, b)),
            repeats_per_request=[len(runs) for runs in a + b],
            tail_percentile=f"p{TAIL_PERCENTILE}",
            requests_beyond_tail=len(latencies) - tail_rank,
            one_client_best_s=[t for t, _ in best_a],
            two_way_best_s=[t for t, _ in best_b],
        )
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (_throughput(best_a), "1/s"),
            "par_ops_per_s": (_throughput(best_b), "1/s"),
            "op_p50_s": (latencies[_rank(len(latencies), 50) - 1], "s"),
            "op_tail_s": (latencies[tail_rank - 1], "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        return metrics, warm + [o for runs in a + b for o in runs]

    # ----------------------------------------------------------- traced --

    def traced(self, report: dict) -> tuple[dict, int, int, bool]:
        """Stage replay in fresh processes, with spans around each call.

        The overhead ratio is the median over three back-to-back pairs of
        untraced and traced runs on an evenly strided sample of the inputs,
        so host drift cancels within a pair. Then one traced run covers all
        inputs; its certificates go to a process that never certified (cold
        verify), and another replays the exclusions cold.
        """
        args = [self.workload, str(self.seed)]
        limit = self.limit(OP_LIMIT_S[self.workload])
        replayed = workload.traced_inputs(self.workload, self.seed, self.tiny)
        stride = -(-len(replayed) // OVERHEAD_INPUTS)
        ratios = []
        for first in (False, True, False):
            wall = {}
            for on in (first, not first):
                role = ["stages", *args, str(int(on)), str(stride)]
                wall[on] = self.worker_stats(role, limit)[1]["wall_s"]
            ratios.append(wall[True] / wall[False])
        lines, stats = self.worker_stats(["stages", *args, "1", "1"], limit)
        certs = [ln for ln in lines if ln.startswith(b"{")]
        verdicts, cold = self.worker_stats(["verify-cold"], limit, stdin=b"\n".join(certs))
        replay = self.worker_stats(["exclusions", *args], limit)[1]
        startup = []
        for _ in range(STARTUP_PROBES):
            start = perf_counter()
            code, _, _ = self.run([PY, "-m", "trig_rational", "--help"], limit)
            startup.append(perf_counter() - start)
            if code != 0:
                raise SystemExit("trig_rational --help failed")

        inputs = [x for x, ln in zip(replayed, lines) if ln.startswith(b"{")]
        cold_wrong = sum(
            _parse_ok(ln.decode()) != workload.expected_verdict(*x)
            for x, ln in zip(inputs, verdicts)
        ) + len(inputs) - len(verdicts)
        layers = {**stats["layers"], **cold["layers"], **replay["layers"]}

        def layer(name: str, key: str):
            return layers.get(name, {}).get(key, 0)

        metrics = {
            "cli.startup_s": (statistics.median(startup), "s"),
            "trace.overhead_ratio": (statistics.median(ratios), "ratio"),
            "certifier.to_json.bytes": (stats["to_json_bytes"], "bytes"),
            "certifier.to_json.errors": (layer("certifier.to_json", "errors"), "count"),
        }
        for name in PER_LAYER_TIMED:
            metrics[f"{name}.busy_s"] = (layer(name, "busy_s"), "s")
        for name in PER_LAYER_COUNTED:
            metrics[f"{name}.calls"] = (layer(name, "calls"), "count")
        report.update(traced_inputs=stats["attempted"], certificates=len(certs),
                      overhead_ratios=ratios, overhead_stride=stride,
                      startup_samples_s=startup)
        wrong = stats["wrong"] + cold_wrong
        failed = wrong + len(lines) - len(certs)
        return metrics, stats["attempted"], failed, wrong == 0

    def worker_stats(self, role: list[str], timeout: float, stdin: bytes | None = None):
        """Run a worker role; (its output lines as bytes, its final stats)."""
        code, out, err = self.run([PY, WORKER, *role, *self.tiny_args], timeout, stdin)
        lines = out.split(b"\n")
        while lines and not lines[-1]:
            lines.pop()
        if code != 0 or not lines or not lines[-1].startswith(b"stats "):
            sys.stderr.write(err.decode()[-2000:])
            raise SystemExit(f"worker {role[0]} failed (exit {code})")
        return lines[:-1], json.loads(lines[-1][len(b"stats "):])


PER_LAYER_TIMED = (
    "angle", "classifier", "polynomial.build", "certifier.certify",
    "certifier.exclude_nonroot", "certifier.exclude_separation", "certifier.to_json",
    "certifier.from_json", "certifier.verify", "certifier.verify_warm",
    "highprec.crosscheck", "highprec.eval",
)
PER_LAYER_COUNTED = (
    "angle", "classifier", "polynomial.build", "certifier.certify",
    "certifier.exclude_nonroot", "certifier.exclude_separation",
    "highprec.crosscheck", "highprec.eval",
)


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop, as context for the timings.

    The loop never touches the package, so when it slows down the host did:
    shared machines drift by tens of percent over minutes.
    """
    start = perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i % 7
    return perf_counter() - start


def _at_once(first, second) -> Outcome:
    """Two clients at once; the round ends when both have their reply."""
    start = perf_counter()
    with ThreadPoolExecutor(2) as pool:
        outcomes = [f.result() for f in [pool.submit(first), pool.submit(second)]]
    merged = Outcome(perf_counter() - start, 0)
    for o in outcomes:
        merged.ops += o.ops
        merged.failed += o.failed
        merged.wrong += o.wrong
        merged.reasons.update(o.reasons)
    return merged


def _best(runs: list[Outcome], limit: float) -> tuple[float, int]:
    """(fastest latency, operations completed) over the repeats of a request;
    a repeat with a failure counts as taking the time limit."""
    fastest = min(runs, key=lambda o: o.latency if not o.failed else limit)
    return (fastest.latency if not fastest.failed else limit), fastest.ops - fastest.failed


def _throughput(best: list[tuple[float, int]]) -> float:
    """Operations per second over one pass through the requests at their best."""
    return sum(ops for _, ops in best) / sum(t for t, _ in best)


def _rank(n: int, percentile: int) -> int:
    """Nearest rank (1-based) of a percentile among n sorted samples."""
    return max(1, -(-n * percentile // 100))


def _parse_scan(lines: list[str]):
    counts = {}
    failures = None
    for line in lines:
        head, _, rest = line.partition(": ")
        if head in workload.FUNCTIONS:
            counts[head] = {k: int(v) for k, v in (kv.split("=") for kv in rest.split())}
        elif head == "failures":
            failures = int(rest)
    if failures is None or set(counts) != set(workload.FUNCTIONS):
        return None, 0
    return counts, failures


def _parse_ok(line: str):
    """(kind, value) from an "ok KIND [VALUE]" line, else None."""
    parts = line.split()
    if parts[:1] != ["ok"]:
        return None
    if len(parts) == 2:
        return parts[1], None
    if len(parts) == 3:
        return parts[1], Fraction(parts[2])
    return None


def _judge_line(outcome: Outcome, line: str, expected) -> None:
    """Count a wire result line against the reference verdict.

    A generator error or a missing line is a failure; a rejected certificate
    or a verdict off the reference table is also a wrong output.
    """
    got = _parse_ok(line)
    if got == expected:
        return
    outcome.failed += 1
    if line.startswith("fail generator") or line == "fail missing":
        outcome.reasons[line[len("fail "):][:120]] += 1
        return
    outcome.wrong += 1
    reason = line[:120] if got is None else "verdict differs from the reference table"
    outcome.reasons[reason] += 1


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scan", "wire", "pipe"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for a smoke run")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "trig_rational" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    run = Run(args)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
    }
    if args.trace:
        run.setup_probe()
        report["host_probe_s"] = statistics.median(host_probe() for _ in range(5))
        metrics, attempted, failed, correct = run.traced(report)
    else:
        metrics, outcomes = run.end_to_end(report)
        attempted = sum(o.ops for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        correct = not any(o.wrong for o in outcomes)
        reasons = sum((o.reasons for o in outcomes), Counter())
        report["failure_reasons"] = dict(reasons.most_common(10))
    report["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    print("report " + json.dumps(report), flush=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
