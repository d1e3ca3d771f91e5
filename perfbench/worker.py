"""Benchmark-side processes that drive trig_rational through its public API.

    python perfbench/worker.py ready WORKLOAD SEED [--tiny]
        import the package, build the inputs, print "ready" (set-up probe)
    python perfbench/worker.py gen SEED [--tiny]
        certify + to_json every wire input, one JSON line (or "error ...") each
    python perfbench/worker.py check
        verify_certificate_json every stdin line; print "ok KIND [VALUE]" or
        "fail REASON" per line
    python perfbench/worker.py stages WORKLOAD SEED TRACE STRIDE [--tiny]
        the per-input stage loop over every STRIDE-th input, with spans around
        each call when TRACE is 1; one certificate line (or "error ...") per
        input, then "stats {...}"
    python perfbench/worker.py verify-cold
        from_json + verify_certificate per stdin line in a process that never
        certified; "ok ..."/"fail ..." per line, then "stats {...}"
    python perfbench/worker.py exclusions WORKLOAD SEED [--tiny]
        cold replay of the polynomial build and candidate exclusions in the
        order certify meets them; "stats {...}"

Only names in trig_rational.__all__ are used, and no cache is cleared: cold
state comes from starting a fresh process.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import workload
import trig_rational as tr

BITS = 128


class Spans:
    """Spans around calls into the package, kept in memory until the end.

    Each span is (name, request, start, end, ok); a request is one input.
    When off, call() adds one branch and nothing is recorded.
    """

    def __init__(self, on: bool) -> None:
        self.on = on
        self.spans: list[tuple[str, int, float, float, bool]] = []

    def record(self, name: str, request: int, start: float, ok: bool = True) -> None:
        self.spans.append((name, request, start, perf_counter(), ok))

    def call(self, name: str, request: int, fn, *args):
        if not self.on:
            return fn(*args)
        start = perf_counter()
        ok = False
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            self.record(name, request, start, ok)

    def summary(self) -> dict:
        layers: dict[str, dict] = {}
        for name, _, start, end, ok in self.spans:
            s = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "errors": 0})
            s["calls"] += 1
            s["busy_s"] += end - start
            s["errors"] += not ok
        return {"layers": layers}


def _verdict_line(text: str) -> str:
    verdict = workload.verdict_of(text)
    if verdict is None:
        return "fail no verdict"
    kind, value = verdict
    return f"ok {kind}" if value is None else f"ok {kind} {value}"


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def cmd_ready(name: str, seed: int, tiny: bool) -> None:
    workload.inputs_for(name, seed, tiny)
    _emit(f"ready {tr.__file__}")


def cmd_gen(seed: int, tiny: bool) -> None:
    for r, f in workload.wire_inputs(seed, tiny):
        try:
            _emit(tr.to_json(tr.certify(r, f)))
        except (ValueError, ArithmeticError) as e:
            _emit(f"error {type(e).__name__}: {e}")


def cmd_check() -> None:
    for line in sys.stdin:
        if not line.startswith("{"):
            _emit(f"fail generator {line.strip()[:200]}")
            continue
        result = tr.verify_certificate_json(line)
        _emit(_verdict_line(line) if result.ok else f"fail {result.reason}")


def _chain_to_odd_part(r):
    """Reduction and doubling chain down to the odd part, as certify walks it."""
    red = tr.reduce_for_tan(r)
    _, q = tr.odd_part(red.n)
    chain = tr.doubling_chain(tr.ReducedAngle(red.d, red.n), q)
    return red, q, chain


def _angle_stage(r, f):
    red = _chain_to_odd_part(r)[0]
    if f == "cos":
        tr.reduce_for_cos(r)
    return red


def _eval_stage(r, f, red):
    if f == "cos":
        return tr.eval_cos(r, BITS)
    if red.n != 2:
        return tr.eval_tan_squared(red, BITS)
    return None


def cmd_stages(name: str, seed: int, on: bool, stride: int, tiny: bool) -> None:
    spans = Spans(on)
    wrong = 0
    wire_bytes = 0
    start = perf_counter()
    inputs = workload.traced_inputs(name, seed, tiny)[::stride]
    for i, (r, f) in enumerate(inputs):
        red = spans.call("angle", i, _angle_stage, r, f)
        verdict = spans.call("classifier", i, tr.classify, r, f)
        cert = spans.call("certifier.certify", i, tr.certify, r, f)
        warm = spans.call("certifier.verify_warm", i, tr.verify_certificate, cert)
        spans.call("highprec.eval", i, _eval_stage, r, f, red)
        numeric = spans.call("highprec.crosscheck", i, tr.crosscheck, r, f, verdict, BITS)
        expected = workload.expected_verdict(r, f)
        got = (verdict.kind, verdict.value)
        if not (warm.ok and numeric and got == expected and cert.verdict == verdict):
            wrong += 1
        try:
            text = spans.call("certifier.to_json", i, tr.to_json, cert)
        except ValueError as e:
            _emit(f"error {type(e).__name__}: {e}")
            continue
        wire_bytes += len(text)
        _emit(text)
    wall = perf_counter() - start
    stats = {"wall_s": wall, "attempted": len(inputs), "wrong": wrong,
             "to_json_bytes": wire_bytes, **spans.summary()}
    _emit("stats " + json.dumps(stats))


def cmd_verify_cold() -> None:
    spans = Spans(True)
    for i, line in enumerate(sys.stdin):
        try:
            cert = spans.call("certifier.from_json", i, tr.from_json, line)
        except tr.CertificateFormatError as e:
            _emit(f"fail {e}")
            continue
        result = spans.call("certifier.verify", i, tr.verify_certificate, cert)
        _emit(_verdict_line(line) if result.ok else f"fail {result.reason}")
    _emit("stats " + json.dumps(spans.summary()))


def cmd_exclusions(name: str, seed: int, tiny: bool) -> None:
    spans = Spans(True)
    built: set[int] = set()
    done: set[tuple[int, int]] = set()
    for i, (r, _) in enumerate(workload.traced_inputs(name, seed, tiny)):
        _, q, chain = _chain_to_odd_part(r)
        if q < 5:
            continue
        if q not in built:
            built.add(q)
            spans.call("polynomial.build", i, tr.tan_squared_poly, q)
        d_prime = chain.angles[-1].d
        if (q, d_prime) in done:
            continue
        done.add((q, d_prime))
        for c in tr.divisors(q):
            start = perf_counter()
            exclusion = tr.exclude_candidate(q, d_prime, c, BITS)
            spans.record(f"certifier.exclude_{exclusion.method}", i, start)
    _emit("stats " + json.dumps(spans.summary()))


def main(argv: list[str]) -> None:
    tiny = "--tiny" in argv
    args = [a for a in argv if a != "--tiny"]
    role = args[0]
    if role == "ready":
        cmd_ready(args[1], int(args[2]), tiny)
    elif role == "gen":
        cmd_gen(int(args[1]), tiny)
    elif role == "check":
        cmd_check()
    elif role == "stages":
        cmd_stages(args[1], int(args[2]), args[3] == "1", int(args[4]), tiny)
    elif role == "verify-cold":
        cmd_verify_cold()
    elif role == "exclusions":
        cmd_exclusions(args[1], int(args[2]), tiny)
    else:
        raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
