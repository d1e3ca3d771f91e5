"""Tests for the command-line interface."""

import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from trig_rational.certifier import certificate_to_tree, certify, to_json
from trig_rational.cli import POLY_MAX_N, run
from trig_rational.kernel import FUNCTIONS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_classify_human_output(capsys):
    assert run(["classify", "7/6"]) == 0
    out = capsys.readouterr().out
    assert out == "tan2(1/6 pi): exact 1/3\n"

    assert run(["classify", "1/5"]) == 0
    assert capsys.readouterr().out == "tan2(1/5 pi): irrational\n"

    assert run(["classify", "1/2"]) == 0
    assert capsys.readouterr().out == "tan2(1/2 pi): pole\n"

    assert run(["classify", "3/4", "--function", "tan"]) == 0
    assert capsys.readouterr().out == "tan(-1/4 pi): exact -1\n"

    assert run(["classify", "5/3", "--function", "cos"]) == 0
    assert capsys.readouterr().out == "cos(1/3 pi): exact 1/2\n"

    # an integer angle needs no denominator
    assert run(["classify", "7"]) == 0
    assert capsys.readouterr().out == "tan2(0/1 pi): exact 0\n"


def test_classify_json_output(capsys):
    assert run(["classify", "7/6", "--json"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree == {
        "input": "7/6",
        "function": "tan2",
        "reduced": "1/6",
        "verdict": {"kind": "exact", "value": "1/3"},
    }

    assert run(["classify", "1/2", "--function", "cos2", "--json"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["verdict"] == {"kind": "exact", "value": "0/1"}


def test_usage_errors(capsys):
    assert run(["classify", "1/0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["classify", "abc"]) == 2
    capsys.readouterr()
    assert run(["classify", "7/"]) == 2
    capsys.readouterr()
    assert run(["classify"]) == 2
    capsys.readouterr()
    assert run(["frobnicate", "1/2"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()
    assert run(["classify", "1/6", "--function", "sin"]) == 2
    capsys.readouterr()
    assert run(["--help"]) == 0
    capsys.readouterr()
    # scan checks --bits before any work, whatever the angle; certify has none
    for argv in (
        ["certify", "1/5", "--bits", "5000"],
        ["certify", "1/15", "--bits", "5000"],
        ["certify", "1/5", "--bits", "3"],
        ["certify", "1/15", "--bits", "3"],
        ["certify", "1/15", "--bits", "many"],
        ["scan", "--max-den", "15", "--bits", "7"],
        ["scan", "--max-den", "15", "--bits", "4097"],
        ["certify", "1/5", "--json"],
    ):
        assert run(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_poly_command(capsys):
    assert run(["poly", "7"]) == 0
    assert capsys.readouterr().out == "[-7, 35, -21, 1]\n"
    assert run(["poly", "15"]) == 0
    assert capsys.readouterr().out == (
        "[-15, 455, -3003, 6435, -5005, 1365, -105, 1]\n"
    )
    assert run(["poly", "4"]) == 2
    capsys.readouterr()
    assert run(["poly", "1"]) == 2
    capsys.readouterr()


def test_poly_cap(capsys):
    # the largest coefficient of tan_squared_poly(N) is C(N, (N-1)/2), and a
    # number prints under the 4,300-digit limit iff it is below 10^4300
    limit = 10**4300
    assert math.comb(POLY_MAX_N, POLY_MAX_N // 2) < limit
    assert math.comb(POLY_MAX_N + 2, POLY_MAX_N // 2 + 1) >= limit
    start = time.perf_counter()
    assert run(["poly", str(POLY_MAX_N + 2)]) == 2
    assert time.perf_counter() - start < 0.1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: poly takes N up to {POLY_MAX_N}, got {POLY_MAX_N + 2}\n"


def test_certify_command(capsys):
    assert run(["certify", "1/15", "--verify"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["verdict"] == {"kind": "irrational"}
    assert tree["input"] == "1/15"
    assert [s["type"] for s in tree["steps"]] == ["chain", "poly"]

    assert run(["certify", "3/4", "--function", "tan"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["verdict"] == {"kind": "exact", "value": "-1/1"}

    assert run(["certify", "1/6", "--function", "cos"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["steps"][-1]["type"] == "sqrt_step"

    assert run(["certify", "3", "--function", "cos"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["input"] == "3/1"
    assert tree["verdict"] == {"kind": "exact", "value": "-1/1"}

    # certify has no precision to set
    assert run(["certify", "1/15", "--bits", "128"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_command_with_files(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(to_json(certify(Fraction(1, 15))), encoding="utf-8")
    assert run(["verify", str(cert_path)]) == 0
    assert capsys.readouterr().out == "pass\n"

    # name another odd part in the poly step
    text = cert_path.read_text(encoding="utf-8")
    tampered = text.replace('"q": "15"', '"q": "17"')
    assert tampered != text
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(tampered, encoding="utf-8")
    assert run(["verify", str(bad_path)]) == 1
    assert capsys.readouterr().out == "fail: odd part mismatch\n"

    assert run(["verify", str(bad_path), "--json"]) == 1
    tree = json.loads(capsys.readouterr().out)
    assert tree["ok"] is False and tree["reason"]

    assert run(["verify", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_command_stdin(capsys, monkeypatch):
    text = to_json(certify(Fraction(1, 9), "cos"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["verify", "-"]) == 0
    assert capsys.readouterr().out == "pass\n"

    monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
    assert run(["verify"]) == 1
    assert capsys.readouterr().out.startswith("fail:")


def test_verify_command_hostile_input(capsys, monkeypatch):
    tree = json.loads(to_json(certify(Fraction(1, 6))))
    tree["input"] = "1/" + "7" * 5000
    for text in (json.dumps(tree), "[" * 100000 + "]" * 100000):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(["verify"]) == 1
        assert capsys.readouterr().out.startswith("fail:")


def test_verify_command_bad_utf8(tmp_path, capsys, monkeypatch):
    # bytes that are not UTF-8 fail verification the same way from a file and
    # from stdin: exit 1, not a usage error
    data = b"\xff" + to_json(certify(Fraction(1, 15))).encode()
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert run(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("fail: invalid JSON: 'utf-8' codec can't decode byte 0xff")

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(["verify"]) == 1
    assert capsys.readouterr().out == out

    res = subprocess.run(_module_cmd("verify"), input=data, capture_output=True)
    assert res.returncode == 1
    assert res.stdout.decode() == out


def test_scan_command(capsys):
    assert run(["scan", "--max-den", "30"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "scanned 278 angles with denominator <= 30\n"
        "tan2: pole=1 exact=7 irrational=270\n"
        "tan: pole=1 exact=3 irrational=274\n"
        "cos2: pole=0 exact=8 irrational=270\n"
        "cos: pole=0 exact=4 irrational=274\n"
        "failures: 0\n"
    )


def test_scan_with_crosscheck(capsys):
    assert run(["scan", "--max-den", "12", "--crosscheck", "--bits", "64"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("failures: 0\n")
    assert "scanned 46 angles with denominator <= 12\n" in out


def test_scan_catches_a_wrong_classifier(capsys, monkeypatch):
    # certify proves classify's verdict, and the kernel derives the verdict
    # from the input alone, so a wrong classifier fails the scan
    from trig_rational import certifier
    from trig_rational.certifier import verify_certificate
    from trig_rational.classifier import TrigVerdict

    classify = certifier.classify

    def wrong(r, f):
        return TrigVerdict.exact(3) if (r, f) == (Fraction(1, 5), "tan2") else classify(r, f)

    monkeypatch.setattr(certifier, "classify", wrong)
    assert verify_certificate(certify(Fraction(1, 5))).reason == "verdict not entailed"
    assert run(["scan", "--max-den", "5"]) == 1
    out = capsys.readouterr().out
    assert "fail tan2 1/5: verdict not entailed\n" in out
    assert out.endswith("failures: 1\n")


def test_scan_usage_errors(capsys):
    assert run(["scan", "--max-den", "0"]) == 2
    capsys.readouterr()
    assert run(["scan", "--max-den", "10", "--jobs", "0"]) == 2
    capsys.readouterr()
    assert run(["scan"]) == 2
    capsys.readouterr()


def _module_cmd(*args):
    return [sys.executable, "-m", "trig_rational", *args]


def test_certify_verify_pipe_subprocess():
    first = subprocess.run(
        _module_cmd("certify", "1/15"),
        capture_output=True,
        text=True,
        check=True,
    )
    second = subprocess.run(
        _module_cmd("verify", "-"),
        input=first.stdout,
        capture_output=True,
        text=True,
    )
    assert second.returncode == 0
    assert second.stdout == "pass\n"

    # several functions and shapes through the same pipe, odd parts past
    # 2,527 among them (the wire carries no polynomial values)
    for angle, function in [
        ("1/24", "tan2"),
        ("2/3", "cos"),
        ("1/6", "tan"),
        ("1/2527", "tan2"),
        ("5/10108", "cos"),
        ("1/4999", "tan"),
    ]:
        cert = subprocess.run(
            _module_cmd("certify", angle, "--function", function),
            capture_output=True,
            text=True,
            check=True,
        )
        res = subprocess.run(
            _module_cmd("verify"),
            input=cert.stdout,
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stdout + res.stderr
        assert res.stdout == "pass\n"


# A prime of 20 digits: trial division up to its square root, which a
# candidate list of divisors needs, would take about 3 * 10^9 steps.
_PRIME = 10**19 + 51
# Each hostile case finishes in well under a second; a version that factors
# q or raises (1 + sqrt(-c)) to the q-th power is still busy at this bound.
_BOUND_S = 5


def _bounded(*args, stdin=""):
    return subprocess.run(
        _module_cmd(*args), input=stdin, capture_output=True, text=True, timeout=_BOUND_S
    )


def test_large_prime_odd_part_certifies_and_verifies_in_bounded_time():
    cert = _bounded("certify", f"1/{_PRIME}")
    assert cert.returncode == 0, cert.stderr
    res = _bounded("verify", stdin=cert.stdout)
    assert (res.returncode, res.stdout) == (0, "pass\n")


def test_forged_certificate_for_a_large_prime_is_answered_in_bounded_time():
    # the 1/5 certificate with its input and odd part changed to the prime:
    # in version 3 it listed the divisors of q, which the verifier recomputed
    v3 = {
        "version": 3, "input": f"1/{_PRIME}", "function": "tan2",
        "verdict": {"kind": "irrational"},
        "steps": [
            {"type": "chain", "doublings": "0"},
            {"type": "poly", "q": str(_PRIME), "exclusions": [
                {"candidate": "1", "method": "nonroot", "Q_value": "-4"},
                {"candidate": "5", "method": "nonroot", "Q_value": "-20"}]},
        ],
    }
    res = _bounded("verify", stdin=json.dumps(v3))
    assert (res.returncode, res.stdout) == (1, "fail: certificate: unsupported version 3\n")
    v4 = {**v3, "version": 4, "steps": [v3["steps"][0], {"type": "poly", "q": str(_PRIME)}]}
    res = _bounded("verify", stdin=json.dumps(v4))
    assert (res.returncode, res.stdout) == (0, "pass\n")
    v4["steps"][1]["q"] = str(_PRIME + 2)
    res = _bounded("verify", stdin=json.dumps(v4))
    assert (res.returncode, res.stdout) == (1, "fail: odd part mismatch\n")


def test_certify_of_a_seven_digit_prime_is_bounded():
    # the value of p_q at a candidate c has about q log2(c) / 2 bits: 10^7
    # bits here, held in memory, had the certificate carried it
    cert = _bounded("certify", "1/1000003", "--verify")
    assert cert.returncode == 0, cert.stderr
    assert len(cert.stdout) < 200
    res = _bounded("verify", stdin=cert.stdout)
    assert (res.returncode, res.stdout) == (0, "pass\n")


def _program_imports(*args):
    """Modules a CLI command imports, from -X importtime, after site.

    What site's .pth files load is listed before site itself and is not the
    program's.
    """
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "trig_rational", *args],
        capture_output=True, text=True, check=True,
    )
    program = re.split(r"\| site$", res.stderr, flags=re.M)[-1]
    return set(re.findall(r"\| +([\w.]+)$", program, re.M))


def test_generator_commands_start_without_dataclasses():
    # the value types are plain classes: neither dataclasses nor the inspect
    # module it pulls in is loaded, and scan loads highprec only to cross-check
    certify = _program_imports("certify", "1/15")
    scan = _program_imports("scan", "--max-den", "3")
    assert "trig_rational.certifier" in certify and "trig_rational.certifier" in scan
    for modules in (certify, scan):
        assert not modules & {"dataclasses", "inspect"}, modules
    assert "trig_rational.highprec" not in scan, scan
    # the poly step rests on the doubling lemma: certify evaluates no polynomial
    assert "trig_rational.polynomial" not in certify, certify
    # the cross-check encloses values numerically and builds no polynomial
    crosscheck = _program_imports("scan", "--max-den", "3", "--crosscheck")
    assert "trig_rational.highprec" in crosscheck
    assert "trig_rational.polynomial" not in crosscheck, crosscheck


def test_scan_deterministic_across_jobs():
    one = subprocess.run(
        _module_cmd("scan", "--max-den", "40", "--jobs", "1"),
        capture_output=True,
        text=True,
    )
    four = subprocess.run(
        _module_cmd("scan", "--max-den", "40", "--jobs", "4"),
        capture_output=True,
        text=True,
    )
    assert one.returncode == four.returncode == 0
    assert one.stdout == four.stdout
    assert "jobs" not in one.stdout


def test_scan_jobs_start_without_multiprocessing():
    # the stripes are forked from the scan process: no pool, nothing pickled
    scan = _program_imports("scan", "--max-den", "3", "--jobs", "2")
    assert not scan & {"multiprocessing", "pickle"}, scan


def test_scan_jobs_are_bounded(capsys, monkeypatch):
    # min(J, odd parts, CPUs) stripes, the scan process running one of them;
    # none forked where os has no fork
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    outputs = {}
    for cpus, max_den, jobs, stripes in [
        (2, 1, 100000, 1),
        (None, 12, 100000, 1),
        (2, 12, 100000, 2),
        (2, 12, 2, 2),
        (8, 5, 100000, 3),
        (8, 12, 3, 3),
        (8, 12, 1, 1),
    ]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run(["scan", "--max-den", str(max_den), "--jobs", str(jobs)]) == 0
        outputs.setdefault(max_den, set()).add(capsys.readouterr().out)
        assert len(forks) == stripes - 1, (cpus, max_den, jobs)
        forks.clear()
    monkeypatch.delattr(os, "fork")
    assert run(["scan", "--max-den", "12", "--jobs", "4"]) == 0
    outputs[12].add(capsys.readouterr().out)
    # the output does not depend on the stripes
    assert all(len(outs) == 1 for outs in outputs.values())


def test_scan_makes_tasks_as_it_goes(monkeypatch):
    # the denominators are made lazily, odd part by odd part: stopping after
    # 3 of 10^6 must not have built a task list first (about 105 MB at that size)
    import tracemalloc

    from trig_rational import cli

    class Stop(Exception):
        pass

    calls = []
    scan = cli._scan_denominator

    def scan_denominator(n, check_numerics, bits):
        calls.append(n)
        if len(calls) > 3:
            raise Stop
        return scan(n, check_numerics, bits)

    monkeypatch.setattr(cli, "_scan_denominator", scan_denominator)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            run(["scan", "--max-den", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [1, 2, 4, 8]
    assert peak < 5_000_000, peak


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in this process if the block runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_worker_that_dies_is_an_error(capsys, monkeypatch):
    # a stripe that exits without a result fails the scan instead of hanging it
    from trig_rational import cli

    parent = os.getpid()
    scan = cli._scan_denominator

    def scan_denominator(n, check_numerics, bits):
        if os.getpid() != parent:
            os._exit(3)
        return scan(n, check_numerics, bits)

    monkeypatch.setattr(cli, "_scan_denominator", scan_denominator)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with _time_limit(60):
        assert run(["scan", "--max-den", "40", "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: scan worker \d+ exited with status 3\n", err), err
    _assert_no_children()


def test_scan_reaps_workers_when_its_own_stripe_raises(monkeypatch):
    from trig_rational import cli

    class Boom(Exception):
        pass

    parent = os.getpid()

    def scan_denominator(n, check_numerics, bits):
        if os.getpid() != parent:
            time.sleep(60)  # still busy when the scan process gives up
        raise Boom

    monkeypatch.setattr(cli, "_scan_denominator", scan_denominator)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with _time_limit(30), pytest.raises(Boom):
        run(["scan", "--max-den", "40", "--jobs", "4"])
    _assert_no_children()


def _running(pid):
    """Whether pid is a live process; a zombie that nobody reaps counts as gone."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def test_scan_child_leaves_when_the_scan_process_is_killed():
    # the scan process announces its child's pid and is then SIGKILLed, as a
    # timeout would; the child, deep in a stripe that would take hours,
    # notices between denominators that its parent is gone
    code = """
import os
from trig_rational import cli

os.cpu_count = lambda: 2
fork = os.fork

def announcing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announcing_fork
cli.run(["scan", "--max-den", "1000000", "--jobs", "2"])
"""
    scan = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        child = int(scan.stdout.readline())
        time.sleep(0.5)  # both stripes under way
    finally:
        scan.kill()
        scan.wait()
        scan.stdout.close()
    deadline = time.monotonic() + 20
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    gone = not _running(child)
    if not gone:
        os.kill(child, signal.SIGKILL)
    assert gone, "the scan child outlived its scan process"


def test_scan_failures_print_in_order_for_every_jobs(capsys, monkeypatch):
    # children inherit the patch; their failure lines come back in n order
    from trig_rational import cli

    scan = cli._scan_denominator

    def scan_denominator(n, check_numerics, bits):
        counts, failures = scan(n, check_numerics, bits)
        if n % 5 == 0:
            failures = [f"fail {f} {d}/{n}: injected" for d in cli._numerators(n) for f in FUNCTIONS]
        return counts, failures

    monkeypatch.setattr(cli, "_scan_denominator", scan_denominator)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    outputs = set()
    for jobs in range(1, 5):
        assert run(["scan", "--max-den", "40", "--jobs", str(jobs)]) == 1
        outputs.add(capsys.readouterr().out)
    (out,) = outputs
    keys = []
    for line in out.splitlines():
        if line.startswith("fail "):
            _, f, angle, _ = line.split()
            d, n = map(int, angle.rstrip(":").split("/"))
            keys.append((n, d, FUNCTIONS.index(f)))
    phi = sum(len(cli._numerators(n)) for n in range(5, 41, 5))
    assert len(keys) == 4 * phi and keys == sorted(keys)
    assert out.endswith(f"failures: {4 * phi}\n")
    _assert_no_children()


def test_scan_cos_cache_misses_as_an_unbounded_one(capsys, monkeypatch):
    # odd part by odd part, a scan visits n/2 just before n, whose tan^2
    # reads cos at n/2, so the bounded cache never runs a series twice
    import functools

    from trig_rational import highprec

    def misses(cos_raw):
        monkeypatch.setattr(highprec, "_cos_raw", cos_raw)
        # every cache starts cold, or a warm tan^2 cache would skip cos reads
        for cached in vars(highprec).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        assert run(["scan", "--max-den", "100", "--crosscheck"]) == 0
        capsys.readouterr()
        return cos_raw.cache_info().misses

    bounded = highprec._cos_raw
    unbounded = functools.lru_cache(maxsize=None)(bounded.__wrapped__)
    got = misses(bounded)
    assert got == misses(unbounded)
    # the coarse witness reads cos at the same bits for tan^2 at n and cos
    # at n/2, so it runs no more series than starting every claim at --bits
    assert got <= 1624


def _readme_examples():
    """(command line, expected output) for each `$ trig-rational` example."""
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for example in block.split("\n\n"):
            first, *output = example.strip().split("\n")
            if first.startswith("$ trig-rational "):
                yield first[2:], "".join(line + "\n" for line in output)


def test_readme_examples(capsys, monkeypatch):
    examples = list(_readme_examples())
    assert len(examples) >= 6
    for line, expected in examples:
        # each stage of a pipe is one call, its output the next one's stdin
        stdin = ""
        for stage in line.split(" | "):
            argv = shlex.split(stage)
            assert argv[0] == "trig-rational", line
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            assert run(argv[1:]) == 0, line
            stdin = capsys.readouterr().out
        assert stdin == expected, line

    example = re.search(r"## Certificate format.*?```json\n(.*?)```", README, re.S)
    tree = json.loads(example[1])
    r = Fraction(tree["input"])
    assert tree == certificate_to_tree(certify(r, tree["function"]))
