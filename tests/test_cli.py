"""Tests for the command-line interface."""

import gc
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

from trig_rational import FUNCTIONS
from trig_rational.certifier import certificate_to_tree, certify, to_json
from trig_rational.cli import POLY_MAX_N, run

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


def test_a_negative_fraction_is_an_angle(capsys):
    # argparse reads an argument that starts with "-" as an option unless it
    # looks like a negative number; -7/9 is the angle -7/9 pi, as written
    assert run(["classify", "-7/9"]) == 0
    assert capsys.readouterr().out == "tan2(2/9 pi): irrational\n"
    assert run(["classify", "-7/9", "--function", "cos"]) == 0
    assert capsys.readouterr().out == "cos(7/9 pi): irrational\n"
    assert run(["classify", "--function", "tan", "-5/4"]) == 0
    assert capsys.readouterr().out == "tan(-1/4 pi): exact -1\n"
    assert run(["certify", "-1/3", "--function", "cos"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == "-1/3"
    assert run(["classify", "-7/0"]) == 2
    assert capsys.readouterr().err == "error: angle denominator must not be zero\n"
    # what is no negative number stays an option, and --help is unchanged
    assert run(["classify", "-7/9x"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: angle\n")
    assert run(["classify", "--help"]) == 0
    assert capsys.readouterr().out.startswith(
        "usage: trig-rational classify [-h] [--function {tan2,tan,cos2,cos}] [--json]\n"
        "                              angle\n")


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


# The help of the top level and of every command, and one argparse usage
# error of each, byte for byte at 80 columns: argparse writes them, so a
# change to how the parser is built must leave them as they are.  They read
# the same on Python 3.10 to 3.13.
_HELP = {
    "": (
        "usage: trig-rational [-h] {classify,certify,verify,scan,poly} ...\n"
        "\n"
        "Classify tan^2, tan, cos^2 and cos at rational multiples of pi.\n"
        "\n"
        "positional arguments:\n"
        "  {classify,certify,verify,scan,poly}\n"
        "    classify            print the verdict for one angle\n"
        "    certify             print a verdict certificate as JSON\n"
        "    verify              check a certificate (file or stdin)\n"
        "    scan                sweep all reduced angles up to a denominator\n"
        "    poly                print the tan^2 polynomial for odd n\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "classify": (
        "usage: trig-rational classify [-h] [--function {tan2,tan,cos2,cos}] [--json]\n"
        "                              angle\n"
        "\n"
        "positional arguments:\n"
        "  angle                 rational multiple of pi, as d/n or d\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --function {tan2,tan,cos2,cos}\n"
        "  --json\n"
    ),
    "certify": (
        "usage: trig-rational certify [-h] [--function {tan2,tan,cos2,cos}] [--verify]\n"
        "                             angle\n"
        "\n"
        "positional arguments:\n"
        "  angle                 rational multiple of pi, as d/n or d\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --function {tan2,tan,cos2,cos}\n"
        "  --verify              re-verify before printing\n"
    ),
    "verify": (
        "usage: trig-rational verify [-h] [--json] [file]\n"
        "\n"
        "positional arguments:\n"
        "  file        certificate path, - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json\n"
    ),
    "scan": (
        "usage: trig-rational scan [-h] --max-den MAX_DEN [--jobs JOBS] [--bits BITS]\n"
        "                          [--crosscheck]\n"
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --max-den MAX_DEN\n"
        "  --jobs JOBS\n"
        "  --bits BITS        cross-check precision\n"
        "  --crosscheck       also cross-check numerically\n"
    ),
    "poly": (
        "usage: trig-rational poly [-h] n\n"
        "\n"
        "positional arguments:\n"
        "  n\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
}
_USAGE_ERRORS = {
    (): (
        "usage: trig-rational [-h] {classify,certify,verify,scan,poly} ...\n"
        "trig-rational: error: the following arguments are required: command\n"
    ),
    ("classify",): (
        "usage: trig-rational classify [-h] [--function {tan2,tan,cos2,cos}] [--json]\n"
        "                              angle\n"
        "trig-rational classify: error: the following arguments are required: angle\n"
    ),
    ("certify",): (
        "usage: trig-rational certify [-h] [--function {tan2,tan,cos2,cos}] [--verify]\n"
        "                             angle\n"
        "trig-rational certify: error: the following arguments are required: angle\n"
    ),
    ("verify", "--json=1"): (
        "usage: trig-rational verify [-h] [--json] [file]\n"
        "trig-rational verify: error: argument --json: ignored explicit argument '1'\n"
    ),
    ("scan", "--max-den", "x"): (
        "usage: trig-rational scan [-h] --max-den MAX_DEN [--jobs JOBS] [--bits BITS]\n"
        "                          [--crosscheck]\n"
        "trig-rational scan: error: argument --max-den: invalid int value: 'x'\n"
    ),
    ("poly", "x"): (
        "usage: trig-rational poly [-h] n\n"
        "trig-rational poly: error: argument n: invalid int value: 'x'\n"
    ),
}


def test_help_and_usage_errors_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, text in _HELP.items():
        argv = [command, "--help"] if command else ["--help"]
        assert run(argv) == 0, argv
        assert capsys.readouterr() == (text, ""), argv
    for argv, text in _USAGE_ERRORS.items():
        assert run(list(argv)) == 2, argv
        assert capsys.readouterr() == ("", text), argv


def test_inputs_past_the_digit_limit_are_one_error_line_and_exit_2(capsys):
    # at the default int-from-string limit of 4,300 digits, an angle of
    # 4,402 digits is refused while it is parsed, whatever the command
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    big = "1" + "0" * 4400 + "1"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        for argv in (
            ["classify", f"1/{big}"],
            ["classify", f"{big}/3", "--json"],
            ["certify", f"1/{big}"],
            ["certify", f"-{big}/7", "--function", "cos"],
        ):
            assert run(argv) == 2, argv[0]
            out, err = capsys.readouterr()
            assert out == "", argv[0]
            assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err[:200])
    finally:
        sys.set_int_max_str_digits(old)


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
    assert tree.keys() == {"version", "input", "function", "verdict"}

    assert run(["certify", "3/4", "--function", "tan"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["verdict"] == {"kind": "exact", "value": "-1/1"}

    assert run(["certify", "1/6", "--function", "cos"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["verdict"] == {"kind": "irrational"}

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

    # claim the root 3 of the polynomial at 15
    text = cert_path.read_text(encoding="utf-8")
    tampered = text.replace('{"kind": "irrational"}', '{"kind": "exact", "value": "3/1"}')
    assert tampered != text
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(tampered, encoding="utf-8")
    assert run(["verify", str(bad_path)]) == 1
    assert capsys.readouterr().out == "fail: verdict not entailed\n"

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


def test_verify_command_reads_one_byte_past_the_cap(tmp_path, capsys):
    # a valid certificate padded with spaces to the kernel's cap passes, and
    # one byte more fails on its size
    from trig_rational.kernel import MAX_BYTES

    text = to_json(certify(Fraction(1, 15)))
    path = tmp_path / "cert.json"
    path.write_text(text + " " * (MAX_BYTES - len(text)))
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "pass\n"
    path.write_text(text + " " * (MAX_BYTES + 1 - len(text)))
    assert run(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "fail: certificate: larger than 16384 bytes\n"


def test_verify_reads_no_more_than_the_cap_from_stdin():
    # 100 MB on stdin, with the child's address space capped far below what
    # holding it would take: verify reads one byte past the cap and stops
    import resource

    limit = 64 * 2**20
    chunk = b" " * 10**6
    with subprocess.Popen(
        _module_cmd("verify"), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, bufsize=0,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    ) as proc:
        try:
            proc.stdin.write(to_json(certify(Fraction(1, 15))).encode())
            for _ in range(100):
                proc.stdin.write(chunk)
        except BrokenPipeError:  # verify has stopped reading
            pass
        proc.stdin.close()
        out, err = proc.stdout.read(), proc.stderr.read()
        assert proc.wait(timeout=30) == 1
    assert (out, err) == (b"fail: certificate: larger than 16384 bytes\n", b"")


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
    # classify, certify and scan all read their verdicts through
    # classifier._verdicts, off the tables patched here, and the kernel derives
    # the verdict from the input alone, so a wrong table entry fails certify
    # and every angle it covers
    from trig_rational import classifier
    from trig_rational.certifier import verify_certificate
    from trig_rational.classifier import TrigVerdict

    monkeypatch.setitem(classifier._TAN2_VERDICTS, 5, TrigVerdict.exact(3))
    assert verify_certificate(certify(Fraction(1, 5))).reason == "verdict not entailed"
    # certify --verify then prints no certificate
    assert run(["certify", "1/5", "--verify"]) == 1
    assert capsys.readouterr() == ("", "verification failed: verdict not entailed\n")
    assert run(["scan", "--max-den", "5"]) == 1
    out = capsys.readouterr().out
    assert "fail tan2 1/5: verdict not entailed\n" in out
    assert out.startswith("".join(f"fail tan2 {d}/5: verdict not entailed\n" for d in range(1, 5)))
    assert out.endswith("failures: 4\n")
    # a residue-keyed entry: classify, certify and scan read it the same way
    monkeypatch.setitem(classifier._COS_VERDICTS, (3, 1), TrigVerdict.exact(Fraction(-1, 2)))
    assert classifier.classify(Fraction(1, 3), "cos") == TrigVerdict.exact(Fraction(-1, 2))
    assert verify_certificate(certify(Fraction(1, 3), "cos")).reason == "verdict not entailed"
    assert run(["scan", "--max-den", "3"]) == 1
    out = capsys.readouterr().out
    assert "fail cos 1/3: verdict not entailed\n" in out
    assert out.endswith("failures: 1\n")


def test_scan_builds_no_certificate_record(capsys, monkeypatch):
    # scan hands the kernel the plain form of each claim straight from classify
    from trig_rational import certifier

    def refuse(*args):
        raise AssertionError("scan built a certificate record")

    monkeypatch.setattr(certifier, "Certificate", refuse)
    monkeypatch.setattr(certifier, "certify", refuse)
    assert run(["scan", "--max-den", "30", "--crosscheck"]) == 0
    assert capsys.readouterr().out == (
        "scanned 278 angles with denominator <= 30\n"
        "tan2: pole=1 exact=7 irrational=270\n"
        "tan: pole=1 exact=3 irrational=274\n"
        "cos2: pole=0 exact=8 irrational=270\n"
        "cos: pole=0 exact=4 irrational=274\n"
        "failures: 0\n"
    )


def _phi(n):
    """Euler's totient, from the prime factors of n."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    return result - result // m if m > 1 else result


def _niven_cos(a, m):
    """cos(a pi / m) when it is rational, else None.

    Niven's theorem: at a rational multiple of pi, the only rational values
    of cos are 0, +-1/2 and +-1, at reduced denominators 2, 3 and 1.
    """
    g = math.gcd(a, m)
    a, m = a // g, m // g
    if m == 1:
        return Fraction((-1) ** a)
    if m == 2:
        return Fraction(0)
    if m == 3:
        return Fraction(1 if a % 6 in (1, 5) else -1, 2)
    return None


def _niven_summary(max_den):
    """scan's summary at max_den, from Niven's theorem, without the package.

    Every angle d/n counts once per function: 1 + sum of phi(n) over 2 <= n <= N.
    With c = cos(2 d pi / n): tan^2 = (1 - c)/(1 + c), a pole at c = -1, and
    cos^2 = (1 + c)/2, so both are rational exactly when c is; tan is
    rational exactly when tan^2 is a rational square; cos is read directly.
    """
    angles = 1 + sum(_phi(n) for n in range(2, max_den + 1))
    counts = {f: {"pole": 0, "exact": 0} for f in FUNCTIONS}
    for n in range(1, min(max_den, 6) + 1):  # c is irrational past 6
        for d in range(n):
            if math.gcd(d, n) != 1:
                continue
            c = _niven_cos(2 * d, n)
            if c == -1:
                counts["tan2"]["pole"] += 1
                counts["tan"]["pole"] += 1
            elif c is not None:
                t2 = (1 - c) / (1 + c)
                counts["tan2"]["exact"] += 1
                if all(math.isqrt(k) ** 2 == k for k in (t2.numerator, t2.denominator)):
                    counts["tan"]["exact"] += 1
            if c is not None:
                counts["cos2"]["exact"] += 1
            if _niven_cos(d, n) is not None:
                counts["cos"]["exact"] += 1
    lines = [f"scanned {angles} angles with denominator <= {max_den}"]
    for f in FUNCTIONS:
        pole, exact = counts[f]["pole"], counts[f]["exact"]
        lines.append(f"{f}: pole={pole} exact={exact} irrational={angles - pole - exact}")
    return "".join(line + "\n" for line in lines) + "failures: 0\n"


def test_scan_totals_match_nivens_theorem(capsys, monkeypatch):
    # the stripes' counts add up to the closed form at every J
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for max_den in (1, 2, 3, 5, 6, 30, 97):
        expected = _niven_summary(max_den)
        for jobs in range(1, 5):
            assert run(["scan", "--max-den", str(max_den), "--jobs", str(jobs)]) == 0
            assert capsys.readouterr().out == expected, (max_den, jobs)
    _assert_no_children()


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
    assert (res.returncode, res.stdout) == (1, "fail: certificate: unsupported version 4\n")
    # in version 5 the claim is the certificate: irrational passes, and the
    # root 3 of p_q (not one here, as 3 does not divide the prime) fails
    v5 = {k: v for k, v in v3.items() if k != "steps"} | {"version": 5}
    res = _bounded("verify", stdin=json.dumps(v5))
    assert (res.returncode, res.stdout) == (0, "pass\n")
    v5["verdict"] = {"kind": "exact", "value": "3/1"}
    res = _bounded("verify", stdin=json.dumps(v5))
    assert (res.returncode, res.stdout) == (1, "fail: verdict not entailed\n")


def test_certify_of_a_seven_digit_prime_is_bounded():
    # the value of p_q at a candidate c has about q log2(c) / 2 bits: 10^7
    # bits here, held in memory, had the certificate carried it
    cert = _bounded("certify", "1/1000003", "--verify")
    assert cert.returncode == 0, cert.stderr
    assert len(cert.stdout) < 200
    res = _bounded("verify", stdin=cert.stdout)
    assert (res.returncode, res.stdout) == (0, "pass\n")


def _program_imports(*args, stdin=None):
    """Modules a CLI command imports, from -X importtime, after site.

    What site's .pth files load is listed before site itself and is not the
    program's.
    """
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "trig_rational", *args],
        input=stdin, capture_output=True, text=True, check=True,
    )
    program = re.split(r"\| site$", res.stderr, flags=re.M)[-1]
    return set(re.findall(r"\| +([\w.]+)$", program, re.M))


def test_generator_commands_start_without_dataclasses():
    # the value types are plain classes: neither dataclasses nor the inspect
    # module it pulls in is loaded, and scan loads highprec only to cross-check
    certify = _program_imports("certify", "1/15")
    scan = _program_imports("scan", "--max-den", "3")
    assert "trig_rational.certifier" in certify
    assert "trig_rational.scan" in scan
    for modules in (certify, scan):
        assert not modules & {"dataclasses", "inspect"}, modules
    assert "trig_rational.highprec" not in scan, scan
    # the doubling lemma needs no polynomial: certify evaluates none
    assert "trig_rational.polynomial" not in certify, certify
    # the classifier reads the reduced fraction and folds nothing
    assert "trig_rational.angle" not in certify, certify
    # the cross-check encloses values numerically and builds no polynomial;
    # scan hands the kernel plain claims, and the folds are integer helpers,
    # so neither the certificate records nor the angle records are loaded
    crosscheck = _program_imports("scan", "--max-den", "3", "--crosscheck")
    assert "trig_rational.highprec" in crosscheck
    for modules in (scan, crosscheck):
        assert not modules & {
            "trig_rational.polynomial", "trig_rational.certifier", "trig_rational.angle"}, modules


def test_generator_commands_load_no_kernel():
    # the kernel checks certificates; certify and classify only make them.
    # certify writes by template, so it needs no json; only scan loads scan.py
    generated = _program_imports("certify", "1/15")
    assert not generated & {"trig_rational.kernel", "json", "trig_rational.scan"}, generated
    assert "trig_rational.kernel" not in _program_imports("classify", "1/15")
    verify = _program_imports("verify", stdin=to_json(certify(Fraction(1, 15))))
    assert "trig_rational.scan" not in verify, verify


def test_scan_loads_the_kernel_before_it_forks():
    # else each stripe would compile the kernel on its first check
    code = """
import os, sys
from trig_rational import cli
seen, fork = [], os.fork
def recording_fork():
    seen.append("trig_rational.kernel" in sys.modules)
    return fork()
os.fork, os.cpu_count = recording_fork, lambda: 2
status = cli.run(["scan", "--max-den", "9", "--jobs", "2"])
print(status, seen)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.endswith("failures: 0\n0 [True]\n"), res.stdout + res.stderr


def test_run_leaves_the_collector_as_it_found_it(capsys):
    # only main() freezes the collector; tests and library callers keep theirs
    frozen = gc.get_freeze_count()
    for argv, status in (
        (["scan", "--max-den", "12"], 0),
        (["certify", "1/15"], 0),
        (["classify", "abc"], 2),
    ):
        assert run(argv) == status
        assert gc.get_freeze_count() == frozen, argv
    capsys.readouterr()


# python -m trig_rational, with an atexit hook that reports whether main()
# left the collector frozen when the process ended
_MAIN_WITH_HOOK = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("trig_rational", run_name="__main__", alter_sys=True)
"""


def test_main_freezes_the_collector_and_keeps_the_exit_codes():
    cert = to_json(certify(Fraction(1, 15)))
    forged = cert.replace('{"kind": "irrational"}', '{"kind": "exact", "value": "3/1"}')
    for args, stdin, status, out in (
        (["certify", "1/15"], "", 0, cert + "\n"),
        (["verify"], forged, 1, "fail: verdict not entailed\n"),
        (["classify", "abc"], "", 2, ""),
    ):
        res = subprocess.run(
            [sys.executable, "-c", _MAIN_WITH_HOOK, *args],
            input=stdin, capture_output=True, text=True,
        )
        assert (res.returncode, res.stdout) == (status, out), args
        assert res.stderr.endswith("frozen True\n"), args


def test_poly_into_a_closed_pipe_is_one_line_and_exit_1():
    # poly 2001 | head -c 10: the output is larger than a pipe's buffer, so
    # poly is still writing when its reader goes, and fails in print
    with subprocess.Popen(
        _module_cmd("poly", "2001"), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.read(10) == b"[2001, -13"
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=30)
    assert (status, err) == (1, b"error: stdout closed\n")


def test_scan_into_a_closed_pipe_is_one_line_and_exit_1():
    # scan --max-den 60 | true: the reader is gone before scan writes, so the
    # buffered summary fails in main()'s flush, not at shutdown, whatever the
    # number of stripes; the collector is frozen on this path too
    r, w = os.pipe()
    os.close(r)
    try:
        for jobs in ("1", "2"):
            res = subprocess.run(
                [sys.executable, "-c", _MAIN_WITH_HOOK, "scan", "--max-den", "60", "--jobs", jobs],
                stdout=w, stderr=subprocess.PIPE, text=True, timeout=60,
            )
            assert (res.returncode, res.stderr) == (1, "error: stdout closed\nfrozen True\n")
    finally:
        os.close(w)


def test_one_shot_commands_into_a_closed_pipe_are_one_line_and_exit_1():
    # the reader is gone before anything is written; buffered, the output
    # fails in main()'s flush, and unbuffered in the print itself
    cert = to_json(certify(Fraction(1, 15)))
    unbuffered = dict(os.environ, PYTHONUNBUFFERED="1")
    buffered = {k: v for k, v in unbuffered.items() if k != "PYTHONUNBUFFERED"}
    r, w = os.pipe()
    os.close(r)
    try:
        for args in (["classify", "1/15"], ["classify", "1/15", "--json"], ["certify", "1/15"],
                     ["certify", "1/15", "--verify"], ["verify", "--json"]):
            for env in (buffered, unbuffered):
                res = subprocess.run(
                    _module_cmd(*args), input=cert, stdout=w, stderr=subprocess.PIPE,
                    text=True, env=env, timeout=60,
                )
                assert (res.returncode, res.stderr) == (1, "error: stdout closed\n"), args
    finally:
        os.close(w)


def test_help_into_a_closed_pipe_is_one_line_and_exit_1():
    # argparse ignores an error from its own write of the help text; the
    # help is written so that main() sees it, buffered or not
    unbuffered = dict(os.environ, PYTHONUNBUFFERED="1")
    buffered = {k: v for k, v in unbuffered.items() if k != "PYTHONUNBUFFERED"}
    r, w = os.pipe()
    os.close(r)
    try:
        for command in ([], ["classify"], ["certify"], ["verify"], ["scan"], ["poly"]):
            for env in (buffered, unbuffered):
                res = subprocess.run(
                    _module_cmd(*command, "--help"), stdout=w, stderr=subprocess.PIPE,
                    text=True, env=env, timeout=60,
                )
                assert (res.returncode, res.stderr) == (1, "error: stdout closed\n"), command
    finally:
        os.close(w)


def test_scan_output_in_a_file_is_flushed_at_exit(tmp_path, capsys):
    # a file is block-buffered, so this output is written at exit, after
    # main() has frozen the collector
    path = tmp_path / "scan.txt"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with path.open("w") as fh:
        subprocess.run(_module_cmd("scan", "--max-den", "300"), stdout=fh, env=env, check=True)
    assert run(["scan", "--max-den", "300"]) == 0
    assert path.read_text() == capsys.readouterr().out


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

    from trig_rational import scan as scan_module

    class Stop(Exception):
        pass

    calls = []
    scan = scan_module._scan_denominator

    def scan_denominator(n, check_numerics, bits):
        calls.append(n)
        if len(calls) > 3:
            raise Stop
        return scan(n, check_numerics, bits)

    monkeypatch.setattr(scan_module, "_scan_denominator", scan_denominator)
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
    from trig_rational import scan as scan_module

    parent = os.getpid()
    scan = scan_module._scan_denominator

    def scan_denominator(n, check_numerics, bits):
        if os.getpid() != parent:
            os._exit(3)
        return scan(n, check_numerics, bits)

    monkeypatch.setattr(scan_module, "_scan_denominator", scan_denominator)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with _time_limit(60):
        assert run(["scan", "--max-den", "40", "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: scan worker \d+ exited with status 3\n", err), err
    _assert_no_children()


def test_scan_reaps_workers_when_its_own_stripe_raises(monkeypatch):
    from trig_rational import scan as scan_module

    class Boom(Exception):
        pass

    parent = os.getpid()

    def scan_denominator(n, check_numerics, bits):
        if os.getpid() != parent:
            time.sleep(60)  # still busy when the scan process gives up
        raise Boom

    monkeypatch.setattr(scan_module, "_scan_denominator", scan_denominator)
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
    from trig_rational import scan as scan_module

    scan = scan_module._scan_denominator

    def scan_denominator(n, check_numerics, bits):
        counts, failures = scan(n, check_numerics, bits)
        if n % 5 == 0:
            failures = [f"fail {f} {d}/{n}: injected"
                        for d in scan_module._numerators(n) for f in FUNCTIONS]
        return counts, failures

    monkeypatch.setattr(scan_module, "_scan_denominator", scan_denominator)
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
    phi = sum(len(scan_module._numerators(n)) for n in range(5, 41, 5))
    assert len(keys) == 4 * phi and keys == sorted(keys)
    assert out.endswith(f"failures: {4 * phi}\n")
    _assert_no_children()


def test_scan_reports_each_claim_once_in_function_order(capsys, monkeypatch):
    # at n = 5 the tan2 table claims 3, which the kernel rejects (the
    # cross-check would too, but a claim the kernel rejects is reported only
    # once); at 1/5 cos's enclosure is moved onto 1/2, which only the
    # cross-check sees.  One angle's lines follow FUNCTIONS, for every --jobs
    from trig_rational import classifier, highprec
    from trig_rational.classifier import TrigVerdict

    monkeypatch.setitem(classifier._TAN2_VERDICTS, 5, TrigVerdict.exact(3))
    cos_centre = highprec._cos_centre

    def moved(d, n, bits):
        return 1 << (bits + 3) if (d, n) == (1, 5) else cos_centre(d, n, bits)

    monkeypatch.setattr(highprec, "_cos_centre", moved)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for jobs in ("1", "2"):
        assert run(["scan", "--max-den", "5", "--crosscheck", "--jobs", jobs]) == 1
        assert capsys.readouterr().out == (
            "fail tan2 1/5: verdict not entailed\n"
            "fail cos 1/5: numeric cross-check\n"
            "fail tan2 2/5: verdict not entailed\n"
            "fail tan2 3/5: verdict not entailed\n"
            "fail tan2 4/5: verdict not entailed\n"
            "scanned 10 angles with denominator <= 5\n"
            "tan2: pole=1 exact=9 irrational=0\n"
            "tan: pole=1 exact=3 irrational=6\n"
            "cos2: pole=0 exact=6 irrational=4\n"
            "cos: pole=0 exact=4 irrational=6\n"
            "failures: 5\n"
        )
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
