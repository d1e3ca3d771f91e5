"""Tests for the command-line interface."""

import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

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


def test_unwritable_certificate_exits_1(capsys):
    # at Python's default int-to-str digit limit the Q_value at the candidate
    # 4999 (30,701 bits) cannot be written: a failed run, not a usage error;
    # argument errors keep exit 2 (test_usage_errors, test_poly_command, ...)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        for argv in (["certify", "1/4999"], ["certify", "1/4999", "--verify"]):
            assert run(argv) == 1, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: Exceeds the limit (4300 digits)")
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

    # corrupt one digit of the exact value at the candidate 1
    text = cert_path.read_text(encoding="utf-8")
    tampered = text.replace('"128"', '"129"')
    assert tampered != text
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(tampered, encoding="utf-8")
    assert run(["verify", str(bad_path)]) == 1
    assert capsys.readouterr().out.startswith("fail:")

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

    # several functions and shapes through the same pipe; odd part 2527 is the
    # largest whose Q_values still fit the int-to-str digit limit
    for angle, function in [
        ("1/24", "tan2"),
        ("2/3", "cos"),
        ("1/6", "tan"),
        ("1/2527", "tan2"),
        ("5/10108", "cos"),
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


def test_scan_jobs_are_bounded(capsys, monkeypatch):
    # the pool gets min(J, denominators, CPUs) workers; one worker means none
    import multiprocessing
    import os

    sizes = []

    class PoolRecorder:
        """Stands in for multiprocessing.Pool: records its size, starts nothing."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", PoolRecorder)
    outputs = {}
    for cpus, max_den, jobs, size in [
        (2, 1, 100000, None),
        (None, 12, 100000, None),
        (2, 12, 100000, 2),
        (2, 12, 2, 2),
        (8, 5, 100000, 5),
        (8, 12, 3, 3),
        (8, 12, 1, None),
    ]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run(["scan", "--max-den", str(max_den), "--jobs", str(jobs)]) == 0
        outputs.setdefault(max_den, set()).add(capsys.readouterr().out)
        assert sizes == ([] if size is None else [size]), (cpus, max_den, jobs)
        sizes.clear()
    # the output does not depend on the pool
    assert all(len(outs) == 1 for outs in outputs.values())


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
