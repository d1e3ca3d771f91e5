"""Mutation score of the verifier kernel (src/trig_rational/kernel.py).

Run it from the repository root, outside the test suite (pytest does not
collect this file):

    python tests/_kernel_mutants.py

Each mutant changes one site of the kernel's syntax tree:
- a comparison flipped: < and <=, > and >=, == and !=, in and not in, is
  and is not swap;
- an int constant nudged by one;
- a failure turned into a pass: a raise becomes pass, or a
  VerificationResult(False, ...) becomes VerificationResult(True, ...).

For each mutant it writes the mutated kernel into a temporary copy of src/
and tests/ and runs the kernel's tests (tests/test_kernel.py), the parser
tests and acceptance criterion 6 there, stopping at the first failure.  A
mutant is killed when they fail.  It prints each survivor and the score.
Docstrings are not sites.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL = Path("src", "trig_rational", "kernel.py")
TESTS = [
    "tests/test_kernel.py",
    *(f"tests/test_certifier.py::{name}" for name in (
        "test_parser_rejects_malformed_trees",
        "test_format_errors_name_the_json_path",
        "test_json_round_trip_sweep",
        "test_any_single_field_mutation_fails",
        "test_version_1_certificates_are_rejected",
        "test_version_2_certificates_are_rejected",
        "test_version_3_certificates_are_rejected",
        "test_version_4_certificates_are_rejected",
        "test_verify_json_never_raises",
    )),
    "tests/test_acceptance.py::test_criterion_6_certificates",
]

_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}


class _Mutator(ast.NodeTransformer):
    """Counts the sites in visiting order; rewrites only the site numbered target."""

    def __init__(self, target: int = -1) -> None:
        self.target, self.sites = target, []

    def _site(self, node: ast.AST, what: str) -> bool:
        self.sites.append(f"line {node.lineno}: {what}")
        return len(self.sites) - 1 == self.target

    def visit_Expr(self, node: ast.Expr) -> ast.AST:
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            return node  # a docstring
        return self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            new = _FLIP[type(op)]
            if self._site(node, f"{ast.unparse(node)}: {_sym(op)} -> {_sym(new())}"):
                node.ops[i] = new()
        return node

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        if type(node.value) is int and self._site(node, f"{node.value} -> {node.value + 1}"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node

    def visit_Raise(self, node: ast.Raise) -> ast.AST:
        if self._site(node, f"{ast.unparse(node)} -> pass"):
            return ast.copy_location(ast.Pass(), node)
        return self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> ast.AST:
        if (isinstance(node.func, ast.Name) and node.func.id == "VerificationResult"
                and node.args and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is False
                and self._site(node, f"{ast.unparse(node)}: False -> True")):
            node.args[0] = ast.copy_location(ast.Constant(True), node.args[0])
        return self.generic_visit(node)  # a bool constant is no int site


def _sym(op: ast.cmpop) -> str:
    return ast.unparse(ast.Compare(ast.Name("a"), [op], [ast.Name("b")]))[2:-2]


def _mutate(source: str, target: int = -1) -> tuple[list[str], str]:
    """Every site of source, and source with site target mutated, as ast.unparse writes it."""
    m = _Mutator(target)
    text = ast.unparse(m.visit(ast.parse(source)))
    return m.sites, text


def _run_tests(copy: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    source = (ROOT / KERNEL).read_text(encoding="utf-8")
    sites, plain = _mutate(source)
    no_cache = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="kernel-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=no_cache)
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / KERNEL).write_text(plain, encoding="utf-8")
        if not _run_tests(copy):
            print("the tests fail on the unmutated kernel")
            return 2
        survivors = []
        for i, site in enumerate(sites):
            (copy / KERNEL).write_text(_mutate(source, i)[1], encoding="utf-8")
            if _run_tests(copy):
                survivors.append(site)
                print(f"survived  {site}", flush=True)
    lines = len(source.splitlines())
    killed = len(sites) - len(survivors)
    print(f"kernel.py: {lines} lines; {len(sites)} mutants, {killed} killed, "
          f"{len(survivors)} survived; score {killed / len(sites):.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
