"""Helpers that corrupt one numeric field of a certificate JSON tree.

A sound verifier must reject a certificate after any single number in it
is changed.  Sites are collected only under the "verdict" and "steps"
subtrees: the top-level input is excluded on purpose, because bumping its
numerator by the denominator leaves the angle unchanged modulo pi, and the
version field is a format concern rather than a mathematical one.

Mutations are chosen to keep the wire format valid where possible, so a
failure exercises the mathematical checks and not just the parser:
adding the denominator to the numerator of "a/b" preserves lowest terms
(gcd(a + b, b) = gcd(a, b)), and integer strings never grow leading zeros.
"""

import copy
import re

_INT_RE = re.compile(r"-?[0-9]+\Z")
_RAT_RE = re.compile(r"-?[0-9]+/[0-9]+\Z")


def mutation_sites(tree):
    """All (path, kind) pairs for numeric leaves under verdict and steps.

    kind is "int" for JSON integers (sign), "int_string" for decimal
    integer strings, "rational_string" for "num/den" strings.  Nulls and
    non-numeric strings (type tags, methods, relations) yield no site.
    """
    sites = []
    for key in ("verdict", "steps"):
        _walk(tree[key], (key,), sites)
    return sites


def _walk(node, path, sites):
    if isinstance(node, dict):
        for k in sorted(node):
            _walk(node[k], path + (k,), sites)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _walk(v, path + (i,), sites)
    elif isinstance(node, bool):
        pass
    elif isinstance(node, int):
        sites.append((path, "int"))
    elif isinstance(node, str):
        if _INT_RE.match(node):
            sites.append((path, "int_string"))
        elif _RAT_RE.match(node):
            sites.append((path, "rational_string"))


def apply_mutation(tree, site):
    """A deep copy of tree with the leaf at site nudged to a nearby value."""
    out = copy.deepcopy(tree)
    path, kind = site
    node = out
    for k in path[:-1]:
        node = node[k]
    leaf = node[path[-1]]
    if kind == "int":
        node[path[-1]] = leaf + 1
    elif kind == "int_string":
        node[path[-1]] = str(int(leaf) + 1)
    else:
        num, den = leaf.split("/")
        node[path[-1]] = f"{int(num) + int(den)}/{den}"
    return out
