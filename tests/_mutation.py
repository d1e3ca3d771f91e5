"""Helpers that corrupt the claim of a certificate JSON tree.

A certificate is its claim, so a sound verifier must reject it once the
verdict is anything but the true one.  wrong_verdicts swaps in every other
verdict from a fixed set that holds the pole, irrational and each exact value
the four functions take, with both signs, and adds the true value nudged by
apply_mutation.  Numeric sites are collected only under "verdict": the input
is excluded on purpose, because bumping its numerator by the denominator
leaves the angle unchanged modulo pi, and the version field is a format
concern rather than a mathematical one.

Mutations are chosen to keep the wire format valid, so a failure exercises
the mathematical check and not just the parser: adding the denominator to
the numerator of "a/b" preserves lowest terms (gcd(a + b, b) = gcd(a, b)).
"""

import copy
import re
from fractions import Fraction

_RAT_RE = re.compile(r"-?[0-9]+/[0-9]+\Z")

# the exact values of tan^2, tan, cos^2 and cos at rational angles, both signs
EXACT_VALUES = sorted({sign * Fraction(v) for v in ("0", "1", "3", "1/3", "1/4", "1/2", "3/4")
                       for sign in (1, -1)})
VERDICTS = [
    {"kind": "pole"},
    {"kind": "irrational"},
    *({"kind": "exact", "value": f"{v.numerator}/{v.denominator}"} for v in EXACT_VALUES),
]


def mutation_sites(tree):
    """All (path, kind) pairs for numeric leaves under verdict.

    kind is "rational_string" for "num/den" strings; type tags yield no site.
    """
    sites = []
    _walk(tree["verdict"], ("verdict",), sites)
    return sites


def _walk(node, path, sites):
    if isinstance(node, dict):
        for k in sorted(node):
            _walk(node[k], path + (k,), sites)
    elif isinstance(node, str) and _RAT_RE.match(node):
        sites.append((path, "rational_string"))


def apply_mutation(tree, site):
    """A deep copy of tree with the leaf at site nudged to a nearby value."""
    out = copy.deepcopy(tree)
    path, _ = site
    node = out
    for k in path[:-1]:
        node = node[k]
    num, den = node[path[-1]].split("/")
    node[path[-1]] = f"{int(num) + int(den)}/{den}"
    return out


def wrong_verdicts(tree):
    """Copies of tree, one per other verdict in VERDICTS and per nudged value."""
    claims = [v for v in VERDICTS if v != tree["verdict"]]
    for site in mutation_sites(tree):
        nudged = apply_mutation(tree, site)["verdict"]
        if nudged not in claims:
            claims.append(nudged)
    return [{**tree, "verdict": v} for v in claims]
