"""Seeded inputs and the benchmark's own reference verdicts.

Nothing here imports trig_rational: the expected answers come from Niven's
theorem written out as a table, so the benchmark can check the program
without trusting it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

FUNCTIONS = ("tan2", "tan", "cos2", "cos")

# The seed changes the angles but never the work they take: a request's cost
# is set by the sizes below, so runs with different seeds time the same work
# and a seeded size cannot move the metrics by more than the host's own noise.
# scan's only input is the max denominator, so the seed does not change it.
SCAN_MAX_DEN = 72
WIRE_MAX_DEN = 48
# pipe's cost is set by the odd part of the reduced angle, so pipe spaces this
# many odd parts evenly over PIPE_ODD_PARTS, the same for every seed. 2,527 is
# the largest odd part whose certificate the wire encoder prints under
# Python's default int-to-str limit.
PIPE_INPUTS = 12
PIPE_ODD_PARTS = (301, 2527)
# The known defect: from odd part 2,529 on, to_json exceeds the int-to-str
# digit limit. The traced pipe run certifies these three every time, so the
# crash shows in certifier.to_json.errors and in the failed count, the same
# on every run.
DEFECT_PROBE = (
    (Fraction(1, 2531), "tan2"),
    (Fraction(5, 2749 * 4), "cos"),
    (Fraction(-7, 2999 * 2) + 3, "tan"),
)
TINY = {"scan": 24, "wire": 24, "pipe": 4}


def scan_max_den(tiny: bool = False) -> int:
    return TINY["scan"] if tiny else SCAN_MAX_DEN


def sweep_angles(max_den: int) -> list[Fraction]:
    """Every reduced d/n in [0, 1) with n <= max_den, in scan's order."""
    return [
        Fraction(d, n)
        for n in range(1, max_den + 1)
        for d in ([0] if n == 1 else range(1, n))
        if gcd(d, n) == 1
    ]


def wire_inputs(seed: int, tiny: bool = False) -> list[tuple[Fraction, str]]:
    max_den = TINY["wire"] if tiny else WIRE_MAX_DEN
    inputs = [(r, f) for r in sweep_angles(max_den) for f in FUNCTIONS]
    random.Random(seed).shuffle(inputs)
    return inputs


def pipe_inputs(seed: int, count: int) -> list[tuple[Fraction, str]]:
    """One angle for each of count odd parts spaced evenly over
    PIPE_ODD_PARTS, in increasing order.

    The seed draws the power-of-two factor, the numerator (prime to the
    denominator, so the odd part stays), the period shift, the sign and the
    function.
    """
    rng = random.Random(seed)
    lo, hi = PIPE_ODD_PARTS
    steps = (hi - lo) // 2
    inputs = []
    for k in range(count):
        q = lo + 2 * round(k * steps / max(count - 1, 1))
        den = q << rng.randint(0, 6)
        d = rng.randrange(1, den)
        while gcd(d, den) != 1:
            d = rng.randrange(1, den)
        r = (Fraction(d, den) + rng.randint(-5, 5)) * rng.choice((1, -1))
        inputs.append((r, rng.choice(FUNCTIONS)))
    return inputs


def inputs_for(workload: str, seed: int, tiny: bool = False) -> list[tuple[Fraction, str]]:
    """Every (angle, function) pair the workload's requests cover."""
    if workload == "scan":
        return [(r, f) for r in sweep_angles(scan_max_den(tiny)) for f in FUNCTIONS]
    if workload == "wire":
        return wire_inputs(seed, tiny)
    if workload == "pipe":
        return pipe_inputs(seed, TINY["pipe"] if tiny else PIPE_INPUTS)
    raise ValueError(f"unknown workload {workload!r}")


def traced_inputs(workload: str, seed: int, tiny: bool = False) -> list[tuple[Fraction, str]]:
    """The inputs a traced run replays: the workload's, then for pipe the
    defect probe."""
    inputs = inputs_for(workload, seed, tiny)
    return inputs + list(DEFECT_PROBE) if workload == "pipe" else inputs


# ------------------------------------------------------- reference table ---

_TAN2 = {1: Fraction(0), 3: Fraction(3), 4: Fraction(1), 6: Fraction(1, 3)}
_COS2 = {1: Fraction(1), 2: Fraction(0), 3: Fraction(1, 4), 4: Fraction(1, 2), 6: Fraction(3, 4)}


def expected_verdict(r: Fraction, function: str) -> tuple[str, Fraction | None]:
    """Niven's theorem as a table: (kind, exact value or None)."""
    n = r.denominator
    d = r.numerator
    if function in ("tan2", "tan") and n == 2:
        return "pole", None
    if function == "tan2":
        return ("exact", _TAN2[n]) if n in _TAN2 else ("irrational", None)
    if function == "tan":
        if n == 1:
            return "exact", Fraction(0)
        if n == 4:
            return "exact", Fraction(1 if d % 4 == 1 else -1)
        return "irrational", None
    if function == "cos2":
        return ("exact", _COS2[n]) if n in _COS2 else ("irrational", None)
    if n == 1:
        return "exact", Fraction(1 if d % 2 == 0 else -1)
    if n == 2:
        return "exact", Fraction(0)
    if n == 3:
        return "exact", Fraction(1, 2) if d % 6 in (1, 5) else Fraction(-1, 2)
    return "irrational", None


def expected_scan_counts(max_den: int) -> dict[str, dict[str, int]]:
    counts = {f: {"pole": 0, "exact": 0, "irrational": 0} for f in FUNCTIONS}
    for r in sweep_angles(max_den):
        for f in FUNCTIONS:
            counts[f][expected_verdict(r, f)[0]] += 1
    return counts


def verdict_of(text: str) -> tuple[str, Fraction | None] | None:
    """The top-level verdict of a certificate's JSON text, or None.

    Decodes only the verdict object, found as the last "verdict" key (steps
    carry none), so checking a certificate costs little next to verifying it.
    """
    at = text.rfind('"verdict"')
    if at < 0:
        return None
    start = text.find("{", at)
    try:
        tree, _ = json.JSONDecoder().raw_decode(text, start)
        kind = tree["kind"]
        value = Fraction(tree["value"]) if kind == "exact" else None
    except (ValueError, KeyError, TypeError):
        return None
    return kind, value


def angle_text(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"
