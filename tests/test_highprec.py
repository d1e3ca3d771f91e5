"""Tests for the certified interval evaluation of tan^2 and cos."""

import concurrent.futures
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trig_rational import highprec
from trig_rational.angle import PoleError, ReducedAngle, reduce_for_cos, reduce_for_tan
from trig_rational.classifier import FUNCTIONS, IRRATIONAL, POLE, TrigVerdict, classify
from trig_rational.exact_core import gcd
from trig_rational.highprec import (
    MAX_BITS,
    MIN_BITS,
    RatInterval,
    crosscheck,
    eval_cos,
    eval_poly_at_tan_squared,
    eval_tan_squared,
    interval_eval,
)
from trig_rational.polynomial import IntPolynomial, tan_squared_poly


def test_rat_interval_basics():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.midpoint == Fraction(5, 12)
    assert Fraction(2, 5) in iv
    assert iv.excludes(Fraction(1, 4))
    assert iv.excludes(1)
    assert not iv.excludes(Fraction(1, 3))
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


_FRACTIONS = st.fractions(max_denominator=10**6) | st.fractions(max_denominator=4)


@settings(max_examples=500, deadline=None, database=None)
@given(st.data())
def test_rat_interval_matches_fraction_comparisons(data):
    # Fraction's own comparisons are the reference
    lo, hi = sorted(data.draw(st.lists(_FRACTIONS, min_size=2, max_size=2)))
    iv = RatInterval(lo, hi)
    x = data.draw(
        st.sampled_from([lo, hi])
        | st.sampled_from([lo, hi]).map(float)
        | st.sampled_from([lo, hi]).map(math.floor)
        | st.integers()
        | _FRACTIONS
        | st.floats(allow_nan=False, allow_infinity=False)
    )
    assert iv.excludes(x) == (x < lo or x > hi)
    assert (x in iv) == (lo <= x <= hi)


def test_eval_tan_squared_known_values():
    iv = eval_tan_squared(Fraction(1, 4), 64)
    assert 1 in iv
    assert iv.width <= Fraction(1, 1 << 64)
    assert 3 in eval_tan_squared(Fraction(1, 3), 64)
    assert Fraction(1, 3) in eval_tan_squared(Fraction(1, 6), 64)
    assert 0 in eval_tan_squared(0, 64)


def test_eval_tan_squared_accepts_unreduced_input():
    a = eval_tan_squared(Fraction(7, 6), 64)
    b = eval_tan_squared(ReducedAngle(1, 6), 64)
    assert (a.lo, a.hi) == (b.lo, b.hi)
    # cos-style representatives above 1/2 fold into tan's range
    c = eval_tan_squared(ReducedAngle(5, 6), 64)
    assert (c.lo, c.hi) == (b.lo, b.hi)


def test_eval_tan_squared_pole_and_bad_bits():
    with pytest.raises(PoleError):
        eval_tan_squared(Fraction(1, 2), 64)
    with pytest.raises(PoleError):
        eval_tan_squared(Fraction(3, 2), 64)
    # bits is checked before any work: the pole never gets to raise its own
    # error, and 65536 bits would take close to a minute
    p = tan_squared_poly(5)
    for bits in (MIN_BITS - 1, 0, MAX_BITS + 1, 65536):
        for call in (
            lambda: eval_tan_squared(Fraction(1, 2), bits),
            lambda: eval_cos(Fraction(1, 5), bits),
            lambda: eval_poly_at_tan_squared(p, Fraction(1, 2), bits),
        ):
            with pytest.raises(ValueError, match="bits"):
                call()
    for bits in (MIN_BITS, MAX_BITS):
        assert 3 in eval_tan_squared(Fraction(1, 3), bits)
        assert Fraction(1, 2) in eval_cos(Fraction(1, 3), bits)
        assert 0 in eval_poly_at_tan_squared(p, Fraction(2, 5), bits)


def test_eval_poly_refinement_stops_at_max_bits():
    # a slope of 2^100 needs about 100 bits more than asked for
    steep = IntPolynomial((0, 1 << 100))
    iv = eval_tan_squared(Fraction(1, 5), 256)
    img = eval_poly_at_tan_squared(steep, Fraction(1, 5), 64)
    assert img.lo <= iv.hi * (1 << 100) and iv.lo * (1 << 100) <= img.hi
    assert img.width <= Fraction(5**3, 1 << (64 - 8))
    with pytest.raises(ValueError, match=str(MAX_BITS)):
        eval_poly_at_tan_squared(steep, Fraction(1, 5), MAX_BITS - 16)


def test_eval_tan_squared_near_pole():
    # the division by cos^2 blows up near the pole; precision must keep up
    iv = eval_tan_squared(Fraction(499, 1000), 64)
    assert iv.width <= Fraction(1, 1 << 64)
    # complementary angle identity: tan^2((1/2 - x) pi) = 1 / tan^2(x pi)
    rec = eval_tan_squared(Fraction(1, 1000), 64)
    flipped = RatInterval(1 / rec.hi, 1 / rec.lo)
    assert max(iv.lo, flipped.lo) <= min(iv.hi, flipped.hi)


def test_eval_cos_known_values():
    assert Fraction(1, 2) in eval_cos(Fraction(1, 3), 64)
    assert 0 in eval_cos(Fraction(1, 2), 64)
    assert Fraction(-1, 2) in eval_cos(Fraction(2, 3), 64)
    assert 1 in eval_cos(0, 64)
    assert -1 in eval_cos(1, 64)
    iv = eval_cos(Fraction(1, 4), 64)
    assert iv.width <= Fraction(1, 1 << 64)
    for v in (0, 1, -1, Fraction(1, 2), Fraction(-1, 2)):
        assert iv.excludes(v)


def test_eval_widths_and_floats():
    rng = random.Random(909)
    for _ in range(40):
        n = rng.randrange(1, 50)
        d = rng.randrange(0, n) if n > 1 else 0
        if gcd(d, n) != 1:
            continue
        r = Fraction(d, n)
        c = eval_cos(r, 64)
        assert c.width <= Fraction(1, 1 << 64)
        assert abs(float(c.midpoint) - math.cos(d / n * math.pi)) < 1e-12
        if n != 2:
            t = eval_tan_squared(r, 64)
            assert t.width <= Fraction(1, 1 << 64)
            want = math.tan(d / n * math.pi) ** 2
            assert math.isclose(float(t.midpoint), want, rel_tol=1e-9, abs_tol=1e-12)


def test_enclosures_are_pinned():
    # every endpoint for n <= 60, 0 <= d <= 2n, at 8, 64 and 128 bits, with
    # tan^2 taken from cos 2x; against tan^2 = sin^2/cos^2, 16 of the 10,980
    # tan^2 centres here moved, each by one grid step, and no cos endpoint
    h = hashlib.sha256()
    for n in range(1, 61):
        for d in range(0, 2 * n + 1):
            r = Fraction(d, n)
            for bits in (8, 64, 128):
                ivs = [eval_cos(r, bits)]
                if reduce_for_tan(r).n != 2:
                    ivs.append(eval_tan_squared(r, bits))
                for iv in ivs:
                    h.update(f"{iv.lo} {iv.hi}\n".encode())
    assert h.hexdigest() == (
        "24e54d6812a38ecfc615d8cbe64649ca11b704786121879f334b9484618bef1b"
    )


def test_cos_ties_round_after_negation():
    # the raw enclosures of cos(202/719 pi) and cos(310/939 pi) at 8 bits have
    # their midpoints exactly half-way between grid points; cos(517/719 pi)
    # and cos(629/939 pi) negate them and then round the tie up, one grid
    # step above the negated enclosures
    step = Fraction(1, 1 << 12)
    for d, n in ((517, 719), (629, 939)):
        a = eval_cos(Fraction(n - d, n), 8)
        b = eval_cos(Fraction(d, n), 8)
        assert (b.lo, b.hi) == (-a.hi + step, -a.lo + step)


def test_enclosure_caches_are_bounded():
    cached = [f for f in vars(highprec).values() if hasattr(f, "cache_info")]
    assert len(cached) == 3
    for f in (highprec._cos_raw, highprec._tan2_centre, highprec._pi_scaled):
        assert f in cached
    for f in cached:
        assert f.cache_info().maxsize is not None, f.__name__


def test_enclosures_nest_as_bits_grow():
    rng = random.Random(2024)
    angles = []
    while len(angles) < 10:
        n = rng.randrange(3, 100)
        d = rng.randrange(1, n)
        if gcd(d, n) == 1 and n != 2:
            angles.append(Fraction(d, n))
    for r in angles:
        prev_t = prev_c = None
        for bits in (16, 32, 64, 128, 256):
            t = eval_tan_squared(r, bits)
            c = eval_cos(r, bits)
            if prev_t is not None:
                assert prev_t.lo <= t.lo and t.hi <= prev_t.hi
                assert prev_c.lo <= c.lo and c.hi <= prev_c.hi
            prev_t, prev_c = t, c


def test_coarse_enclosures_contain_the_fine_ones():
    # the coarse witness rests on nesting from its w0 to any finer bits, not
    # only to twice as many
    for n in range(1, 61):
        w0 = max(32, 2 * n.bit_length() + 8)
        for d in range(n + 1):
            if gcd(d, n) != 1:
                continue
            r = Fraction(d, n)
            evals = [eval_cos] if n == 2 else [eval_cos, eval_tan_squared]
            for evaluate in evals:
                coarse = evaluate(r, w0)
                for bits in (40, 64, 96, 128, 256):
                    fine = evaluate(r, bits)
                    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi, (r, bits)


def test_cos_and_tan_squared_agree():
    # cos^2 enclosure must meet 1/(1 + tan^2) enclosure at every angle
    for n in range(1, 61):
        if n == 2:
            continue
        for d in range(n):
            if gcd(d, n) != 1 or 2 * d > n:
                continue
            r = Fraction(d, n)
            c = eval_cos(r, 128)
            t = eval_tan_squared(r, 128)
            assert c.lo >= 0
            lo1, hi1 = c.lo * c.lo, c.hi * c.hi
            lo2, hi2 = 1 / (1 + t.hi), 1 / (1 + t.lo)
            assert max(lo1, lo2) <= min(hi1, hi2)


def test_enclosures_hold_against_an_independent_oracle():
    # mpmath's interval arithmetic is the reference: its rigorous enclosure of
    # the true value, taken as exact rationals, must lie inside ours
    mpmath = pytest.importorskip("mpmath")
    from mpmath.libmp import to_rational

    iv = mpmath.iv
    cases = [
        (Fraction(d, n), bits)
        for n in range(1, 61)
        for d in range(n + 1)
        if gcd(d, n) == 1
        for bits in (8, 64, 128)
    ]
    # both sides of the pole, where 1 + cos 2x is about 5/n^2, and a few
    # ordinary angles, at every precision up to MAX_BITS
    for m in (3, 4, 5, 100, 2**10 + 1, 3**9, 2**21 - 1, 2**21):
        for r in (Fraction(m - 1, 2 * m), Fraction(m + 1, 2 * m)):
            cases += [(r, bits) for bits in (8, 64, 128, 1024, 4096)]
    for r in (Fraction(1, 5), Fraction(2, 7), Fraction(7, 60), Fraction(1, 3)):
        cases += [(r, bits) for bits in (1024, 4096)]
    checks, prec = 0, iv.prec
    try:
        for r, bits in cases:
            iv.prec = bits + 2 * r.denominator.bit_length() + 32
            x = iv.pi * r.numerator / r.denominator
            pairs = [(eval_cos(r, bits), iv.cos(x))]
            if reduce_for_tan(r).n != 2:
                pairs.append((eval_tan_squared(r, bits), iv.tan(x) ** 2))
            for ours, true in pairs:
                lo, hi = (Fraction(*to_rational(e)) for e in true._mpi_)
                assert ours.lo <= lo and hi <= ours.hi, (r, bits)
                assert ours.width <= Fraction(2, 1 << bits)
                checks += 1
    finally:
        iv.prec = prec
    assert checks == 6791


def test_interval_eval_encloses_exact_values():
    rng = random.Random(515)
    for _ in range(200):
        coeffs = tuple(rng.randrange(-40, 41) for _ in range(rng.randrange(1, 7)))
        p = IntPolynomial(coeffs)
        a = Fraction(rng.randrange(-300, 300), rng.randrange(1, 40))
        b = a + Fraction(rng.randrange(0, 100), rng.randrange(1, 40))
        iv = RatInterval(a, b)
        img = interval_eval(p, iv, 96)
        for _ in range(5):
            x = a + (b - a) * Fraction(rng.randrange(0, 101), 100)
            assert img.lo <= p.eval(x) <= img.hi


def test_eval_poly_at_tan_squared_root_case():
    q7 = tan_squared_poly(7)
    img = eval_poly_at_tan_squared(q7, Fraction(1, 7), 128)
    assert img.lo <= 0 <= img.hi
    assert img.width <= Fraction(7**3, 1 << 120)


def test_eval_poly_at_tan_squared_nonroot_case():
    # tan^2(pi/7) is not a root of the denominator-5 polynomial
    q5 = tan_squared_poly(5)
    img = eval_poly_at_tan_squared(q5, Fraction(1, 7), 64)
    assert img.lo > 2


def test_residual_bound_at_high_precision():
    # the polynomial vanishes at its own angles, tightly, at 256 bits
    for n in range(3, 100, 2):
        p = tan_squared_poly(n)
        for d in range(1, n):
            if gcd(d, n) != 1:
                continue
            img = eval_poly_at_tan_squared(p, Fraction(d, n), 256)
            assert img.lo <= 0 <= img.hi
            assert max(abs(img.lo), abs(img.hi)) < Fraction(1, 1 << 200)


def test_sum_of_roots_numerically():
    for n in range(3, 32, 2):
        m = (n - 1) // 2
        total = Fraction(0)
        slack = Fraction(0)
        for k in range(1, m + 1):
            iv = eval_tan_squared(Fraction(k, n), 64)
            total += iv.midpoint
            slack += iv.width / 2
        assert abs(total - Fraction(n * (n - 1), 2)) <= slack


def test_crosscheck_examples():
    F = Fraction
    assert crosscheck(F(1, 6), "tan2", TrigVerdict.exact(F(1, 3)))
    assert not crosscheck(F(1, 5), "tan2", TrigVerdict.exact(1))
    assert crosscheck(F(1, 5), "tan2", IRRATIONAL)
    assert crosscheck(F(1, 2), "tan2", POLE)
    assert not crosscheck(F(1, 3), "tan2", POLE)
    assert not crosscheck(F(1, 2), "tan2", IRRATIONAL)

    assert crosscheck(F(3, 4), "tan", TrigVerdict.exact(-1))
    assert not crosscheck(F(3, 4), "tan", TrigVerdict.exact(1))
    assert crosscheck(F(1, 2), "tan", POLE)
    assert crosscheck(F(1, 6), "tan", IRRATIONAL)
    assert crosscheck(F(1, 5), "tan", IRRATIONAL)

    assert crosscheck(F(1, 2), "cos2", TrigVerdict.exact(0))
    assert not crosscheck(F(1, 2), "cos2", IRRATIONAL)
    assert not crosscheck(F(1, 2), "cos2", POLE)
    assert crosscheck(F(1, 6), "cos2", TrigVerdict.exact(F(3, 4)))
    assert crosscheck(F(1, 5), "cos2", IRRATIONAL)

    assert crosscheck(F(1, 3), "cos", TrigVerdict.exact(F(1, 2)))
    assert crosscheck(F(2, 3), "cos", TrigVerdict.exact(F(-1, 2)))
    assert not crosscheck(F(1, 3), "cos", TrigVerdict.exact(F(-1, 2)))
    assert crosscheck(F(1, 4), "cos", IRRATIONAL)
    assert not crosscheck(F(1, 2), "cos", POLE)

    with pytest.raises(ValueError):
        crosscheck(F(1, 6), "sin", IRRATIONAL)


def test_crosscheck_rejects_bits_outside_its_range():
    # bits outside [MIN_BITS, MAX_BITS] are refused before any work, also
    # for an irrational claim, decided at its own w0, and for a pole claim,
    # which needs no enclosure at all
    r = Fraction(1, 5)
    for bits in (MIN_BITS - 1, 3, 0, -8, MAX_BITS + 1, 5000):
        for f, claim in (
            ("tan2", IRRATIONAL),
            ("tan2", TrigVerdict.exact(1)),
            ("tan", POLE),
            ("cos2", IRRATIONAL),
            ("cos", TrigVerdict.exact(0)),
        ):
            with pytest.raises(ValueError, match="bits"):
                crosscheck(r, f, claim, bits=bits)
        with pytest.raises(ValueError, match="bits"):
            crosscheck(Fraction(1, 2), "tan2", POLE, bits=bits)
    for bits in (MIN_BITS, MAX_BITS):
        assert crosscheck(r, "tan2", IRRATIONAL, bits=bits)
        assert not crosscheck(r, "tan2", TrigVerdict.exact(1), bits=bits)
        assert crosscheck(Fraction(1, 2), "tan2", POLE, bits=bits)


# Reference for the integer kernel: the Fraction-based rule it replaced,
# comparing claims with the public enclosures by Fraction comparisons.
_ORACLE_EXCEPTIONAL = {
    "tan2": (0, 1, Fraction(1, 3), 3),
    "tan": (0, 1),
    "cos2": (0, 1, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)),
    "cos": (0, 1, -1, Fraction(1, 2), Fraction(-1, 2)),
}


def _oracle_interval(red, f, bits):
    if f == "cos":
        return eval_cos(red, bits)
    t = eval_tan_squared(red, bits)
    if f == "cos2":
        return RatInterval(1 / (1 + t.hi), 1 / (1 + t.lo))
    return t


def _oracle_crosscheck(r, f, verdict, bits):
    if f == "cos":
        if verdict.kind == "pole":
            return False
        red = reduce_for_cos(r)
    else:
        red = reduce_for_tan(r)
        if red.n == 2:
            if f == "cos2":
                return verdict.kind == "exact" and verdict.value == 0
            return verdict.kind == "pole"
        if verdict.kind == "pole":
            return False
    if verdict.kind == "exact":
        v = verdict.value
        iv = _oracle_interval(red, f, bits)
        if f == "tan":
            return iv.lo <= v * v <= iv.hi and (v == 0 or (v > 0) == (red.sign > 0))
        return iv.lo <= v <= iv.hi
    cap = max(MAX_BITS, 2 * red.n.bit_length() + 64)
    b = bits
    while True:
        iv = _oracle_interval(red, f, b)
        if all(v < iv.lo or v > iv.hi for v in _ORACLE_EXCEPTIONAL[f]):
            return True
        if b == cap:
            return False
        b = min(2 * b, cap)


def _boundary_claims(r, f, bits):
    """Values at the enclosure's endpoints and one grid step outside them."""
    if f == "cos":
        iv = eval_cos(r, bits)
    elif reduce_for_tan(r).n == 2:
        return []
    else:
        iv = eval_tan_squared(r, bits)
    g = 1 << (bits + 4)
    step = Fraction(1, g)
    ends = [iv.lo, iv.hi, iv.lo - step, iv.hi + step]
    if f == "cos2":
        # the cos^2 interval is the image of tan^2's under 1/(1 + t)
        ends = [1 / (1 + t) for t in ends]
    elif f == "tan":
        # rationals on the 1/g grid just below and above sqrt of each end
        roots = [math.isqrt(int(t * g * g)) for t in ends if t >= 0]
        ends = [Fraction(a + k, g) for a in roots for k in (0, 1)]
        ends += [-v for v in ends]
    return ends


_EXACT_VALUES = sorted(
    {Fraction(v) for vs in _ORACLE_EXCEPTIONAL.values() for v in vs}
    | {Fraction(-1, 3), Fraction(-3), Fraction(-1, 4)}
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.integers(1, 12) | st.integers(1, 10**4),
    d=st.integers(-(10**4), 2 * 10**4),
    f=st.sampled_from(FUNCTIONS),
    bits=st.sampled_from([8, 9, 64, 128]),
)
def test_crosscheck_matches_fraction_oracle(n, d, f, bits):
    r = Fraction(d, n)
    claims = [classify(r, f), IRRATIONAL, POLE]
    claims += [TrigVerdict.exact(v) for v in _EXACT_VALUES]
    claims += [TrigVerdict.exact(v) for v in _boundary_claims(r, f, bits)]
    for claim in claims:
        got = crosscheck(r, f, claim, bits)
        assert got == _oracle_crosscheck(r, f, claim, bits), claim
    assert crosscheck(r, f, classify(r, f), bits)


def test_coarse_witness_changes_no_answer():
    # an irrational claim is decided on the enclosure at
    # w0 = max(32, 2 bitlen(n) + 8) bits alone; the oracle refines from
    # `bits` upwards, so every answer must agree with it, at bits below, at
    # and above w0.  d/n in [0, 1] covers every folded angle of all four
    # functions; a cos series at 4096 bits takes milliseconds, so that run
    # stops at n = 12.  The angles with n >= 4096 have w0 = 2 bitlen(n) + 8,
    # from 34 to 50 bits, past the flat floor of 32; near 0 and 1 at
    # n = 2^20 + 1, 32 bits would not settle the claim.
    angles = [Fraction(d, n) for n in range(1, 61) for d in range(n + 1) if gcd(d, n) == 1]
    angles += [Fraction(1, 4097), Fraction(2047, 4100), Fraction(4095, 8191),
               Fraction(5000, 16383), Fraction(1, 65537), Fraction(32767, 65535),
               Fraction(1, 2**20 + 1), Fraction(2**20, 2**20 + 1)]
    for r in angles:
        n = r.denominator
        for f in FUNCTIONS:
            claims = [classify(r, f), IRRATIONAL, POLE]
            claims += [TrigVerdict.exact(v) for v in _ORACLE_EXCEPTIONAL[f]]
            for bits in (8, 32, 128, 4096) if n <= 12 else (8, 32, 128):
                for claim in claims:
                    got = crosscheck(r, f, claim, bits)
                    assert got == _oracle_crosscheck(r, f, claim, bits), (r, f, claim, bits)


def test_crosscheck_decides_on_large_inputs():
    # tan^2(pi/n) is about 10/n^2 off the exceptional value 0, so these need
    # about 2 bitlen(n) bits, past MAX_BITS for the first two: the claim is
    # decided at w0 = 2 bitlen(n) + 8 bits, whatever `bits` is
    start = time.perf_counter()
    for r in (Fraction(1, 2**5000), Fraction(1, 3**1400), Fraction(1, 2**2051),
              Fraction(1, 10**19 + 51), Fraction(1, 2) - Fraction(1, 2**3001)):
        for f in FUNCTIONS:
            for bits in (MIN_BITS, 128, MAX_BITS):
                assert crosscheck(r, f, classify(r, f), bits), (r, f, bits)
    # an irrational claim at an exceptional angle fails at w0
    for r in (Fraction(1, 4), Fraction(5, 3), Fraction(-13, 6)):
        for f in FUNCTIONS:
            if classify(r, f).kind == "exact":
                assert not crosscheck(r, f, IRRATIONAL), (r, f)
    assert time.perf_counter() - start < 10


def test_crosscheck_agrees_with_classifier():
    for n in range(1, 41):
        for d in range(n):
            if gcd(d, n) != 1:
                continue
            r = Fraction(d, n)
            for f in ("tan2", "tan", "cos2", "cos"):
                assert crosscheck(r, f, classify(r, f), bits=64)


def test_thread_safety_smoke():
    # exercise the shared pi cache and lru caches from several threads
    angles = [Fraction(d, 997) for d in range(1, 17)]

    def work(r):
        t = eval_tan_squared(r, 160)
        c = eval_cos(r, 160)
        return (t.lo, t.hi, c.lo, c.hi)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(work, angles))
    sequential = [work(r) for r in angles]
    assert threaded == sequential
    for t_lo, t_hi, c_lo, c_hi in threaded:
        assert t_hi - t_lo <= Fraction(1, 1 << 160)
        assert c_hi - c_lo <= Fraction(1, 1 << 160)


def test_bits_cap_constants():
    assert MIN_BITS == 8
    assert MAX_BITS >= 1024
