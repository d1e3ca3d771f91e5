"""Properties that hold for any rational input, on adversarial shapes.

The denominators are powers of two, three times a power of two, powers of
three, a power of three times a power of two, a prime up to 10**19 times a
power of two, and 10**k +- 1; each angle is also taken with its numerator
shifted by whole periods of cos (d + 2n*m, so r + 2m) and negated.  For
each of the four functions the certificate of every such input must
survive the JSON round trip and verify, and the certified numerics must
confirm classify's verdict; classify must not see the period shift, and
under negation it keeps tan^2, cos^2 and cos and flips the sign of an exact
tan.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from trig_rational.certifier import certify, to_json
from trig_rational.classifier import FUNCTIONS, TrigVerdict, classify
from trig_rational.highprec import crosscheck
from trig_rational.kernel import verify_certificate_json

# primes, the last the largest below 10**19
_PRIMES = (5, 7, 11, 13, 101, 257, 65537, 1000003, 2147483647, 1000000007,
           2305843009213693951, 9999999999999999961)

# half of the powers of two reach the base denominators 1, 2, 3, 4 and 6
_SHIFTS = st.integers(0, 3) | st.integers(4, 200)
_DENOMINATORS = st.one_of(
    _SHIFTS.map(lambda k: 1 << k),
    _SHIFTS.map(lambda k: 3 << k),
    _SHIFTS.map(lambda k: 3**k),
    st.builds(lambda k, j: 3**k << j, st.integers(1, 40), st.integers(1, 40)),
    st.builds(lambda q, k: q << k, st.sampled_from(_PRIMES), st.integers(0, 64)),
    st.builds(lambda k, e: 10**k + e, st.integers(1, 60), st.sampled_from((-1, 1))),
)


@st.composite
def _angles(draw):
    n = draw(_DENOMINATORS)
    return Fraction(draw(st.integers(-2 * n, 2 * n)), n)


@settings(max_examples=300, deadline=None, database=None)
@given(_angles(), st.integers(-(10**30), 10**30))
def test_any_rational_certifies_and_keeps_its_symmetries(r, m):
    shifted = r + 2 * m
    for f in FUNCTIONS:
        for x in (r, shifted, -r):
            assert verify_certificate_json(to_json(certify(x, f))).ok, (x, f)
            assert crosscheck(x, f, classify(x, f)), (x, f)
        verdict = classify(r, f)
        assert classify(shifted, f) == verdict, (r, m, f)
        if f == "tan" and verdict.is_exact:
            assert classify(-r, f) == TrigVerdict.exact(-verdict.value), r
        else:
            assert classify(-r, f) == verdict, (r, f)
