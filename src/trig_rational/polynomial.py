"""Integer polynomials for the multiple-angle machinery.

For odd n = 2m+1, expanding tan(n*theta) via the binomial theorem gives a
degree-2m integer polynomial whose roots are tan(k*pi/n), k = 1..n-1
(``tan_poly``), and since only even powers appear it collapses to a monic
degree-m polynomial in X = tan^2 (``tan_squared_poly``).  The constant
coefficient of the collapsed polynomial is (-1)^m * n, which is what makes
the rational root theorem bite: any rational root is an integer divisor
of n.

A divisor c is ruled in or out by the value p(c) alone, and that value needs
no polynomial: it is, up to sign, the sqrt(-c) part of (1 + sqrt(-c))^n,
which ``tan_squared_poly_at`` computes by repeated squaring on integer pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_core import FrozenRecord, _store, divisors, gcd

__all__ = [
    "IntPolynomial",
    "tan_poly",
    "tan_squared_poly",
    "tan_squared_poly_at",
    "rational_roots",
]


class IntPolynomial(FrozenRecord):
    """Polynomial with int coefficients, ascending degree; () is the zero polynomial."""

    __match_args__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()  # O(1) from the end, so stripping k zeros is linear in k
        _store(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: Fraction | int) -> Fraction:
        """Exact value at a rational point (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def tan_poly(n: int) -> IntPolynomial:
    """Degree n-1 polynomial with roots tan(k*pi/n), k = 1..n-1, for odd n >= 3.

    Only even powers occur, and the coefficient of X^(2j) is that of X^j in
    tan_squared_poly(n).
    """
    squared = tan_squared_poly(n).coeffs
    coeffs = [0] * (2 * len(squared) - 1)
    coeffs[::2] = squared
    return IntPolynomial(tuple(coeffs))


def tan_squared_poly(n: int) -> IntPolynomial:
    """Monic degree-m polynomial with roots tan^2(k*pi/n), k = 1..m, for odd n = 2m+1.

    The coefficient of X^j is (-1)^(m+j) C(n, 2j+1).
    """
    m = _check_odd(n)
    coeffs = []
    binom = n  # C(n, k) for k = 2j+1; C(n, k+2) = C(n, k)(n-k)(n-k-1)/((k+1)(k+2))
    for k in range(1, n + 1, 2):
        coeffs.append(binom if (m - k // 2) % 2 == 0 else -binom)
        binom = binom * (n - k) * (n - k - 1) // ((k + 1) * (k + 2))
    return IntPolynomial(tuple(coeffs))


def tan_squared_poly_at(n: int, c: int) -> int:
    """tan_squared_poly(n) evaluated at the integer c, without building it.

    With t = sqrt(-c), so t^2 = -c, the binomial theorem gives
    (1 + t)^n = A + B t with B = sum_j C(n, 2j+1) (-c)^j; for c > 0 this is
    Im((1 + i sqrt(c))^n) / sqrt(c).  The coefficient of X^j in
    tan_squared_poly(n) is (-1)^(m+j) C(n, 2j+1), so its value at c is
    (-1)^m B.  (1 + t)^n is formed left to right over the bits of n: a
    square (a + b t)^2 = (a^2 - c b^2) + 2ab t per bit, and a step
    (a + b t)(1 + t) = (a - c b) + (a + b) t per set bit.
    """
    m = _check_odd(n)
    a, b = 1, 0
    for bit in bin(n)[2:]:
        a, b = a * a - c * b * b, 2 * a * b
        if bit == "1":
            a, b = a - c * b, a + b
    return b if m % 2 == 0 else -b


def _check_odd(n: int) -> int:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd n >= 3, got {n}")
    return (n - 1) // 2


def rational_roots(p: IntPolynomial) -> list[Fraction]:
    """Every rational root of p, ascending, via the rational root theorem.

    Candidates a/b in lowest terms must have a | constant coefficient and
    b | leading coefficient; each candidate is then checked by exact
    evaluation.  The zero polynomial has no well-defined root set.
    """
    if p.is_zero:
        raise ValueError("rational_roots of the zero polynomial")
    # strip a power of X: 0 is a root iff the constant coefficient vanishes
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    roots: set[Fraction] = set() if k == 0 else {Fraction(0)}
    cs = p.coeffs[k:]
    if len(cs) > 1:
        c0, lead = abs(cs[0]), abs(cs[-1])
        for a in divisors(c0):
            for b in divisors(lead):
                if gcd(a, b) != 1:
                    continue
                if _eval_scaled(cs, a, b) == 0:
                    roots.add(Fraction(a, b))
                if _eval_scaled(cs, -a, b) == 0:
                    roots.add(Fraction(-a, b))
    return sorted(roots)


def _eval_scaled(cs: tuple[int, ...], a: int, b: int) -> int:
    # p(a/b) * b^(len(cs) - 1), all integer arithmetic
    acc = 0
    bp = 1
    for c in reversed(cs):
        acc = acc * a + c * bp
        bp *= b
    return acc
