"""Third computation path and reference identities: Bernoulli numbers,
Bernoulli polynomials, and the classical closed formula

    f_p(n) = 1/(p+1) * sum_{i=0..p} C(p+1, i) * b_i * n^(p+1-i)

with b_1 = +1/2.

Bernoulli numbers come in two sign conventions that differ only at index 1:
the "minus" convention (b_1 = -1/2) is what the standard Bernoulli
polynomials interpolate at 0, while the closed formula above needs the
"plus" convention (b_1 = +1/2, which is B_1 evaluated at 1).  Both are
stored side by side so no caller ever flips a sign ad hoc — conflating the
two is the classic off-by-sign bug this module is shaped to prevent.

The three check_* functions evaluate, in exact arithmetic, the textbook
identities tying power sums to Bernoulli polynomials; the verification
command runs them over fixed ranges.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from ._record import FrozenRecord
from .direct import CoefficientRow
from .integration import (
    Polynomial,
    integrate_polynomial,
    poly_eval,
    polynomial,
)
from .oracle import power_sum_bruteforce
from .rationals import ONE, ZERO

__all__ = [
    "BernoulliTable",
    "bernoulli_numbers",
    "faulhaber_via_bernoulli",
    "bernoulli_polynomial",
    "check_power_sum_identity",
    "check_integral_identity",
    "check_difference_identity",
]


class BernoulliTable(FrozenRecord):
    """Bernoulli numbers b_0..b_limit in both sign conventions.

    values_minus[1] == -1/2 and values_plus[1] == +1/2; every other index
    agrees between the two.  Odd indices >= 3 are zero.
    """

    __slots__ = ("limit", "values_minus", "values_plus")
    limit: int
    values_minus: tuple[Fraction, ...]
    values_plus: tuple[Fraction, ...]

    def __init__(
        self,
        limit: int,
        values_minus: tuple[Fraction, ...],
        values_plus: tuple[Fraction, ...],
    ) -> None:
        super().__init__(limit, values_minus, values_plus)


# Minus-convention numbers b_0..b_k computed so far, shared by every table.
# Requests beyond it replace it whole by a longer copy; entries never change.
_minus_prefix: tuple[Fraction, ...] = (ONE,)


def bernoulli_numbers(m: int) -> BernoulliTable:
    """Bernoulli numbers through index m, both conventions.

    The even-index numbers come from the tangent numbers T_1..T_h, h = m // 2
    (Brent and Harvey, arXiv:1108.0286), built in place with int arithmetic
    only:  B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)).  b_1 = -1/2 in the
    minus convention, +1/2 in the plus one, and odd indices >= 3 are zero.
    A request within the numbers computed so far reuses them.
    """
    global _minus_prefix
    if m < 0:
        raise ValueError(f"need a table limit >= 0, got {m}")
    if len(_minus_prefix) <= m:
        h = m // 2
        tangent = [0, 1] + [0] * (h - 1)
        for k in range(2, h + 1):
            tangent[k] = (k - 1) * tangent[k - 1]
        for k in range(2, h + 1):
            for j in range(k, h + 1):
                tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
        extended = [ONE, Fraction(-1, 2)]
        for k in range(1, h + 1):
            power = 4**k
            value = Fraction(2 * k * tangent[k], power * (power - 1))
            extended += (value if k % 2 else -value, ZERO)
        _minus_prefix = tuple(extended[: m + 1])
    minus = _minus_prefix[: m + 1]
    plus = list(minus)
    if m >= 1:
        plus[1] = Fraction(1, 2)
    return BernoulliTable(m, minus, tuple(plus))


def faulhaber_via_bernoulli(p: int) -> CoefficientRow:
    """Coefficient row for exponent p from the closed Bernoulli-number formula.

    The coefficient of n^(p+1-i) is C(p+1, i) * b_i / (p+1) with b in the
    plus convention, for i = 0..p.
    """
    if p < 0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    plus = bernoulli_numbers(p).values_plus
    coeffs: list[Fraction] = [ZERO] * (p + 1)
    for i in range(p + 1):
        power = p + 1 - i
        coeffs[power - 1] = comb(p + 1, i) * plus[i] / (p + 1)
    return CoefficientRow(p, tuple(coeffs))


# Bernoulli polynomials B_0..B_k built so far, kept like _minus_prefix:
# replaced whole by a longer copy, entries never change.
_polynomials: tuple[Polynomial, ...] = ()


def bernoulli_polynomial(i: int) -> Polynomial:
    """The i-th Bernoulli polynomial B_i(t) = sum_k C(i, k) * b_k * t^(i-k).

    Built from the minus convention, so B_i(0) is the minus-convention
    number and B_i(1) the plus-convention one.  Each B_i is built once per
    process; later requests reuse it.
    """
    global _polynomials
    if i < 0:
        raise ValueError(f"polynomial index must be >= 0, got {i}")
    if len(_polynomials) <= i:
        minus = bernoulli_numbers(i).values_minus
        _polynomials += tuple(
            polynomial(
                comb(j, j - power) * minus[j - power]
                for power in range(j + 1)
            )
            for j in range(len(_polynomials), i + 1)
        )
    return _polynomials[i]


# Antiderivatives (zero constant term) of B_0..B_k, kept like _polynomials.
_antiderivatives: tuple[Polynomial, ...] = ()


def _antiderivative(i: int) -> Polynomial:
    """The symbolic antiderivative of B_i, integrated once per process."""
    global _antiderivatives
    if len(_antiderivatives) <= i:
        _antiderivatives += tuple(
            integrate_polynomial(bernoulli_polynomial(j))
            for j in range(len(_antiderivatives), i + 1)
        )
    return _antiderivatives[i]


def check_power_sum_identity(p: int, n: int) -> bool:
    """Does f_{p-1}(n) equal (B_p(n+1) - B_p(1)) / p?  Exact, brute-force left side.

    The subtracted constant is B_p at 1, the plus-convention Bernoulli
    number; it equals B_p(0) for every p >= 2 and keeps the identity exact
    at p = 1 as well.
    """
    if p < 1:
        raise ValueError(f"power-sum identity needs p >= 1, got {p}")
    left = Fraction(power_sum_bruteforce(p - 1, n))
    b_poly = bernoulli_polynomial(p)
    right = (poly_eval(b_poly, Fraction(n + 1)) - poly_eval(b_poly, ONE)) / p
    return left == right


def check_integral_identity(i: int, a: Fraction, b: Fraction) -> bool:
    """Does the integral of B_i over [a, b] equal (B_{i+1}(b) - B_{i+1}(a))/(i+1)?

    The left side is integrated symbolically, once per B_i, and evaluated
    at the endpoints; both sides are exact rationals.
    """
    if i < 0:
        raise ValueError(f"polynomial index must be >= 0, got {i}")
    antiderivative = _antiderivative(i)
    left = poly_eval(antiderivative, b) - poly_eval(antiderivative, a)
    successor = bernoulli_polynomial(i + 1)
    right = (poly_eval(successor, b) - poly_eval(successor, a)) / (i + 1)
    return left == right


def check_difference_identity(i: int, n: int) -> bool:
    """Does B_i(n+1) - B_i(n) equal i * n^(i-1)?  Defined for i > 1 only."""
    if i <= 1:
        raise ValueError(f"difference identity needs i > 1, got {i}")
    b_poly = bernoulli_polynomial(i)
    left = poly_eval(b_poly, Fraction(n + 1)) - poly_eval(b_poly, Fraction(n))
    return left == i * Fraction(n) ** (i - 1)
