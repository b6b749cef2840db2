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
Each `bernoulli_numbers` call builds its own table, and the closed formula
reads the table its caller passes, so the rows keep no state.

The three check_* functions evaluate, in exact arithmetic, the textbook
identities tying power sums to Bernoulli polynomials; the verification
command runs them over fixed ranges.  They compare integers only: each
polynomial is scaled to its common denominator once per process, `horner`
gives its value at each point once per process, as an integer over a
positive denominator (d itself at an integer point), and each identity is
cross-multiplied by its denominators, so no check builds a Fraction.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .oracle import power_sum_bruteforce
from .rationals import (
    ONE,
    ZERO,
    CoefficientRow,
    FrozenRecord,
    Polynomial,
    horner,
    integrate_polynomial,
    scaled,
)

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


def bernoulli_numbers(m: int) -> BernoulliTable:
    """Bernoulli numbers through index m, both conventions.

    The even-index numbers come from the tangent numbers T_1..T_h, h = m // 2
    (Brent and Harvey, arXiv:1108.0286), built in place with int arithmetic
    only:  B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)).  b_1 = -1/2 in the
    minus convention, +1/2 in the plus one, and odd indices >= 3 are zero.
    Each call builds its own table; a caller that needs rows of several
    degrees builds one table for the highest and passes it on.
    """
    if m < 0:
        raise ValueError(f"need a table limit >= 0, got {m}")
    h = m // 2
    tangent = [0, 1] + [0] * (h - 1)
    for k in range(2, h + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, h + 1):
        for j in range(k, h + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    minus = [ONE, Fraction(-1, 2)]
    for k in range(1, h + 1):
        power = 4**k
        value = Fraction(2 * k * tangent[k], power * (power - 1))
        minus += (value if k % 2 else -value, ZERO)
    del minus[m + 1:]
    plus = list(minus)
    if m >= 1:
        plus[1] = Fraction(1, 2)
    return BernoulliTable(m, tuple(minus), tuple(plus))


def faulhaber_via_bernoulli(p: int, table: BernoulliTable | None = None) -> CoefficientRow:
    """Coefficient row for exponent p from the closed Bernoulli-number formula.

    The coefficient of n^(p+1-i) is C(p+1, i) * b_i / (p+1) with b in the
    plus convention, for i = 0..p.  The numbers come from `table`, whose
    limit must be at least p, or from a table built for p.
    """
    if p < 0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    table = table or bernoulli_numbers(p)
    if table.limit < p:
        raise ValueError(f"a table through b_{table.limit} cannot give the row of degree {p}")
    # The odd i >= 3, where b_i = 0, keep their ZERO.  Every other entry is
    # one Fraction built from integers, reduced by a single gcd.
    coeffs: list[Fraction] = [ZERO] * (p + 1)
    for i, b in enumerate(table.values_plus[: p + 1]):
        if b:
            coeffs[p - i] = Fraction(comb(p + 1, i) * b.numerator, b.denominator * (p + 1))
    return CoefficientRow(p, tuple(coeffs))


# Bernoulli polynomials B_0..B_k built so far: replaced whole by a longer
# copy, entries never change.
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
        # Each term is one Fraction built from integers, and the top one is
        # C(j, 0) * b_0 = 1, so there is no trailing zero to trim.
        _polynomials += tuple(
            tuple(Fraction(comb(j, k) * minus[k].numerator, minus[k].denominator)
                  for k in range(j, -1, -1))
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


# The scaled form (numerators, d) of every polynomial the checks evaluate,
# made once per polynomial, and its values so far, each computed once per
# point.  Keyed by the identity of the polynomial that `bernoulli_polynomial`
# or `_antiderivative` returned, and holding it so the identity is not
# reused: a cache entry replaced by another polynomial gets a scaled form
# and values of its own.  The values are keyed by the point's (numerator,
# denominator), so an integer point and the equal Fraction endpoint share
# one value; they grow with the distinct points asked for, 880 over the
# ranges `verify` checks.  (Hashing by value would call the Python-level
# hash of every Fraction, coefficient or endpoint, on each lookup.)
_scaled_forms: dict[
    int, tuple[Polynomial, tuple[tuple[int, ...], int], dict[tuple[int, int], tuple[int, int]]]
] = {}


def _value(f: Polynomial, x: Fraction | int) -> tuple[int, int]:
    """f(x) as `horner` gives it for the scaled form of f: an integer over a
    positive denominator, the common denominator d of f at an integer x."""
    entry = _scaled_forms.get(id(f))
    if entry is None:
        entry = _scaled_forms[id(f)] = (f, scaled(f), {})
    _, form, values = entry
    point = x.numerator, x.denominator
    value = values.get(point)
    if value is None:
        value = values[point] = horner(*form, x)
    return value


def check_power_sum_identity(p: int, n: int) -> bool:
    """Does f_{p-1}(n) equal (B_p(n+1) - B_p(1)) / p?  Exact, brute-force left side.

    The subtracted constant is B_p at 1, the plus-convention Bernoulli
    number; it equals B_p(0) for every p >= 2 and keeps the identity exact
    at p = 1 as well.  With B_p = H/d, the test is
    H(n+1) - H(1) == p * d * f_{p-1}(n).
    """
    if p < 1:
        raise ValueError(f"power-sum identity needs p >= 1, got {p}")
    left = power_sum_bruteforce(p - 1, n)
    polynomial = bernoulli_polynomial(p)
    high, d = _value(polynomial, n + 1)
    low, _ = _value(polynomial, 1)
    return high - low == p * d * left


def check_integral_identity(i: int, a: Fraction, b: Fraction) -> bool:
    """Does the integral of B_i over [a, b] equal (B_{i+1}(b) - B_{i+1}(a))/(i+1)?

    The left side is integrated symbolically, once per B_i, and evaluated
    at the endpoints; both sides are exact.  With F = P/Q the antiderivative
    and B_{i+1} = R/S at each endpoint, the test is
    (i+1) (P(b) Q(a) - P(a) Q(b)) S(a) S(b) == (R(b) S(a) - R(a) S(b)) Q(a) Q(b).
    """
    if i < 0:
        raise ValueError(f"polynomial index must be >= 0, got {i}")
    antiderivative = _antiderivative(i)
    successor = bernoulli_polynomial(i + 1)
    pa, qa = _value(antiderivative, a)
    pb, qb = _value(antiderivative, b)
    ra, sa = _value(successor, a)
    rb, sb = _value(successor, b)
    return (i + 1) * (pb * qa - pa * qb) * sa * sb == (rb * sa - ra * sb) * qa * qb


def check_difference_identity(i: int, n: int) -> bool:
    """Does B_i(n+1) - B_i(n) equal i * n^(i-1)?  Defined for i > 1 only.

    With B_i = H/d, the test is H(n+1) - H(n) == i * d * n^(i-1).
    """
    if i <= 1:
        raise ValueError(f"difference identity needs i > 1, got {i}")
    polynomial = bernoulli_polynomial(i)
    high, d = _value(polynomial, n + 1)
    low, _ = _value(polynomial, n)
    return high - low == i * d * n ** (i - 1)
