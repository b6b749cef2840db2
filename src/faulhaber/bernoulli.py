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
and the polynomials read the table their caller passes, so the module keeps
no state between calls.

The three check_* functions evaluate, in exact arithmetic, the textbook
identities tying power sums to Bernoulli polynomials; the verification
command runs them over fixed ranges.  They compare integers only: one
`IdentityValues`, built per run of the checks and passed to each, holds
every polynomial scaled to its common denominator and gives its value at
each point once, from `horner`, as an integer over a positive denominator
(d itself at an integer point); each identity is cross-multiplied by its
denominators, so no check builds a Fraction.
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
    "IdentityValues",
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
        if not len(values_minus) == len(values_plus) == limit + 1:
            raise ValueError(
                f"a table through b_{limit} holds {limit + 1} numbers per "
                f"convention, got {len(values_minus)} and {len(values_plus)}"
            )
        for k, (b_minus, b_plus) in enumerate(zip(values_minus, values_plus)):
            expected = (Fraction(-1, 2), Fraction(1, 2)) if k == 1 else (b_minus, b_minus)
            if (b_minus, b_plus) != expected:
                raise ValueError(
                    "the conventions differ only in b_1 = -1/2 and +1/2, "
                    f"got b_{k} = {b_minus} and {b_plus}"
                )
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


def bernoulli_polynomial(i: int, table: BernoulliTable | None = None) -> Polynomial:
    """The i-th Bernoulli polynomial B_i(t) = sum_k C(i, k) * b_k * t^(i-k).

    Built from the minus convention, so B_i(0) is the minus-convention
    number and B_i(1) the plus-convention one.  The numbers come from
    `table`, whose limit must be at least i, or from a table built for i.
    """
    if i < 0:
        raise ValueError(f"polynomial index must be >= 0, got {i}")
    table = table or bernoulli_numbers(i)
    if table.limit < i:
        raise ValueError(f"a table through b_{table.limit} cannot give B_{i}")
    minus = table.values_minus
    # Each term is one Fraction built from integers, and the top one is
    # C(i, 0) * b_0 = 1, so there is no trailing zero to trim.
    return tuple(Fraction(comb(i, k) * minus[k].numerator, minus[k].denominator)
                 for k in range(i, -1, -1))


class IdentityValues:
    """B_0..B_limit from one table, their antiderivatives (zero constant
    term), each scaled once, and their values, each computed once per point.

    `values(i, x)` is B_i(x), and with `integrated=True` the antiderivative
    of B_i at x, as `horner` gives it: an integer over a positive
    denominator, d itself at an integer x.  An integer point and the equal
    Fraction share one value.  An index above `limit` raises ValueError.
    """

    __slots__ = ("limit", "polynomials", "antiderivatives", "_forms", "_values")

    def __init__(self, limit: int) -> None:
        table = bernoulli_numbers(limit)
        self.limit = limit
        # Through the module global, which a tracer or a test may wrap.
        self.polynomials = tuple(bernoulli_polynomial(i, table) for i in range(limit + 1))
        self.antiderivatives = tuple(map(integrate_polynomial, self.polynomials))
        self._forms = tuple(tuple(map(scaled, polynomials))
                            for polynomials in (self.polynomials, self.antiderivatives))
        self._values: dict[tuple[bool, int, int, int], tuple[int, int]] = {}

    def __call__(self, i: int, x: Fraction | int, integrated: bool = False) -> tuple[int, int]:
        key = integrated, i, x.numerator, x.denominator
        value = self._values.get(key)
        if value is None:
            if not 0 <= i <= self.limit:
                raise ValueError(f"values through B_{self.limit} cannot give B_{i}")
            value = self._values[key] = horner(*self._forms[integrated][i], x)
        return value


def check_power_sum_identity(p: int, n: int, values: IdentityValues) -> bool:
    """Does f_{p-1}(n) equal (B_p(n+1) - B_p(1)) / p?  Exact, brute-force left side.

    The subtracted constant is B_p at 1, the plus-convention Bernoulli
    number; it equals B_p(0) for every p >= 2 and keeps the identity exact
    at p = 1 as well.  With B_p = H/d, the test is
    H(n+1) - H(1) == p * d * f_{p-1}(n).
    """
    if p < 1:
        raise ValueError(f"power-sum identity needs p >= 1, got {p}")
    left = power_sum_bruteforce(p - 1, n)
    high, d = values(p, n + 1)
    low, _ = values(p, 1)
    return high - low == p * d * left


def check_integral_identity(i: int, a: Fraction, b: Fraction, values: IdentityValues) -> bool:
    """Does the integral of B_i over [a, b] equal (B_{i+1}(b) - B_{i+1}(a))/(i+1)?

    The left side is B_i integrated symbolically and evaluated at the
    endpoints; both sides are exact.  With F = P/Q the antiderivative and
    B_{i+1} = R/S at each endpoint, the test is
    (i+1) (P(b) Q(a) - P(a) Q(b)) S(a) S(b) == (R(b) S(a) - R(a) S(b)) Q(a) Q(b).
    """
    if i < 0:
        raise ValueError(f"polynomial index must be >= 0, got {i}")
    pa, qa = values(i, a, integrated=True)
    pb, qb = values(i, b, integrated=True)
    ra, sa = values(i + 1, a)
    rb, sb = values(i + 1, b)
    return (i + 1) * (pb * qa - pa * qb) * sa * sb == (rb * sa - ra * sb) * qa * qb


def check_difference_identity(i: int, n: int, values: IdentityValues) -> bool:
    """Does B_i(n+1) - B_i(n) equal i * n^(i-1)?  Defined for i > 1 only.

    With B_i = H/d, the test is H(n+1) - H(n) == i * d * n^(i-1).
    """
    if i <= 1:
        raise ValueError(f"difference identity needs i > 1, got {i}")
    high, d = values(i, n + 1)
    low, _ = values(i, n)
    return high - low == i * d * n ** (i - 1)
