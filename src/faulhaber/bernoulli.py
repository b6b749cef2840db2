"""Third computation path: Bernoulli numbers, Bernoulli polynomials, and
the classical closed formula

    f_p(n) = 1/(p+1) * sum_{i=0..p} C(p+1, i) * b_i * n^(p+1-i)

with b_1 = +1/2.

Bernoulli numbers come in two sign conventions that differ only at index 1:
the "minus" convention (b_1 = -1/2) is what the standard Bernoulli
polynomials interpolate at 0, while the closed formula above needs the
"plus" convention (b_1 = +1/2, which is B_1 evaluated at 1).  A table
stores the minus convention only and gives the plus one read from it, so
no caller ever flips a sign ad hoc — conflating the two is the classic
off-by-sign bug this module is shaped to prevent.
Each `bernoulli_numbers` call builds its own table, and the closed formula
and the polynomials read the table their caller passes, so the module keeps
no state between calls.

A Bernoulli polynomial is dense: a tuple of `Fraction`s ascending by
power, its top coefficient nonzero.  The identities that tie them to power
sums, which only `verify` checks, are in `identities`.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .rationals import ONE, ZERO, CoefficientRow, FrozenRecord, exact, scaled

__all__ = [
    "BernoulliTable",
    "bernoulli_numbers",
    "faulhaber_via_bernoulli",
    "bernoulli_polynomial",
]


def __getattr__(name: str) -> object:
    # The benchmark's tracer looks the three identity checks up on this
    # module; they are defined in `identities`.  This goes when the tracer
    # finds each function through its `__module__` (ROADMAP item 1).
    if name in ("check_power_sum_identity", "check_integral_identity",
                "check_difference_identity"):
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BernoulliTable(FrozenRecord):
    """Bernoulli numbers b_0..b_limit, stored in the minus convention.

    values_minus[1] == -1/2; `values_plus` is read from it, with b_1 = +1/2
    and every other entry the same object.  Odd indices >= 3 are zero.
    Each entry is a `Fraction` or an int, stored as a `Fraction`.
    """

    __slots__ = ("values_minus",)
    values_minus: tuple[Fraction, ...]

    def __init__(self, values_minus: tuple[Fraction, ...]) -> None:
        values_minus = exact(tuple(values_minus), "b_{}".format)
        if not values_minus:
            raise ValueError("a table holds b_0 at least, got no numbers")
        if values_minus[1:2] not in ((), (Fraction(-1, 2),)):
            raise ValueError(f"a table stores b_1 = -1/2, got b_1 = {values_minus[1]}")
        super().__init__(values_minus)

    @property
    def limit(self) -> int:
        return len(self.values_minus) - 1

    @property
    def values_plus(self) -> tuple[Fraction, ...]:
        minus = self.values_minus
        return minus if len(minus) < 2 else (minus[0], Fraction(1, 2), *minus[2:])


def bernoulli_numbers(m: int) -> BernoulliTable:
    """Bernoulli numbers through index m, stored in the minus convention.

    The even-index numbers come from the tangent numbers T_1..T_h, h = m // 2
    (Brent and Harvey, arXiv:1108.0286), built in place with int arithmetic
    only:  B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)).  b_1 = -1/2 in the
    minus convention the table stores, and odd indices >= 3 are zero.
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
    return BernoulliTable(tuple(minus))


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
    # Each entry C(p+1, i) * num(b_i) / (den(b_i) * (p+1)) is reduced on its
    # small denominator: first against C(p+1, i), walked within the row as
    # C(p+1, i+1) = C(p+1, i) * (p+1-i) / (i+1), then against num(b_i).  The
    # odd i >= 3, where b_i = 0, stay 0 over 1.  Nothing carries over from
    # another degree: that would turn this path into the direct recurrence.
    q = p + 1
    ratios = [(0, 1)] * q
    binomial = 1
    for i, b in enumerate(table.values_plus[:q]):
        if b:
            num, den = b.as_integer_ratio()
            g = gcd(binomial, den * q)
            c, den = binomial // g, den * q // g
            g = gcd(num, den)
            ratios[p - i] = c * (num // g), den // g
        binomial = binomial * (q - i) // (i + 1)
    return CoefficientRow.from_scaled(*scaled(ratios))


def bernoulli_polynomial(i: int, table: BernoulliTable | None = None) -> tuple[Fraction, ...]:
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

