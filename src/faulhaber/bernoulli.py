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
sums, which only `verify` checks, are in `_verify`.
"""
from __future__ import annotations

from math import comb, gcd

from .rationals import CoefficientRow, FrozenRecord, scaled

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: no command that prints loads `fractions`
    from fractions import Fraction

__all__ = [
    "BernoulliTable",
    "bernoulli_numbers",
    "faulhaber_via_bernoulli",
    "bernoulli_polynomial",
]


def __getattr__(name: str) -> object:
    # The benchmark's tracer looks the three identity checks up on this
    # module; they are defined in `_verify`.  This goes when the tracer
    # finds each function through its `__module__` (ROADMAP item 1).
    if name in ("check_power_sum_identity", "check_integral_identity",
                "check_difference_identity"):
        from . import _verify

        return getattr(_verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BernoulliTable(FrozenRecord):
    """Bernoulli numbers b_0..b_limit, stored in the minus convention as
    reduced integer pairs.

    `ratios_minus[k]` is b_k as (numerator, denominator), the denominator
    positive and prime to the numerator: (-1, 2) at k = 1, (0, 1) at every
    odd k >= 3.  `ratios_plus` is read from it, with b_1 = (1, 2) and every
    other pair the same object.  `values_minus` and `values_plus` give the
    numbers as `Fraction`s, a new tuple at each read.  The constructor takes
    the pairs, as `bernoulli_numbers` does; it raises ValueError on an empty
    table, on an entry that is not a reduced pair of ints with a positive
    denominator, and on a b_1 other than (-1, 2).
    """

    __slots__ = ("ratios_minus",)
    ratios_minus: tuple[tuple[int, int], ...]

    def __init__(self, ratios_minus: tuple[tuple[int, int], ...]) -> None:
        ratios = tuple(ratios_minus)  # a tuple: the caller's list stays the caller's
        if not ratios:
            raise ValueError("a table holds b_0 at least, got no numbers")
        for k, ratio in enumerate(ratios):
            if not (type(ratio) is tuple and len(ratio) == 2
                    and type(ratio[0]) is type(ratio[1]) is int
                    and ratio[1] > 0 and gcd(*ratio) == 1):
                raise ValueError(f"b_{k} is not a reduced pair of ints with a "
                                 f"positive denominator: {ratio!r}")
        if ratios[1:2] not in ((), ((-1, 2),)):
            raise ValueError(f"a table stores b_1 = (-1, 2), got b_1 = {ratios[1]!r}")
        super().__init__(ratios)

    @property
    def limit(self) -> int:
        return len(self.ratios_minus) - 1

    @property
    def ratios_plus(self) -> tuple[tuple[int, int], ...]:
        minus = self.ratios_minus
        return minus if len(minus) < 2 else (minus[0], (1, 2), *minus[2:])

    @property
    def values_minus(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        return tuple([Fraction(*ratio) for ratio in self.ratios_minus])

    @property
    def values_plus(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        return tuple([Fraction(*ratio) for ratio in self.ratios_plus])


def bernoulli_numbers(m: int) -> BernoulliTable:
    """Bernoulli numbers through index m, stored in the minus convention.

    The even-index numbers come from the tangent numbers T_1..T_h, h = m // 2
    (Brent and Harvey, arXiv:1108.0286), built in place with int arithmetic
    only:  B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)), reduced by one
    gcd.  b_1 = -1/2 in the minus convention the table stores, and odd
    indices >= 3 are zero.
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
    minus = [(1, 1), (-1, 2)]
    for k in range(1, h + 1):
        power = 4**k
        num, den = 2 * k * tangent[k], power * (power - 1)
        g = gcd(num, den)
        num, den = num // g, den // g
        minus += ((num if k % 2 else -num, den), (0, 1))
    del minus[m + 1:]
    return BernoulliTable(minus)


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
    for i, (num, den) in enumerate(table.ratios_plus[:q]):
        if num:
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
    from fractions import Fraction

    minus = table.ratios_minus
    # Each term is one Fraction built from integers, and the top one is
    # C(i, 0) * b_0 = 1, so there is no trailing zero to trim.
    return tuple(Fraction(comb(i, k) * minus[k][0], minus[k][1]) for k in range(i, -1, -1))

