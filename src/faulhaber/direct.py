"""Direct row-by-row computation of Faulhaber coefficients.

The power sum f_p(n) = 1^p + ... + n^p equals a polynomial
a_1 n + ... + a_{p+1} n^{p+1}.  Its coefficients are built one degree at a
time from the previous degree: for j > 1 the entry of degree i is
(i/j) times the previous row's entry one power lower, and the linear
coefficient is then fixed so the row sums to 1 (because f_i(1) = 1).

Only a single rolling row is ever alive; it is updated in place from the
highest power downward, so each slot is overwritten strictly after the
slot below it has been consumed.  The last row handed out is kept, so a
caller walking the degrees upward pays for each step once.
"""
from __future__ import annotations

from fractions import Fraction

from ._record import FrozenRecord
from .rationals import ONE, ZERO, OpCounter, rat_add, rat_mul, rat_sub

__all__ = ["CoefficientRow", "direct_coefficients"]


class CoefficientRow(FrozenRecord):
    """Coefficients a_1..a_{p+1} of the polynomial equal to 1^p + ... + n^p.

    `coefficients[j - 1]` holds the coefficient of n^j, ascending by power.
    The constant term of a power-sum polynomial is always zero and is not
    stored; emitters that need it synthesize a literal zero.

    Rows produced by any of the computation paths satisfy: the entries sum
    to 1, the top entry is 1/(p+1), the entry of n^p is 1/2 for p >= 1, and
    the entry of n^(p-2) is 0 for p >= 3.  Those are theorems checked by
    the test suite, not constructor requirements, so that deliberately
    corrupted rows can be built when exercising mismatch detection.
    """

    __slots__ = ("degree", "coefficients")
    degree: int
    coefficients: tuple[Fraction, ...]

    def __init__(self, degree: int, coefficients: tuple[Fraction, ...]) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if len(coefficients) != degree + 1:
            raise ValueError(
                f"a row of degree {degree} holds {degree + 1} "
                f"coefficients, got {len(coefficients)}"
            )
        super().__init__(degree, coefficients)

    def coefficient(self, power: int) -> Fraction:
        """The coefficient of n**power, for 1 <= power <= degree + 1."""
        if not 1 <= power <= self.degree + 1:
            raise IndexError(
                f"power {power} outside 1..{self.degree + 1} for degree {self.degree}"
            )
        return self.coefficients[power - 1]


def _advance(row: list[Fraction], i: int, counter: OpCounter | None) -> None:
    """Turn the length-i row for degree i-1 into the row for degree i, in place.

    j runs downward so row[j - 2] is still the previous row's entry when
    read.  The ratio i/j is formed once per slot and applied with a single
    counted multiplication; the running sum and the final 1 - s are the
    counted additions.
    """
    row.append(ZERO)
    s = ZERO
    for j in range(i + 1, 1, -1):
        row[j - 1] = rat_mul(Fraction(i, j), row[j - 2], counter)
        s = rat_add(s, row[j - 1], counter)
    row[0] = rat_sub(ONE, s, counter)


# The last row direct_coefficients returned and the counter that tallied it
# (None if uncounted).  Holding the counter keeps its identity from passing
# to a new one.  The pair is replaced whole, never mutated, so a concurrent
# caller always reads a consistent one.
_last: tuple[OpCounter | None, CoefficientRow] = (None, CoefficientRow(0, (ONE,)))


def direct_coefficients(p: int, counter: OpCounter | None = None) -> CoefficientRow:
    """Coefficients of the Faulhaber formula for exponent p.

    Starts from the single-entry row [1] (f_0(n) = n) and advances one
    degree per step on a single rolling list.  With a fresh counter attached
    the tallies come out to exactly p(p+1)/2 + p additions/subtractions and
    p(p+1)/2 multiplications.

    A request with the same counter (or again none) as the previous call, for
    the same degree or a higher one, continues from the previous row instead
    of from [1]; the counter then holds the totals for degree p.  Any other
    request starts over.
    """
    global _last
    if p < 0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    last_counter, last = _last
    if last_counter is not counter or last.degree > p:
        last = CoefficientRow(0, (ONE,))
    row = list(last.coefficients)
    for i in range(last.degree + 1, p + 1):
        _advance(row, i, counter)
    result = CoefficientRow(p, tuple(row))
    _last = (counter, result)
    return result
