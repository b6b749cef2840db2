"""Direct row-by-row computation of Faulhaber coefficients.

The power sum f_p(n) = 1^p + ... + n^p equals a polynomial
a_1 n + ... + a_{p+1} n^{p+1}.  Its coefficients are built one degree at a
time from the previous degree: for j > 1 the entry of degree i is
(i/j) times the previous row's entry one power lower, and the linear
coefficient is then fixed so the row sums to 1 (because f_i(1) = 1).

Only a single rolling row is ever alive; it is updated in place from the
highest power downward, so each slot is overwritten strictly after the
slot below it has been consumed.  The module keeps no state: a caller
walking the degrees upward passes the row it holds back in as `start`, and
pays for each step once.
"""
from __future__ import annotations

from fractions import Fraction

from .rationals import ONE, ZERO, CoefficientRow, OpCounter, rat_add, rat_mul, rat_sub, start_row

__all__ = ["direct_coefficients"]


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


def direct_coefficients(
    p: int, counter: OpCounter | None = None, start: CoefficientRow | None = None
) -> CoefficientRow:
    """Coefficients of the Faulhaber formula for exponent p.

    Starts from the single-entry row [1] (f_0(n) = n), or from `start`, a
    row of degree at most p, and advances one degree per step on a single
    rolling list.  A counter gains the operations of the degrees after the
    start: from [1], exactly p(p+1)/2 + p additions/subtractions and
    p(p+1)/2 multiplications.
    """
    start = start_row(p, start)
    row = list(start.coefficients)
    for i in range(start.degree + 1, p + 1):
        _advance(row, i, counter)
    return CoefficientRow(p, tuple(row))
