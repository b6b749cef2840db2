"""Direct row-by-row computation of Faulhaber coefficients, and its cost model.

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

The paper's cost model counts the rational operations of this recurrence:
from [1] to degree p, p(p+1)/2 multiplications and p(p+1)/2 + p
additions/subtractions.  `OpCounter` holds that tally, and `counted_pass`
checks it against those formulas for `bench` and `verify`.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

from .rationals import CoefficientRow, Record, scaled, start_row

__all__ = ["OpCounter", "direct_coefficients"]


class OpCounter(Record):
    """Running tally of the direct recurrence's rational operations.

    Subtractions count toward `additions`.  Loop-index bookkeeping,
    assignments, and forming a ratio like i/j from two integer counters are
    free under this cost model.
    """

    __slots__ = ("additions", "multiplications")
    additions: int
    multiplications: int

    def __init__(self, additions: int = 0, multiplications: int = 0) -> None:
        self.additions = additions
        self.multiplications = multiplications


def _advance(row: list[Fraction | int], d: int, counter: OpCounter | None) -> None:
    """Turn the length-i row for degree i-1 into the row for degree i, in place.

    The incoming entries are held multiplied by d, as a row's numerators
    over its denominator are: slot j takes i/(j d) times the entry one power
    lower, one rational multiplication either way.  The row leaves as
    Fractions, so each later step passes d = 1.  j runs downward so
    row[j - 2] is still the previous row's entry when read.  Step i costs i
    multiplications (one per slot j = i+1..2) and i + 1 additions/subtractions
    (i into the running sum, then 1 - s); a counter gains both once per step.
    """
    i = len(row)
    row.append(0)
    s = 0
    for j in range(i + 1, 1, -1):
        row[j - 1] = term = Fraction(i, j * d) * row[j - 2]
        s += term
    row[0] = 1 - s
    if counter is not None:
        counter.additions += i + 1
        counter.multiplications += i


def direct_coefficients(
    p: int, counter: OpCounter | None = None, start: CoefficientRow | None = None
) -> CoefficientRow:
    """Coefficients of the Faulhaber formula for exponent p.

    Starts from the single-entry row [1] (f_0(n) = n), or from `start`, a
    row of degree at most p, and advances one degree per step on a single
    rolling list, seeded with the start's integer numerators.  A counter
    gains the operations of the degrees after the start: from [1], exactly
    p(p+1)/2 + p additions/subtractions and p(p+1)/2 multiplications.
    """
    start = start_row(p, start)
    if start.degree == p:
        return start
    row, d = list(start.numerators), start.denominator
    for _ in range(p - start.degree):
        _advance(row, d, counter)
        d = 1
    return CoefficientRow.from_scaled(*scaled([c.as_integer_ratio() for c in row]))


def predicted_additions(p: int) -> int:
    return p * (p + 1) // 2 + p


def predicted_multiplications(p: int) -> int:
    return p * (p + 1) // 2


def counted_pass(
    degrees: Iterable[int],
) -> Iterator[tuple[int, CoefficientRow, int, int, bool]]:
    """Direct rows for the ascending `degrees` on one running counter, each
    continued from the row before: after each p, yield p, its row, the
    additions and multiplications so far (those of building row p from
    scratch) and whether they match the formulas.  The row function and the
    formulas are module globals, read at each call for a tracer or a test."""
    counter = OpCounter()
    row = None
    for p in degrees:
        row = direct_coefficients(p, counter, row)
        counts = counter.additions, counter.multiplications
        yield p, row, *counts, counts == (predicted_additions(p), predicted_multiplications(p))
