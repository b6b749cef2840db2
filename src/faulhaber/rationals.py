"""The counted cost model of the direct path.

Every coefficient in this package is a plain `fractions.Fraction`: exact,
reduced, with `int` numerator and denominator and no floating point.  What
this module adds is the cost model the paper states for the direct
recurrence and that the benchmark and verification commands check.

`OpCounter` tallies additions/subtractions and multiplications performed
*on rationals*.  Counting is opt-in: a counter is passed explicitly into
`rat_add`, `rat_sub` and `rat_mul` by the one computation that owns it;
plain `Fraction` operator arithmetic stays uncounted.
"""
from __future__ import annotations

from fractions import Fraction

from ._record import Record

__all__ = ["ZERO", "ONE", "OpCounter", "rat_add", "rat_sub", "rat_mul"]

ZERO = Fraction(0)
ONE = Fraction(1)


class OpCounter(Record):
    """Running tally of counted rational operations.

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


def rat_add(a: Fraction, b: Fraction, counter: OpCounter | None = None) -> Fraction:
    """Exact sum, tallied as one addition when a counter is attached."""
    if counter is not None:
        counter.additions += 1
    return a + b


def rat_sub(a: Fraction, b: Fraction, counter: OpCounter | None = None) -> Fraction:
    """Exact difference; subtractions share the additions tally."""
    if counter is not None:
        counter.additions += 1
    return a - b


def rat_mul(a: Fraction, b: Fraction, counter: OpCounter | None = None) -> Fraction:
    """Exact product, tallied as one multiplication when counted."""
    if counter is not None:
        counter.multiplications += 1
    return a * b
