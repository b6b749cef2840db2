"""Ground truth by definition: brute-force power sums over big integers,
and exact evaluation of a coefficient row.

Every equivalence test in the package bottoms out here — no closed forms,
no shortcuts.  A row is evaluated through `integration.poly_eval`, the
integer Horner scheme the Bernoulli identity checks use too.
"""
from __future__ import annotations

from fractions import Fraction

from .direct import CoefficientRow
from .integration import poly_eval

__all__ = ["power_sum_bruteforce", "evaluate_row"]


def power_sum_bruteforce(p: int, n: int) -> int:
    """1^p + 2^p + ... + n^p by repeated exponentiation and addition."""
    if p < 0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    if n < 1:
        raise ValueError(f"power sums are defined for n >= 1, got {n}")
    return sum(k**p for k in range(1, n + 1))


def evaluate_row(row: CoefficientRow, n: int) -> Fraction:
    """Exact value of a_1 n + ... + a_{p+1} n^{p+1}, by integer Horner.

    For a true Faulhaber row the result is an integer-valued rational
    (denominator 1).
    """
    if n < 1:
        raise ValueError(f"rows are evaluated at n >= 1, got {n}")
    return n * poly_eval(row.coefficients, n)
