"""Second computation path: build f_p from f_{p-1} by exact symbolic
integration.

The recurrence is

    f_0(n) = n
    f_p(n) = p * integral(f_{p-1}, 0, n) + (1 - p * integral(f_{p-1}, 0, 1)) * n

for p > 0.  Both definite integrals come from one antiderivative with zero
constant term: over [0, n] it is the antiderivative itself, over [0, 1] it
is the antiderivative evaluated at 1.  Term by term this is the direct
recurrence (the coefficient of n^(k+1) is p * c_k / (k+1), the linear one
1 minus the rest), computed by separate code in another order.

Polynomials here are dense tuples of rationals, ascending by power, with
trailing zeros trimmed; the zero polynomial is the empty tuple.  This
module does not participate in the operation-count cost model, which
applies to the direct algorithm only.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .direct import CoefficientRow
from .rationals import ONE, ZERO

__all__ = [
    "Polynomial",
    "polynomial",
    "poly_eval",
    "integrate_polynomial",
    "integration_step",
    "integration_coefficients",
    "power_sum_polynomial_to_row",
]

Polynomial = tuple[Fraction, ...]


def polynomial(coeffs: Iterable[Fraction | int]) -> Polynomial:
    """Normalize a coefficient sequence: exact rationals, trailing zeros cut."""
    values = [Fraction(c) for c in coeffs]
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def poly_eval(f: Polynomial, x: Fraction | int) -> Fraction:
    """Exact value of f at x, by Horner's scheme on integers.

    With d the common denominator of the coefficients c_k, x = u/v and
    n = deg f, the value is sum_k d c_k u^k v^(n-k) / (d v^n).  Horner runs
    on that numerator with a running power of v, so the only Fraction is
    the one built at the end.
    """
    if not f:
        return ZERO
    d = lcm(*(c.denominator for c in f))
    u, v = x.numerator, x.denominator
    acc = 0
    power = 1  # v ** (number of coefficients folded in so far)
    for c in reversed(f):
        acc = acc * u + c.numerator * (d // c.denominator) * power
        power *= v
    return Fraction(acc, d * (power // v))


def integrate_polynomial(f: Polynomial) -> Polynomial:
    """Antiderivative with zero constant term: c_k t^k maps to c_k/(k+1) t^(k+1)."""
    if not f:
        return ()
    return (ZERO,) + tuple(Fraction(c, k + 1) for k, c in enumerate(f))


def integration_step(f_prev: Polynomial, p: int) -> Polynomial:
    """One recurrence step: the power-sum polynomial of degree p + 1 from
    the one of degree p (f_prev represents f_{p-1}).

    Computes p * F plus the linear correction (1 - p * F(1)) * n, where F
    is the antiderivative of f_prev with zero constant.
    """
    if p < 1:
        raise ValueError(f"integration recurrence needs p >= 1, got {p}")
    antiderivative = integrate_polynomial(f_prev)
    correction = ONE - p * sum(antiderivative, start=ZERO)
    if not antiderivative:
        return (ZERO, correction)
    # A Fraction factor, not the int p: int * Fraction builds a new Fraction
    # from the int on every multiplication.  The top entry stays nonzero, so
    # a trimmed f_prev gives a trimmed result.
    factor = Fraction(p)
    out = [c * factor for c in antiderivative]
    out[1] += correction
    return tuple(out)


# The degree q and polynomial f_q that integration_coefficients reached last.
# The pair is replaced whole, never mutated.
_last: tuple[int, Polynomial] = (0, (ZERO, ONE))


def integration_coefficients(p: int) -> CoefficientRow:
    """Coefficient row for exponent p via the integration recurrence.

    Starts from f_0(n) = n and applies integration_step p times, then drops
    the constant coefficient, which a correct run leaves exactly zero.  A
    request for the previous call's degree or a higher one continues from
    the previous f instead of from f_0.
    """
    global _last
    if p < 0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    q, f = _last
    if q > p:
        q, f = 0, (ZERO, ONE)
    for i in range(q + 1, p + 1):
        f = integration_step(f, i)
    _last = (p, f)
    return power_sum_polynomial_to_row(f)


def power_sum_polynomial_to_row(f: Polynomial) -> CoefficientRow:
    """Convert a power-sum polynomial to its coefficient row.

    Fails loudly on a nonzero constant coefficient: power sums have none,
    so its presence means the computation that produced f is broken.
    """
    if len(f) < 2:
        raise ValueError(f"not a power-sum polynomial (degree too low): {f!r}")
    if f[0] != 0:
        raise ValueError(
            f"power-sum polynomial has nonzero constant coefficient {f[0]}; "
            "refusing to drop it"
        )
    return CoefficientRow(len(f) - 2, f[1:])
