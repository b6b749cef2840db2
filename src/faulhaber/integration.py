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

The polynomials and their antiderivatives are those of `rationals`.  This
module keeps no state: a caller walking the degrees upward passes the row
it holds back in.  It does not participate in the operation-count cost
model, which applies to the direct algorithm only.
"""
from __future__ import annotations

from fractions import Fraction

from .rationals import ONE, ZERO, CoefficientRow, Polynomial, integrate_polynomial

__all__ = [
    "integration_step",
    "integration_coefficients",
]

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


def integration_coefficients(p: int, start: CoefficientRow | None = None) -> CoefficientRow:
    """Coefficient row for exponent p via the integration recurrence.

    Starts from f_0(n) = n, or from the power-sum polynomial of `start`, a
    row of degree at most p, and applies integration_step once per degree
    after it.  Then drops the constant coefficient, which a correct run
    leaves exactly zero.
    """
    if p < 0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    start = start or CoefficientRow(0, (ONE,))
    if start.degree > p:
        raise ValueError(f"cannot continue to degree {p} from degree {start.degree}")
    f = (ZERO, *start.coefficients)
    for i in range(start.degree + 1, p + 1):
        f = integration_step(f, i)
    return _to_row(f)


def _to_row(f: Polynomial) -> CoefficientRow:
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
