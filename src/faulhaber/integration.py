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

Between steps a polynomial is held on integers, in the scaled form of
`rationals.scaled`: a pair (numerators, d) of ints with d > 0 and
gcd(d, *numerators) == 1, so f(n) = sum_k numerators[k] n^k / d.  A step
integrates and scales on those integers, puts the whole row over one
common denominator and reduces it by one gcd; a `Fraction` is built once
per entry of the returned row, at the end.  Normalising every entry as a
`Fraction` at every step would cost a gcd per slot on numerators of
thousands of bits, although the row's reduced denominator stays small.
The integration here is its own, on the integers; the `Fraction`
antiderivative `rationals.integrate_polynomial` serves only
`bernoulli.IdentityValues`.

This module keeps no state: a caller walking the degrees upward passes the
row it holds back in.  It does not participate in the operation-count cost
model, which applies to the direct algorithm only.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rationals import ONE, ZERO, CoefficientRow, scaled

__all__ = [
    "integration_coefficients",
]

Scaled = tuple[tuple[int, ...], int]


def integration_step(f_prev: Scaled, p: int) -> Scaled:
    """One recurrence step: the power-sum polynomial of degree p + 1 from
    the one of degree p (f_prev represents f_{p-1}, a nonzero polynomial),
    both in scaled form.

    Computes p * F plus the linear correction (1 - p * F(1)) * n, where F
    is the antiderivative of f_prev with zero constant.  The entry
    p * c_k / (k+1) of slot k + 1, with c_k = numerators[k] / d, needs the
    factor (k+1) / gcd(p * c_k, k+1) in its denominator, so the whole row
    goes over d * m, m the least common multiple of those factors.
    """
    if p < 1:
        raise ValueError(f"integration recurrence needs p >= 1, got {p}")
    numerators, d = f_prev
    products = [p * c for c in numerators]
    m = lcm(*((k + 1) // gcd(pc, k + 1) for k, pc in enumerate(products)))
    # p * F over d * m; its top entry stays nonzero, so a trimmed f_prev
    # gives a trimmed result.
    out = [0, *(pc * m // (k + 1) for k, pc in enumerate(products))]
    dm = d * m
    out[1] += dm - sum(out)
    g = gcd(dm, *out)
    return tuple(c // g for c in out), dm // g


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
    f = scaled((ZERO, *start.coefficients))
    for i in range(start.degree + 1, p + 1):
        f = integration_step(f, i)
    return _to_row(f)


def _to_row(f: Scaled) -> CoefficientRow:
    """Convert a power-sum polynomial in scaled form to its coefficient row
    of reduced `Fraction`s.

    Fails loudly on a nonzero constant coefficient: power sums have none,
    so its presence means the computation that produced f is broken.
    """
    numerators, d = f
    if len(numerators) < 2:
        raise ValueError(f"not a power-sum polynomial (degree too low): {f!r}")
    if numerators[0] != 0:
        raise ValueError(
            f"power-sum polynomial has nonzero constant coefficient "
            f"{Fraction(numerators[0], d)}; refusing to drop it"
        )
    return CoefficientRow(len(numerators) - 2, tuple(Fraction(c, d) for c in numerators[1:]))
