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

A polynomial is held on integers, in the form of `CoefficientRow`: a pair
(numerators, d) of ints with d > 0 and gcd(d, *numerators) == 1, so
f(n) = sum_k numerators[k] n^k / d.  The path starts from the pair of the
row it continues, with a 0 prepended for the constant term; a step
divides gcd(p, d) out of p and d, integrates and scales each entry with
one divmod by its small divisor, and puts the whole row over one common
denominator that is already reduced, so no gcd over the row and no
division of every entry follows; the last pair, its zero constant term
dropped, is the row returned.  No step builds a `Fraction`: normalising
every entry as a `Fraction` at every step would cost a gcd per slot on
numerators of thousands of bits, although the row's reduced denominator
stays small.

This module keeps no state: a caller walking the degrees upward passes the
row it holds back in.  It does not participate in the operation-count cost
model, which applies to the direct algorithm only.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rationals import CoefficientRow, Scaled, start_row

__all__ = [
    "integration_coefficients",
]


def integration_step(f_prev: Scaled, p: int) -> Scaled:
    """One recurrence step: the power-sum polynomial of degree p + 1 from
    the one of degree p (f_prev represents f_{p-1}, a nonzero polynomial),
    both as (numerators, d) pairs.

    Computes p * F plus the linear correction (1 - p * F(1)) * n, where F
    is the antiderivative of f_prev with zero constant.  With u = gcd(p, d),
    p' = p / u and d' = d / u, the entry of slot k + 1 is
    p' * c_k / (d' * (k+1)), c_k = numerators[k].  One divmod,
    c_k = q * (k+1) + r, serves that slot twice: the remainder gives the
    factor (k+1) / gcd(p' * r, k+1) that p' * c_k / (k+1) needs in its
    denominator, and over d' * m, m the least common multiple of those
    factors, the quotient gives the numerator q * p'm + r * p'm / (k+1)
    exactly.

    No reducing pass follows, because a canonical f_prev with a zero
    constant term, as every polynomial of the chain is, gives a canonical
    result.  Take a prime t dividing d' * m.  If t divides m, its full
    power t^e in m is the t-part of one slot's factor, for a slot k >= 1
    (slot 0's factor is 1); the entry of slot k + 1 is m times a reduced
    fraction with t^e in its denominator, so t does not divide it.  If t
    divides d' but not m, it does not divide p' either (gcd(p', d') = 1),
    so it divides the entry of slot k + 1 only if it divides c_k; for it to
    divide every entry it would have to divide every c_k (c_0 = 0) and d,
    against gcd(d, *numerators) == 1.  Any other input still gets its
    canonical pair: the gcd over the row is taken anyway, stops at its
    first 1, and the row is divided only when it is not 1.
    """
    if p < 1:
        raise ValueError(f"integration recurrence needs p >= 1, got {p}")
    numerators, d = f_prev
    u = gcd(p, d)
    p, d = p // u, d // u  # p' and d'
    parts = [divmod(c, k + 1) for k, c in enumerate(numerators)]
    m = lcm(*((k + 1) // gcd(p * r, k + 1) for k, (_, r) in enumerate(parts)))
    pm = p * m
    # p * F over d' * m; its top entry stays nonzero, so a trimmed f_prev
    # gives a trimmed result.
    out = [0, *(q * pm + r * pm // (k + 1) for k, (q, r) in enumerate(parts))]
    dm = d * m
    out[1] += dm - sum(out)
    g = gcd(dm, *out)
    if g != 1:
        return tuple(c // g for c in out), dm // g
    return tuple(out), dm


def integration_coefficients(p: int, start: CoefficientRow | None = None) -> CoefficientRow:
    """Coefficient row for exponent p via the integration recurrence.

    Starts from f_0(n) = n, or from the power-sum polynomial of `start`, a
    row of degree at most p, and applies integration_step once per degree
    after it.  Then drops the constant coefficient, and fails loudly if it
    is not zero: power sums have none, so one means the computation that
    produced it is broken.
    """
    start = start_row(p, start)
    f = (0, *start.numerators), start.denominator
    for i in range(start.degree + 1, p + 1):
        f = integration_step(f, i)
    numerators, d = f
    if numerators[0] != 0:
        raise ValueError(
            f"power-sum polynomial has nonzero constant coefficient "
            f"{Fraction(numerators[0], d)}; refusing to drop it"
        )
    return CoefficientRow.from_scaled(numerators[1:], d)
