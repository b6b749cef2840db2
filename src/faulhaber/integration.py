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
(numerators, d) of ints with d > 0 and gcd(d, *numerators) == 1, entry j
being the coefficient numerators[j] / d of n^(j+1).  Every f_p has a zero
constant term, so none is stored: the path starts from the pair of the row
it continues, and its last pair is the row returned.  A step divides
gcd(p, d) out of p and d and makes two passes.  The first takes one divmod
of each nonzero entry by its small divisor and grows the new denominator's
factor as it goes; the second writes each scaled numerator and sums them
for the linear entry.  The whole row lands over one common denominator
that is already reduced, so no gcd over the row and no division of every
entry follows.  A zero entry costs nothing, and about half the
entries of every f_p are zero: that of n^(p+1-i) for every odd i >= 3,
because the Bernoulli number b_i is zero there.  No step builds a
`Fraction`: normalising every entry as a `Fraction` at every step would
cost a gcd per slot on numerators of thousands of bits, although the row's
reduced denominator stays small.

This module keeps no state: a caller walking the degrees upward passes the
row it holds back in.  It does not participate in the operation-count cost
model, which applies to the direct algorithm only.
"""
from __future__ import annotations

from math import gcd

from .rationals import CoefficientRow, Scaled, start_row

__all__ = [
    "integration_coefficients",
]


def integration_step(f_prev: Scaled, p: int) -> Scaled:
    """One recurrence step: the power-sum polynomial of degree p + 1 from
    the one of degree p (f_prev represents f_{p-1}), both as canonical
    (numerators, d) pairs whose entry j is the coefficient of n^(j+1).

    Computes p * F plus the linear correction (1 - p * F(1)) * n, where F
    is the antiderivative of f_prev with zero constant.  With u = gcd(p, d),
    p' = p / u and d' = d / u, entry j feeds slot j + 1 the value
    p' * c_j / (d' * (j+2)), c_j = numerators[j].  A zero c_j feeds a zero
    slot and adds the factor 1 to m, so only the nonzero entries are
    visited.  For each, one divmod, c_j = q * (j+2) + r, serves its slot
    twice: the remainder gives the factor (j+2) / gcd(p' * r, j+2) that
    p' * c_j / (j+2) needs in its denominator, and over d' * m, m the least
    common multiple of those factors, the quotient gives the numerator
    q * p'm + r * p'm / (j+2) exactly.  The linear entry is d' * m less the
    sum of the others.

    The first loop takes the divmods and builds m as it goes, multiplying
    it up by a factor only when the factor does not divide it already; a
    zero remainder has the factor 1.  The second writes each nonzero
    entry's numerator into a list that holds the linear slot too, and
    keeps their running sum.  Most remainders are zero, and their slots
    take the product q * p'm alone.

    No reducing pass follows, because a canonical f_prev gives a canonical
    result.  Take a prime t dividing d' * m.  If t divides m, its full
    power t^e in m is the t-part of one entry's factor; the slot that entry
    feeds holds m times a reduced fraction with t^e in its denominator, so
    t does not divide it.  If t divides d' but not m, it does not divide p'
    either (gcd(p', d') = 1), so it divides the entry of slot j + 1 only if
    it divides c_j; for it to divide every entry it would have to divide
    every c_j and d, against gcd(d, *numerators) == 1.  A zero entry
    divides out of neither case: its factor 1 puts no prime power in m, and
    t divides it, so the entry that keeps t out of the row is a nonzero one
    in both cases, and every canonical input still gives a canonical output.
    """
    if p < 1:
        raise ValueError(f"integration recurrence needs p >= 1, got {p}")
    numerators, d = f_prev
    u = gcd(p, d)
    p, d = p // u, d // u  # p' and d'
    live = []
    m = 1
    for k, c in enumerate(numerators, 2):  # k = j + 2, the divisor of entry j
        if c:
            q, r = divmod(c, k)
            if r:
                factor = k // gcd(p * r, k)
                if m % factor:
                    m *= factor // gcd(m, factor)
            live.append((k, q, r))
    pm = p * m
    # p * F over d' * m; slot 0, the linear entry, is filled last.  The top
    # entry stays nonzero, so a trimmed f_prev gives a trimmed result.
    out = [0] * (len(numerators) + 1)
    total = 0
    for k, q, r in live:
        entry = q * pm
        if r:
            entry += r * pm // k
        out[k - 1] = entry
        total += entry
    dm = d * m
    out[0] = dm - total
    return tuple(out), dm


def integration_coefficients(p: int, start: CoefficientRow | None = None) -> CoefficientRow:
    """Coefficient row for exponent p via the integration recurrence.

    Starts from f_0(n) = n, or from the power-sum polynomial of `start`, a
    row of degree at most p, and applies integration_step once per degree
    after it.
    """
    start = start_row(p, start)
    f = start.numerators, start.denominator
    for i in range(start.degree + 1, p + 1):
        f = integration_step(f, i)
    return CoefficientRow.from_scaled(*f)
