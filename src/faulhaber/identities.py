"""Evidence that only `verify` reads: three textbook identities tying power
sums to Bernoulli polynomials, the ranges it checks them over, and the tally.

The checks compare integers only: one `IdentityValues`, built per run of
the checks and passed to each, holds every polynomial scaled to its common
denominator and its antiderivative integrated on that pair, and gives
their value at each point once, from `horner`, as an integer over a
positive denominator (d itself at an integer point); each identity is
cross-multiplied by its denominators, so no check builds a Fraction.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from fractions import Fraction
from math import gcd, lcm

from . import bernoulli
from .oracle import power_sum_bruteforce
from .rationals import Scaled, horner, scaled

__all__ = ["IdentityValues", "check_power_sum_identity", "check_integral_identity",
           "check_difference_identity"]

# Fixed default ranges for the identity checks run by `verify`; each check
# runs over every combination of its ranges.
POWER_SUM_IDENTITY_RANGE = (range(1, 31), range(1, 21))  # p, n
INTEGRAL_IDENTITY_ENDPOINTS = (
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(2))
INTEGRAL_IDENTITY_RANGE = (  # i, a, b
    range(0, 31), INTEGRAL_IDENTITY_ENDPOINTS, INTEGRAL_IDENTITY_ENDPOINTS)
DIFFERENCE_IDENTITY_RANGE = (range(2, 31), range(0, 21))  # i, n


def _integrate_pair(numerators: tuple[int, ...], d: int) -> Scaled:
    """Antiderivative, zero constant term, of sum_k numerators[k] t^k / d:
    entry k times m/(k+1) over d m, m = lcm(1..n) for n entries, then one gcd
    of the whole pair divided out, so that it stays canonical."""
    m = lcm(*range(1, len(numerators) + 1))
    integral = (0, *[c * (m // k) for k, c in enumerate(numerators, 1)])
    g = gcd(*integral, d * m)
    return tuple([c // g for c in integral]), d * m // g


class IdentityValues:
    """B_0..B_limit from one table, each scaled once and integrated on that
    pair (zero constant term), and their values, each computed once per point.

    `values(i, x)` is B_i(x), and with `integrated=True` the antiderivative
    of B_i at x, as `horner` gives it: an integer over a positive
    denominator, d itself at an integer x.  An integer point and the equal
    Fraction share one value.  An index above `limit` raises ValueError.
    """

    __slots__ = ("limit", "polynomials", "_forms", "_values")

    def __init__(self, limit: int) -> None:
        table = bernoulli.bernoulli_numbers(limit)
        self.limit = limit
        # Through the module attribute, which a tracer or a test may wrap.
        self.polynomials = tuple(bernoulli.bernoulli_polynomial(i, table)
                                 for i in range(limit + 1))
        forms = tuple([scaled([c.as_integer_ratio() for c in f]) for f in self.polynomials])
        self._forms = forms, tuple([_integrate_pair(*form) for form in forms])
        self._values: dict[tuple[bool, int, int, int], tuple[int, int]] = {}

    def __call__(self, i: int, x: Fraction | int, integrated: bool = False) -> tuple[int, int]:
        key = integrated, i, x.numerator, x.denominator
        value = self._values.get(key)
        if value is None:
            if not 0 <= i <= self.limit:
                raise ValueError(f"values through B_{self.limit} cannot give B_{i}")
            value = self._values[key] = horner(*self._forms[integrated][i], x)
        return value


def check_power_sum_identity(p: int, n: int, values: IdentityValues) -> bool:
    """Does f_{p-1}(n) equal (B_p(n+1) - B_p(1)) / p?  Exact, brute-force left side.

    The subtracted constant is B_p at 1, the plus-convention Bernoulli
    number; it equals B_p(0) for every p >= 2 and keeps the identity exact
    at p = 1 as well.  With B_p = H/d, the test is
    H(n+1) - H(1) == p * d * f_{p-1}(n).
    """
    if p < 1:
        raise ValueError(f"power-sum identity needs p >= 1, got {p}")
    left = power_sum_bruteforce(p - 1, n)
    high, d = values(p, n + 1)
    low, _ = values(p, 1)
    return high - low == p * d * left


def check_integral_identity(i: int, a: Fraction, b: Fraction, values: IdentityValues) -> bool:
    """Does the integral of B_i over [a, b] equal (B_{i+1}(b) - B_{i+1}(a))/(i+1)?

    The left side is B_i integrated symbolically and evaluated at the
    endpoints; both sides are exact.  With F = P/Q the antiderivative and
    B_{i+1} = R/S at each endpoint, the test is
    (i+1) (P(b) Q(a) - P(a) Q(b)) S(a) S(b) == (R(b) S(a) - R(a) S(b)) Q(a) Q(b).
    """
    if i < 0:
        raise ValueError(f"polynomial index must be >= 0, got {i}")
    pa, qa = values(i, a, integrated=True)
    pb, qb = values(i, b, integrated=True)
    ra, sa = values(i + 1, a)
    rb, sb = values(i + 1, b)
    return (i + 1) * (pb * qa - pa * qb) * sa * sb == (rb * sa - ra * sb) * qa * qb


def check_difference_identity(i: int, n: int, values: IdentityValues) -> bool:
    """Does B_i(n+1) - B_i(n) equal i * n^(i-1)?  Defined for i > 1 only.

    With B_i = H/d, the test is H(n+1) - H(n) == i * d * n^(i-1).
    """
    if i <= 1:
        raise ValueError(f"difference identity needs i > 1, got {i}")
    high, d = values(i, n + 1)
    low, _ = values(i, n)
    return high - low == i * d * n ** (i - 1)


def _tally(check: Callable[..., bool], *ranges: Iterable) -> tuple[int, int]:
    """(checked, failed) of `check` over every combination of `ranges`."""
    results = [check(*args) for args in itertools.product(*ranges)]
    return len(results), results.count(False)


def tallies() -> dict[str, tuple[int, int]]:
    """(checked, failed) of each identity over its default range, by the
    label `verify` reports it under."""
    # Each check takes one IdentityValues through the highest index the
    # families read (the integral identity reads B_{i+1}) as its last
    # argument.
    values = (IdentityValues(max(POWER_SUM_IDENTITY_RANGE[0][-1],
                                 INTEGRAL_IDENTITY_RANGE[0][-1] + 1,
                                 DIFFERENCE_IDENTITY_RANGE[0][-1])),)
    return {
        "power-sum identity": _tally(
            check_power_sum_identity, *POWER_SUM_IDENTITY_RANGE, values),
        "integral identity": _tally(
            check_integral_identity, *INTEGRAL_IDENTITY_RANGE, values),
        "difference identity": _tally(
            check_difference_identity, *DIFFERENCE_IDENTITY_RANGE, values),
    }
