"""Evidence that only `verify` reads: three textbook identities tying power
sums to Bernoulli polynomials, the ranges it checks them over, and the tally.

Each check takes one polynomial index and every point of its family's
range, and returns the points where the identity fails.  The checks
compare integers only: one `IdentityValues`, built per run of the checks
and passed to each, holds every polynomial scaled to its common
denominator and its antiderivative integrated on that pair, and gives
their value at each point once, from `horner`, as an integer over a
positive denominator (d itself at an integer point); each identity is
cross-multiplied by its denominators, so no check builds a Fraction.
A point is an int, or a rational u/v as the int pair (u, v) with v > 0.
"""
from __future__ import annotations

import itertools
from math import gcd, lcm

from . import bernoulli
from .oracle import power_sum_bruteforce
from .rationals import Scaled, horner, scaled

__all__ = ["IdentityValues", "check_power_sum_identity", "check_integral_identity",
           "check_difference_identity"]

Point = int | tuple[int, int]

# Fixed default ranges for the identity checks run by `verify`: each family
# is checked for every index of its first range at every point of its second.
POWER_SUM_IDENTITY_RANGE = (range(1, 31), range(1, 21))  # p, n
INTEGRAL_IDENTITY_ENDPOINTS = (0, 1, (1, 2), -1, 2)
INTEGRAL_IDENTITY_RANGE = (  # i, (a, b)
    range(0, 31), tuple(itertools.product(INTEGRAL_IDENTITY_ENDPOINTS, repeat=2)))
DIFFERENCE_IDENTITY_RANGE = (range(2, 31), range(0, 21))  # i, n


def _integrate_pair(numerators: tuple[int, ...], d: int) -> Scaled:
    """Antiderivative, zero constant term, of sum_k numerators[k] t^k / d:
    entry k times m/(k+1) over d m, m = lcm(1..n) for n entries, then one gcd
    of the whole pair divided out, so that it stays canonical."""
    m = lcm(*range(1, len(numerators) + 1))
    integral = (0, *[c * (m // k) for k, c in enumerate(numerators, 1)])
    g = gcd(*integral, d * m)
    return tuple([c // g for c in integral]), d * m // g


class PolynomialValues(dict):
    """The values of one polynomial, held as its pair `numerators` over
    `denominator`, by point: `values[x]` is computed by `horner` when first
    read and kept."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, form: Scaled) -> None:
        self.numerators, self.denominator = form

    def __missing__(self, x: Point) -> tuple[int, int]:
        self[x] = value = horner(self.numerators, self.denominator, x)
        return value


class IdentityValues:
    """B_0..B_limit from one table, each scaled once and integrated on that
    pair (zero constant term), and their values, each computed once per point.

    `values(i)` is B_i, and with `integrated=True` the antiderivative of
    B_i, as a `PolynomialValues`: its value at each point x, as `horner`
    gives it, is an integer over a positive denominator, d itself at an
    integer x.  An index outside 0..limit raises ValueError.
    """

    __slots__ = ("limit", "_values")

    def __init__(self, limit: int) -> None:
        table = bernoulli.bernoulli_numbers(limit)
        self.limit = limit
        # Through the module attribute, which a tracer or a test may wrap.
        polynomials = [bernoulli.bernoulli_polynomial(i, table) for i in range(limit + 1)]
        forms = [scaled([c.as_integer_ratio() for c in f]) for f in polynomials]
        self._values = (tuple([PolynomialValues(form) for form in forms]),
                        tuple([PolynomialValues(_integrate_pair(*form)) for form in forms]))

    def __call__(self, i: int, integrated: bool = False) -> PolynomialValues:
        if not 0 <= i <= self.limit:
            raise ValueError(f"values through B_{self.limit} cannot give B_{i}")
        return self._values[integrated][i]


def check_power_sum_identity(p: int, ns: range, values: IdentityValues) -> list[int]:
    """The n in `ns` where f_{p-1}(n) differs from (B_p(n+1) - B_p(1)) / p,
    with an exact, brute-force left side.

    The subtracted constant is B_p at 1, the plus-convention Bernoulli
    number; it equals B_p(0) for every p >= 2 and keeps the identity exact
    at p = 1 as well.  With B_p = H/d, the test is
    H(n+1) - H(1) == p * d * f_{p-1}(n).
    """
    if p < 1:
        raise ValueError(f"power-sum identity needs p >= 1, got {p}")
    b = values(p)
    low = b[1][0]
    scale = p * b.denominator
    return [n for n in ns if b[n + 1][0] - low != scale * power_sum_bruteforce(p - 1, n)]


def check_integral_identity(
    i: int, intervals: tuple[tuple[Point, Point], ...], values: IdentityValues,
) -> list[tuple[Point, Point]]:
    """The (a, b) in `intervals` where the integral of B_i over [a, b]
    differs from (B_{i+1}(b) - B_{i+1}(a)) / (i+1).

    The left side is B_i integrated symbolically and evaluated at the
    endpoints; both sides are exact.  With F the antiderivative, the
    identity says that G = (i+1) F - B_{i+1} takes one value at a and at b.
    With F = P/Q and B_{i+1} = R/S at each endpoint x,
    G(x) = ((i+1) P(x) S(x) - R(x) Q(x)) / (Q(x) S(x)), and the test is
    G(a) == G(b), cross-multiplied.
    """
    if i < 0:
        raise ValueError(f"polynomial index must be >= 0, got {i}")
    integral, successor = values(i, integrated=True), values(i + 1)
    g = {}
    for x in {x for interval in intervals for x in interval}:
        (p, q), (r, s) = integral[x], successor[x]
        g[x] = (i + 1) * p * s - r * q, q * s
    return [(a, b) for a, b in intervals if g[a][0] * g[b][1] != g[b][0] * g[a][1]]


def check_difference_identity(i: int, ns: range, values: IdentityValues) -> list[int]:
    """The n in `ns` where B_i(n+1) - B_i(n) differs from i * n^(i-1).
    Defined for i > 1 only.

    With B_i = H/d, the test is H(n+1) - H(n) == i * d * n^(i-1).
    """
    if i <= 1:
        raise ValueError(f"difference identity needs i > 1, got {i}")
    b = values(i)
    scale = i * b.denominator
    return [n for n in ns if b[n + 1][0] - b[n][0] != scale * n ** (i - 1)]


def tallies() -> dict[str, tuple[int, int]]:
    """(checked, failed) of each identity over its default range, by the
    label `verify` reports it under."""
    # One IdentityValues through the highest index the families read (the
    # integral identity reads B_{i+1}).  The checks are looked up here, at
    # each call, where a tracer or a test may have wrapped them.
    values = IdentityValues(max(POWER_SUM_IDENTITY_RANGE[0][-1],
                                INTEGRAL_IDENTITY_RANGE[0][-1] + 1,
                                DIFFERENCE_IDENTITY_RANGE[0][-1]))
    families = (
        ("power-sum identity", check_power_sum_identity, POWER_SUM_IDENTITY_RANGE),
        ("integral identity", check_integral_identity, INTEGRAL_IDENTITY_RANGE),
        ("difference identity", check_difference_identity, DIFFERENCE_IDENTITY_RANGE),
    )
    return {
        label: (len(indices) * len(points),
                sum([len(check(index, points, values)) for index in indices]))
        for label, check, (indices, points) in families
    }
