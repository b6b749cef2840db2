"""Cross-verification: what `verify` runs, and only `verify` loads.

`run_verification` makes one ascending pass over the degrees, comparing the
rows of the three paths and checking the direct path's operation counts,
then tallies three textbook identities that tie power sums to Bernoulli
polynomials over fixed ranges.  Both read one table of Bernoulli numbers.
Each function it runs is looked up when it is called, on its defining
module or, for `horner`, the brute-force sum and the three checks, on this
one, so whatever a tracer or a test puts in its place is what runs, and
nothing of theirs stays behind once they put it back.

Each identity check takes one polynomial index, every point of its
family's range, and the tuple of B_0..B_IDENTITY_LIMIT that `tallies`
builds once per run, each scaled to its common denominator as a `Scaled`
pair; it returns the points where the identity fails.  The checks compare
integers only: each check call evaluates the pairs it reads by `horner`,
once at each point it reads, as an integer over a positive denominator (d
itself at an integer point), and the integral identity integrates the one
pair it reads; each identity is cross-multiplied by its denominators, so
no check builds a Fraction.  A point is an int, or a rational u/v as the
int pair (u, v) with v > 0.
"""
from __future__ import annotations

import itertools
from math import gcd, lcm

from . import bernoulli, direct, integration
from .oracle import power_sum_bruteforce
from .rationals import CoefficientRow, Record, Scaled, horner, scaled

# The paths in the order verify compares them; `cli.METHODS` keeps it.
PATHS = ("direct", "lemma", "bernoulli")


class VerifyReport(Record):
    __slots__ = ("mismatches", "op_count_ok", "identity_tallies")
    # (p, pair, power) for each pair of unequal rows: power is the 1-based j
    # whose coefficient a_j differs first, or None when every coefficient is
    # equal in value and a pair is not reduced.
    mismatches: tuple[tuple[int, str, int | None], ...]
    op_count_ok: tuple[bool, ...]  # indexed by p = 0..p_max
    identity_tallies: dict[str, tuple[int, int]]  # label -> (checked, failed)

    def __init__(
        self,
        mismatches: tuple[tuple[int, str, int | None], ...],
        op_count_ok: tuple[bool, ...],
        identity_tallies: dict[str, tuple[int, int]],
    ) -> None:
        self.mismatches = mismatches
        self.op_count_ok = op_count_ok
        self.identity_tallies = identity_tallies

    @property
    def p_max(self) -> int:
        return len(self.op_count_ok) - 1

    @property
    def passed(self) -> bool:
        return (
            not self.mismatches
            and all(self.op_count_ok)
            and all(failed == 0 for _, failed in self.identity_tallies.values())
        )

    def render(self) -> str:
        lines = ["cross-verification report"]
        lines.append(f"  degrees:      p = 0..{self.p_max}")
        lines.append(f"  paths:        {', '.join(PATHS)}")
        pairs = len(PATHS) * (len(PATHS) - 1) // 2
        if self.mismatches:
            lines.append(f"  row equality: {len(self.mismatches)} mismatch(es)")
            for p, pair, power in self.mismatches:
                where = ("coefficients equal, but a pair is not reduced" if power is None
                         else f"coefficients differ first at a_{power}")
                lines.append(f"    p={p} {pair}: {where}")
        else:
            degrees = f"{self.p_max + 1} degree{'s' if self.p_max else ''}"
            lines.append(f"  row equality: OK ({degrees}, {pairs} path pairs)")
        bad_counts = [p for p, ok in enumerate(self.op_count_ok) if not ok]
        if bad_counts:
            lines.append(
                "  op counts:    FAIL at p = "
                + ", ".join(str(p) for p in bad_counts)
            )
        else:
            lines.append(
                "  op counts:    OK (additions p(p+1)/2 + p, "
                "multiplications p(p+1)/2)"
            )
        for label, (checked, failed) in self.identity_tallies.items():
            status = "OK" if failed == 0 else "FAIL"
            lines.append(f"  {label + ':':<22}{status} ({checked} checked, {failed} failed)")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _first_difference(a: CoefficientRow, b: CoefficientRow) -> int | None:
    """1-based power of the first coefficient whose values differ, or None
    if the rows are equal in value: equal rows, or two pairs of one length
    equal in value of which one is not reduced."""
    da, db = a.denominator, b.denominator
    for j, (na, nb) in enumerate(zip(a.numerators, b.numerators), start=1):
        if na * db != nb * da:
            return j
    if len(a.numerators) != len(b.numerators):
        return min(len(a.numerators), len(b.numerators)) + 1
    return None


def run_verification(p_max: int) -> VerifyReport:
    """Compare every path pair for p = 0..p_max, check op counts against the
    quadratic formulas, and run the identity checks over their default
    ranges.

    One ascending pass over the degrees.  At each p `direct.counted_pass`
    builds the direct row, the lemma row continues from the one before, and
    the Bernoulli row reads one table built through max(p_max,
    IDENTITY_LIMIT), which the identity checks read too; the three rows are
    then compared pairwise, and a pair of unequal rows is reported with the
    first coefficient that differs.
    """
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    table = bernoulli.bernoulli_numbers(max(p_max, IDENTITY_LIMIT))
    lemma = None
    op_count_ok = []
    mismatches = []
    for p, row, *_, ok in direct.counted_pass(range(p_max + 1)):
        op_count_ok.append(ok)
        lemma = integration.integration_coefficients(p, lemma)
        rows = row, lemma, bernoulli.faulhaber_via_bernoulli(p, table)
        for (name_a, a), (name_b, b) in itertools.combinations(zip(PATHS, rows), 2):
            if a != b:  # canonical pairs: equal rows compare as ints, unscanned
                mismatches.append((p, f"{name_a} vs {name_b}", _first_difference(a, b)))

    return VerifyReport(
        mismatches=tuple(mismatches),
        op_count_ok=tuple(op_count_ok),
        identity_tallies=tallies(table),
    )


# ---------------------------------------------------------------------------
# The identity checks

Point = int | tuple[int, int]

# Fixed default ranges for the identity checks run by `verify`: each family
# is checked for every index of its first range at every point of its second.
POWER_SUM_IDENTITY_RANGE = (range(1, 31), range(1, 21))  # p, n
INTEGRAL_IDENTITY_ENDPOINTS = (0, 1, (1, 2), -1, 2)
INTEGRAL_IDENTITY_RANGE = (  # i, (a, b)
    range(0, 31), tuple(itertools.product(INTEGRAL_IDENTITY_ENDPOINTS, repeat=2)))
DIFFERENCE_IDENTITY_RANGE = (range(2, 31), range(0, 21))  # i, n
# The highest polynomial index the families read: the integral identity
# reads B_{i+1}.
IDENTITY_LIMIT = max(POWER_SUM_IDENTITY_RANGE[0][-1], INTEGRAL_IDENTITY_RANGE[0][-1] + 1,
                     DIFFERENCE_IDENTITY_RANGE[0][-1])


def _integrate_pair(numerators: tuple[int, ...], d: int) -> Scaled:
    """Antiderivative, zero constant term, of sum_k numerators[k] t^k / d:
    entry k times m/(k+1) over d m, m = lcm(1..n) for n entries, then one gcd
    of the whole pair divided out, so that it stays canonical."""
    m = lcm(*range(1, len(numerators) + 1))
    integral = (0, *[c * (m // k) for k, c in enumerate(numerators, 1)])
    g = gcd(*integral, d * m)
    return tuple([c // g for c in integral]), d * m // g


def check_power_sum_identity(p: int, ns: range, polynomials: tuple[Scaled, ...]) -> list[int]:
    """The n in `ns` where f_{p-1}(n) differs from (B_p(n+1) - B_p(1)) / p,
    with an exact, brute-force left side.

    The subtracted constant is B_p at 1, the plus-convention Bernoulli
    number; it equals B_p(0) for every p >= 2 and keeps the identity exact
    at p = 1 as well.  With B_p = H/d, the test is
    H(n+1) - H(1) == p * d * f_{p-1}(n), with H evaluated once at 1 and at
    each n+1.
    """
    if p < 1:
        raise ValueError(f"power-sum identity needs p >= 1, got {p}")
    numerators, d = polynomials[p]
    h = {x: horner(numerators, d, x)[0] for x in {1, *[n + 1 for n in ns]}}
    scale = p * d
    return [n for n in ns if h[n + 1] - h[1] != scale * power_sum_bruteforce(p - 1, n)]


def check_integral_identity(
    i: int, intervals: tuple[tuple[Point, Point], ...], polynomials: tuple[Scaled, ...],
) -> list[tuple[Point, Point]]:
    """The (a, b) in `intervals` where the integral of B_i over [a, b]
    differs from (B_{i+1}(b) - B_{i+1}(a)) / (i+1).

    The left side is B_i integrated symbolically on its pair and evaluated
    at the endpoints; both sides are exact.  With F the antiderivative, the
    identity says that G = (i+1) F - B_{i+1} takes one value at a and at b.
    With F = P/Q and B_{i+1} = R/S at each endpoint x, each evaluated once,
    G(x) = ((i+1) P(x) S(x) - R(x) Q(x)) / (Q(x) S(x)), and the test is
    G(a) == G(b), cross-multiplied.
    """
    if i < 0:
        raise ValueError(f"polynomial index must be >= 0, got {i}")
    integral, successor = _integrate_pair(*polynomials[i]), polynomials[i + 1]
    g = {}
    for x in {x for interval in intervals for x in interval}:
        (p, q), (r, s) = horner(*integral, x), horner(*successor, x)
        g[x] = (i + 1) * p * s - r * q, q * s
    return [(a, b) for a, b in intervals if g[a][0] * g[b][1] != g[b][0] * g[a][1]]


def check_difference_identity(i: int, ns: range, polynomials: tuple[Scaled, ...]) -> list[int]:
    """The n in `ns` where B_i(n+1) - B_i(n) differs from i * n^(i-1).
    Defined for i > 1 only.

    With B_i = H/d, the test is H(n+1) - H(n) == i * d * n^(i-1), with H
    evaluated once at each n and n+1.
    """
    if i <= 1:
        raise ValueError(f"difference identity needs i > 1, got {i}")
    numerators, d = polynomials[i]
    h = {x: horner(numerators, d, x)[0] for x in {*ns, *[n + 1 for n in ns]}}
    scale = i * d
    return [n for n in ns if h[n + 1] - h[n] != scale * n ** (i - 1)]


def tallies(table: bernoulli.BernoulliTable) -> dict[str, tuple[int, int]]:
    """(checked, failed) of each identity over its default range, by the
    label `verify` reports it under, with B_0..B_IDENTITY_LIMIT built once
    each from `table`."""
    # Through the module attribute, which a tracer or a test may wrap.  The
    # checks are looked up here, at each call, where they may be wrapped too.
    polynomials = tuple([scaled([c.as_integer_ratio() for c in
                                 bernoulli.bernoulli_polynomial(i, table)])
                         for i in range(IDENTITY_LIMIT + 1)])
    families = (
        ("power-sum identity", check_power_sum_identity, POWER_SUM_IDENTITY_RANGE),
        ("integral identity", check_integral_identity, INTEGRAL_IDENTITY_RANGE),
        ("difference identity", check_difference_identity, DIFFERENCE_IDENTITY_RANGE),
    )
    return {
        label: (len(indices) * len(points),
                sum([len(check(index, points, polynomials)) for index in indices]))
        for label, check, (indices, points) in families
    }
