"""Cross-verification and the counted pass behind `verify` and `bench`.

Only those two commands load this module.  It loads every path, and
`identities`, which owns the identity checks and their ranges and gives
the tally the report prints.  Each path function is looked up on its
defining module when it is called, never bound here at import, so whatever
a tracer or a test puts in its place is what runs, and nothing of theirs
stays behind once they put it back.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from . import bernoulli, direct, identities, integration
from .rationals import CoefficientRow, FrozenRecord, Record

# The paths in the order verify compares them; `cli.METHODS` keeps it.
PATHS = ("direct", "lemma", "bernoulli")


def predicted_additions(p: int) -> int:
    return p * (p + 1) // 2 + p


def predicted_multiplications(p: int) -> int:
    return p * (p + 1) // 2


class Mismatch(FrozenRecord):
    """First point of disagreement between two paths at one degree."""

    __slots__ = ("p", "pair", "power")
    p: int
    pair: str
    # 1-based power j whose coefficient a_j differs first, or None when every
    # coefficient is equal in value and a pair is not reduced.
    power: int | None

    def __init__(self, p: int, pair: str, power: int | None) -> None:
        super().__init__(p, pair, power)


class VerifyReport(Record):
    __slots__ = ("p_max", "mismatches", "op_count_ok", "identity_tallies")
    p_max: int
    mismatches: tuple[Mismatch, ...]
    op_count_ok: tuple[bool, ...]  # indexed by p = 0..p_max
    identity_tallies: dict[str, tuple[int, int]]  # label -> (checked, failed)

    def __init__(
        self,
        p_max: int,
        mismatches: tuple[Mismatch, ...],
        op_count_ok: tuple[bool, ...],
        identity_tallies: dict[str, tuple[int, int]],
    ) -> None:
        self.p_max = p_max
        self.mismatches = mismatches
        self.op_count_ok = op_count_ok
        self.identity_tallies = identity_tallies

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
            for m in self.mismatches:
                where = ("coefficients equal, but a pair is not reduced" if m.power is None
                         else f"coefficients differ first at a_{m.power}")
                lines.append(f"    p={m.p} {m.pair}: {where}")
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


def counted_pass(
    degrees: Iterable[int],
) -> Iterator[tuple[int, CoefficientRow, int, int, bool]]:
    """Direct rows for the ascending `degrees` on one running counter, each
    continued from the row before: after each p, yield p, its row, the
    additions and multiplications so far (those of building row p from
    scratch) and whether they match the formulas."""
    counter = direct.OpCounter()
    row = None
    for p in degrees:
        row = direct.direct_coefficients(p, counter, row)
        counts = counter.additions, counter.multiplications
        yield p, row, *counts, counts == (predicted_additions(p), predicted_multiplications(p))


def run_verification(p_max: int) -> VerifyReport:
    """Compare every path pair for p = 0..p_max, check op counts against the
    quadratic formulas, and run the identity checks over their default
    ranges.

    One ascending pass over the degrees.  At each p the counted pass of
    `bench` builds the direct row, the lemma row continues from the one
    before, and the Bernoulli row reads one table built for p_max; the three
    rows are then compared pairwise, and a pair of unequal rows is reported
    with the first coefficient that differs.
    """
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    table = bernoulli.bernoulli_numbers(p_max)
    lemma = None
    op_count_ok = []
    mismatches = []
    for p, row, *_, ok in counted_pass(range(p_max + 1)):
        op_count_ok.append(ok)
        lemma = integration.integration_coefficients(p, lemma)
        rows = row, lemma, bernoulli.faulhaber_via_bernoulli(p, table)
        for (name_a, a), (name_b, b) in itertools.combinations(zip(PATHS, rows), 2):
            if a != b:  # canonical pairs: equal rows compare as ints, unscanned
                mismatches.append(Mismatch(p, f"{name_a} vs {name_b}", _first_difference(a, b)))

    return VerifyReport(
        p_max=p_max,
        mismatches=tuple(mismatches),
        op_count_ok=tuple(op_count_ok),
        identity_tallies=identities.tallies(),
    )


def bench_schedule(p_max: int) -> list[int]:
    """0, then powers of two, then p_max itself."""
    points = [0]
    step = 1
    while step < p_max:
        points.append(step)
        step *= 2
    if p_max > 0:
        points.append(p_max)
    return points
