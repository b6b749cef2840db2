"""Cross-verification: what `verify` runs, and only `verify` loads.

At import it loads the direct path, whose counted pass builds and tallies
the direct rows; `run_verification` loads the other two paths and
`identities`, which owns the identity checks and their ranges and gives
the tally the report prints.  Each path function is looked up on its
defining module when it is called, never bound here at import, so whatever
a tracer or a test puts in its place is what runs, and nothing of theirs
stays behind once they put it back.
"""
from __future__ import annotations

import itertools

from . import direct
from .rationals import CoefficientRow, FrozenRecord, Record

# The paths in the order verify compares them; `cli.METHODS` keeps it.
PATHS = ("direct", "lemma", "bernoulli")


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
    __slots__ = ("mismatches", "op_count_ok", "identity_tallies")
    mismatches: tuple[Mismatch, ...]
    op_count_ok: tuple[bool, ...]  # indexed by p = 0..p_max
    identity_tallies: dict[str, tuple[int, int]]  # label -> (checked, failed)

    def __init__(
        self,
        mismatches: tuple[Mismatch, ...],
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


def run_verification(p_max: int) -> VerifyReport:
    """Compare every path pair for p = 0..p_max, check op counts against the
    quadratic formulas, and run the identity checks over their default
    ranges.

    One ascending pass over the degrees.  At each p `direct.counted_pass`
    builds the direct row, the lemma row continues from the one before, and
    the Bernoulli row reads one table built for p_max; the three rows are
    then compared pairwise, and a pair of unequal rows is reported with the
    first coefficient that differs.
    """
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    from . import bernoulli, identities, integration

    table = bernoulli.bernoulli_numbers(p_max)
    lemma = None
    op_count_ok = []
    mismatches = []
    for p, row, *_, ok in direct.counted_pass(range(p_max + 1)):
        op_count_ok.append(ok)
        lemma = integration.integration_coefficients(p, lemma)
        rows = row, lemma, bernoulli.faulhaber_via_bernoulli(p, table)
        for (name_a, a), (name_b, b) in itertools.combinations(zip(PATHS, rows), 2):
            if a != b:  # canonical pairs: equal rows compare as ints, unscanned
                mismatches.append(Mismatch(p, f"{name_a} vs {name_b}", _first_difference(a, b)))

    return VerifyReport(
        mismatches=tuple(mismatches),
        op_count_ok=tuple(op_count_ok),
        identity_tallies=identities.tallies(),
    )

