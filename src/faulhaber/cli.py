"""Command-line front end.

Subcommands:

    coeffs     print a coefficient row (plain, json, or latex)
    eval       evaluate the power sum f_p(n) exactly via the coefficients
    verify     cross-check all computation paths, op counts, and identities
    bench      measured vs predicted operation counts on a geometric schedule
    bernoulli  print a Bernoulli-number table in either sign convention

Results go to stdout, diagnostics to stderr.  Exit statuses are a stable
scripting contract: 0 success, 1 verification failure, 2 usage error,
130 interrupted.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .bernoulli import (
    IdentityValues,
    bernoulli_numbers,
    check_difference_identity,
    check_integral_identity,
    check_power_sum_identity,
    faulhaber_via_bernoulli,
)
from .direct import OpCounter, direct_coefficients
from .integration import integration_coefficients
from .oracle import evaluate_row, power_sum_bruteforce
from .rationals import CoefficientRow, FrozenRecord, Record

__all__ = [
    "METHODS",
    "format_plain",
    "format_json",
    "format_latex",
    "Mismatch",
    "VerifyReport",
    "run_verification",
    "bench_schedule",
    "main",
]

# Coefficient paths selectable with --method, in the order verify compares
# them.
METHODS: dict[str, Callable[[int], CoefficientRow]] = {
    "direct": direct_coefficients,
    "lemma": integration_coefficients,
    "bernoulli": faulhaber_via_bernoulli,
}

# Anything above this is almost certainly an accidental runaway job, but it
# is allowed: the guard only warns.
SOFT_DEGREE_LIMIT = 10000

# `eval --check` adds n big-integer powers one by one.  At n = 10**6 that
# took 0.1 s for p = 1, about 1 s for p = 40-50 and 1.3 s for p = 60
# (Python 3.11.7, best of 3).  Above it, the check warns as the guard does.
BRUTE_FORCE_LIMIT = 10**6

# Fixed default ranges for the identity checks run by `verify`; each check
# runs over every combination of its ranges.
POWER_SUM_IDENTITY_RANGE = (range(1, 31), range(1, 21))  # p, n
INTEGRAL_IDENTITY_ENDPOINTS = (
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1),
    Fraction(2),
)
INTEGRAL_IDENTITY_RANGE = (  # i, a, b
    range(0, 31), INTEGRAL_IDENTITY_ENDPOINTS, INTEGRAL_IDENTITY_ENDPOINTS)
DIFFERENCE_IDENTITY_RANGE = (range(2, 31), range(0, 21))  # i, n


def predicted_additions(p: int) -> int:
    return p * (p + 1) // 2 + p


def predicted_multiplications(p: int) -> int:
    return p * (p + 1) // 2


# ---------------------------------------------------------------------------
# Output formats


def format_plain(row: CoefficientRow) -> str:
    return " ".join(
        f"a_{j}={c}" for j, c in enumerate(row.coefficients, start=1)
    )


def format_json(row: CoefficientRow) -> str:
    import json  # only this formatter needs it: keep it out of start-up

    # Rationals travel as strings so no JSON consumer can lose exactness.
    payload = {
        "p": row.degree,
        "coefficients": [str(c) for c in row.coefficients],
    }
    return json.dumps(payload, separators=(",", ":"))


def format_latex(row: CoefficientRow) -> str:
    """Render descending by power, omitting zero terms and unit coefficients."""
    parts: list[str] = []
    for power in range(row.degree + 1, 0, -1):
        c = row.coefficient(power)
        if c == 0:
            continue
        if c < 0:
            parts.append("-")
        elif parts:
            parts.append("+")
        c = abs(c)
        if c.denominator != 1:
            parts.append(rf"\frac{{{c.numerator}}}{{{c.denominator}}}")
        elif c != 1:
            parts.append(str(c.numerator))
        parts.append("n" if power == 1 else f"n^{{{power}}}")
    return "".join(parts)


FORMATTERS: dict[str, Callable[[CoefficientRow], str]] = {
    "plain": format_plain,
    "json": format_json,
    "latex": format_latex,
}


# ---------------------------------------------------------------------------
# Cross-verification


class Mismatch(FrozenRecord):
    """First point of disagreement between two paths at one degree."""

    __slots__ = ("p", "pair", "power")
    p: int
    pair: str
    power: int  # 1-based power j whose coefficient a_j differs first

    def __init__(self, p: int, pair: str, power: int) -> None:
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
        lines.append(f"  paths:        {', '.join(METHODS)}")
        pairs = len(METHODS) * (len(METHODS) - 1) // 2
        if self.mismatches:
            lines.append(f"  row equality: {len(self.mismatches)} mismatch(es)")
            for m in self.mismatches:
                lines.append(
                    f"    p={m.p} {m.pair}: coefficients differ first at a_{m.power}"
                )
        else:
            lines.append(
                f"  row equality: OK ({self.p_max + 1} degrees, {pairs} path pairs)"
            )
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
    """1-based power of the first differing coefficient, or None if equal."""
    if a == b:  # the usual case: the canonical pairs compare as ints
        return None
    da, db = a.denominator, b.denominator
    for j, (na, nb) in enumerate(zip(a.numerators, b.numerators), start=1):
        if na * db != nb * da:
            return j
    # Equal through the shorter row: the rows differ in length, or one pair
    # is equal in value but not reduced.
    return min(len(a.numerators), len(b.numerators)) + 1


def _tally(check: Callable[..., bool], *ranges: Iterable) -> tuple[int, int]:
    """(checked, failed) of `check` over every combination of `ranges`."""
    results = [check(*args) for args in itertools.product(*ranges)]
    return len(results), results.count(False)


def _identity_tallies() -> dict[str, tuple[int, int]]:
    # The checks are looked up at call time, not kept in a table built at
    # import: a tracer that swaps the module globals must see every call.
    # Each takes one IdentityValues through the highest index the families
    # read (the integral identity reads B_{i+1}) as its last argument.
    values = (IdentityValues(max(POWER_SUM_IDENTITY_RANGE[0][-1],
                                 INTEGRAL_IDENTITY_RANGE[0][-1] + 1,
                                 DIFFERENCE_IDENTITY_RANGE[0][-1])),)
    return {
        "power-sum identity": _tally(check_power_sum_identity, *POWER_SUM_IDENTITY_RANGE, values),
        "integral identity": _tally(check_integral_identity, *INTEGRAL_IDENTITY_RANGE, values),
        "difference identity": _tally(
            check_difference_identity, *DIFFERENCE_IDENTITY_RANGE, values),
    }


def _counted_pass(
    degrees: Iterable[int],
) -> Iterator[tuple[int, CoefficientRow, int, int, bool]]:
    """Direct rows for the ascending `degrees` on one running counter, each
    continued from the row before: after each p, yield p, its row, the
    additions and multiplications so far (those of building row p from
    scratch) and whether they match the formulas."""
    counter = OpCounter()
    row = None
    for p in degrees:
        row = direct_coefficients(p, counter, row)
        counts = counter.additions, counter.multiplications
        yield p, row, *counts, counts == (predicted_additions(p), predicted_multiplications(p))


def run_verification(p_max: int) -> VerifyReport:
    """Compare every path pair for p = 0..p_max, check op counts against the
    quadratic formulas, and run the identity checks over their default
    ranges.

    One ascending pass over the degrees.  At each p the counted pass of
    `bench` builds the direct row, the lemma row continues from the one
    before, and the Bernoulli row reads one table built for p_max; the three
    rows are then compared pairwise.
    """
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    # The paths are looked up at call time: tests and the tracer swap these
    # module globals.
    table = bernoulli_numbers(p_max)
    lemma = None
    op_count_ok = []
    mismatches = []
    for p, direct, *_, ok in _counted_pass(range(p_max + 1)):
        op_count_ok.append(ok)
        lemma = integration_coefficients(p, lemma)
        rows = {"direct": direct, "lemma": lemma, "bernoulli": faulhaber_via_bernoulli(p, table)}
        for name_a, name_b in itertools.combinations(rows, 2):
            power = _first_difference(rows[name_a], rows[name_b])
            if power is not None:
                mismatches.append(Mismatch(p, f"{name_a} vs {name_b}", power))

    return VerifyReport(
        p_max=p_max,
        mismatches=tuple(mismatches),
        op_count_ok=tuple(op_count_ok),
        identity_tallies=_identity_tallies(),
    )


# ---------------------------------------------------------------------------
# Benchmark


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


# ---------------------------------------------------------------------------
# Argument parsing and handlers


def _clip(text: str) -> str:  # an echoed value may be megabytes long
    return text if len(text) <= 40 else text[:40] + "..."


def _at_least(least: int, text: str) -> int:
    # An optional "-" and ASCII digits only: int() would also take "+3",
    # " 4", "1_0" and non-ASCII digits.  A "-" makes any value, "-0"
    # included, one below 0.
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {_clip(repr(text))}")
    value = -1 if negative else int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"expected a value >= {least}, got {_clip(text)}")
    return value


def _natural(text: str) -> int:
    return _at_least(0, text)


def _positive(text: str) -> int:
    return _at_least(1, text)


def _warn_if_huge(name: str, value: int, limit: int) -> None:
    if value > limit:
        print(
            f"warning: {name} = {_clip(str(value))} is above {limit}; "
            "this may take a very long time",
            file=sys.stderr,
        )


def _cmd_coeffs(args: argparse.Namespace) -> int:
    _warn_if_huge("p", args.p, SOFT_DEGREE_LIMIT)
    row = METHODS[args.method](args.p)
    print(FORMATTERS[args.format](row))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _warn_if_huge("p", args.p, SOFT_DEGREE_LIMIT)
    if args.check:
        _warn_if_huge("n", args.n, BRUTE_FORCE_LIMIT)
    value = evaluate_row(METHODS["direct"](args.p), args.n)
    if value.denominator != 1:
        print(
            f"error: coefficient evaluation produced the non-integer {value}",
            file=sys.stderr,
        )
        return 1
    if args.check and value != power_sum_bruteforce(args.p, args.n):
        print(
            f"error: coefficient value {value} disagrees with the brute-force sum",
            file=sys.stderr,
        )
        return 1
    print(value.numerator)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _warn_if_huge("p", args.p_max, SOFT_DEGREE_LIMIT)
    report = run_verification(args.p_max)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    _warn_if_huge("p", args.p_max, SOFT_DEGREE_LIMIT)
    header = (
        f"{'p':>6} {'additions':>12} {'multiplications':>16} "
        f"{'predicted_add':>14} {'predicted_mul':>14} {'seconds':>10}"
    )
    print(header)
    all_match = True
    # `seconds` is the time from the start of the pass to degree p, that is
    # of building row p from scratch.
    start = time.perf_counter()
    for p, _, additions, multiplications, ok in _counted_pass(bench_schedule(args.p_max)):
        elapsed = time.perf_counter() - start
        all_match &= ok
        print(f"{p:>6} {additions:>12} {multiplications:>16} {predicted_additions(p):>14} "
              f"{predicted_multiplications(p):>14} {elapsed:>10.6f}")
    if not all_match:
        print("error: measured operation counts deviate from the formulas",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    _warn_if_huge("m", args.m, SOFT_DEGREE_LIMIT)
    table = bernoulli_numbers(args.m)
    values = table.values_plus if args.convention == "plus" else table.values_minus
    for i, value in enumerate(values):
        print(f"{i}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faulhaber",
        description="Exact Faulhaber-formula coefficients, three ways, cross-verified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="print the coefficient row for exponent p")
    coeffs.add_argument("p", type=_natural, help="power-sum exponent, >= 0")
    coeffs.add_argument(
        "--method", choices=sorted(METHODS), default="direct",
        help="computation path (default: direct)",
    )
    coeffs.add_argument(
        "--format", choices=sorted(FORMATTERS), default="plain",
        help="output format (default: plain)",
    )
    coeffs.set_defaults(handler=_cmd_coeffs)

    evaluate = sub.add_parser("eval", help="evaluate 1^p + ... + n^p exactly")
    evaluate.add_argument("p", type=_natural, help="power-sum exponent, >= 0")
    evaluate.add_argument("n", type=_positive, help="upper summation limit, >= 1")
    evaluate.add_argument(
        "--check", action="store_true",
        help="cross-check the result against the brute-force sum",
    )
    evaluate.set_defaults(handler=_cmd_eval)

    verify = sub.add_parser(
        "verify", help="cross-check all paths, op counts, and identities"
    )
    verify.add_argument("p_max", type=_natural, help="highest exponent to compare")
    verify.set_defaults(handler=_cmd_verify)

    bench = sub.add_parser(
        "bench", help="measured vs predicted operation counts up to p_max"
    )
    bench.add_argument("p_max", type=_natural, help="highest exponent to benchmark")
    bench.set_defaults(handler=_cmd_bench)

    bernoulli = sub.add_parser("bernoulli", help="print Bernoulli numbers b_0..b_m")
    bernoulli.add_argument("m", type=_natural, help="highest index, >= 0")
    bernoulli.add_argument(
        "--convention", choices=("plus", "minus"), default="plus",
        help="sign convention for b_1 (default: plus)",
    )
    bernoulli.set_defaults(handler=_cmd_bernoulli)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Arguments and results are exact integers of any size: `eval 1 N` takes
    # an N of 5,000 digits, and `bernoulli 2400` prints numerators past the
    # interpreter's default 4,300-digit limit, so lift it before parsing.
    # Python before 3.10.7 has no limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    status = 0
    try:
        status = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`faulhaber bernoulli 400 | head -1`): that is
        # no failure of the command.  Point stdout at the null device so the
        # flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except KeyboardInterrupt:
        # Ctrl-C: a short diagnostic and the shell's 128 + SIGINT status
        # instead of a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    return status


if __name__ == "__main__":
    sys.exit(main())
