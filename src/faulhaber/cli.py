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
import os
import sys
import time

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: importing the CLI loads no path
    from collections.abc import Callable

    from .bernoulli import BernoulliTable
    from .direct import OpCounter
    from .rationals import CoefficientRow

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


def __getattr__(name: str) -> object:
    # The names of `__all__` not defined here are defined in `_verify`, which
    # only `verify` and `bench` load.
    if name in __all__:
        from . import _verify

        return getattr(_verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Coefficient paths selectable with --method, in the order verify compares
# them.  Each loads its own path's module only, when first called, and looks
# the path up there at every call, where a tracer or a test may replace it.


def _direct(p: int, counter: OpCounter | None = None,
            start: CoefficientRow | None = None) -> CoefficientRow:
    from . import direct

    return direct.direct_coefficients(p, counter, start)


def _lemma(p: int, start: CoefficientRow | None = None) -> CoefficientRow:
    from . import integration

    return integration.integration_coefficients(p, start)


def _bernoulli(p: int, table: BernoulliTable | None = None) -> CoefficientRow:
    from . import bernoulli

    return bernoulli.faulhaber_via_bernoulli(p, table)


METHODS: dict[str, Callable[..., CoefficientRow]] = {
    "direct": _direct,
    "lemma": _lemma,
    "bernoulli": _bernoulli,
}

# Anything above this is almost certainly an accidental runaway job, but it
# is allowed: the guard only warns.
SOFT_DEGREE_LIMIT = 10000

# `eval --check` adds n big-integer powers one by one.  At n = 10**6 that
# took 0.1 s for p = 1, about 1 s for p = 40-50 and 1.3 s for p = 60
# (Python 3.11.7, best of 3).  Above it, the check warns as the guard does.
BRUTE_FORCE_LIMIT = 10**6


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


def _diagnose(text: str) -> None:
    # Every diagnostic goes through here.  A closed stderr (`2>&-`) is None
    # or fails with EBADF: drop the line rather than the command's result.
    try:
        if sys.stderr is not None:  # print(file=None) would write to stdout
            print(text, file=sys.stderr)
    except OSError:
        pass


def _warn_if_huge(name: str, value: int, limit: int) -> None:
    if value > limit:
        _diagnose(f"warning: {name} = {_clip(str(value))} is above {limit}; "
                  "this may take a very long time")


def _cmd_coeffs(args: argparse.Namespace) -> int:
    _warn_if_huge("p", args.p, SOFT_DEGREE_LIMIT)
    row = METHODS[args.method](args.p)
    print(FORMATTERS[args.format](row))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import oracle

    _warn_if_huge("p", args.p, SOFT_DEGREE_LIMIT)
    if args.check:
        _warn_if_huge("n", args.n, BRUTE_FORCE_LIMIT)
    value = oracle.evaluate_row(METHODS["direct"](args.p), args.n)
    if value.denominator != 1:
        _diagnose(f"error: coefficient evaluation produced the non-integer {value}")
        return 1
    if args.check and value != oracle.power_sum_bruteforce(args.p, args.n):
        _diagnose(f"error: coefficient value {value} disagrees with the brute-force sum")
        return 1
    print(value.numerator)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import _verify

    _warn_if_huge("p", args.p_max, SOFT_DEGREE_LIMIT)
    report = _verify.run_verification(args.p_max)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import _verify

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
    for p, _, additions, multiplications, ok in _verify.counted_pass(
            _verify.bench_schedule(args.p_max)):
        elapsed = time.perf_counter() - start
        all_match &= ok
        print(f"{p:>6} {additions:>12} {multiplications:>16} "
              f"{_verify.predicted_additions(p):>14} "
              f"{_verify.predicted_multiplications(p):>14} {elapsed:>10.6f}")
    if not all_match:
        _diagnose("error: measured operation counts deviate from the formulas")
        return 1
    return 0


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    from . import bernoulli

    _warn_if_huge("m", args.m, SOFT_DEGREE_LIMIT)
    table = bernoulli.bernoulli_numbers(args.m)
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
        if sys.stdout is not None:  # None when started with stdout closed (`>&-`)
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
        _diagnose("interrupted")
        return 130
    return status


if __name__ == "__main__":
    sys.exit(main())
