"""Command-line front end.

Subcommands:

    coeffs     print a coefficient row (plain, json, or latex)
    eval       evaluate the power sum f_p(n) exactly via the coefficients
    verify     cross-check all computation paths, op counts, and identities
    bench      measured vs predicted operation counts on a geometric schedule
    bernoulli  print a Bernoulli-number table in either sign convention

Results go to stdout, diagnostics to stderr.  Exit statuses are a stable
scripting contract: 0 success, 1 verification failure, 2 usage error,
71 the machine cannot hold the work (EX_OSERR: `bernoulli 10**20`, whose
table cannot be indexed), 74 output not written (EX_IOERR: `> /dev/full`),
130 interrupted.  `coeffs 10**20` on the direct or lemma path, and `bench`
and `eval` with such a p, work up one degree at a time until interrupted
or out of memory.

The command line is read from one table, as argparse read it; the usage and
help texts are fixed, so neither the terminal nor the interpreter changes
them.
"""
from __future__ import annotations

import os
import sys
import time

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: importing the CLI loads no path
    from collections.abc import Callable, Iterator

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
    # only `verify` loads.
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
#
# Every format and the `bernoulli` table are printed from integer pairs, so
# no command that only prints loads `fractions`.


def _fraction_text(num: int, den: int) -> str:
    """The reduced fraction num/den, den > 0, as str() of the equal
    `Fraction` writes it: "num/den", or the bare integer when den is 1."""
    return f"{num}/{den}" if den != 1 else str(num)


def _reduced(row: CoefficientRow) -> Iterator[tuple[int, int]]:
    """The row's entries ascending by power, each as a reduced pair."""
    from math import gcd  # not at start-up: a usage error loads no `math`

    d = row.denominator
    for c in row.numerators:
        g = gcd(c, d)
        yield c // g, d // g


def format_plain(row: CoefficientRow) -> str:
    return " ".join(
        f"a_{j}={_fraction_text(*ratio)}" for j, ratio in enumerate(_reduced(row), start=1)
    )


def format_json(row: CoefficientRow) -> str:
    """The object {"p": P, "coefficients": [...]} with no spaces, as
    `json.dumps(..., separators=(",", ":"))` writes it.  Rationals travel as
    strings so no JSON consumer can lose exactness; they hold only digits,
    "-" and "/", which JSON writes as they are, so no `json` is loaded."""
    coefficients = ",".join(f'"{_fraction_text(*ratio)}"' for ratio in _reduced(row))
    return f'{{"p":{row.degree},"coefficients":[{coefficients}]}}'


def format_latex(row: CoefficientRow) -> str:
    """Render descending by power, omitting zero terms and unit coefficients."""
    parts: list[str] = []
    for power, (num, den) in reversed(list(enumerate(_reduced(row), start=1))):
        if num == 0:
            continue
        if num < 0:
            parts.append("-")
        elif parts:
            parts.append("+")
        num = abs(num)
        if den != 1:
            parts.append(rf"\frac{{{num}}}{{{den}}}")
        elif num != 1:
            parts.append(str(num))
        parts.append("n" if power == 1 else f"n^{{{power}}}")
    return "".join(parts)


FORMATTERS: dict[str, Callable[[CoefficientRow], str]] = {
    "plain": format_plain,
    "json": format_json,
    "latex": format_latex,
}


# ---------------------------------------------------------------------------
# Argument validators and handlers


def _clip(text: str) -> str:  # an echoed value may be megabytes long
    return text if len(text) <= 40 else text[:40] + "..."


def _at_least(least: int, text: str) -> int:
    # An optional "-" and ASCII digits only: int() would also take "+3",
    # " 4", "1_0" and non-ASCII digits.  A "-" makes any value, "-0"
    # included, one below 0.
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {_clip(repr(text))}")
    value = -1 if negative else int(text)
    if value < least:
        raise ValueError(f"expected a value >= {least}, got {_clip(text)}")
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


def _cmd_coeffs(args: Arguments) -> int:
    _warn_if_huge("p", args.p, SOFT_DEGREE_LIMIT)
    row = METHODS[args.method](args.p)
    print(FORMATTERS[args.format](row))
    return 0


def _cmd_eval(args: Arguments) -> int:
    from . import oracle

    _warn_if_huge("p", args.p, SOFT_DEGREE_LIMIT)
    if args.check:
        _warn_if_huge("n", args.n, BRUTE_FORCE_LIMIT)
    # The lemma row: built on integers alone, where the direct row's
    # Fraction steps serve only the operation counts of `verify` and `bench`.
    value = oracle.evaluate_row(METHODS["lemma"](args.p), args.n)
    if value.denominator != 1:
        _diagnose(f"error: coefficient evaluation produced the non-integer {value}")
        return 1
    if args.check and value != oracle.power_sum_bruteforce(args.p, args.n):
        _diagnose(f"error: coefficient value {value} disagrees with the brute-force sum")
        return 1
    print(value.numerator)
    return 0


def _cmd_verify(args: Arguments) -> int:
    from . import _verify

    _warn_if_huge("p", args.p_max, SOFT_DEGREE_LIMIT)
    report = _verify.run_verification(args.p_max)
    print(report.render())
    return 0 if report.passed else 1


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


def _cmd_bench(args: Arguments) -> int:
    from . import direct

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
    for p, _, additions, multiplications, ok in direct.counted_pass(bench_schedule(args.p_max)):
        elapsed = time.perf_counter() - start
        all_match &= ok
        print(f"{p:>6} {additions:>12} {multiplications:>16} "
              f"{direct.predicted_additions(p):>14} "
              f"{direct.predicted_multiplications(p):>14} {elapsed:>10.6f}")
    if not all_match:
        _diagnose("error: measured operation counts deviate from the formulas")
        return 1
    return 0


def _cmd_bernoulli(args: Arguments) -> int:
    from . import bernoulli

    _warn_if_huge("m", args.m, SOFT_DEGREE_LIMIT)
    table = bernoulli.bernoulli_numbers(args.m)
    ratios = table.ratios_plus if args.convention == "plus" else table.ratios_minus
    for i, ratio in enumerate(ratios):
        print(f"{i}: {_fraction_text(*ratio)}")
    return 0


# ---------------------------------------------------------------------------
# The command line
#
# Each text below is what argparse printed at 80 columns under Python
# 3.10-3.13.  A help text starts with its usage, up to the first blank line.

HELP = """\
usage: faulhaber [-h] {coeffs,eval,verify,bench,bernoulli} ...

Exact Faulhaber-formula coefficients, three ways, cross-verified.

positional arguments:
  {coeffs,eval,verify,bench,bernoulli}
    coeffs              print the coefficient row for exponent p
    eval                evaluate 1^p + ... + n^p exactly
    verify              cross-check all paths, op counts, and identities
    bench               measured vs predicted operation counts up to p_max
    bernoulli           print Bernoulli numbers b_0..b_m

options:
  -h, --help            show this help message and exit
"""


class Arguments:
    """A parsed command line: `command`, `handler` and the command's
    arguments, each under its name."""

    def __init__(self, **fields: object) -> None:
        vars(self).update(fields)


def build_parser() -> Parser:
    # Row of a subcommand: its handler, its positionals in order as
    # (name, validator), its options as {name: (choices, default)}, where
    # choices None marks a flag, and its help.  The table is built at each
    # call, so a handler is looked up when the parser is built.
    return Parser({
        "coeffs": (
            _cmd_coeffs, (("p", _natural),),
            {"--method": (("bernoulli", "direct", "lemma"), "direct"),
             "--format": (("json", "latex", "plain"), "plain")},
            """\
usage: faulhaber coeffs [-h] [--method {bernoulli,direct,lemma}]
                        [--format {json,latex,plain}]
                        p

positional arguments:
  p                     power-sum exponent, >= 0

options:
  -h, --help            show this help message and exit
  --method {bernoulli,direct,lemma}
                        computation path (default: direct)
  --format {json,latex,plain}
                        output format (default: plain)
"""),
        "eval": (
            _cmd_eval, (("p", _natural), ("n", _positive)),
            {"--check": (None, False)},
            """\
usage: faulhaber eval [-h] [--check] p n

positional arguments:
  p           power-sum exponent, >= 0
  n           upper summation limit, >= 1

options:
  -h, --help  show this help message and exit
  --check     cross-check the result against the brute-force sum
"""),
        "verify": (
            _cmd_verify, (("p_max", _natural),), {},
            """\
usage: faulhaber verify [-h] p_max

positional arguments:
  p_max       highest exponent to compare

options:
  -h, --help  show this help message and exit
"""),
        "bench": (
            _cmd_bench, (("p_max", _natural),), {},
            """\
usage: faulhaber bench [-h] p_max

positional arguments:
  p_max       highest exponent to benchmark

options:
  -h, --help  show this help message and exit
"""),
        "bernoulli": (
            _cmd_bernoulli, (("m", _natural),),
            {"--convention": (("plus", "minus"), "plus")},
            """\
usage: faulhaber bernoulli [-h] [--convention {plus,minus}] m

positional arguments:
  m                     highest index, >= 0

options:
  -h, --help            show this help message and exit
  --convention {plus,minus}
                        sign convention for b_1 (default: plus)
"""),
    })


class Parser:
    """Reads a command line as argparse did: options anywhere, as
    `--name value`, `--name=value` or a unique prefix of the name; `-h` or
    `--help` prints the help where it is reached; after the first `--` every
    token is a positional; `-1` is a positional.  A usage error prints the
    usage and the error to stderr and raises SystemExit(2), the help goes to
    stdout and raises SystemExit(0).  Unlike argparse, an error repeats at
    most 40 characters of a token it names."""

    def __init__(self, commands: dict[str, tuple]) -> None:
        self.commands = commands

    def parse_args(self, argv: list[str] | None = None) -> Arguments:
        tokens = sys.argv[1:] if argv is None else list(argv)
        fields: dict[str, object] = {"command": None}
        extras = self._read(tokens, None, fields)
        if extras:
            _usage_error(HELP, "faulhaber",
                         "unrecognized arguments: " + " ".join(map(_clip, extras)))
        return Arguments(**fields)

    def _read(self, tokens: list[str], command: str | None,
              fields: dict[str, object]) -> list[str]:
        """Read `tokens` into `fields` as the arguments of `command`, or of
        the program when it is None; return the tokens left unrecognised."""
        if command is None:
            positionals, options, help_text = (("command", None),), {}, HELP
        else:
            handler, positionals, options, help_text = self.commands[command]
            fields.update({name[2:]: default for name, (_, default) in options.items()},
                          handler=handler)

        def fail(message: str) -> None:
            _usage_error(help_text, f"faulhaber {command}" if command else "faulhaber", message)

        # As in argparse, an ambiguous option fails before any token is read.
        end = tokens.index("--") if "--" in tokens else len(tokens)
        roles = [_role(token, ("--help", *options), fail) for token in tokens[:end]]
        if end < len(tokens):
            roles += ["--"] + [None] * (len(tokens) - end - 1)
        extras: list[str] = []
        waiting = list(positionals)
        i, read = 0, -1  # read: the position just after the last token a positional took
        while i < len(tokens):
            token, role = tokens[i], roles[i]
            i += 1
            if role == "--":
                # argparse drops it next to a positional, else it is unrecognised.
                if not waiting and read != i - 1:
                    extras.append(token)
            elif role is None and not waiting:
                extras.append(token)
            elif role is None:
                read = i
                name, check = waiting.pop(0)
                if check is None:  # the subcommand, which reads the rest
                    if token not in self.commands:
                        fail(f"argument command: invalid choice: {_clip(repr(token))} "
                             f"(choose from {_choices(self.commands)})")
                    fields["command"] = token
                    return extras + self._read(tokens[i:], token, fields)
                try:
                    fields[name] = check(token)
                except ValueError as error:
                    fail(f"argument {name}: {error}")
            else:
                option, value = role
                choices = options[option][0] if option in options else None
                if option is None:
                    extras.append(token)
                elif choices is None:  # --help or a flag
                    if value is not None:
                        shown = "-h/--help" if option == "--help" else option
                        fail(f"argument {shown}: ignored explicit argument "
                             f"{_clip(repr(value))}")
                    if option == "--help":
                        _print_help(help_text)
                    fields[option[2:]] = True
                else:
                    if value is None:
                        if i == len(tokens) or roles[i] is not None:
                            fail(f"argument {option}: expected one argument")
                        value = tokens[i]
                        i += 1
                    if value not in choices:
                        fail(f"argument {option}: invalid choice: {_clip(repr(value))} "
                             f"(choose from {_choices(choices)})")
                    fields[option[2:]] = value
        if waiting:
            fail("the following arguments are required: "
                 + ", ".join(name for name, _ in waiting))
        return extras


def _role(token: str, names: tuple[str, ...],
          fail: Callable[[str], None]) -> tuple[str | None, str | None] | None:
    """None if `token` is a positional, else (option, value): the one of
    `names` it names, None if it names none, and the value given with it,
    None if none was."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "-":
        prefix, equals, value = token.partition("=")
        matches = [name for name in names if name.startswith(prefix)]
        if len(matches) > 1:
            fail(f"ambiguous option: {_clip(token)} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if equals else None
    elif token[1] == "h":
        if token == "-h":
            return "--help", None
        value = token[3:] if token[2] == "=" else token[2:]
        # "-hh" is -h twice; the rest of a run of h's is a value -h rejects.
        return "--help", value and (value.lstrip("h") or None)
    # argparse's negative number: "-" and digits, with at most one "."
    # followed by a digit; its regex also lets a final newline through.
    whole, point, fraction = token[1:].removesuffix("\n").partition(".")
    if (whole.isdecimal() and not point
            or point and (whole.isdecimal() or not whole) and fraction.isdecimal()
            or " " in token):
        return None
    return None, None


def _choices(choices: object) -> str:
    return ", ".join(map(repr, choices))


def _usage_error(help_text: str, prog: str, message: str) -> None:
    usage = help_text[:help_text.index("\n\n") + 1]
    _diagnose(f"{usage}{prog}: error: {message}")
    raise SystemExit(2)


def _print_help(help_text: str) -> None:
    # Flushed here, so that a failed write reaches `main`'s handlers before
    # the exit, as a command's output does.
    if sys.stdout is not None:
        sys.stdout.write(help_text)
        sys.stdout.flush()
    raise SystemExit(0)


def _silence_stdout() -> None:
    # Point stdout at the null device, so the flush at exit cannot raise
    # again.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    # Arguments and results are exact integers of any size: `eval 1 N` takes
    # an N of 5,000 digits, and `bernoulli 2400` prints numerators past the
    # interpreter's default 4,300-digit limit, so lift it before parsing,
    # and put the caller's back on every way out.  Python before 3.10.7 has
    # no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    status = 0
    try:
        args = build_parser().parse_args(argv)
        status = args.handler(args)
        if sys.stdout is not None:  # None when started with stdout closed (`>&-`)
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`faulhaber bernoulli 400 | head -1`): that is
        # no failure of the command.
        _silence_stdout()
    except OSError as error:
        # Any other failed write (`> /dev/full`): the output is lost, which
        # is neither a verification failure nor a usage error.
        _diagnose(f"error: cannot write output: {error.strerror}")
        _silence_stdout()
        return 74
    except (MemoryError, OverflowError) as error:
        # The argument is well formed, but its work does not fit this
        # machine (`bernoulli 10**20` cannot index its table): neither a
        # verification failure nor a usage error.
        _diagnose(f"error: too large for this machine: {str(error) or 'out of memory'}")
        return 71
    except KeyboardInterrupt:
        # Ctrl-C: a short diagnostic and the shell's 128 + SIGINT status
        # instead of a traceback.
        _diagnose("interrupted")
        return 130
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return status


if __name__ == "__main__":
    sys.exit(main())
