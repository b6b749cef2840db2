"""The argparse parser the CLI was first written with, kept as the reference
that `faulhaber.cli`'s own parser is compared against in
`tests/test_parser.py`.  It reads the same validators and handlers as the
CLI, so the two differ only in how they read the command line.
"""
import argparse
import re

from faulhaber import cli


class _Parser(argparse.ArgumentParser):
    """argparse as Python 3.10.13-3.13.0 read the command line, which the
    CLI's parser reproduces, pinned where a later release may read it
    otherwise: which "-" tokens are negative numbers, and how an invalid
    choice is quoted.  Subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


def _validator(check):
    # argparse prints an ArgumentTypeError's own message, but replaces that
    # of a ValueError with "invalid <function name> value".
    def validate(text):
        try:
            return check(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return validate


def build_parser() -> argparse.ArgumentParser:
    natural, positive = _validator(cli._natural), _validator(cli._positive)
    parser = _Parser(
        prog="faulhaber",
        description="Exact Faulhaber-formula coefficients, three ways, cross-verified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="print the coefficient row for exponent p")
    coeffs.add_argument("p", type=natural, help="power-sum exponent, >= 0")
    coeffs.add_argument(
        "--method", choices=sorted(cli.METHODS), default="direct",
        help="computation path (default: direct)",
    )
    coeffs.add_argument(
        "--format", choices=sorted(cli.FORMATTERS), default="plain",
        help="output format (default: plain)",
    )
    coeffs.set_defaults(handler=cli._cmd_coeffs)

    evaluate = sub.add_parser("eval", help="evaluate 1^p + ... + n^p exactly")
    evaluate.add_argument("p", type=natural, help="power-sum exponent, >= 0")
    evaluate.add_argument("n", type=positive, help="upper summation limit, >= 1")
    evaluate.add_argument(
        "--check", action="store_true",
        help="cross-check the result against the brute-force sum",
    )
    evaluate.set_defaults(handler=cli._cmd_eval)

    verify = sub.add_parser(
        "verify", help="cross-check all paths, op counts, and identities"
    )
    verify.add_argument("p_max", type=natural, help="highest exponent to compare")
    verify.set_defaults(handler=cli._cmd_verify)

    bench = sub.add_parser(
        "bench", help="measured vs predicted operation counts up to p_max"
    )
    bench.add_argument("p_max", type=natural, help="highest exponent to benchmark")
    bench.set_defaults(handler=cli._cmd_bench)

    bernoulli = sub.add_parser("bernoulli", help="print Bernoulli numbers b_0..b_m")
    bernoulli.add_argument("m", type=natural, help="highest index, >= 0")
    bernoulli.add_argument(
        "--convention", choices=("plus", "minus"), default="plus",
        help="sign convention for b_1 (default: plus)",
    )
    bernoulli.set_defaults(handler=cli._cmd_bernoulli)

    return parser
