"""The CLI's command-line parser against the argparse parser it replaced
(`argparse_reference.py`): on any command line drawn from the alphabet below
the two exit with the same status and print the same bytes, and an accepted
command line gives the same fields.

Where the two are meant to differ, or argparse itself differs between Python
releases, the expected outcome is pinned instead: the `--` separator, whose
handling later patch releases of 3.12 and 3.13 changed, and a run of flags
attached to `-h`, which 3.13.0 reads otherwise than 3.10-3.12.
"""
import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argparse_reference import build_parser as reference_parser
from faulhaber import cli

ALPHABET = (
    "coeffs eval verify bench bernoulli frobnicate "
    "0 5 12 -1 -0 -2 x 1_0 +3 2.5 "
    "--method --meth --m --method=lemma --format --fo --format=json --format= "
    "--check --ch --check=1 --convention --conv "
    "lemma bernoulli taylor json html plus both "
    "-h --help -x -5x"
).split()


@pytest.fixture(scope="module", autouse=True)
def terminal():
    # argparse wraps its usage to the terminal width and 3.13 may colour it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        patch.setenv("PYTHON_COLORS", "0")
        yield


def outcome(parser, argv):
    """(exit status or None, stdout, stderr, fields or None) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    status = fields = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = vars(parser.parse_args(argv))
        except SystemExit as exit_:
            status = exit_.code
    return status, out.getvalue(), err.getvalue(), fields


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=5))
def test_parser_reads_the_command_line_as_argparse_did(argv):
    assert outcome(cli.build_parser(), argv) == outcome(reference_parser(), argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["coeffs", "--help"], ["eval", "-h"], ["verify", "--he"], ["bench", "-h"],
    ["bernoulli", "--help"], ["coeffs", "x"], ["eval", "3", "4", "--check=1"],
    ["coeffs", "--=x"],  # an ambiguous prefix
], ids=repr)
def test_parser_matches_argparse_on_each_help_and_kind_of_error(argv):
    assert outcome(cli.build_parser(), argv) == outcome(reference_parser(), argv)


def fields(**named):
    defaults = {"coeffs": {"method": "direct", "format": "plain"}, "eval": {"check": False}}
    command = named["command"]
    handler = getattr(cli, f"_cmd_{command}")
    return (None, "", "", {**defaults.get(command, {}), **named, "handler": handler})


# The help and usage texts are fixed, so that they can be read while the
# cases are collected; the tests above compare them with argparse's.
def help_of(*command):
    return (0, outcome(cli.build_parser(), [*command, "--help"])[1], "", None)


def usage_error(command, message):
    usage = help_of(*command)[1].partition("\n\n")[0]
    prog = " ".join(["faulhaber", *command])
    return (2, "", f"{usage}\n{prog}: error: {message}\n", None)


CHOOSE_COMMAND = "(choose from 'coeffs', 'eval', 'verify', 'bench', 'bernoulli')"


PINNED = [
    # The first "--" ends the options of its level and is dropped: before the
    # subcommand as after it.  Python 3.10-3.13.0 took a "--" before the
    # subcommand for its name.
    (["--", "coeffs", "5"], fields(command="coeffs", p=5)),
    (["--"], usage_error([], "the following arguments are required: command")),
    (["--", "-h"], usage_error([], f"argument command: invalid choice: '-h' {CHOOSE_COMMAND}")),
    (["coeffs", "--", "-1"],
     usage_error(["coeffs"], "argument p: expected a value >= 0, got -1")),
    (["coeffs", "--", "--help"],
     usage_error(["coeffs"], "argument p: expected an integer, got '--help'")),
    (["eval", "3", "--", "4"], fields(command="eval", p=3, n=4)),
    (["coeffs", "--method", "lemma", "--", "5"], fields(command="coeffs", p=5, method="lemma")),
    (["coeffs", "5", "--"], fields(command="coeffs", p=5)),
    (["coeffs", "--method", "--", "lemma", "5"],
     usage_error(["coeffs"], "argument --method: expected one argument")),
    # A "--" that no positional takes is unrecognised, as in argparse; after
    # the first, "--" is a value.  Python 3.10-3.13.0 set n to [] here.
    (["coeffs", "5", "6", "--"], usage_error([], "unrecognized arguments: 6 --")),
    (["eval", "--", "3", "--", "4"],
     usage_error(["eval"], "argument n: expected an integer, got '--'")),
    # A run of h's after -h repeats it; anything else attached is a value
    # that -h does not take, as in Python 3.10-3.12.
    (["-hh"], help_of()),
    (["-h=h"], help_of()),
    (["-hx"], usage_error([], "argument -h/--help: ignored explicit argument 'x'")),
    (["coeffs", "-hhx"],
     usage_error(["coeffs"], "argument -h/--help: ignored explicit argument 'x'")),
    (["-h="], usage_error([], "argument -h/--help: ignored explicit argument ''")),
]


@pytest.mark.parametrize("argv, expected", PINNED, ids=[repr(argv) for argv, _ in PINNED])
def test_pinned_readings(argv, expected):
    assert outcome(cli.build_parser(), argv) == expected


def test_parse_args_reads_sys_argv_by_default(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["faulhaber", "bernoulli", "3", "--conv", "minus"])
    assert vars(cli.build_parser().parse_args()) == fields(
        command="bernoulli", m=3, convention="minus")[3]
