"""Start-up hygiene: importing the CLI loads no module it does not need, and
each command loads only the modules of the package that it runs.

Every command pays for the imports of `faulhaber.cli`.  `dataclasses` brings
in `inspect`, `ast`, `dis` and `tokenize`; `typing` is needed by no code
at run time, and `json` by none either: the json format writes its object
itself, so no command loads it.  The CLI reads its command line
without `argparse`, which brings in `gettext`, `locale` and `shutil`, not
even for a usage error or `--help`.  Only the commands that do `Fraction`
arithmetic load `fractions`, with its `decimal` and `numbers`: `coeffs`
on the direct path, whose steps the operation counts are defined on,
`eval`, whose value is a `Fraction`, `verify` and `bench`; `bench` runs
only the direct path's counted pass, and loads neither another path nor
`verify`'s `_verify`.  Every row
format and the `bernoulli` table print from integer pairs, and no module of
the paths, nor the oracle or `_verify`, builds a `Fraction` when it is
imported.  Each program
runs in a fresh interpreter under `-S`, so that no `site` hook (a `.pth`
file of some installed package) preloads modules first.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faulhaber import cli

UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "typing",
            "argparse", "gettext", "locale", "shutil")

PROGRAM = f"""\
import sys
import faulhaber.cli
print(*sorted(set({UNWANTED!r}) & set(sys.modules)))
faulhaber.cli.main(["coeffs", "3", "--format", "json"])
"""

# Runs the command given as its arguments, if any, after importing the CLI,
# then prints the package's modules loaded, and those of argparse, gettext,
# locale, json, fractions, decimal and numbers that were.
LOADED_PROGRAM = """\
import sys
import faulhaber.cli
try:
    if sys.argv[1:]:
        faulhaber.cli.main(sys.argv[1:])
except SystemExit:
    pass
print("loaded:", *sorted(m for m in sys.modules if m.startswith("faulhaber.") or m in (
    "argparse", "gettext", "locale", "json", "fractions", "decimal", "numbers")))
"""

# Counts the Fractions built while the CLI, the modules of the paths, the
# oracle and `_verify` are imported.
CONSTRUCTION_PROGRAM = """\
import fractions
built = 0
new = fractions.Fraction.__new__
def counting_new(cls, *args, **kwargs):
    global built
    built += 1
    return new(cls, *args, **kwargs)
fractions.Fraction.__new__ = staticmethod(counting_new)
import faulhaber.cli
from faulhaber import _verify, bernoulli, direct, integration, oracle, rationals
print(built)
"""

FRACTIONS = {"fractions", "decimal", "numbers"}  # fractions imports the other two
EVERYTHING = {"faulhaber.cli", "faulhaber._verify", "faulhaber.rationals", "faulhaber.oracle",
              "faulhaber.direct", "faulhaber.integration", "faulhaber.bernoulli", *FRACTIONS}
LEMMA = {"faulhaber.cli", "faulhaber.rationals", "faulhaber.integration"}
BERNOULLI = {"faulhaber.cli", "faulhaber.rationals", "faulhaber.bernoulli"}


def run_fresh(program, *argv, **env):
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-S", "-c", program, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), **env},
    )


def test_cli_import_loads_no_unneeded_module():
    proc = run_fresh(PROGRAM)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded, emitted = proc.stdout.splitlines()
    assert loaded == ""
    assert emitted == '{"p":3,"coefficients":["0","1/4","1/2","1/4"]}'


def test_no_path_module_builds_a_rational_at_import():
    proc = run_fresh(CONSTRUCTION_PROGRAM)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0\n")


@pytest.mark.parametrize("argv, modules", [
    ((), {"faulhaber.cli"}),
    (("coeffs", "x"), {"faulhaber.cli"}),  # a usage error
    (("coeffs", "--help"), {"faulhaber.cli"}),
    (("--help",), {"faulhaber.cli"}),
    (("coeffs", "3", "--method", "lemma"), LEMMA),
    (("coeffs", "3", "--method", "lemma", "--format", "json"), LEMMA),
    (("coeffs", "4", "--method", "lemma", "--format", "latex"), LEMMA),
    (("coeffs", "3"),
     {"faulhaber.cli", "faulhaber.rationals", "faulhaber.direct", *FRACTIONS}),
    (("coeffs", "3", "--method", "bernoulli"), BERNOULLI),
    (("coeffs", "3", "--method", "bernoulli", "--format", "json"), BERNOULLI),
    (("coeffs", "4", "--method", "bernoulli", "--format", "latex"), BERNOULLI),
    (("eval", "3", "4"),
     {"faulhaber.cli", "faulhaber.rationals", "faulhaber.integration", "faulhaber.oracle",
      *FRACTIONS}),
    (("bernoulli", "4"), BERNOULLI),
    (("bernoulli", "4", "--convention", "minus"), BERNOULLI),
    (("verify", "2"), EVERYTHING),
    (("bench", "2"), {"faulhaber.cli", "faulhaber.rationals", "faulhaber.direct", *FRACTIONS}),
], ids=["import", "usage-error", "help", "program-help", "coeffs-lemma", "coeffs-lemma-json",
        "coeffs-lemma-latex", "coeffs-direct", "coeffs-bernoulli", "coeffs-bernoulli-json",
        "coeffs-bernoulli-latex", "eval", "bernoulli", "bernoulli-minus", "verify", "bench"])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    proc = run_fresh(LOADED_PROGRAM, *argv)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()[1:]) == modules


@pytest.mark.parametrize("argv", [("coeffs", "x"), ("frobnicate",), ("--help",),
                                  ("coeffs", "--help")],
                         ids=["usage-error", "unknown-command", "program-help", "help"])
def test_usage_and_help_do_not_follow_the_terminal_width(argv):
    # The texts are fixed: at any width they are argparse's at 80 columns.
    program = "import sys, faulhaber.cli; faulhaber.cli.main(sys.argv[1:])"
    at_80 = run_fresh(program, *argv, COLUMNS="80")
    assert at_80.returncode in (0, 2) and (at_80.stdout or at_80.stderr)
    for columns in ("40", "200"):
        proc = run_fresh(program, *argv, COLUMNS=columns)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            at_80.returncode, at_80.stdout, at_80.stderr)
