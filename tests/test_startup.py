"""Start-up hygiene: importing the CLI loads no module it does not need, and
each command loads only the modules of the package that it runs.

Every command pays for the imports of `faulhaber.cli`.  `dataclasses` brings
in `inspect`, `ast`, `dis` and `tokenize`; `json` is needed by one formatter
only, and `typing` by no code at run time.  Each program runs in a fresh
interpreter under `-S`, so that no `site` hook (a `.pth` file of some
installed package) preloads modules first.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faulhaber import cli

UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "typing")

PROGRAM = f"""\
import sys
import faulhaber.cli
print(*sorted(set({UNWANTED!r}) & set(sys.modules)))
faulhaber.cli.main(["coeffs", "3", "--format", "json"])
"""

# Runs the command given as its arguments, if any, after importing the CLI,
# then prints the package's modules loaded.
LOADED_PROGRAM = """\
import sys
import faulhaber.cli
try:
    if sys.argv[1:]:
        faulhaber.cli.main(sys.argv[1:])
except SystemExit:
    pass
print("loaded:", *sorted(m for m in sys.modules if m.startswith("faulhaber.")))
"""

EVERYTHING = {"faulhaber.cli", "faulhaber._verify", "faulhaber.rationals", "faulhaber.oracle",
              "faulhaber.direct", "faulhaber.integration", "faulhaber.bernoulli",
              "faulhaber.identities"}
BERNOULLI = {"faulhaber.cli", "faulhaber.rationals", "faulhaber.bernoulli"}


def run_fresh(program, *argv):
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-S", "-c", program, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_cli_import_loads_no_unneeded_module():
    proc = run_fresh(PROGRAM)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded, emitted = proc.stdout.splitlines()
    assert loaded == ""
    assert emitted == '{"p":3,"coefficients":["0","1/4","1/2","1/4"]}'


@pytest.mark.parametrize("argv, modules", [
    ((), {"faulhaber.cli"}),
    (("coeffs", "x"), {"faulhaber.cli"}),  # a usage error
    (("coeffs", "--help"), {"faulhaber.cli"}),
    (("coeffs", "3", "--method", "lemma"),
     {"faulhaber.cli", "faulhaber.rationals", "faulhaber.integration"}),
    (("coeffs", "3"), {"faulhaber.cli", "faulhaber.rationals", "faulhaber.direct"}),
    (("coeffs", "3", "--method", "bernoulli"), BERNOULLI),
    (("eval", "3", "4"),
     {"faulhaber.cli", "faulhaber.rationals", "faulhaber.direct", "faulhaber.oracle"}),
    (("bernoulli", "4"), BERNOULLI),
    (("verify", "2"), EVERYTHING),
    (("bench", "2"), EVERYTHING),
], ids=["import", "usage-error", "help", "coeffs-lemma", "coeffs-direct", "coeffs-bernoulli",
        "eval", "bernoulli", "verify", "bench"])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    proc = run_fresh(LOADED_PROGRAM, *argv)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()[1:]) == modules
