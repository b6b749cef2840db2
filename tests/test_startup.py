"""Start-up hygiene: importing the CLI loads no module it does not need.

Every command pays for the imports of `faulhaber.cli`.  `dataclasses` brings
in `inspect`, `ast`, `dis` and `tokenize`; `json` is needed by one formatter
only, and `typing` by no code at run time.  The import runs in a fresh
interpreter under `-S`, so that no `site` hook (a `.pth` file of some
installed package) preloads modules first.
"""
import os
import subprocess
import sys
from pathlib import Path

from faulhaber import cli

UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "typing")

PROGRAM = f"""\
import sys
import faulhaber.cli
print(*sorted(set({UNWANTED!r}) & set(sys.modules)))
faulhaber.cli.main(["coeffs", "3", "--format", "json"])
"""


def test_cli_import_loads_no_unneeded_module():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROGRAM],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded, emitted = proc.stdout.splitlines()
    assert loaded == ""
    assert emitted == '{"p":3,"coefficients":["0","1/4","1/2","1/4"]}'
