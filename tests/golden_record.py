"""The golden CLI record: the fixed list of commands, how one replays
through `cli.main`, and how `tests/golden/cli.txt` is read and rewritten.
`tests/test_golden.py` checks the program against the record.

This module needs the standard library only, so the record can be
rewritten by an interpreter without the test extras.  When the output of a
command is meant to change, rewrite it with

    PYTHONPATH=src python tests/golden_record.py

and review the diff of `tests/golden/cli.txt` like any other change.
"""
import contextlib
import io
import os
import re
from pathlib import Path

from faulhaber import cli

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli.txt"

COMMANDS = [
    *(
        f"coeffs {p} --method {method} --format {fmt}"
        for p in (0, 7, 100)
        for method in ("direct", "lemma", "bernoulli")
        for fmt in ("plain", "json", "latex")
    ),
    "eval 5 1000 --check",
    "eval 60 10000",
    "eval 0 1",
    "eval 30 123456789012345678901234567890",
    "bernoulli 30 --convention plus",
    "bernoulli 30 --convention minus",
    "verify 0",
    "verify 25",
    "bench 64",
    *(f"{command} --help".lstrip()
      for command in ("", "coeffs", "eval", "verify", "bench", "bernoulli")),
]
USAGE_ERRORS = ["coeffs -1", "eval 3 0", "verify", "frobnicate 1", "coeffs x",
                "coeffs 5 --method taylor", "coeffs 5 6", "eval 3 4 --check=1",
                # The message repeats the first 40 characters of the token.
                "coeffs 5 --method " + "x" * 60]

# The usage and help are fixed texts that no terminal setting changes; the
# width and colour are pinned all the same, so that no record can come to
# depend on the terminal it was written in.
ENVIRONMENT = {"COLUMNS": "80", "PYTHON_COLORS": "0"}

# A record is "### <command>", "exit <status>", "--- stdout" and its lines,
# then "--- stderr" and its lines.
RECORD = re.compile(
    r"^### ([^\n]*)\nexit (\d+)\n--- stdout\n(.*?)^--- stderr\n(.*?)(?=^### |\Z)",
    re.MULTILINE | re.DOTALL,
)


def run(command, capture):
    """(status, stdout, stderr) of one command, the bench seconds masked;
    `capture()` returns what the command printed."""
    argv = command.split()
    try:
        status = cli.main(argv)
    except SystemExit as exit_:  # a usage error or --help
        status = exit_.code
    out, err = capture()
    if argv[0] == "bench":
        out = re.sub(r"\d+\.\d{6}$", lambda m: "#" * len(m[0]), out, flags=re.MULTILINE)
    return status, out, err


def read_golden():
    text = GOLDEN_PATH.read_text(encoding="utf-8")
    return {m[1]: (int(m[2]), m[3], m[4]) for m in RECORD.finditer(text)}


def record():
    """Rewrite the golden file from the current program."""
    os.environ.update(ENVIRONMENT)
    chunks = []
    for command in COMMANDS + USAGE_ERRORS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status, stdout, stderr = run(
                command, lambda: (out.getvalue(), err.getvalue()))
        if not all(text.endswith("\n") for text in (stdout, stderr) if text):
            raise ValueError(f"output of {command!r} does not end in a newline")
        chunks.append(
            f"### {command}\nexit {status}\n--- stdout\n{stdout}--- stderr\n{stderr}"
        )
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("".join(chunks), encoding="utf-8")


if __name__ == "__main__":
    record()
