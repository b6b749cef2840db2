"""Golden CLI bytes: a fixed list of commands replays through `cli.main` and
must print exactly what `tests/golden/cli.txt` recorded -- stdout and exit
status for every command, stderr too for the usage errors.

The `seconds` column of `bench` is masked, since it is a wall time.  When
the output of a command is meant to change, rewrite the record with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of `tests/golden/cli.txt` like any other change.
"""
import contextlib
import io
import os
import re
from pathlib import Path

import pytest

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
]
USAGE_ERRORS = ["coeffs -1", "eval 3 0", "verify", "frobnicate 1"]

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
    except SystemExit as exit_:  # argparse's usage errors
        status = exit_.code
    out, err = capture()
    if argv[0] == "bench":
        out = re.sub(r"\d+\.\d{6}$", lambda m: "#" * len(m[0]), out, flags=re.MULTILINE)
    return status, out, err


def read_golden():
    text = GOLDEN_PATH.read_text(encoding="utf-8")
    return {m[1]: (int(m[2]), m[3], m[4]) for m in RECORD.finditer(text)}


@pytest.fixture
def replay(capsys, monkeypatch):
    # argparse wraps its usage line to the terminal width, and newer Pythons
    # may colour it: pin both so stderr does not depend on the terminal.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHON_COLORS", "0")
    return lambda command: run(command, capsys.readouterr)


def test_golden_record_covers_every_command():
    assert list(read_golden()) == COMMANDS + USAGE_ERRORS


@pytest.mark.parametrize("command", COMMANDS)
def test_command_output_is_unchanged(replay, command):
    status, out, _ = replay(command)
    expected_status, expected_out, _ = read_golden()[command]
    assert status == expected_status
    assert out == expected_out


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_output_is_unchanged(replay, command):
    assert replay(command) == read_golden()[command]


def record():
    """Rewrite the golden file from the current program."""
    os.environ.update(COLUMNS="80", PYTHON_COLORS="0")
    chunks = []
    for command in COMMANDS + USAGE_ERRORS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status, stdout, stderr = run(
                command, lambda: (out.getvalue(), err.getvalue()))
        assert all(text.endswith("\n") for text in (stdout, stderr) if text)
        chunks.append(
            f"### {command}\nexit {status}\n--- stdout\n{stdout}--- stderr\n{stderr}"
        )
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("".join(chunks), encoding="utf-8")


if __name__ == "__main__":
    record()
