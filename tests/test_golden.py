"""Golden CLI bytes: a fixed list of commands replays through `cli.main` and
must print exactly what `tests/golden/cli.txt` recorded -- stdout and exit
status for every command, stderr too for the usage errors.

The `seconds` column of `bench` is masked, since it is a wall time.  The
commands, the replay and the rewrite of the record are in
`tests/golden_record.py`, which runs without pytest.
"""
import pytest

from golden_record import COMMANDS, ENVIRONMENT, USAGE_ERRORS, read_golden, run


@pytest.fixture
def replay(capsys, monkeypatch):
    for name, value in ENVIRONMENT.items():
        monkeypatch.setenv(name, value)
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
