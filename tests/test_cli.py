"""Command-line contract: output formats, exit statuses, cross-verification,
and the benchmark table."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from faulhaber import CoefficientRow
from faulhaber import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_plain(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "2", "--format", "plain")
    assert code == 0
    assert out == "a_1=1/6 a_2=1/2 a_3=1/3\n"


def test_coeffs_plain_is_default_format(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "2")
    assert out == "a_1=1/6 a_2=1/2 a_3=1/3\n"


def test_coeffs_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "0", "--format", "json")
    assert code == 0
    assert out == '{"p":0,"coefficients":["1"]}\n'


def test_coeffs_latex_omits_zero_terms(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "3", "--format", "latex")
    assert code == 0
    assert out == "\\frac{1}{4}n^{4}+\\frac{1}{2}n^{3}+\\frac{1}{4}n^{2}\n"


def test_coeffs_latex_degenerate_row(capsys):
    _, out, _ = run_cli(capsys, "coeffs", "0", "--format", "latex")
    assert out == "n\n"


def test_coeffs_latex_negative_coefficient(capsys):
    _, out, _ = run_cli(capsys, "coeffs", "4", "--format", "latex")
    assert out == (
        "\\frac{1}{5}n^{5}+\\frac{1}{2}n^{4}+\\frac{1}{3}n^{3}-\\frac{1}{30}n\n"
    )


@pytest.mark.parametrize("p", [0, 5, 10])
@pytest.mark.parametrize("fmt", ["plain", "json", "latex"])
def test_methods_emit_identical_bytes(capsys, p, fmt):
    outputs = set()
    for method in ("direct", "lemma", "bernoulli"):
        _, out, _ = run_cli(capsys, "coeffs", str(p), "--method", method,
                            "--format", fmt)
        outputs.add(out)
    assert len(outputs) == 1


def test_json_round_trips_byte_identically(capsys):
    _, out, _ = run_cli(capsys, "coeffs", "7", "--format", "json")
    emitted = out.rstrip("\n")
    reparsed = json.dumps(json.loads(emitted), separators=(",", ":"))
    assert reparsed == emitted


def test_eval_values(capsys):
    assert run_cli(capsys, "eval", "2", "3")[:2] == (0, "14\n")
    assert run_cli(capsys, "eval", "5", "1")[:2] == (0, "1\n")
    assert run_cli(capsys, "eval", "0", "9")[:2] == (0, "9\n")


def test_eval_with_cross_check(capsys):
    code, out, err = run_cli(capsys, "eval", "6", "25", "--check")
    assert code == 0
    assert out == f"{sum(k**6 for k in range(1, 26))}\n"
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "2", "0"),  # n must be >= 1
        ("eval", "-1", "3"),
        ("coeffs", "-2"),
        ("coeffs", "2.5"),
        ("coeffs", "2", "--format", "xml"),
        ("nonsense",),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == 2
    assert capsys.readouterr().err != ""


def test_bernoulli_plus_convention(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "1", "--convention", "plus")
    assert code == 0
    assert out == "0: 1\n1: 1/2\n"


def test_bernoulli_minus_convention(capsys):
    _, out, _ = run_cli(capsys, "bernoulli", "1", "--convention", "minus")
    assert out == "0: 1\n1: -1/2\n"


def test_bernoulli_default_reaches_minus_one_thirtieth(capsys):
    _, out, _ = run_cli(capsys, "bernoulli", "4")
    assert "4: -1/30" in out.splitlines()


def test_verify_trivial_range_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "0")
    assert code == 0
    assert "result: PASS" in out


def test_verify_locates_injected_fault(capsys, monkeypatch):
    genuine = cli.METHODS["lemma"]

    def flip_one_coefficient(p):
        row = genuine(p)
        if p != 7:
            return row
        coeffs = list(row.coefficients)
        coeffs[2] += Fraction(1, 2)
        return CoefficientRow(row.degree, tuple(coeffs))

    monkeypatch.setitem(cli.METHODS, "lemma", flip_one_coefficient)
    code, out, _ = run_cli(capsys, "verify", "10")
    assert code == 1
    assert "result: FAIL" in out
    assert "p=7" in out
    assert "lemma" in out
    assert "a_3" in out


def test_verify_locates_wrong_operation_count(capsys, monkeypatch):
    genuine = cli.predicted_multiplications

    def off_by_one_at_five(p):
        return genuine(p) + (p == 5)

    monkeypatch.setattr(cli, "predicted_multiplications", off_by_one_at_five)
    code, out, _ = run_cli(capsys, "verify", "8")
    assert code == 1
    assert "  op counts:    FAIL at p = 5\n" in out
    assert "row equality: OK" in out
    assert "result: FAIL" in out


def test_closed_stdout_is_not_a_failure():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    # The 85 kB table overflows the pipe's buffer, so the writer certainly
    # meets the closed end.
    proc = subprocess.Popen(
        [sys.executable, "-m", "faulhaber", "bernoulli", "500"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # what `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"0: 1\n"
    assert b"Traceback" not in err and b"BrokenPipe" not in err


def test_bench_schedule_is_geometric():
    assert cli.bench_schedule(0) == [0]
    assert cli.bench_schedule(3) == [0, 1, 2, 3]
    assert cli.bench_schedule(100) == [0, 1, 2, 4, 8, 16, 32, 64, 100]


def test_bench_counts_match_predictions(capsys):
    code, out, _ = run_cli(capsys, "bench", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:5] == [
        "p", "additions", "multiplications", "predicted_add", "predicted_mul",
    ]
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert rows["0"][1:5] == ["0", "0", "0", "0"]
    assert rows["100"][1:5] == ["5150", "5050", "5150", "5050"]
    for fields in rows.values():
        assert fields[1] == fields[3] and fields[2] == fields[4]


def test_bench_includes_cubes_row(capsys):
    _, out, _ = run_cli(capsys, "bench", "3")
    rows = {line.split()[0]: line.split() for line in out.splitlines()[1:]}
    assert rows["3"][1:5] == ["9", "6", "9", "6"]


def test_soft_guard_warns_above_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SOFT_DEGREE_LIMIT", 10)
    for argv, first_output in (
        (("coeffs", "11"), "a_1="),
        (("bernoulli", "11"), "0: 1\n"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "warning" in err
        assert out.startswith(first_output)
