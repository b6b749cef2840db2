"""Command-line contract: output formats, exit statuses, cross-verification,
and the benchmark table."""
import errno
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import faulhaber.bernoulli
import faulhaber.direct
import faulhaber.integration
from faulhaber import CoefficientRow
from faulhaber import _verify, cli


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


@pytest.mark.parametrize("p", [0, 1, 5, 40])
@pytest.mark.parametrize("method", sorted(cli.METHODS))
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_emitted_values_round_trip_exactly(capsys, p, method, fmt):
    _, out, _ = run_cli(capsys, "coeffs", str(p), "--method", method,
                        "--format", fmt)
    if fmt == "json":
        texts = json.loads(out)["coefficients"]
    else:
        fields = [field.partition("=") for field in out.split()]
        assert [key for key, _, _ in fields] == [f"a_{j}" for j in range(1, p + 2)]
        texts = [text for _, _, text in fields]
    row = cli.METHODS[method](p)
    assert [Fraction(text) for text in texts] == list(row.coefficients)
    for text, c in zip(texts, row.coefficients):
        assert ("/" in text) == (c.denominator != 1)  # integers print bare


def test_methods_are_the_paths_in_verify_order():
    assert tuple(cli.METHODS) == _verify.PATHS


def test_eval_values(capsys):
    assert run_cli(capsys, "eval", "2", "3")[:2] == (0, "14\n")
    assert run_cli(capsys, "eval", "5", "1")[:2] == (0, "1\n")
    assert run_cli(capsys, "eval", "0", "9")[:2] == (0, "9\n")


def test_eval_with_cross_check(capsys):
    code, out, err = run_cli(capsys, "eval", "6", "25", "--check")
    assert code == 0
    assert out == f"{sum(k**6 for k in range(1, 26))}\n"
    assert err == ""


@pytest.mark.parametrize("p", [0, 1, 2, 60, 400])
def test_eval_is_the_brute_force_sum(capsys, p):
    for n in (1, 2, 37):
        assert run_cli(capsys, "eval", str(p), str(n)) == (
            0, f"{sum(k**p for k in range(1, n + 1))}\n", "")


def lemma_row_off_by(delta):
    """The lemma path, with `delta` added to the coefficient of n."""
    genuine = faulhaber.integration.integration_coefficients

    def wrong(p, start=None):
        row = genuine(p, start)
        return CoefficientRow((row.coefficient(1) + delta, *row.coefficients[1:]))
    return wrong


def test_eval_reports_a_non_integer_value_of_the_lemma_row(capsys, monkeypatch):
    # eval evaluates the lemma row: a third added to a_1 puts n/3 in the value.
    monkeypatch.setattr(faulhaber.integration, "integration_coefficients",
                        lemma_row_off_by(Fraction(1, 3)))
    for argv in (("eval", "5", "4"), ("eval", "5", "4", "--check")):
        assert run_cli(capsys, *argv) == (
            1, "", "error: coefficient evaluation produced the non-integer 3904/3\n")


def test_eval_check_rejects_an_integer_valued_wrong_lemma_row(capsys, monkeypatch):
    # 1^5 + 2^5 + 3^5 + 4^5 = 1300; a_1 one too large adds n = 4.  Only the
    # brute-force check can tell.
    monkeypatch.setattr(faulhaber.integration, "integration_coefficients", lemma_row_off_by(1))
    assert run_cli(capsys, "eval", "5", "4", "--check") == (
        1, "", "error: coefficient value 1304 disagrees with the brute-force sum\n")
    assert run_cli(capsys, "eval", "5", "4") == (0, "1304\n", "")


@pytest.fixture
def default_digit_limit():
    """Run under the interpreter's default 4,300-digit limit on int/str
    conversion, which `cli.main` lifts while it runs; restore the previous
    limit after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def test_results_beyond_the_int_digit_limit_print_in_full(capsys, default_digit_limit):
    # n = 10**4000 parses under the default limit; n(n+1)/2 =
    # 5*10**7999 + 5*10**3999 has 8,000 digits and must print.  The expected
    # text is built without converting an int to str.
    code, out, err = run_cli(capsys, "eval", "1", "1" + "0" * 4000)
    assert (code, err) == (0, "")
    assert out == "5" + "0" * 3999 + "5" + "0" * 3999 + "\n"


def test_arguments_beyond_the_int_digit_limit_parse(capsys, default_digit_limit):
    # n = 10**5000 has more digits than int() parses under the default limit.
    code, out, err = run_cli(capsys, "eval", "1", "1" + "0" * 5000)
    assert (code, err) == (0, "")
    assert out == "5" + "0" * 4999 + "5" + "0" * 4999 + "\n"


def test_main_runs_where_sys_has_no_digit_limit(capsys, monkeypatch):
    # Python before 3.10.7 has no limit on int/str conversion and no
    # `sys.get_int_max_str_digits`: `main` runs without lifting one, and the
    # interpreter's limit is the same once the functions are back.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run_cli(capsys, "coeffs", "3") == (0, "a_1=0 a_2=1/4 a_3=1/2 a_4=1/4\n", "")
    monkeypatch.undo()
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_overlong_non_integer_is_echoed_in_short(capsys, default_digit_limit):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["eval", "1", "1" + "0" * 4998 + "x"])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument n: expected an integer, got '100" in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "2", "0"),  # n must be >= 1
        ("eval", "-1", "3"),
        ("coeffs", "-2"),
        ("coeffs", "2.5"),
        ("coeffs", "2", "--format", "xml"),
        ("nonsense",),
        # int() takes these; the CLI's grammar is an optional "-" and ASCII digits.
        ("coeffs", "1_0"),
        ("coeffs", "+3"),
        ("coeffs", " 4"),
        ("coeffs", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("eval", "2", "1_000"),
        # int() reads these as 0; a "-" puts any value below 0.
        ("coeffs", "-0"),
        ("bernoulli", "-00"),
        ("eval", "-0", "2"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("command", [[], ["coeffs"], ["eval"], ["verify"], ["bench"],
                                     ["bernoulli"]])
def test_help_exits_0_with_its_usage(capsys, command):
    # The parser is built before any path is loaded; its help must still print.
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: faulhaber", *command]))


@pytest.mark.parametrize("n", ["-1", "-0"])
def test_negative_n_is_refused_with_its_own_bound(capsys, n):
    # n starts at 1, p at 0: the message names n's bound whatever the sign.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["eval", "2", n])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument n: expected a value >= 1, got {n}\n")


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


@pytest.mark.parametrize("a, b, power", [
    ((1, 2, 3), (1, 2, 3), None),
    ((1, 2, 3), (1, 2, 4), 3),  # only the top entry differs
    ((1, 5, 3), (1, 2, 4), 2),  # the first difference is reported
    ((1, 2, 3), (1, 2, 3, 4), 4),  # rows of different lengths
    ((1, 2, 3, 4), (1, 2, 3), 4),
    ((7,), (1, 2), 1),
    # Equal in value to (1/2, 1/2) but not its canonical pair: the rows
    # compare unequal, yet no coefficient differs.
    (CoefficientRow.from_scaled((2, 2), 4), (Fraction(1, 2), Fraction(1, 2)), None),
])
def test_first_difference(a, b, power):
    rows = [c if isinstance(c, CoefficientRow) else
            CoefficientRow(tuple(map(Fraction, c))) for c in (a, b)]
    assert _verify._first_difference(*rows) == power
    assert _verify._first_difference(*reversed(rows)) == power


def test_report_renders_each_kind_of_mismatch():
    report = _verify.VerifyReport(
        mismatches=(_verify.Mismatch(1, "direct vs lemma", None),
                    _verify.Mismatch(3, "lemma vs bernoulli", 2)),
        op_count_ok=(True,) * 4,
        identity_tallies={},
    )
    assert report.render().splitlines()[3:6] == [
        "  row equality: 2 mismatch(es)",
        "    p=1 direct vs lemma: coefficients equal, but a pair is not reduced",
        "    p=3 lemma vs bernoulli: coefficients differ first at a_2",
    ]


def test_verify_reports_a_pair_that_is_not_reduced(capsys, monkeypatch):
    genuine = faulhaber.integration.integration_coefficients

    def doubled_pair(p, start=None):
        row = genuine(p)
        if p != 1:
            return row
        return CoefficientRow.from_scaled(tuple(2 * c for c in row.numerators),
                                          2 * row.denominator)

    monkeypatch.setattr(faulhaber.integration, "integration_coefficients", doubled_pair)
    code, out, _ = run_cli(capsys, "verify", "3")
    assert code == 1
    assert "  row equality: 2 mismatch(es)\n" in out
    assert "    p=1 direct vs lemma: coefficients equal, but a pair is not reduced\n" in out
    assert "    p=1 lemma vs bernoulli: coefficients equal, but a pair is not reduced\n" in out


def test_verify_trivial_range_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "0")
    assert code == 0
    assert "result: PASS" in out


def test_verify_locates_injected_fault(capsys, monkeypatch):
    genuine = faulhaber.integration.integration_coefficients

    def flip_one_coefficient(p, start=None):
        # Built from scratch, so the wrong row 7 is not carried on to row 8.
        row = genuine(p)
        if p != 7:
            return row
        coeffs = list(row.coefficients)
        coeffs[2] += Fraction(1, 2)
        return CoefficientRow(tuple(coeffs))

    monkeypatch.setattr(faulhaber.integration, "integration_coefficients", flip_one_coefficient)
    code, out, _ = run_cli(capsys, "verify", "10")
    assert code == 1
    assert "result: FAIL" in out
    assert "  row equality: 2 mismatch(es)\n" in out
    assert "    p=7 direct vs lemma: coefficients differ first at a_3\n" in out
    assert "    p=7 lemma vs bernoulli: coefficients differ first at a_3\n" in out


def test_verify_locates_wrong_operation_count(capsys, monkeypatch):
    genuine = faulhaber.direct.predicted_multiplications

    def off_by_one_at_five(p):
        return genuine(p) + (p == 5)

    monkeypatch.setattr(faulhaber.direct, "predicted_multiplications", off_by_one_at_five)
    code, out, _ = run_cli(capsys, "verify", "8")
    assert code == 1
    assert "  op counts:    FAIL at p = 5\n" in out
    assert "row equality: OK" in out
    assert "result: FAIL" in out


def test_verify_reports_failed_identities(capsys, monkeypatch, shift_b4_linear):
    # Shift the linear coefficient of B_4 by one where the identity phase
    # builds it: every identity family has checks that involve B_4 and see
    # the change, the antiderivative included, and `undo` puts B_4 back.
    shift_b4_linear()
    code, out, _ = run_cli(capsys, "verify", "3")
    assert code == 1
    assert "row equality: OK" in out
    for label, checked in (
        ("power-sum identity", 600),
        ("integral identity", 775),
        ("difference identity", 609),
    ):
        line = next(line for line in out.splitlines() if label in line)
        prefix = f"  {label + ':':<22}FAIL ({checked} checked, "
        assert line.startswith(prefix) and line.endswith(" failed)")
        assert int(line[len(prefix):].split()[0]) > 0
    assert out.endswith("result: FAIL\n")

    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "verify", "3")
    assert code == 0
    assert out.endswith("result: PASS\n")


def test_identity_phase_evaluates_each_polynomial_once_per_point(monkeypatch):
    # Each check call evaluates by `horner` every (polynomial, point) pair it
    # reads exactly once: B_p at 1 and at each n + 1 for the power-sum
    # identity, the antiderivative of B_i and B_{i+1} at each endpoint for
    # the integral identity, and B_i at each n and n + 1 for the difference
    # identity.  No value is kept from one call or phase to the next.
    calls = []
    genuine_horner = _verify.horner

    def counted(numerators, d, x):
        calls[-1][1].append((numerators, d, x))
        return genuine_horner(numerators, d, x)

    def read(name, index, points, polynomials):
        """The (pair, point) evaluations the check `name` needs."""
        if name == "check_power_sum_identity":
            return {(*polynomials[index], x) for x in {1, *[n + 1 for n in points]}}
        if name == "check_integral_identity":
            integral = _verify._integrate_pair(*polynomials[index])
            return {(*form, x) for x in {x for interval in points for x in interval}
                    for form in (integral, polynomials[index + 1])}
        return {(*polynomials[index], x) for x in {*points, *[n + 1 for n in points]}}

    monkeypatch.setattr(_verify, "horner", counted)
    for name in ("check_power_sum_identity", "check_integral_identity",
                 "check_difference_identity"):
        def marked(index, points, polynomials, name=name, genuine=getattr(_verify, name)):
            calls.append((read(name, index, points, polynomials), []))
            return genuine(index, points, polynomials)

        monkeypatch.setattr(_verify, name, marked)
    tallies = {
        "power-sum identity": (600, 0),
        "integral identity": (775, 0),
        "difference identity": (609, 0),
    }

    table = faulhaber.bernoulli.bernoulli_numbers(31)
    for phases in 1, 2:
        assert _verify.tallies(table) == tallies
        assert len(calls) == phases * (30 + 31 + 29)
        for needed, evaluated in calls:
            assert Counter(evaluated) == Counter(needed)
        assert sum(len(evaluated) for _, evaluated in calls) == phases * (630 + 310 + 638)


def test_identity_phase_builds_one_table_and_each_polynomial_once(monkeypatch):
    # The identity phase builds no table of its own: it reads the one its
    # caller passes, through B_31, the highest index the families read, in
    # one call per polynomial B_0..B_31, counted where the tracer wraps them.
    # Every check call reads the one tuple of their pairs.
    table = faulhaber.bernoulli.bernoulli_numbers(31)
    calls, passed = [], []
    for name in ("bernoulli_numbers", "bernoulli_polynomial"):
        genuine = getattr(faulhaber.bernoulli, name)

        def counted(*args, name=name, genuine=genuine):
            calls.append((name, args[0], *[arg is table for arg in args[1:]]))
            return genuine(*args)

        monkeypatch.setattr(faulhaber.bernoulli, name, counted)
    for name in ("check_power_sum_identity", "check_integral_identity",
                 "check_difference_identity"):
        def marked(index, points, polynomials, genuine=getattr(_verify, name)):
            passed.append(polynomials)
            return genuine(index, points, polynomials)

        monkeypatch.setattr(_verify, name, marked)
    assert all(failed == 0 for _, failed in _verify.tallies(table).values())
    assert calls == [("bernoulli_polynomial", i, True) for i in range(32)]
    assert len(passed) == 30 + 31 + 29 and all(pairs is passed[0] for pairs in passed)
    assert len(passed[0]) == 32


def test_verify_builds_each_direct_row_once(monkeypatch):
    # The counted pass continues each row from the one before, so the degrees
    # its calls advance sum to p_max, and the comparisons use its rows.
    advanced = []
    genuine = faulhaber.direct.direct_coefficients

    def counted(p, counter=None, start=None):
        advanced.append(p - (0 if start is None else start.degree))
        return genuine(p, counter, start)

    monkeypatch.setattr(faulhaber.direct, "direct_coefficients", counted)
    report = cli.run_verification(40)
    assert report.passed
    assert len(advanced) == 41 and sum(advanced) == 40


def test_verify_never_rebuilds_fractions_from_a_pair(capsys, monkeypatch):
    # The rows carry and compare as integer pairs, and the direct path
    # continues from a row's numerators: neither `verify` nor `bench` reads a
    # row's coefficients, each read of which builds one Fraction per entry.
    built = []
    genuine = CoefficientRow.coefficients.fget

    def counted(row):
        built.extend(row.numerators)
        return genuine(row)

    monkeypatch.setattr(CoefficientRow, "coefficients", property(counted))
    for argv in ("verify", "40"), ("bench", "64"):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
    assert built == []
    assert faulhaber.integration.integration_coefficients(3).coefficients == (0, Fraction(1, 4), Fraction(1, 2),
                                                            Fraction(1, 4))
    assert len(built) == 4


def test_verify_carries_the_lemma_row_and_reads_one_table(monkeypatch):
    # The lemma pass takes one integration step per degree, and every
    # Bernoulli row reads the one table built for p_max, which the identity
    # phase, through B_31, reads too.
    steps, numbers, limits = [], [], []
    genuine_step = faulhaber.integration.integration_step
    genuine_numbers = faulhaber.bernoulli.bernoulli_numbers
    genuine_row = faulhaber.bernoulli.faulhaber_via_bernoulli

    def counted_step(f, i):
        steps.append(i)
        return genuine_step(f, i)

    def counted_numbers(m):
        numbers.append(m)
        return genuine_numbers(m)

    def recorded_row(p, table=None):
        limits.append(table.limit)
        return genuine_row(p, table)

    monkeypatch.setattr(faulhaber.integration, "integration_step", counted_step)
    monkeypatch.setattr(faulhaber.bernoulli, "bernoulli_numbers", counted_numbers)
    monkeypatch.setattr(faulhaber.bernoulli, "faulhaber_via_bernoulli", recorded_row)
    report = cli.run_verification(40)
    assert report.passed
    assert steps == list(range(1, 41))
    assert numbers == [40]
    assert limits == [40] * 41


@pytest.mark.parametrize("p_max", [10, 31, 40])
def test_verify_builds_one_table_for_the_rows_and_the_identities(monkeypatch, p_max):
    # One table through max(p_max, 31), where 31 is the highest index the
    # identity families read: every Bernoulli row and every polynomial of
    # the identity phase reads it, and no other table is built.
    tables, read = [], []
    genuine_numbers = faulhaber.bernoulli.bernoulli_numbers
    genuine_row = faulhaber.bernoulli.faulhaber_via_bernoulli
    genuine_polynomial = faulhaber.bernoulli.bernoulli_polynomial

    def counted_numbers(m):
        tables.append(genuine_numbers(m))
        return tables[-1]

    def recorded_row(p, table=None):
        read.append(table)
        return genuine_row(p, table)

    def recorded_polynomial(i, table=None):
        read.append(table)
        return genuine_polynomial(i, table)

    monkeypatch.setattr(faulhaber.bernoulli, "bernoulli_numbers", counted_numbers)
    monkeypatch.setattr(faulhaber.bernoulli, "faulhaber_via_bernoulli", recorded_row)
    monkeypatch.setattr(faulhaber.bernoulli, "bernoulli_polynomial", recorded_polynomial)
    assert _verify.run_verification(p_max).passed
    assert [table.limit for table in tables] == [max(p_max, 31)]
    assert len(read) == (p_max + 1) + 32
    assert all(table is tables[0] for table in read)


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_verify", interrupted)
    code, out, err = run_cli(capsys, "verify", "3")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"


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


def test_closed_stdout_keeps_the_command_status(monkeypatch, shift_b4_linear):
    # Started with stdout closed (`>&-`), Python sets `sys.stdout` to None:
    # `print` then writes nothing, and each command exits with its own status.
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["verify", "1"]) == 0
    assert cli.main(["bench", "3"]) == 0
    shift_b4_linear()
    assert cli.main(["verify", "1"]) == 1


class ClosedStream:
    """A text stream on a closed descriptor, as `2>&-` leaves `sys.stderr`."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


@pytest.mark.parametrize("stderr", [None, ClosedStream()], ids=["none", "ebadf"])
def test_closed_stderr_drops_diagnostics_and_keeps_the_result(capsys, monkeypatch, stderr):
    # n above BRUTE_FORCE_LIMIT: the check warns before the result is printed.
    monkeypatch.setattr(sys, "stderr", stderr)
    code, out, _ = run_cli(capsys, "eval", "1", "2000000", "--check")
    assert (code, out) == (0, "2000001000000\n")
    monkeypatch.setattr(faulhaber.direct, "predicted_multiplications", lambda p: -1)
    code, out, _ = run_cli(capsys, "bench", "1")
    assert code == 1 and out.startswith("     p ")


class FullStream:
    """A text stream on a full device, as `> /dev/full` leaves `sys.stdout`:
    each write fails with ENOSPC.  Its descriptor is a file of the test's."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT)

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return self.fd


NO_SPACE = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


class PipeWithoutReader(FullStream):
    """A pipe whose reader has gone, as `| head -0` leaves `sys.stdout`:
    each write fails with EPIPE."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


# The help is output like a command's, and a failed write of it is handled alike.
HELP_ARGV = [("--help",), ("coeffs", "--help")]


# `bench` writes row by row, so its write fails inside its loop.
@pytest.mark.parametrize("argv", [("coeffs", "5"), ("verify", "3"), ("bernoulli", "30"),
                                  *HELP_ARGV, ("eval", "3", "4"), ("bench", "3")])
def test_unwritable_stdout_exits_74_with_one_line(capsys, monkeypatch, tmp_path, argv):
    stdout = FullStream(tmp_path / "out")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert cli.main(list(argv)) == 74
    finally:
        os.close(stdout.fd)
    assert capsys.readouterr().err == NO_SPACE


@pytest.mark.parametrize("argv", [("bernoulli", "30"), *HELP_ARGV, ("eval", "3", "4"),
                                  ("bench", "3")])
def test_stdout_without_reader_exits_0_silently(capsys, monkeypatch, tmp_path, argv):
    stdout = PipeWithoutReader(tmp_path / "out")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert cli.main(list(argv)) == 0
    finally:
        os.close(stdout.fd)
    assert capsys.readouterr().err == ""


def into_dev_full(*argv):
    """Run the program with stdout on /dev/full: its status and stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "faulhaber", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_dev_full_exits_74_without_traceback():
    assert into_dev_full("bernoulli", "300") == (74, NO_SPACE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_help_into_dev_full_exits_74():
    # The help fits in stdout's buffer: only a flush before the exit fails.
    assert into_dev_full("coeffs", "--help") == (74, NO_SPACE)


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


def test_bench_reports_wrong_operation_count(capsys, monkeypatch):
    genuine = faulhaber.direct.predicted_multiplications
    monkeypatch.setattr(
        faulhaber.direct, "predicted_multiplications", lambda p: genuine(p) + (p == 4))
    code, out, err = run_cli(capsys, "bench", "8")
    assert code == 1
    assert err == "error: measured operation counts deviate from the formulas\n"
    rows = [line.split()[:5] for line in out.splitlines()[1:]]
    assert [fields[0] for fields in rows] == ["0", "1", "2", "4", "8"]
    assert rows[3] == ["4", "14", "10", "14", "11"]


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


def test_check_warns_above_brute_force_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "BRUTE_FORCE_LIMIT", 10)
    for argv, out_expected, err_expected in (
        (("eval", "3", "11", "--check"), "4356\n",
         "warning: n = 11 is above 10; this may take a very long time\n"),
        (("eval", "3", "10", "--check"), "3025\n", ""),
        (("eval", "3", "11"), "4356\n", ""),
    ):
        assert run_cli(capsys, *argv) == (0, out_expected, err_expected)


def test_warning_echoes_a_huge_value_in_short(capsys):
    cli._warn_if_huge("n", 10**100, 10)
    assert capsys.readouterr() == (
        "", "warning: n = 1" + "0" * 39 + "... is above 10; this may take a very long time\n")


def raising(error):
    """A path that fails at its first call, as one past the machine's reach
    would, without running it."""
    def path(*args):
        raise error
    return path


def skipping_step(i):
    """The direct recurrence with the step from a row of length i left out:
    no direct row reaches degree i."""
    genuine = faulhaber.direct._advance

    def advance(row, d, counter):
        if len(row) != i:
            genuine(row, d, counter)
    return advance


HUGE = str(10**20)  # 21 digits: no list of that many entries can be indexed
WARNING = r"warning: \w+ = 100000000000000000000 is above 10000; this may take a very long time\n"
TOO_LARGE = r"error: too large for this machine: .+\n"

# Each edge input: its command line, the path replaced for it (module,
# name, replacement) or None, what stdout is (None: a stream of its own),
# the patterns of the whole of what stdout and stderr receive, and the
# status.  The huge `bernoulli`, `verify` and `coeffs --method bernoulli`
# fail for real, before any allocation; the other huge commands would run
# until interrupted, so their path raises at its first call instead.
EDGES = {
    "coeffs p=0": (("coeffs", "0"), None, None, ".+", "", 0),
    "eval p=0": (("eval", "0", "3"), None, None, ".+", "", 0),
    "verify p=0": (("verify", "0"), None, None, ".+", "", 0),
    "bench p=0": (("bench", "0"), None, None, ".+", "", 0),
    "bernoulli m=0": (("bernoulli", "0"), None, None, ".+", "", 0),
    "bernoulli huge": (("bernoulli", HUGE), None, None, "", WARNING + TOO_LARGE, 71),
    "verify huge": (("verify", HUGE), None, None, "", WARNING + TOO_LARGE, 71),
    "coeffs huge bernoulli": (("coeffs", HUGE, "--method", "bernoulli"), None, None, "",
                              WARNING + TOO_LARGE, 71),
    "coeffs huge direct": (("coeffs", HUGE), (faulhaber.direct, "direct_coefficients",
                           raising(MemoryError)), None, "", WARNING + TOO_LARGE, 71),
    "coeffs huge lemma": (("coeffs", HUGE, "--method", "lemma"),
                          (faulhaber.integration, "integration_coefficients",
                           raising(MemoryError)), None, "", WARNING + TOO_LARGE, 71),
    # The header is written before the first row is built.
    "bench huge": (("bench", HUGE), (faulhaber.direct, "direct_coefficients",
                   raising(MemoryError)), None, ".+", WARNING + TOO_LARGE, 71),
    "eval huge p": (("eval", HUGE, "5"), (faulhaber.integration, "integration_coefficients",
                    raising(MemoryError)), None, "", WARNING + TOO_LARGE, 71),
    "eval huge n": (("eval", "5", HUGE), None, None, ".+", "", 0),
    "eval 5000-digit n": (("eval", "1", "1" + "0" * 5000), None, None, ".+", "", 0),
    "usage error": (("coeffs", "x"), None, None, "",
                    r"usage: faulhaber coeffs .*\nfaulhaber coeffs: error: argument p: "
                    r"expected an integer, got 'x'\n", 2),
    "verification failure": (("verify", "5"), (faulhaber.direct, "predicted_multiplications",
                             lambda p: -1), None, ".+", "", 1),
    "closed pipe": (("bernoulli", "30"), None, PipeWithoutReader, "", "", 0),
    "dev full": (("bernoulli", "30"), None, FullStream, "", NO_SPACE, 74),
    "interrupt": (("coeffs", HUGE), (faulhaber.direct, "direct_coefficients",
                  raising(KeyboardInterrupt)), None, "", WARNING + "interrupted\n", 130),
    # The direct rows stop short of degree 5: a report, not a traceback.
    "verify mis-stepped": (("verify", "10"), (faulhaber.direct, "_advance", skipping_step(5)),
                           None, r".*\nresult: FAIL\n", "", 1),
    "bench mis-stepped": (("bench", "10"), (faulhaber.direct, "_advance", skipping_step(5)),
                          None, ".+", "error: measured operation counts deviate from the "
                          "formulas\n", 1),
}


@pytest.mark.parametrize("argv, patch, stream, stdout, stderr, status",
                         EDGES.values(), ids=EDGES)
def test_edge_inputs_exit_with_their_status_and_no_traceback(
        capsys, monkeypatch, tmp_path, default_digit_limit,
        argv, patch, stream, stdout, stderr, status):
    if patch:
        monkeypatch.setattr(*patch)
    if stream:
        sink = stream(tmp_path / "out")
        monkeypatch.setattr(sys, "stdout", sink)
    try:
        code = cli.main(list(argv))
    except SystemExit as usage_error:  # it leaves `main` so
        code = usage_error.code
    finally:
        if stream:
            os.close(sink.fd)
    out, err = capsys.readouterr()
    assert code == status
    assert re.fullmatch(stdout, out, re.DOTALL), out
    assert "Traceback" not in err
    assert re.fullmatch(stderr, err, re.DOTALL), err
    # `main` lifts the int digit limit while it runs; its caller keeps its own.
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
