"""Acceptance gate: every guaranteed behavior of the package, end to end.

Each test covers one guarantee at its exact tolerance (all equalities are
bit-exact rational comparisons) and within its runtime budget, and prints
one pass line; a failing assertion is the corresponding fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""
import json
import time
from fractions import Fraction

import pytest

from faulhaber import (
    CoefficientRow,
    IdentityValues,
    OpCounter,
    bernoulli_numbers,
    check_difference_identity,
    check_integral_identity,
    check_power_sum_identity,
    direct_coefficients,
    evaluate_row,
    faulhaber_via_bernoulli,
    integration_coefficients,
    power_sum_bruteforce,
)
from faulhaber import cli

F = Fraction


def best_seconds(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def report(line):
    print(f"acceptance: {line}: PASS")


def test_c1_first_four_rows_exact():
    expected = [
        (F(1),),
        (F(1, 2), F(1, 2)),
        (F(1, 6), F(1, 2), F(1, 3)),
        (F(0), F(1, 4), F(1, 2), F(1, 4)),
    ]
    for p, coefficients in enumerate(expected):
        assert direct_coefficients(p).coefficients == coefficients
    elapsed = best_seconds(lambda: [direct_coefficients(p) for p in range(4)])
    assert elapsed < 0.001
    report("1. rows for p=0..3 are exactly the known table")


def test_c2_squares_row_renders_as_known_formula():
    row = direct_coefficients(2)
    assert cli.format_latex(row) == r"\frac{1}{3}n^{3}+\frac{1}{2}n^{2}+\frac{1}{6}n"
    elapsed = best_seconds(lambda: cli.format_latex(row))
    assert elapsed < 0.001
    report("2. p=2 row renders as (1/3)n^3 + (1/2)n^2 + (1/6)n")


def test_c3_three_paths_agree_through_degree_fifty():
    start = time.perf_counter()
    for p in range(51):
        direct = direct_coefficients(p)
        assert integration_coefficients(p) == direct
        assert faulhaber_via_bernoulli(p) == direct
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("3. direct, integration, and Bernoulli rows agree exactly for p=0..50")


def test_c4_rows_reproduce_brute_force_sums():
    start = time.perf_counter()
    for p in range(21):
        row = direct_coefficients(p)
        for n in range(1, 101):
            value = evaluate_row(row, n)
            assert value.denominator == 1
            assert value == power_sum_bruteforce(p, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("4. row evaluation equals brute-force sums for p<=20, n=1..100")


def test_c5_operation_counts_are_exactly_quadratic():
    start = time.perf_counter()
    for p in range(101):
        counter = OpCounter()
        direct_coefficients(p, counter)
        assert counter.additions == p * (p + 1) // 2 + p
        assert counter.multiplications == p * (p + 1) // 2
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report("5. counted operations equal p(p+1)/2 + p and p(p+1)/2 for p=0..100")


def test_c6_coefficient_observations():
    start = time.perf_counter()
    for p in range(101):
        row = direct_coefficients(p)
        assert row.coefficient(p + 1) == F(1, p + 1)
        if p >= 1:
            assert row.coefficient(p) == F(1, 2)
        if p >= 3:
            assert row.coefficient(p - 2) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report("6. top / second / third-from-top coefficient laws hold for p=0..100")


def test_c7_bernoulli_polynomial_identities():
    endpoints = (F(0), F(1), F(1, 2), F(-1), F(2))
    start = time.perf_counter()
    values = IdentityValues(31)  # one set of polynomials and values for every check
    for p in range(1, 31):
        for n in range(1, 21):
            assert check_power_sum_identity(p, n, values)
    for i in range(0, 31):
        for a in endpoints:
            for b in endpoints:
                assert check_integral_identity(i, a, b, values)
    for i in range(2, 31):
        for n in range(0, 21):
            assert check_difference_identity(i, n, values)
    for bad in (0, 1):
        with pytest.raises(ValueError):
            check_difference_identity(bad, 4, values)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("7. power-sum, integral, and difference identities hold on full ranges")


def test_c8_bernoulli_anchor_values():
    table = bernoulli_numbers(4)
    assert table.values_plus[1] == F(1, 2)
    assert table.values_plus[2] == F(1, 6)
    assert table.values_plus[3] == 0
    assert table.values_plus[4] == F(-1, 30)
    elapsed = best_seconds(lambda: bernoulli_numbers(4))
    assert elapsed < 0.001
    report("8. Bernoulli anchors b1+=1/2, b2=1/6, b3=0, b4=-1/30")


def test_c9_cli_contract(capsys, monkeypatch):
    start = time.perf_counter()

    # The three --method paths emit byte-identical output.
    for p in (0, 5, 10):
        for fmt in ("plain", "json", "latex"):
            outputs = set()
            for method in ("direct", "lemma", "bernoulli"):
                assert cli.main(
                    ["coeffs", str(p), "--method", method, "--format", fmt]
                ) == 0
                outputs.add(capsys.readouterr().out)
            assert len(outputs) == 1

    # Full cross-verification up to degree 20 succeeds.
    assert cli.main(["verify", "20"]) == 0
    assert "result: PASS" in capsys.readouterr().out

    # A fault-injected build fails with a located mismatch.
    genuine = cli.faulhaber_via_bernoulli

    def flip_one_coefficient(p, table=None):
        row = genuine(p, table)
        if p != 9:
            return row
        coeffs = list(row.coefficients)
        coeffs[4] += F(1, 3)
        return CoefficientRow(row.degree, tuple(coeffs))

    monkeypatch.setattr(cli, "faulhaber_via_bernoulli", flip_one_coefficient)
    assert cli.main(["verify", "12"]) == 1
    out = capsys.readouterr().out
    assert "p=9" in out and "bernoulli" in out and "a_5" in out
    monkeypatch.undo()

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("9. CLI: identical methods, verify 20 passes, injected fault located")


def test_c10_lemma_rows_exact_against_bernoulli_within_budget():
    # The Bernoulli rows share no arithmetic with the lemma path's integer
    # rows, so equality here is an independent check of every entry.
    start = time.perf_counter()
    table = bernoulli_numbers(400)
    row = None
    for p in range(401):
        row = integration_coefficients(p, row)  # continued degree by degree
        assert row == faulhaber_via_bernoulli(p, table)
        assert all(type(c) is Fraction for c in row.coefficients)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    rows = []
    elapsed = best_seconds(lambda: rows.append(integration_coefficients(700)), repeats=3)
    assert elapsed < 1.0
    assert rows[0] == faulhaber_via_bernoulli(700)
    assert all(type(c) is Fraction for c in rows[0].coefficients)
    # At p = 1000 the lemma row took about 1.2 s and the Bernoulli row
    # 0.15 s (Python 3.11.7, 2 cores): a 3 s budget for both.
    start = time.perf_counter()
    assert integration_coefficients(1000) == faulhaber_via_bernoulli(1000)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0
    report("10. lemma rows equal Bernoulli rows for p<=400, p=700 and p=1000, "
           "p=700 under 1 s, p=1000 with its Bernoulli row under 3 s")
