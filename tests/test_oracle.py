"""Brute-force ground truth and exact row evaluation."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faulhaber import cli, direct_coefficients, evaluate_row, power_sum_bruteforce


def test_brute_force_values():
    assert power_sum_bruteforce(3, 4) == 100  # 1 + 8 + 27 + 64
    assert power_sum_bruteforce(0, 7) == 7
    assert power_sum_bruteforce(2, 3) == 14  # 1 + 4 + 9


def test_brute_force_domain():
    with pytest.raises(ValueError):
        power_sum_bruteforce(2, 0)
    with pytest.raises(ValueError):
        power_sum_bruteforce(-1, 3)


def test_evaluate_known_points():
    assert evaluate_row(direct_coefficients(2), 3) == 14
    assert evaluate_row(direct_coefficients(3), 4) == 100
    assert evaluate_row(direct_coefficients(0), 9) == 9


@pytest.mark.parametrize("p", [0, 1, 2, 5, 9])
def test_every_row_evaluates_to_one_at_one(p):
    assert evaluate_row(direct_coefficients(p), 1) == 1


def test_evaluate_rejects_zero_point():
    with pytest.raises(ValueError):
        evaluate_row(direct_coefficients(2), 0)


@pytest.mark.parametrize("p", range(0, 9))
def test_rows_agree_with_brute_force(p):
    row = direct_coefficients(p)
    for n in range(1, 31):
        value = evaluate_row(row, n)
        assert value.denominator == 1
        assert value == power_sum_bruteforce(p, n)


@pytest.mark.parametrize("method", sorted(cli.METHODS))
@settings(max_examples=40, deadline=None)
@given(p=st.integers(0, 60), n=st.integers(1, 10**40))
@example(p=60, n=10**40)
def test_evaluate_row_matches_the_definition_at_large_n(method, p, n):
    # Far beyond brute force: the row's polynomial summed term by term.
    row = cli.METHODS[method](p)
    value = evaluate_row(row, n)
    assert type(value) is Fraction and value.denominator == 1
    assert value == sum(c * n**k for k, c in enumerate(row.coefficients, 1))
