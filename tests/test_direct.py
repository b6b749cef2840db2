"""Direct row-by-row path: known rows, row laws, and exact operation counts."""
from fractions import Fraction

import pytest

from faulhaber import (
    CoefficientRow,
    OpCounter,
    direct_coefficients,
    faulhaber_via_bernoulli,
    integration_coefficients,
)

F = Fraction

FIRST_ROWS = {
    0: (F(1),),
    1: (F(1, 2), F(1, 2)),
    2: (F(1, 6), F(1, 2), F(1, 3)),
    3: (F(0), F(1, 4), F(1, 2), F(1, 4)),
}


@pytest.mark.parametrize("p,expected", sorted(FIRST_ROWS.items()))
def test_first_rows(p, expected):
    assert direct_coefficients(p).coefficients == expected


def test_squares_row_matches_known_formula():
    # 1^2 + ... + n^2 = n^3/3 + n^2/2 + n/6
    assert direct_coefficients(2).coefficients == (F(1, 6), F(1, 2), F(1, 3))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        direct_coefficients(-1)


def test_counts_for_cubes():
    counter = OpCounter()
    direct_coefficients(3, counter)
    assert counter.additions == 9
    assert counter.multiplications == 6


def test_zero_exponent_costs_nothing():
    counter = OpCounter()
    direct_coefficients(0, counter)
    assert counter == OpCounter(0, 0)


@pytest.mark.parametrize("p", range(0, 61))
def test_counts_match_quadratic_formulas(p):
    counter = OpCounter()
    direct_coefficients(p, counter)
    assert counter.additions == p * (p + 1) // 2 + p
    assert counter.multiplications == p * (p + 1) // 2


@pytest.mark.parametrize("p", range(0, 51))
def test_row_laws(p):
    row = direct_coefficients(p)
    assert len(row.coefficients) == p + 1
    assert sum(row.coefficients) == 1  # the row evaluates to 1 at n = 1
    assert row.coefficient(p + 1) == F(1, p + 1)
    if p >= 1:
        assert row.coefficient(p) == F(1, 2)
    if p >= 3:
        assert row.coefficient(p - 2) == 0


def test_row_for_tenth_powers_matches_bernoulli_path():
    assert direct_coefficients(10) == faulhaber_via_bernoulli(10)


def test_continues_exactly_from_an_int_built_row():
    # The constructor turns int entries into Fractions, so the rolling row
    # stays exact; from this corrupted row (a_1 = 0, a_2 = 1) the direct
    # recurrence still agrees with the lemma, which continues on integers.
    start = CoefficientRow((0, 1))
    assert start.coefficients == (F(0), F(1))
    assert {type(c) for c in start.coefficients} == {F}
    row = direct_coefficients(6, start=start)
    assert {type(c) for c in row.coefficients} == {F}
    assert row == integration_coefficients(6, start=start)
    assert direct_coefficients(6, start=CoefficientRow((1,))) == direct_coefficients(6)


def test_row_validation():
    with pytest.raises(ValueError):
        CoefficientRow(())
    with pytest.raises(ValueError):
        CoefficientRow((F(1), 0.5))
    row = direct_coefficients(3)
    with pytest.raises(IndexError):
        row.coefficient(0)
    with pytest.raises(IndexError):
        row.coefficient(5)
