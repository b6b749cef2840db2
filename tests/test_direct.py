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
from faulhaber.direct import predicted_additions, predicted_multiplications

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
    # The constructor converts int entries to the pair, and the first step
    # turns the pair's ints into Fractions, so the rolling row stays exact;
    # from this corrupted row (a_1 = 0, a_2 = 1) the direct recurrence still
    # agrees with the lemma, which continues on integers.
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


def stepped(entries, p):
    """The paper's recurrence on Fractions, from the row `entries` to degree p:
    a_j = (i/j) a'_(j-1) for j >= 2, then a_1 = 1 - (a_2 + ... + a_(i+1))."""
    row = list(entries)
    for i in range(len(row), p + 1):
        row = [F(i, j) * row[j - 2] for j in range(2, i + 2)]
        row.insert(0, 1 - sum(row))
    return tuple(row)


# Rows of degree s built off the direct path.  The first step reads each as
# integer numerators over its denominator, which is 1 only for s = 0; at
# s = p there is no step, and the start is the row.
FOREIGN_STARTS = {
    "lemma": integration_coefficients,
    "bernoulli": faulhaber_via_bernoulli,
}


@pytest.mark.parametrize("s, p", [(0, 0), (0, 3), (1, 2), (2, 9), (5, 6), (7, 7), (12, 30),
                                  (31, 40)])
@pytest.mark.parametrize("source", FOREIGN_STARTS.values(), ids=FOREIGN_STARTS)
def test_continues_from_a_foreign_pair(source, s, p):
    start = source(s)
    counter = OpCounter()
    assert direct_coefficients(p, counter, start) == direct_coefficients(p)
    assert counter == OpCounter(predicted_additions(p) - predicted_additions(s),
                                predicted_multiplications(p) - predicted_multiplications(s))


@pytest.mark.parametrize("p", [2, 3, 8, 20])  # 2: the start itself, no step
def test_continues_from_a_hand_built_pair(p):
    # Not a power-sum row: the step multiplies its numerators by i/(j d)
    # exactly as it would multiply its Fractions by i/j.
    entries = (F(1, 3), F(-2, 5), F(7, 6))
    start = CoefficientRow(entries)
    assert start.denominator == 30
    counter = OpCounter()
    row = direct_coefficients(p, counter, start)
    assert row.coefficients == stepped(entries, p)
    assert row == integration_coefficients(p, start)
    assert counter == OpCounter(predicted_additions(p) - predicted_additions(2),
                                predicted_multiplications(p) - predicted_multiplications(2))
