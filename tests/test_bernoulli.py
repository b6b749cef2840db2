"""Bernoulli path: number tables against independent oracles, both sign
conventions, the closed formula, and the polynomial identities."""
import itertools
from fractions import Fraction
from math import comb, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faulhaber.bernoulli
from faulhaber import cli
from faulhaber import (
    BernoulliTable,
    IdentityValues,
    bernoulli_numbers,
    bernoulli_polynomial,
    check_difference_identity,
    check_integral_identity,
    check_power_sum_identity,
    direct_coefficients,
    faulhaber_via_bernoulli,
    integrate_polynomial,
    poly_eval,
    power_sum_bruteforce,
)

F = Fraction
# The polynomials and values of the identities through B_31, the highest
# index `verify` reads, shared by the checks below that patch nothing.
VALUES = IdentityValues(31)


def polynomial(coeffs):
    """Exact rationals with trailing zeros cut: the normal form of a polynomial."""
    values = [F(c) for c in coeffs]
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def akiyama_tanigawa(limit):
    """Independent oracle for Bernoulli numbers, plus convention."""
    work = [F(0)] * (limit + 1)
    numbers = []
    for m in range(limit + 1):
        work[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            work[j - 1] = j * (work[j - 1] - work[j])
        numbers.append(work[0])
    return numbers


AKIYAMA_TANIGAWA_300 = akiyama_tanigawa(300)


def test_anchor_values():
    table = bernoulli_numbers(4)
    assert table.values_plus[1] == F(1, 2)
    assert table.values_minus[1] == F(-1, 2)
    assert table.values_plus[2] == F(1, 6)
    assert table.values_plus[3] == 0
    assert table.values_plus[4] == F(-1, 30)


def test_table_matches_akiyama_tanigawa_oracle():
    assert list(bernoulli_numbers(300).values_plus) == AKIYAMA_TANIGAWA_300


def test_table_shape_and_conventions():
    table = bernoulli_numbers(50)
    assert table.limit == 50
    assert table.values_minus[0] == table.values_plus[0] == 1
    assert table.values_plus[1] == -table.values_minus[1] == F(1, 2)
    for k in range(2, 51):
        assert table.values_plus[k] == table.values_minus[k]
    for k in range(3, 51, 2):
        assert table.values_plus[k] == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=6))
@example([40, 120, 7])
def test_tables_do_not_depend_on_request_order(limits):
    for m in limits:
        assert list(bernoulli_numbers(m).values_plus) == AKIYAMA_TANIGAWA_300[: m + 1]


def test_denominators_follow_von_staudt_clausen():
    # The denominator of B_2k is the product of the primes q with (q - 1) | 2k.
    table = bernoulli_numbers(1000)
    primes = [q for q in range(2, 1002) if all(q % d for d in range(2, isqrt(q) + 1))]
    for index in range(2, 1001, 2):
        divisors = [q for q in primes if index % (q - 1) == 0]
        assert table.values_minus[index].denominator == prod(divisors)


def test_negative_limit_rejected():
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


def test_closed_formula_rows():
    assert faulhaber_via_bernoulli(2).coefficients == (F(1, 6), F(1, 2), F(1, 3))
    assert faulhaber_via_bernoulli(0).coefficients == (F(1),)
    assert faulhaber_via_bernoulli(5) == direct_coefficients(5)
    assert faulhaber_via_bernoulli(300) == direct_coefficients(300)


def test_closed_formula_rows_match_the_textbook_formula():
    # The coefficient of n^(p+1-i) is C(p+1, i) * b_i / (p+1), here in
    # Fraction arithmetic over the Akiyama-Tanigawa numbers.
    for p in range(301):
        textbook = [F(0)] * (p + 1)
        for i in range(p + 1):
            textbook[p - i] = comb(p + 1, i) * AKIYAMA_TANIGAWA_300[i] / (p + 1)
        row = faulhaber_via_bernoulli(p).coefficients
        assert [(c.numerator, c.denominator) for c in row] == [
            (c.numerator, c.denominator) for c in textbook]


def test_closed_formula_rows_read_the_table_passed():
    # Every row cut from one table is the row built from a table of its own.
    table = bernoulli_numbers(120)
    for p in range(121):
        assert faulhaber_via_bernoulli(p, table) == faulhaber_via_bernoulli(p)
    # The row is read from the table given, not from one built afresh:
    # shifting b_2 by 1 (in both conventions, which agree past b_1) shifts
    # the coefficient of n^5 in row 6 by C(7, 2)/7.
    table = bernoulli_numbers(6)
    minus, plus = list(table.values_minus), list(table.values_plus)
    minus[2] += 1
    plus[2] += 1
    shifted = BernoulliTable(6, tuple(minus), tuple(plus))
    expected = list(faulhaber_via_bernoulli(6).coefficients)
    expected[4] += F(comb(7, 2), 7)
    assert faulhaber_via_bernoulli(6, shifted).coefficients == tuple(expected)


def test_table_below_the_degree_rejected():
    with pytest.raises(ValueError, match="b_4"):
        faulhaber_via_bernoulli(5, bernoulli_numbers(4))


def test_first_bernoulli_polynomials():
    assert bernoulli_polynomial(0) == polynomial([1])
    assert bernoulli_polynomial(1) == polynomial([F(-1, 2), 1])
    assert bernoulli_polynomial(2) == polynomial([F(1, 6), -1, 1])


def test_polynomials_do_not_depend_on_request_order():
    # Out of order, from a table built for i or one shared table built for
    # 31, each polynomial equals a fresh build from its numbers.
    shared = bernoulli_numbers(31)
    for i in (30, 3, 31, 0, 17, 31):
        table = bernoulli_numbers(i)
        fresh = polynomial(
            comb(i, k) * table.values_minus[k] for k in range(i, -1, -1)
        )
        assert bernoulli_polynomial(i) == fresh
        assert bernoulli_polynomial(i, shared) == fresh


def test_polynomial_table_below_the_index_rejected():
    with pytest.raises(ValueError, match="b_4"):
        bernoulli_polynomial(5, bernoulli_numbers(4))
    assert bernoulli_polynomial(4, bernoulli_numbers(4)) == bernoulli_polynomial(4)


@pytest.mark.parametrize("i", range(0, 31))
def test_polynomial_interpolates_both_conventions(i):
    table = bernoulli_numbers(i)
    b_poly = bernoulli_polynomial(i)
    assert poly_eval(b_poly, F(0)) == table.values_minus[i]
    assert poly_eval(b_poly, F(1)) == table.values_plus[i]


def test_power_sum_identity_example():
    assert power_sum_bruteforce(2, 5) == 55  # 1 + 4 + 9 + 16 + 25
    assert check_power_sum_identity(3, 5, VALUES)


@pytest.mark.parametrize("p", range(1, 13))
def test_power_sum_identity_small_range(p):
    assert all(check_power_sum_identity(p, n, VALUES) for n in range(1, 11))


def test_power_sum_identity_rejects_zero_index():
    with pytest.raises(ValueError):
        check_power_sum_identity(0, 3, VALUES)


ENDPOINTS = (F(0), F(1), F(1, 2), F(-1), F(2))


@pytest.mark.parametrize("i", range(0, 13))
def test_integral_identity_small_range(i):
    assert all(check_integral_identity(i, a, b, VALUES) for a in ENDPOINTS for b in ENDPOINTS)


def test_integral_identity_example():
    assert check_integral_identity(2, F(0), F(1), VALUES)


def test_antiderivatives_are_integrated_once(monkeypatch):
    # One IdentityValues integrates each of B_0..B_31 symbolically exactly
    # once, and checks out of order integrate nothing more.
    integrated = []

    def counted(f):
        integrated.append(f)
        return integrate_polynomial(f)

    monkeypatch.setattr(faulhaber.bernoulli, "integrate_polynomial", counted)
    values = IdentityValues(31)
    for i in (30, 3, 0, 17, 30):
        assert all(check_integral_identity(i, a, b, values) for a in ENDPOINTS for b in ENDPOINTS)
    assert integrated == [bernoulli_polynomial(i) for i in range(32)]
    assert values.antiderivatives == tuple(map(integrate_polynomial, integrated))


def test_values_above_the_limit_rejected():
    values = IdentityValues(4)
    assert values(4, 2) == VALUES(4, 2)
    assert values(4, F(1, 2), integrated=True) == VALUES(4, F(1, 2), integrated=True)
    with pytest.raises(ValueError, match="B_5"):
        values(5, 2)
    with pytest.raises(ValueError, match="B_5"):
        values(5, 2, integrated=True)
    with pytest.raises(ValueError, match="B_5"):
        check_integral_identity(4, F(0), F(1), values)
    with pytest.raises(ValueError, match="B_5"):
        check_difference_identity(5, 2, values)


def test_difference_identity_example():
    # B_2(4) - B_2(3) = 2 * 3
    assert check_difference_identity(2, 3, VALUES)


@pytest.mark.parametrize("i", range(2, 13))
def test_difference_identity_small_range(i):
    assert all(check_difference_identity(i, n, VALUES) for n in range(0, 11))


@pytest.mark.parametrize("i", [0, 1])
def test_difference_identity_rejects_low_index(i):
    with pytest.raises(ValueError):
        check_difference_identity(i, 4, VALUES)


def fraction_value(f, x):
    """f(x) by Horner's scheme on Fractions, independent of `poly_eval`."""
    value = F(0)
    for c in reversed(f):
        value = value * x + c
    return value


def power_sum_by_fractions(p, n, values):
    b_poly = values.polynomials[p]
    right = (fraction_value(b_poly, n + 1) - fraction_value(b_poly, 1)) / p
    return power_sum_bruteforce(p - 1, n) == right


def integral_by_fractions(i, a, b, values):
    antiderivative = integrate_polynomial(values.polynomials[i])
    successor = values.polynomials[i + 1]
    left = fraction_value(antiderivative, b) - fraction_value(antiderivative, a)
    return left == (fraction_value(successor, b) - fraction_value(successor, a)) / (i + 1)


def difference_by_fractions(i, n, values):
    b_poly = values.polynomials[i]
    return fraction_value(b_poly, n + 1) - fraction_value(b_poly, n) == i * n ** (i - 1)


IDENTITY_FAMILIES = [
    (check_power_sum_identity, power_sum_by_fractions, cli.POWER_SUM_IDENTITY_RANGE),
    (check_integral_identity, integral_by_fractions, cli.INTEGRAL_IDENTITY_RANGE),
    (check_difference_identity, difference_by_fractions, cli.DIFFERENCE_IDENTITY_RANGE),
]


@pytest.mark.parametrize("shift_b4", [False, True])
@pytest.mark.parametrize(
    "check, reference, ranges", IDENTITY_FAMILIES, ids=["power-sum", "integral", "difference"])
def test_integer_checks_agree_with_fraction_arithmetic(
        shift_b4_linear, shift_b4, check, reference, ranges):
    # Over the whole default range of `verify`, the integer cross-multiplied
    # checks give the same verdicts as the identities written in Fractions,
    # for the true polynomials and with the linear coefficient of B_4 shifted
    # where `IdentityValues` builds it (its antiderivative then integrates
    # the shifted B_4).
    if shift_b4:
        shift_b4_linear()
    values = IdentityValues(31)
    assert (values.polynomials[4] == bernoulli_polynomial(4)) is not shift_b4
    points = list(itertools.product(*ranges, [values]))
    verdicts = [check(*args) for args in points]
    assert verdicts == [reference(*args) for args in points]
    assert all(verdicts) is not shift_b4
