"""Bernoulli path: number tables against independent oracles, both sign
conventions, the closed formula, and the polynomial identities."""
from fractions import Fraction
from math import comb, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faulhaber.bernoulli
from faulhaber import (
    bernoulli_numbers,
    bernoulli_polynomial,
    check_difference_identity,
    check_integral_identity,
    check_power_sum_identity,
    direct_coefficients,
    faulhaber_via_bernoulli,
    integrate_polynomial,
    poly_eval,
    polynomial,
    power_sum_bruteforce,
)

F = Fraction


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
    # Start from b_0 alone, so that the requests extend the shared numbers.
    faulhaber.bernoulli._minus_prefix = (F(1),)
    for m in limits:
        assert list(bernoulli_numbers(m).values_plus) == AKIYAMA_TANIGAWA_300[: m + 1]


def test_denominators_follow_von_staudt_clausen():
    table = bernoulli_numbers(400)
    for index in range(2, 401, 2):
        primes = [q for q in range(2, index + 2)
                  if all(q % d for d in range(2, isqrt(q) + 1)) and index % (q - 1) == 0]
        assert table.values_minus[index].denominator == prod(primes)


def test_negative_limit_rejected():
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


def test_closed_formula_rows():
    assert faulhaber_via_bernoulli(2).coefficients == (F(1, 6), F(1, 2), F(1, 3))
    assert faulhaber_via_bernoulli(0).coefficients == (F(1),)
    assert faulhaber_via_bernoulli(5) == direct_coefficients(5)
    assert faulhaber_via_bernoulli(300) == direct_coefficients(300)


def test_first_bernoulli_polynomials():
    assert bernoulli_polynomial(0) == polynomial([1])
    assert bernoulli_polynomial(1) == polynomial([F(-1, 2), 1])
    assert bernoulli_polynomial(2) == polynomial([F(1, 6), -1, 1])


def test_polynomials_do_not_depend_on_request_order(monkeypatch):
    # Start with no polynomial built, so that the requests extend the shared
    # tuple out of order; each must equal a fresh build from its numbers.
    monkeypatch.setattr(faulhaber.bernoulli, "_polynomials", ())
    monkeypatch.setattr(faulhaber.bernoulli, "_minus_prefix", (F(1),))
    for i in (30, 3, 31, 0, 17, 31):
        table = bernoulli_numbers(i)
        fresh = polynomial(
            comb(i, k) * table.values_minus[k] for k in range(i, -1, -1)
        )
        assert bernoulli_polynomial(i) == fresh
    assert len(faulhaber.bernoulli._polynomials) == 32


@pytest.mark.parametrize("i", range(0, 31))
def test_polynomial_interpolates_both_conventions(i):
    table = bernoulli_numbers(i)
    b_poly = bernoulli_polynomial(i)
    assert poly_eval(b_poly, F(0)) == table.values_minus[i]
    assert poly_eval(b_poly, F(1)) == table.values_plus[i]


def test_power_sum_identity_example():
    assert power_sum_bruteforce(2, 5) == 55  # 1 + 4 + 9 + 16 + 25
    assert check_power_sum_identity(3, 5)


@pytest.mark.parametrize("p", range(1, 13))
def test_power_sum_identity_small_range(p):
    assert all(check_power_sum_identity(p, n) for n in range(1, 11))


def test_power_sum_identity_rejects_zero_index():
    with pytest.raises(ValueError):
        check_power_sum_identity(0, 3)


ENDPOINTS = (F(0), F(1), F(1, 2), F(-1), F(2))


@pytest.mark.parametrize("i", range(0, 13))
def test_integral_identity_small_range(i):
    assert all(check_integral_identity(i, a, b) for a in ENDPOINTS for b in ENDPOINTS)


def test_integral_identity_example():
    assert check_integral_identity(2, F(0), F(1))


def test_antiderivatives_are_integrated_once(monkeypatch):
    # Start with none integrated, so that the checks extend the shared tuple
    # out of order: each B_i is integrated symbolically exactly once.
    integrated = []

    def counted(f):
        integrated.append(f)
        return integrate_polynomial(f)

    monkeypatch.setattr(faulhaber.bernoulli, "_antiderivatives", ())
    monkeypatch.setattr(faulhaber.bernoulli, "integrate_polynomial", counted)
    for i in (30, 3, 0, 17, 30):
        assert all(check_integral_identity(i, a, b) for a in ENDPOINTS for b in ENDPOINTS)
    assert integrated == [bernoulli_polynomial(i) for i in range(31)]
    assert faulhaber.bernoulli._antiderivatives == tuple(map(integrate_polynomial, integrated))


def test_difference_identity_example():
    # B_2(4) - B_2(3) = 2 * 3
    assert check_difference_identity(2, 3)


@pytest.mark.parametrize("i", range(2, 13))
def test_difference_identity_small_range(i):
    assert all(check_difference_identity(i, n) for n in range(0, 11))


@pytest.mark.parametrize("i", [0, 1])
def test_difference_identity_rejects_low_index(i):
    with pytest.raises(ValueError):
        check_difference_identity(i, 4)
