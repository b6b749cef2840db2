"""Bernoulli path: number tables against independent oracles, both sign
conventions, the closed formula, and the polynomial identities."""
import itertools
from fractions import Fraction
from math import comb, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faulhaber.bernoulli
from faulhaber import _verify
from faulhaber import (
    BernoulliTable,
    bernoulli_numbers,
    bernoulli_polynomial,
    direct_coefficients,
    faulhaber_via_bernoulli,
    power_sum_bruteforce,
)
from faulhaber._verify import (
    check_difference_identity,
    check_integral_identity,
    check_power_sum_identity,
)
from faulhaber.rationals import horner, scaled

F = Fraction


def identity_pairs():
    """B_0..B_31, through the highest index `verify` reads, as the tuple of
    `Scaled` pairs that `tallies` passes to each check: one pair per
    polynomial, built through `bernoulli.bernoulli_polynomial` as it is
    looked up at the call."""
    table = bernoulli_numbers(_verify.IDENTITY_LIMIT)
    return tuple([scaled([c.as_integer_ratio()
                          for c in faulhaber.bernoulli.bernoulli_polynomial(i, table)])
                  for i in range(_verify.IDENTITY_LIMIT + 1)])


# Shared by the checks below that patch nothing.
VALUES = identity_pairs()


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
    minus, plus = table.values_minus, table.values_plus
    assert minus[0] == plus[0] == 1
    assert plus[1] == -minus[1] == F(1, 2)
    for k in range(2, 51):  # read from the one stored convention
        assert plus[k] == minus[k]
    for k in range(3, 51, 2):
        assert plus[k] == 0
    table = bernoulli_numbers(0)
    assert table.limit == 0 and table.values_plus == table.values_minus == (1,)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=6))
@example([40, 120, 7])
def test_tables_do_not_depend_on_request_order(limits):
    for m in limits:
        assert list(bernoulli_numbers(m).values_plus) == AKIYAMA_TANIGAWA_300[: m + 1]


def test_denominators_follow_von_staudt_clausen():
    # The denominator of B_2k is the product of the primes q with (q - 1) | 2k.
    minus = bernoulli_numbers(1000).values_minus
    primes = [q for q in range(2, 1002) if all(q % d for d in range(2, isqrt(q) + 1))]
    for index in range(2, 1001, 2):
        divisors = [q for q in primes if index % (q - 1) == 0]
        assert minus[index].denominator == prod(divisors)


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
    # shifting b_2 by 1 (once: the plus convention is read from the minus
    # one) shifts the coefficient of n^5 in row 6 by C(7, 2)/7.
    minus = list(bernoulli_numbers(6).ratios_minus)
    minus[2] = (F(*minus[2]) + 1).as_integer_ratio()
    shifted = BernoulliTable(minus)
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
        minus = bernoulli_numbers(i).values_minus
        fresh = polynomial(comb(i, k) * minus[k] for k in range(i, -1, -1))
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
    assert fraction_value(b_poly, F(0)) == table.values_minus[i]
    assert fraction_value(b_poly, F(1)) == table.values_plus[i]


def test_power_sum_identity_example():
    assert power_sum_bruteforce(2, 5) == 55  # 1 + 4 + 9 + 16 + 25
    assert check_power_sum_identity(3, range(5, 6), VALUES) == []


@pytest.mark.parametrize("p", range(1, 13))
def test_power_sum_identity_small_range(p):
    assert check_power_sum_identity(p, range(1, 11), VALUES) == []


def test_power_sum_identity_rejects_zero_index():
    with pytest.raises(ValueError):
        check_power_sum_identity(0, range(1, 4), VALUES)


# Endpoints as (u, v) int pairs, and every (a, b) of them.
ENDPOINTS = ((0, 1), (1, 1), (1, 2), (-1, 1), (2, 1))
INTERVALS = tuple(itertools.product(ENDPOINTS, repeat=2))


@pytest.mark.parametrize("i", range(0, 13))
def test_integral_identity_small_range(i):
    assert check_integral_identity(i, INTERVALS, VALUES) == []


def test_integral_identity_example():
    assert check_integral_identity(2, (((0, 1), (1, 1)),), VALUES) == []


def test_antiderivatives_are_integrated_once(monkeypatch):
    # Each integral check call integrates the pair of the one B_i it reads,
    # once, out of order too, and one identity phase integrates those of
    # B_0..B_30, 31 pairs: B_31 is read only as the successor of B_30.
    integrated = []
    genuine = _verify._integrate_pair

    def counted(numerators, d):
        integrated.append(((numerators, d), genuine(numerators, d)))
        return integrated[-1][1]

    monkeypatch.setattr(_verify, "_integrate_pair", counted)
    for i in (30, 3, 0, 17, 30):
        assert check_integral_identity(i, INTERVALS, VALUES) == []
        ((form, integral),) = integrated
        assert form == VALUES[i]
        for x in ENDPOINTS:
            expected = fraction_value(antiderivative(bernoulli_polynomial(i)), F(*x))
            assert F(*horner(*integral, x)) == expected
        integrated.clear()
    assert all(failed == 0 for _, failed in _verify.tallies(bernoulli_numbers(31)).values())
    assert [form for form, _ in integrated] == list(VALUES[:31])


def test_identity_values_build_no_fraction_of_their_own(monkeypatch):
    # A whole identity phase builds only the Fractions of B_0..B_31 that
    # `bernoulli_polynomial` returns, sum(i + 1) = 528 of them: `tallies`
    # scales each to a pair, and the checks integrate and evaluate the pairs
    # on integers.
    table = bernoulli_numbers(31)
    built = []
    genuine = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return genuine(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    tallies = _verify.tallies(table)
    monkeypatch.undo()
    assert all(failed == 0 for _, failed in tallies.values())
    assert len(built) == sum(i + 1 for i in range(32)) == 528


def test_difference_identity_example():
    # B_2(4) - B_2(3) = 2 * 3
    assert check_difference_identity(2, range(3, 4), VALUES) == []


@pytest.mark.parametrize("i", range(2, 13))
def test_difference_identity_small_range(i):
    assert check_difference_identity(i, range(0, 11), VALUES) == []


@pytest.mark.parametrize("i", [0, 1])
def test_difference_identity_rejects_low_index(i):
    with pytest.raises(ValueError):
        check_difference_identity(i, range(4, 5), VALUES)


def fraction_value(f, x):
    """f(x) by Horner's scheme on Fractions, independent of `horner`."""
    value = F(0)
    for c in reversed(f):
        value = value * x + c
    return value


def antiderivative(f):
    """Test-local antiderivative with zero constant term."""
    return (F(0),) + tuple(c / (k + 1) for k, c in enumerate(f)) if f else ()


def point(x):
    """A check's point, an int or an int pair (u, v), as a Fraction."""
    return F(*x) if type(x) is tuple else F(x)


def power_sum_by_fractions(p, n, polynomials):
    b_poly = polynomials[p]
    right = (fraction_value(b_poly, n + 1) - fraction_value(b_poly, 1)) / p
    return power_sum_bruteforce(p - 1, n) == right


def integral_by_fractions(i, interval, polynomials):
    a, b = map(point, interval)
    integral = antiderivative(polynomials[i])
    successor = polynomials[i + 1]
    left = fraction_value(integral, b) - fraction_value(integral, a)
    return left == (fraction_value(successor, b) - fraction_value(successor, a)) / (i + 1)


def difference_by_fractions(i, n, polynomials):
    b_poly = polynomials[i]
    return fraction_value(b_poly, n + 1) - fraction_value(b_poly, n) == i * n ** (i - 1)


IDENTITY_FAMILIES = [
    (check_power_sum_identity, power_sum_by_fractions, _verify.POWER_SUM_IDENTITY_RANGE),
    (check_integral_identity, integral_by_fractions, _verify.INTEGRAL_IDENTITY_RANGE),
    (check_difference_identity, difference_by_fractions, _verify.DIFFERENCE_IDENTITY_RANGE),
]


@pytest.mark.parametrize("shift_b4", [False, True])
@pytest.mark.parametrize(
    "check, reference, ranges", IDENTITY_FAMILIES, ids=["power-sum", "integral", "difference"])
def test_integer_checks_agree_with_fraction_arithmetic(
        shift_b4_linear, shift_b4, check, reference, ranges):
    # For every polynomial of each family over the whole default range of
    # `verify`, the integer cross-multiplied check returns exactly the
    # points where the identity written in Fractions fails, for the true
    # polynomials and with the linear coefficient of B_4 shifted where
    # `tallies` builds it (the integral check then integrates the shifted
    # B_4).  The reference reads B_i from the same place.
    if shift_b4:
        shift_b4_linear()
    values = identity_pairs()
    table = bernoulli_numbers(31)
    polynomials = [faulhaber.bernoulli.bernoulli_polynomial(i, table) for i in range(32)]
    b4 = values[4]
    assert (b4 == scaled([c.as_integer_ratio() for c in bernoulli_polynomial(4)])) is not shift_b4
    for x in (0, 1, (1, 2), -1, 2):
        assert F(*horner(*b4, x)) == fraction_value(polynomials[4], point(x))
    indices, points = ranges
    failed = 0
    for index in indices:
        failures = check(index, points, values)
        assert failures == [x for x in points if not reference(index, x, polynomials)]
        failed += len(failures)
    assert (failed > 0) is shift_b4


# The value each perturbation test shifts: B_7 at x = 5.
PERTURBED = 7, 5


def reads_perturbed(family, index, x):
    """Does the check of `family` at polynomial `index` and point `x` read
    B_7(5), counted from the identity as written?"""
    i, at = PERTURBED
    if family == "power-sum identity":  # B_p(n+1) and B_p(1)
        return index == i and at in (x + 1, 1)
    if family == "integral identity":  # the antiderivative of B_i and B_{i+1} at a, b
        return index + 1 == i and at in x
    return index == i and at in (x, x + 1)  # difference: B_i(n+1) and B_i(n)


def test_each_check_reads_its_own_values(monkeypatch):
    # B_7(5) shifted by one where `horner` gives it: each family fails
    # exactly at the checks that read that value, counted from the ranges,
    # so no check was merged with another or dropped.
    genuine = _verify.horner
    form = scaled([c.as_integer_ratio() for c in bernoulli_polynomial(PERTURBED[0])])

    def perturbed(numerators, d, x):
        value, denominator = genuine(numerators, d, x)
        if (numerators, d) == form and x == PERTURBED[1]:
            value += 1
        return value, denominator

    monkeypatch.setattr(_verify, "horner", perturbed)
    expected = {}
    for family, (indices, points) in (
        ("power-sum identity", _verify.POWER_SUM_IDENTITY_RANGE),
        ("integral identity", _verify.INTEGRAL_IDENTITY_RANGE),
        ("difference identity", _verify.DIFFERENCE_IDENTITY_RANGE),
    ):
        reads = sum(reads_perturbed(family, index, x) for index in indices for x in points)
        expected[family] = len(indices) * len(points), reads
    assert expected == {"power-sum identity": (600, 1), "integral identity": (775, 0),
                        "difference identity": (609, 2)}
    assert _verify.tallies(bernoulli_numbers(31)) == expected
    assert check_power_sum_identity(7, range(1, 21), VALUES) == [4]
    assert check_difference_identity(7, range(0, 21), VALUES) == [4, 5]
