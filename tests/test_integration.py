"""Integration path: antiderivatives, the recurrence step, and agreement
with the direct rows."""
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from faulhaber import (
    direct_coefficients,
    integrate_polynomial,
    integration_coefficients,
    integration_step,
    poly_eval,
)
from faulhaber.integration import _to_row

F = Fraction


def polynomial(coeffs):
    """Exact rationals with trailing zeros cut: the normal form of a polynomial."""
    values = [F(c) for c in coeffs]
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def differentiate(f):
    """Test-local derivative, the independent inverse of integration."""
    return polynomial(k * f[k] for k in range(1, len(f)))


def row_to_polynomial(row):
    """The row as a polynomial in n, with the implicit zero constant added."""
    return polynomial((0,) + row.coefficients)


def test_integrate_power_rule():
    assert integrate_polynomial(polynomial([0, 0, 1])) == polynomial([0, 0, 0, F(1, 3)])


def test_integrate_zero_polynomial():
    assert integrate_polynomial(()) == ()


def test_integrate_int_coefficients_stays_exact():
    # A raw int tuple that did not go through polynomial() must not turn
    # into floats: 1 + 2t integrates to t + t^2 with Fraction entries.
    antider = integrate_polynomial((1, 2))
    assert antider == (F(0), F(1), F(1))
    assert all(type(c) is Fraction for c in antider)
    assert integrate_polynomial((1, 1)) == (F(0), F(1), F(1, 2))


def test_integrate_linear_power_sum():
    # antiderivative of t/2 + t^2/2 is t^2/4 + t^3/6; differentiating recovers it
    f = polynomial([0, F(1, 2), F(1, 2)])
    antider = integrate_polynomial(f)
    assert antider == polynomial([0, 0, F(1, 4), F(1, 6)])
    assert differentiate(antider) == f


def test_integrate_constant_plus_linear():
    assert integrate_polynomial(polynomial([F(1, 2), F(1, 2)])) == polynomial(
        [0, F(1, 2), F(1, 4)]
    )


@given(st.lists(st.fractions(), max_size=8))
def test_differentiation_undoes_integration(coeffs):
    f = polynomial(coeffs)
    assert differentiate(integrate_polynomial(f)) == f


def horner_oracle(f, x):
    """Textbook Horner's scheme with a Fraction step per coefficient."""
    acc = F(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


# Zero, negative and positive ints, and proper fractions of either sign.
POINTS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-1, max_value=1, max_denominator=60),
    st.fractions(max_denominator=10**6),
)
COEFFICIENTS = st.one_of(st.integers(-10**6, 10**6), st.fractions())


@given(st.lists(COEFFICIENTS, max_size=12), POINTS)
@example([], 0)
@example([], F(-2, 3))
@example([0, 0, 0], F(1, 2))
@example([F(1, 6), -1, 1], 0)
@example([F(1, 6), -1, 1], -3)
@example([5], F(-7, 3))
@example([F(1, 2), F(-1, 3)], F(-3, 5))
def test_poly_eval_matches_fraction_horner(coeffs, x):
    for f in (tuple(coeffs), polynomial(coeffs)):
        value = poly_eval(f, x)
        assert type(value) is Fraction
        assert value == horner_oracle(f, x)


def test_polynomial_trims_trailing_zeros():
    assert polynomial([1, 2, 0, 0]) == (F(1), F(2))
    assert polynomial([0, 0]) == ()


def test_step_from_known_polynomials():
    f0 = polynomial([0, 1])
    f1 = integration_step(f0, 1)
    assert f1 == polynomial([0, F(1, 2), F(1, 2)])
    f2 = integration_step(f1, 2)
    assert f2 == polynomial([0, F(1, 6), F(1, 2), F(1, 3)])
    f3 = integration_step(f2, 3)
    assert f3 == polynomial([0, 0, F(1, 4), F(1, 2), F(1, 4)])


def test_step_rejects_zero_degree():
    with pytest.raises(ValueError):
        integration_step(polynomial([0, 1]), 0)


@pytest.mark.parametrize("i", range(1, 26))
def test_step_advances_direct_rows(i):
    previous = row_to_polynomial(direct_coefficients(i - 1))
    advanced = integration_step(previous, i)
    assert advanced == row_to_polynomial(direct_coefficients(i))


def test_rows_for_small_degrees():
    assert integration_coefficients(0).coefficients == (F(1),)
    assert integration_coefficients(3).coefficients == (F(0), F(1, 4), F(1, 2), F(1, 4))


def test_agrees_with_direct_path():
    assert integration_coefficients(12) == direct_coefficients(12)


def test_constant_coefficient_stays_exactly_zero():
    f = polynomial([0, 1])
    for i in range(1, 21):
        f = integration_step(f, i)
        assert f[0] == 0


def test_row_conversion_requires_zero_constant():
    with pytest.raises(ValueError):
        _to_row(polynomial([F(1, 2), 1]))
    with pytest.raises(ValueError):
        _to_row(polynomial([1]))


def test_row_polynomial_round_trip():
    row = direct_coefficients(7)
    assert _to_row(row_to_polynomial(row)) == row
