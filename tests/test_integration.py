"""Integration path: the recurrence step on integer numerators over one
denominator, the rows it returns, and agreement with the direct rows; and
the antiderivatives on integer pairs and integer Horner evaluation that
the Bernoulli identity checks use."""
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from faulhaber import CoefficientRow, direct_coefficients, integration_coefficients
from faulhaber._verify import _integrate_pair
from faulhaber.integration import integration_step
from faulhaber.rationals import horner

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


def scaled(f):
    """Test-local (numerators, d): f over the lcm of its denominators."""
    d = lcm(*(c.denominator for c in f))
    return tuple(c.numerator * (d // c.denominator) for c in f), d


def integrate_polynomial(f):
    """`_integrate_pair` on f's pair, read back as Fractions; the pair it
    returns must be canonical: a positive denominator prime to the
    numerators as a whole."""
    numerators, d = _integrate_pair(*scaled(f))
    assert d > 0 and gcd(d, *numerators) == 1
    return tuple(F(c, d) for c in numerators)


def row_to_polynomial(row):
    """The row as a polynomial in n, with the implicit zero constant added."""
    return polynomial((0,) + row.coefficients)


def test_integrate_power_rule():
    assert integrate_polynomial(polynomial([0, 0, 1])) == polynomial([0, 0, 0, F(1, 3)])


def test_integrate_zero_polynomial():
    # Only the zero constant term: the zero polynomial over 1.
    assert _integrate_pair((), 1) == ((0,), 1)
    assert _integrate_pair((), 6) == ((0,), 1)


def test_integrate_int_pair_values():
    # 1 + 2t integrates to t + t^2 over 1, and 1 + t to t + t^2/2 over 2;
    # a pair with a common factor left in comes out reduced all the same.
    assert _integrate_pair((1, 2), 1) == ((0, 1, 1), 1)
    assert _integrate_pair((1, 1), 1) == ((0, 2, 1), 2)
    assert _integrate_pair((2, 4), 2) == ((0, 1, 1), 1)
    assert _integrate_pair((-3, 0, 6), 9) == ((0, -3, 0, 2), 9)


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


# Zero, negative and positive ints, and proper fractions of either sign,
# each given to `horner` as an int (the ints only) and as a (u, v) pair.
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
def test_horner_matches_fraction_horner(coeffs, x):
    forms = [x.as_integer_ratio()] + [x] * (type(x) is int)
    for f in (tuple(coeffs), polynomial(coeffs)):
        for form in forms:
            numerator, denominator = horner(*scaled(f), form)
            assert type(numerator) is int and type(denominator) is int and denominator > 0
            assert Fraction(numerator, denominator) == horner_oracle(f, x)
            if type(form) is int:  # the int path keeps d itself
                assert denominator == scaled(f)[1]


def test_polynomial_trims_trailing_zeros():
    assert polynomial([1, 2, 0, 0]) == (F(1), F(2))
    assert polynomial([0, 0]) == ()


def test_step_from_known_polynomials():
    # Pairs without a constant slot: entry j is the coefficient of n^(j+1).
    f0 = ((1,), 1)
    f1 = integration_step(f0, 1)
    assert f1 == ((1, 1), 2)
    f2 = integration_step(f1, 2)
    assert f2 == scaled(polynomial([F(1, 6), F(1, 2), F(1, 3)]))
    f3 = integration_step(f2, 3)
    assert f3 == scaled(polynomial([0, F(1, 4), F(1, 2), F(1, 4)]))


def test_step_rejects_zero_degree():
    with pytest.raises(ValueError):
        integration_step(scaled(polynomial([0, 1])), 0)


@pytest.mark.parametrize("i", range(1, 26))
def test_step_advances_direct_rows(i):
    previous = scaled(direct_coefficients(i - 1).coefficients)
    advanced = integration_step(previous, i)
    assert advanced == scaled(direct_coefficients(i).coefficients)


def reference_step(f, p):
    """The recurrence on Fractions, with a test-local antiderivative:
    p * F + (1 - p * F(1)) * n, f and the result without a constant slot."""
    antiderivative = (F(0),) + tuple(c / (j + 2) for j, c in enumerate(f))
    out = [p * c for c in antiderivative]
    out[0] += 1 - p * sum(antiderivative)
    return polynomial(out)


def test_every_step_returns_the_canonical_scaled_form():
    reference = polynomial([1])
    f = scaled(reference)
    for i in range(1, 61):
        reference = reference_step(reference, i)
        numerators, d = f = integration_step(f, i)
        assert type(d) is int and all(type(c) is int for c in numerators)
        assert d > 0 and gcd(d, *numerators) == 1 and numerators[-1] != 0
        assert f == scaled(reference)


TERMS = st.fractions(-10**6, 10**6, max_denominator=10**4)


@given(
    # Zero entries at any position, as half of each lemma row is: the step
    # skips them.  The top entry is nonzero, as in every trimmed pair.
    st.lists(st.one_of(st.just(F(0)), TERMS), max_size=10),
    TERMS.filter(bool),
    st.integers(1, 200),
)
# Any canonical pair, not only a row of the lemma chain, steps to the
# canonical pair with no reducing pass: n/2 at p = 1 gives 3n/4 + n^2/4,
# (3, 1) over 4.
@example([], F(1, 2), 1)
# Every entry zero but the top one, and no entry zero.
@example([0] * 8, F(-7, 12), 9)
@example([F(1, 6), F(-3, 4), 5, F(2, 9)], F(1, 10), 6)
# Every remainder zero, so the new denominator gains no factor (m = 1).
@example([2, 3], 4, 5)
# p shares a factor with d: gcd(6, 12) = 6 comes out of both.
@example([F(1, 12), F(5, 6)], F(1, 4), 6)
# Negative entries, over 3: -12 by 2 leaves no remainder, -5 by 3 and -27
# by 4 leave floor remainders 1.
@example([-4, F(-5, 3)], -9, 7)
# Zero below a large top entry.
@example([0] * 5, F(10**40 + 7, 11), 4)
def test_step_on_random_polynomials_gives_the_canonical_reference(terms, top, p):
    f = polynomial([*terms, top])
    numerators, d = advanced = integration_step(scaled(f), p)
    assert type(d) is int and all(type(c) is int for c in numerators)
    assert d > 0 and gcd(d, *numerators) == 1 and numerators[-1] != 0
    assert advanced == scaled(reference_step(f, p))


def test_rows_for_small_degrees():
    assert integration_coefficients(0).coefficients == (F(1),)
    assert integration_coefficients(3).coefficients == (F(0), F(1, 4), F(1, 2), F(1, 4))
    assert integration_coefficients(3, direct_coefficients(3)) == direct_coefficients(3)


def test_agrees_with_direct_path():
    assert integration_coefficients(12) == direct_coefficients(12)


def test_row_polynomial_round_trip():
    row = direct_coefficients(7)
    numerators, d = scaled(row_to_polynomial(row))
    assert numerators[0] == 0
    converted = CoefficientRow.from_scaled(numerators[1:], d)
    assert converted == row
    assert (converted.numerators, converted.denominator) == (row.numerators, row.denominator)
    assert all(type(c) is Fraction for c in converted.coefficients)
    assert converted.coefficients == row.coefficients
