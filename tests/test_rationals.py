"""`rat_add` and `rat_mul`, the two operations the benchmark's rational
probe times, are exact `Fraction` arithmetic, and `scaled` puts reduced
fractions over their least common denominator as a canonical pair."""
from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from faulhaber.rationals import rat_add, rat_mul, scaled


def test_add_examples():
    assert rat_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    folded = rat_add(rat_add(Fraction(1, 6), Fraction(1, 2)), Fraction(1, 3))
    assert folded == 1
    assert rat_add(Fraction(7, 9), Fraction(0)) == Fraction(7, 9)


def test_mul_examples():
    assert rat_mul(Fraction(2, 3), Fraction(1, 2)) == Fraction(1, 3)
    assert rat_mul(Fraction(-5, 7), Fraction(1)) == Fraction(-5, 7)
    assert rat_mul(Fraction(3), Fraction(1, 6)) == Fraction(1, 2)


@given(st.fractions(), st.fractions())
def test_add_and_mul_commute(x, y):
    assert rat_add(x, y) == rat_add(y, x)
    assert rat_mul(x, y) == rat_mul(y, x)


@given(st.fractions(), st.fractions(), st.fractions())
def test_add_and_mul_associate(x, y, z):
    assert rat_add(rat_add(x, y), z) == rat_add(x, rat_add(y, z))
    assert rat_mul(rat_mul(x, y), z) == rat_mul(x, rat_mul(y, z))


@given(st.fractions(), st.fractions(), st.fractions())
def test_mul_distributes_over_add(x, y, z):
    assert rat_mul(x, rat_add(y, z)) == rat_add(rat_mul(x, y), rat_mul(x, z))


@given(st.fractions())
def test_identities(x):
    assert rat_add(x, Fraction(0)) == x
    assert rat_mul(x, Fraction(1)) == x


@given(st.fractions())
def test_results_are_canonical_and_round_trip(x):
    assert gcd(abs(x.numerator), x.denominator) == 1
    assert x.denominator >= 1


@given(st.lists(st.one_of(st.fractions(), st.just(Fraction(0))), max_size=12))
def test_scaled_gives_the_canonical_pair(entries):
    numerators, d = scaled([c.as_integer_ratio() for c in entries])
    assert d > 0
    assert gcd(d, *numerators) == 1
    assert len(numerators) == len(entries)
    for k, entry in enumerate(entries):
        assert Fraction(numerators[k], d) == entry
