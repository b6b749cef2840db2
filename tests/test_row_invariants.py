"""Row invariants of every path: the theorems stated in `CoefficientRow`,
agreement with the brute-force sum over random degrees, and the canonical
integer pair of every row through p = 150, where the theorems become
integer identities.  In every row the zeros of the odd Bernoulli numbers
fix which entries are zero, and no other entry is: the direct and lemma
steps skip exactly those."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faulhaber import CoefficientRow, bernoulli_numbers, cli, evaluate_row, power_sum_bruteforce


def zero_pattern(p):
    """Which entries of row p are zero.  Entry k, the coefficient of n^(k+1),
    is C(p+1, i) b_i / (p+1) for i = p - k: zero exactly where b_i is, at
    every odd i >= 3."""
    return [(p - k) % 2 == 1 and p - k >= 3 for k in range(p + 1)]


@pytest.mark.parametrize("method", sorted(cli.METHODS))
@settings(max_examples=40, deadline=None)
@given(p=st.integers(0, 150), n=st.integers(1, 50))
def test_rows_satisfy_the_invariants(method, p, n):
    row = cli.METHODS[method](p)
    assert sum(row.coefficients) == 1
    assert row.coefficient(p + 1) == Fraction(1, p + 1)
    if p >= 1:
        assert row.coefficient(p) == Fraction(1, 2)
    assert [c == 0 for c in row.coefficients] == zero_pattern(p)
    assert evaluate_row(row, n) == power_sum_bruteforce(p, n)


def every_row(method, p_max):
    """The rows p = 0..p_max of one path: the recurrences continue each row
    from the one before, the Bernoulli rows read one table."""
    if method == "bernoulli":
        table = bernoulli_numbers(p_max)
        return [cli.METHODS[method](p, table) for p in range(p_max + 1)]
    rows = []
    for p in range(p_max + 1):
        rows.append(cli.METHODS[method](p, start=rows[-1] if rows else None))
    return rows


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_rows_are_canonical_integer_pairs(method):
    for p, row in enumerate(every_row(method, 150)):
        numerators, d = row.numerators, row.denominator
        assert type(d) is int and all(type(c) is int for c in numerators)
        assert len(numerators) == p + 1
        assert d > 0 and gcd(d, *numerators) == 1
        rebuilt = CoefficientRow(row.coefficients)
        assert (rebuilt.numerators, rebuilt.denominator) == (numerators, d)
        assert row == rebuilt and hash(row) == hash(rebuilt)
        # The row sums to 1, its top entry is 1/(p+1) and a_p = 1/2.
        assert sum(numerators) == d
        assert (p + 1) * numerators[p] == d
        if p >= 1:
            assert 2 * numerators[p - 1] == d
        assert [c == 0 for c in numerators] == zero_pattern(p)
