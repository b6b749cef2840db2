"""Row invariants of every path over random degrees: the theorems stated in
`CoefficientRow` and agreement with the brute-force sum."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faulhaber import cli, evaluate_row, power_sum_bruteforce


@pytest.mark.parametrize("method", sorted(cli.METHODS))
@settings(max_examples=40, deadline=None)
@given(p=st.integers(0, 150), n=st.integers(1, 50))
def test_rows_satisfy_the_invariants(method, p, n):
    row = cli.METHODS[method](p)
    assert sum(row.coefficients) == 1
    assert row.coefficient(p + 1) == Fraction(1, p + 1)
    if p >= 1:
        assert row.coefficient(p) == Fraction(1, 2)
    if p >= 3:
        assert row.coefficient(p - 2) == 0
    assert evaluate_row(row, n) == power_sum_bruteforce(p, n)
