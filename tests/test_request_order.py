"""Continuation: the direct and lemma paths continue from a row the caller
passes, so a row must not depend on where its computation started, and a
counter gains exactly the operations of the degrees it was carried over."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faulhaber.integration
from faulhaber import OpCounter, direct_coefficients, integration_coefficients


# (q, p) with q <= p <= 40
DEGREE_PAIRS = st.integers(0, 40).flatmap(
    lambda p: st.tuples(st.integers(0, p), st.just(p)))


@settings(max_examples=60, deadline=None)
@given(DEGREE_PAIRS)
@example((0, 0))
@example((7, 7))
@example((0, 40))
@example((39, 40))
def test_rows_and_counts_do_not_depend_on_request_order(degrees):
    q, p = degrees
    fresh = direct_coefficients(p)
    start = direct_coefficients(q)
    counter = OpCounter(5, 3)  # a counter carries its earlier tallies over
    assert direct_coefficients(p, counter, start) == fresh
    # Step i takes i multiplications and i + 1 additions/subtractions.
    steps = range(q + 1, p + 1)
    assert counter == OpCounter(5 + sum(i + 1 for i in steps), 3 + sum(steps))
    assert integration_coefficients(p, start) == fresh
    assert integration_coefficients(p, integration_coefficients(q)) == fresh
    assert integration_coefficients(p) == fresh


@pytest.mark.parametrize("path", [direct_coefficients, integration_coefficients])
def test_start_above_the_degree_rejected(path):
    with pytest.raises(ValueError, match="from degree 5"):
        path(4, start=direct_coefficients(5))
    with pytest.raises(ValueError):
        path(-1, start=direct_coefficients(0))


def test_lemma_takes_one_step_per_degree_after_the_start(monkeypatch):
    steps = []
    genuine = faulhaber.integration.integration_step

    def counted(f, i):
        steps.append(i)
        return genuine(f, i)

    monkeypatch.setattr(faulhaber.integration, "integration_step", counted)
    assert integration_coefficients(12, direct_coefficients(9)) == direct_coefficients(12)
    assert steps == [10, 11, 12]
    assert integration_coefficients(9, direct_coefficients(9)) == direct_coefficients(9)
    assert steps == [10, 11, 12]
