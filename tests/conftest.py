"""Shared fault injection for the identity-check tests."""
import pytest

import faulhaber.bernoulli


@pytest.fixture
def shift_b4_linear(monkeypatch):
    """A function that, once called, shifts by one the linear coefficient of
    every B_4 that `_verify.tallies` builds, where the tracer also wraps it:
    each identity family then has failing checks.  Undone with the test's
    `monkeypatch`."""
    genuine = faulhaber.bernoulli.bernoulli_polynomial

    def shifted(i, table=None):
        f = genuine(i, table)
        return (f[0], f[1] + 1, *f[2:]) if i == 4 else f

    return lambda: monkeypatch.setattr(faulhaber.bernoulli, "bernoulli_polynomial", shifted)
