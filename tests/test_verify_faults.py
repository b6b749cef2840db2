"""What each line of the `verify` report catches: `run_verification` at
P = 10, 31 and 40 under one injected fault at a time, and the lines that
fail.  README.md shows this matrix under `verify`.

A fault replaces one function where `verify` looks it up, so each fault
reaches exactly the code that reads that function: a path's row, the
table of Bernoulli numbers, one step of the direct recurrence, or a helper
of the identity checks.
"""
import pytest

import faulhaber.bernoulli
import faulhaber.direct
import faulhaber.integration
from faulhaber import BernoulliTable, CoefficientRow, _verify

DEGREE = 5  # the degree a row or step fault hits


def failing_lines(p_max):
    """The failing lines of the report of `run_verification(p_max)`: each
    mismatched path pair with the degrees it differs at, the degrees whose
    op counts differ from the formulas, and each identity family with its
    number of failed checks."""
    report = _verify.run_verification(p_max)
    failing = {}
    for mismatch in report.mismatches:
        failing.setdefault(mismatch.pair, []).append(mismatch.p)
    bad_counts = [p for p, ok in enumerate(report.op_count_ok) if not ok]
    if bad_counts:
        failing["op counts"] = bad_counts
    for label, (_, failed) in report.identity_tallies.items():
        if failed:
            failing[label] = failed
    assert report.passed == (not failing)
    return failing


def row_entry_off(genuine):
    """The path, with a_3 of its row of degree DEGREE one too large."""
    def path(p, *args):
        row = genuine(p, *args)
        if p != DEGREE:
            return row
        coefficients = list(row.coefficients)
        coefficients[2] += 1
        return CoefficientRow(tuple(coefficients))
    return path


def table_entry_off(k):
    """The table, with b_k one too large in every table that holds it."""
    def wrong(genuine):
        def numbers(m):
            table = genuine(m)
            if m < k:
                return table
            ratios = list(table.ratios_minus)
            num, den = ratios[k]
            ratios[k] = num + den, den
            return BernoulliTable(ratios)
        return numbers
    return wrong


def step_taken(times):
    """`direct._advance`, taken `times` times at step DEGREE, the step from
    a row of length DEGREE.  The row enters scaled by d and leaves a step as
    plain entries, so only the first of the steps taken passes d."""
    def wrong(genuine):
        def advance(row, d, counter):
            for _ in range(times if len(row) == DEGREE else 1):
                genuine(row, d, counter)
                d = 1
        return advance
    return wrong


def restarted(genuine):
    """The direct path, building row DEGREE from [1] rather than from the
    row before: the same row, its steps taken and counted again."""
    def path(p, counter=None, start=None):
        return genuine(p, counter, None if p == DEGREE else start)
    return path


def horner_without_top(genuine):
    """Horner's scheme that leaves the top coefficient out."""
    return lambda numerators, d, x: genuine(numerators[:-1], d, x)


def horner_off_by_one(genuine):
    """Horner's scheme, each value's numerator one too large."""
    def horner(numerators, d, x):
        value, denominator = genuine(numerators, d, x)
        return value + 1, denominator
    return horner


def sum_one_term_short(genuine):
    """1^p + ... + (n-1)^p in place of 1^p + ... + n^p."""
    return lambda p, n: genuine(p, n - 1) if n > 1 else 0


def b4_linear_off(genuine):
    """B_4, its linear coefficient one too large."""
    def polynomial(i, table=None):
        f = genuine(i, table)
        return (f[0], f[1] + 1, *f[2:]) if i == 4 else f
    return polynomial


def degrees(first, p_max):
    return list(range(first, p_max + 1))


# Each fault: where it goes (module, name), the wrong function built from
# the genuine one, and the failing lines at P as a function of P.
FAULTS = {
    "direct row": (
        faulhaber.direct, "direct_coefficients", row_entry_off,
        lambda P: {"direct vs lemma": degrees(DEGREE, P),
                   "direct vs bernoulli": degrees(DEGREE, P)}),
    "lemma row": (
        faulhaber.integration, "integration_coefficients", row_entry_off,
        lambda P: {"direct vs lemma": degrees(DEGREE, P),
                   "lemma vs bernoulli": degrees(DEGREE, P)}),
    # Built from the closed formula alone, so the next row is right again.
    "bernoulli row": (
        faulhaber.bernoulli, "faulhaber_via_bernoulli", row_entry_off,
        lambda P: {"direct vs bernoulli": [DEGREE], "lemma vs bernoulli": [DEGREE]}),
    # The integral identity holds for any numbers b_k: it cannot see the table.
    "table b_4": (
        faulhaber.bernoulli, "bernoulli_numbers", table_entry_off(4),
        lambda P: {"direct vs bernoulli": degrees(4, P), "lemma vs bernoulli": degrees(4, P),
                   "power-sum identity": 520, "difference identity": 546}),
    # No row below degree 20 reads b_20: at P = 10 only the identities do.
    "table b_20": (
        faulhaber.bernoulli, "bernoulli_numbers", table_entry_off(20),
        lambda P: {**({"direct vs bernoulli": degrees(20, P),
                       "lemma vs bernoulli": degrees(20, P)} if P >= 20 else {}),
                   "power-sum identity": 200, "difference identity": 210}),
    # The direct row stops at degree DEGREE - 1: each pass from DEGREE on
    # returns it and counts no step.
    "step skipped": (
        faulhaber.direct, "_advance", step_taken(0),
        lambda P: {"direct vs lemma": degrees(DEGREE, P),
                   "direct vs bernoulli": degrees(DEGREE, P),
                   "op counts": degrees(DEGREE, P)}),
    # The pass to DEGREE ends one row further on, which the next pass keeps.
    "step repeated": (
        faulhaber.direct, "_advance", step_taken(2),
        lambda P: {"direct vs lemma": [DEGREE], "direct vs bernoulli": [DEGREE],
                   "op counts": [DEGREE]}),
    # Right rows from redone work: only the op counts see it.
    "direct pass restarted": (
        faulhaber.direct, "direct_coefficients", restarted,
        lambda P: {"op counts": degrees(DEGREE, P)}),
    # The top terms of (i+1) * integral(B_i) and of B_{i+1} cancel.
    "horner without top": (
        _verify, "horner", horner_without_top,
        lambda P: {"power-sum identity": 600, "difference identity": 609}),
    # The power-sum and difference identities subtract two values: a
    # constant offset cancels.
    "horner off by one": (
        _verify, "horner", horner_off_by_one,
        lambda P: {"integral identity": 112}),
    "brute-force sum short": (
        _verify, "power_sum_bruteforce", sum_one_term_short,
        lambda P: {"power-sum identity": 600}),
    "bernoulli_polynomial entry": (
        faulhaber.bernoulli, "bernoulli_polynomial", b4_linear_off,
        lambda P: {"power-sum identity": 20, "integral identity": 38,
                   "difference identity": 21}),
}


def test_verify_passes_without_a_fault():
    assert failing_lines(10) == {}
    assert failing_lines(31) == {}
    assert failing_lines(40) == {}


# At P = 31 the one table `verify` builds ends at B_31, where the identity
# checks need it to.
@pytest.mark.parametrize("p_max", [10, 31, 40])
@pytest.mark.parametrize("module, name, wrong, expected", FAULTS.values(), ids=FAULTS)
def test_each_fault_fails_its_lines(monkeypatch, p_max, module, name, wrong, expected):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    assert failing_lines(p_max) == expected(p_max)
