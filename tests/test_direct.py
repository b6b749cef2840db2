"""Direct row-by-row path: known rows, row laws, and exact operation counts."""
from fractions import Fraction

import pytest

from faulhaber import (
    CoefficientRow,
    OpCounter,
    cli,
    direct_coefficients,
    faulhaber_via_bernoulli,
    integration_coefficients,
)
from faulhaber.direct import counted_pass, predicted_additions, predicted_multiplications

F = Fraction

FIRST_ROWS = {
    0: (F(1),),
    1: (F(1, 2), F(1, 2)),
    2: (F(1, 6), F(1, 2), F(1, 3)),
    3: (F(0), F(1, 4), F(1, 2), F(1, 4)),
}


@pytest.mark.parametrize("p,expected", sorted(FIRST_ROWS.items()))
def test_first_rows(p, expected):
    assert direct_coefficients(p).coefficients == expected


def test_squares_row_matches_known_formula():
    # 1^2 + ... + n^2 = n^3/3 + n^2/2 + n/6
    assert direct_coefficients(2).coefficients == (F(1, 6), F(1, 2), F(1, 3))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        direct_coefficients(-1)


def test_counts_for_cubes():
    counter = OpCounter()
    direct_coefficients(3, counter)
    assert counter.additions == 9
    assert counter.multiplications == 6


def test_zero_exponent_costs_nothing():
    counter = OpCounter()
    direct_coefficients(0, counter)
    assert counter == OpCounter(0, 0)


@pytest.mark.parametrize("p", range(0, 61))
def test_counts_match_quadratic_formulas(p):
    counter = OpCounter()
    direct_coefficients(p, counter)
    assert counter.additions == p * (p + 1) // 2 + p
    assert counter.multiplications == p * (p + 1) // 2


@pytest.mark.parametrize("p", range(0, 51))
def test_row_laws(p):
    row = direct_coefficients(p)
    assert len(row.coefficients) == p + 1
    assert sum(row.coefficients) == 1  # the row evaluates to 1 at n = 1
    assert row.coefficient(p + 1) == F(1, p + 1)
    if p >= 1:
        assert row.coefficient(p) == F(1, 2)
    if p >= 3:
        assert row.coefficient(p - 2) == 0


def test_row_for_tenth_powers_matches_bernoulli_path():
    assert direct_coefficients(10) == faulhaber_via_bernoulli(10)


def test_continues_exactly_from_an_int_built_row():
    # The constructor converts int entries to the pair.  The first step turns
    # the pair's nonzero ints into Fractions and leaves its zero slots the
    # int 0, so the rolling row stays exact; from this corrupted row
    # (a_1 = 0, a_2 = 1) the direct recurrence still agrees with the lemma,
    # which continues on integers.
    start = CoefficientRow((0, 1))
    assert start.coefficients == (F(0), F(1))
    assert {type(c) for c in start.coefficients} == {F}
    row = direct_coefficients(6, start=start)
    assert {type(c) for c in row.coefficients} == {F}
    assert row == integration_coefficients(6, start=start)
    assert direct_coefficients(6, start=CoefficientRow((1,))) == direct_coefficients(6)


def test_row_validation():
    with pytest.raises(ValueError):
        CoefficientRow(())
    with pytest.raises(ValueError):
        CoefficientRow((F(1), 0.5))
    row = direct_coefficients(3)
    with pytest.raises(IndexError):
        row.coefficient(0)
    with pytest.raises(IndexError):
        row.coefficient(5)


def stepped(entries, p):
    """The paper's recurrence on Fractions, from the row `entries` to degree p:
    a_j = (i/j) a'_(j-1) for j >= 2, then a_1 = 1 - (a_2 + ... + a_(i+1))."""
    row = list(entries)
    for i in range(len(row), p + 1):
        row = [F(i, j) * row[j - 2] for j in range(2, i + 2)]
        row.insert(0, 1 - sum(row))
    return tuple(row)


# Rows of degree s built off the direct path.  The first step reads each as
# integer numerators over its denominator, which is 1 only for s = 0; at
# s = p there is no step, and the start is the row.
FOREIGN_STARTS = {
    "lemma": integration_coefficients,
    "bernoulli": faulhaber_via_bernoulli,
}


@pytest.mark.parametrize("s, p", [(0, 0), (0, 3), (1, 2), (2, 9), (5, 6), (7, 7), (12, 30),
                                  (31, 40)])
@pytest.mark.parametrize("source", FOREIGN_STARTS.values(), ids=FOREIGN_STARTS)
def test_continues_from_a_foreign_pair(source, s, p):
    start = source(s)
    counter = OpCounter()
    assert direct_coefficients(p, counter, start) == direct_coefficients(p)
    assert counter == OpCounter(predicted_additions(p) - predicted_additions(s),
                                predicted_multiplications(p) - predicted_multiplications(s))


HAND_BUILT = (F(1, 3), F(-2, 5), F(7, 6))
# A zero where no theorem puts one: the first step, on integers, skips it,
# and so does every later step the zero carries to.
HAND_BUILT_ZERO = (F(1, 3), 0, F(7, 6))


@pytest.mark.parametrize("p", [2, 3, 8, 20])  # 2: the start itself, no step
def test_continues_from_a_hand_built_pair(p):
    # Not a power-sum row: the step multiplies its numerators by i/(j d)
    # exactly as it would multiply its Fractions by i/j.
    for entries, d in (HAND_BUILT, 30), (HAND_BUILT_ZERO, 6):
        start = CoefficientRow(entries)
        assert start.denominator == d
        counter = OpCounter()
        row = direct_coefficients(p, counter, start)
        assert row.coefficients == stepped(entries, p)
        assert row == integration_coefficients(p, start)
        assert counter == OpCounter(predicted_additions(p) - predicted_additions(2),
                                    predicted_multiplications(p) - predicted_multiplications(2))


@pytest.fixture
def fractions_built(monkeypatch):
    """The Fractions built while the test runs, one entry each.  A lone int
    made a Fraction is left out: that is no rational operation, and some
    Python versions convert the int operand of a mixed sum before adding.
    Python 3.12 and later build an operation's result through
    `_from_coprime_ints`, which bypasses `__new__`, so those calls count too."""
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        if len(args) + len(kwargs) != 1 or type(args[0]) is not int:
            built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(F):
        from_coprime = F._from_coprime_ints.__func__

        def counting_from_coprime(cls, numerator, denominator):
            built.append((numerator, denominator))
            return from_coprime(cls, numerator, denominator)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counting_from_coprime))
    return built


def zeros_read(start, p):
    """The zero entries of the rows the direct steps from `start` (None is
    [1]) to degree p read, those of degrees start..p-1, as the lemma builds
    them from the same start."""
    row = start or CoefficientRow((1,))
    zeros = 0
    for s in range(row.degree, p):
        row = integration_coefficients(s, row)
        zeros += row.numerators.count(0)
    return zeros


# The starts are built at collection, before any count begins; None is [1].
@pytest.mark.parametrize("start, p", [(None, 0), (None, 1), (None, 5), (None, 40),
                                      (integration_coefficients(12), 40),
                                      (CoefficientRow(HAND_BUILT), 20),
                                      (CoefficientRow(HAND_BUILT_ZERO), 20)])
def test_builds_one_fraction_per_counted_operation(fractions_built, start, p):
    # Each multiplication i/(j d) times a nonzero entry is one reduced
    # Fraction, and each addition of it one sum; a zero entry read makes a
    # zero slot, which builds neither.  The rest of the path works on int
    # pairs.  From [1] to p = 5, 35 counted operations over 2 zeros build 31.
    zeros = zeros_read(start, p)
    fractions_built.clear()
    counter = OpCounter()
    direct_coefficients(p, counter, start)
    assert len(fractions_built) == counter.additions + counter.multiplications - 2 * zeros


def test_counted_pass_builds_one_fraction_per_counted_operation(fractions_built):
    zeros = zeros_read(None, 64)
    fractions_built.clear()
    *_, (p, _, additions, multiplications, matches) = counted_pass(cli.bench_schedule(64))
    assert (p, matches, zeros) == (64, True, 961)
    assert len(fractions_built) == additions + multiplications - 2 * zeros == 2302
