"""Rows and Bernoulli tables print from their integer pairs, byte for byte
as the `Fraction`-based rendering printed them, and a `BernoulliTable`,
held as its reduced pairs alone, behaves as the table of `Fraction`s did:
equality, hashing, copy, pickle, repr and the rejection of inexact entries."""
import copy
import json
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faulhaber import BernoulliTable, CoefficientRow, bernoulli_numbers, cli

F = Fraction


# The formatters as they were when they read the row's Fractions: the
# reference for the bytes.


def reference_plain(row):
    return " ".join(
        f"a_{j}={c}" for j, c in enumerate(row.coefficients, start=1)
    )


def reference_json(row):
    payload = {
        "p": row.degree,
        "coefficients": [str(c) for c in row.coefficients],
    }
    return json.dumps(payload, separators=(",", ":"))


def reference_latex(row):
    parts = []
    for power in range(row.degree + 1, 0, -1):
        c = row.coefficient(power)
        if c == 0:
            continue
        if c < 0:
            parts.append("-")
        elif parts:
            parts.append("+")
        c = abs(c)
        if c.denominator != 1:
            parts.append(rf"\frac{{{c.numerator}}}{{{c.denominator}}}")
        elif c != 1:
            parts.append(str(c.numerator))
        parts.append("n" if power == 1 else f"n^{{{power}}}")
    return "".join(parts)


REFERENCE = {"plain": reference_plain, "json": reference_json, "latex": reference_latex}

# An entry: zero, ±1 (printed bare in latex), word-sized, or thousands of bits.
ENTRY = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-2**64, 2**64),
                  st.integers(-2**5000, 2**5000))


@st.composite
def canonical_pairs(draw):
    """(numerators, d) with d > 0 and gcd(d, *numerators) == 1."""
    numerators = draw(st.lists(ENTRY, min_size=1, max_size=12))
    d = draw(st.one_of(st.just(1), st.integers(1, 2**100), st.integers(1, 2**3000)))
    g = gcd(d, *numerators)
    return tuple(c // g for c in numerators), d // g


@pytest.mark.parametrize("fmt", sorted(cli.FORMATTERS))
@settings(max_examples=150, deadline=None)
@given(pair=canonical_pairs())
@example(pair=((0,), 1))
@example(pair=((0, 0, 0), 1))
@example(pair=((-1, 1, -7), 1))
@example(pair=((-30, 0, 60, 90, 36), 180))
@example(pair=((-(2**4000) - 1, 2**4000 + 3, 6), 2 * 3**900))
def test_formats_from_the_pair_print_the_fraction_bytes(fmt, pair):
    assert cli.FORMATTERS[fmt](CoefficientRow.from_scaled(*pair)) == REFERENCE[fmt](
        CoefficientRow.from_scaled(*pair))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 60, 299, 300])
@pytest.mark.parametrize("convention", ["plus", "minus"])
def test_bernoulli_table_prints_the_fraction_bytes(capsys, m, convention):
    assert cli.main(["bernoulli", str(m), "--convention", convention]) == 0
    table = bernoulli_numbers(m)
    values = table.values_plus if convention == "plus" else table.values_minus
    assert capsys.readouterr().out == "".join(f"{i}: {b}\n" for i, b in enumerate(values))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 10, 81])
def test_a_table_of_fractions_equals_and_hashes_as_the_table_of_pairs(m):
    # A table built by hand from Fractions takes their integer ratios.
    built = bernoulli_numbers(m)
    values = [F(n, d) for n, d in built.ratios_minus]
    table = BernoulliTable([b.as_integer_ratio() for b in values])
    assert table == built and hash(table) == hash(built)
    assert table.ratios_minus == built.ratios_minus
    assert table.values_minus == tuple(values)
    assert table.values_plus == built.values_plus
    assert table != bernoulli_numbers(m + 2)


@pytest.mark.parametrize("m", [*range(61), 400])
def test_a_table_rebuilt_from_its_pairs_is_the_same_table(m):
    table = bernoulli_numbers(m)
    rebuilt = BernoulliTable(table.ratios_minus)
    assert rebuilt == table and hash(rebuilt) == hash(table)
    assert rebuilt.values_minus == table.values_minus
    assert rebuilt.values_plus == table.values_plus


def test_pairs_are_reduced_with_b1_read_once():
    table = bernoulli_numbers(200)
    for num, den in table.ratios_minus:
        assert den > 0 and gcd(num, den) == 1
    assert table.ratios_minus[1] == (-1, 2) and table.ratios_plus[1] == (1, 2)
    assert all(a is b for k, (a, b) in enumerate(zip(table.ratios_minus, table.ratios_plus))
               if k != 1)
    assert table.values_minus is not table.values_minus  # built at each read
    assert table.values_plus[2] == table.values_minus[2]


@pytest.mark.parametrize("m", [0, 1, 6])
def test_a_table_of_pairs_copies_pickles_and_reprs_as_before(m):
    table = bernoulli_numbers(m)
    for clone in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert type(clone) is BernoulliTable and clone == table and hash(clone) == hash(table)
        assert clone.values_minus == table.values_minus
    expected = {0: "((1, 1),)", 1: "((1, 1), (-1, 2))"}.get(
        m, "((1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42))")
    assert repr(table) == f"BernoulliTable(ratios_minus={expected})"
    assert eval(repr(table), {"BernoulliTable": BernoulliTable}) == table


@pytest.mark.parametrize("values, message", [
    (((1.0, 1),), "b_0 is not a reduced pair of ints with a positive denominator: (1.0, 1)"),
    (((1, 1), (-0.5, 1)),
     "b_1 is not a reduced pair of ints with a positive denominator: (-0.5, 1)"),
    (((1, 1), (-1, 2), (1, 6.0)),
     "b_2 is not a reduced pair of ints with a positive denominator: (1, 6.0)"),
    ((F(1), F(-1, 2)),
     "b_0 is not a reduced pair of ints with a positive denominator: Fraction(1, 1)"),
], ids=["float-numerator", "float-b1", "float-denominator", "fraction-entry"])
def test_a_float_entry_is_still_rejected(values, message):
    with pytest.raises(ValueError) as excinfo:
        BernoulliTable(values)
    assert str(excinfo.value) == message
