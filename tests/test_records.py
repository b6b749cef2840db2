"""The package's five record classes: constructors by position and keyword,
equality within one class, immutability and hashing of the three frozen
ones, and the validation of `CoefficientRow` and `BernoulliTable`."""
import copy
import numbers
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from faulhaber import (
    BernoulliTable,
    CoefficientRow,
    OpCounter,
    direct_coefficients,
    integration_coefficients,
)
from faulhaber.cli import Mismatch, VerifyReport, format_plain
from faulhaber.rationals import start_row

F = Fraction

# class -> the constructor's keyword arguments, in positional order
FIELDS = {
    CoefficientRow: {"coefficients": (F(1, 6), F(1, 2), F(1, 3))},
    BernoulliTable: {"ratios_minus": ((1, 1), (-1, 2))},
    Mismatch: {"p": 7, "pair": "direct vs lemma", "power": 3},
    OpCounter: {"additions": 54, "multiplications": 45},
    VerifyReport: {
        "mismatches": (),
        "op_count_ok": (True,),
        "identity_tallies": {"power-sum identity": (600, 0)},
    },
}
FROZEN = (CoefficientRow, BernoulliTable, Mismatch)
MUTABLE = (OpCounter, VerifyReport)
records = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def build(cls):
    return cls(*FIELDS[cls].values())


@records
def test_positional_and_keyword_construction_agree(cls):
    record = cls(**FIELDS[cls])
    assert record == build(cls)
    assert {name: getattr(record, name) for name in FIELDS[cls]} == FIELDS[cls]


@records
def test_equality_holds_only_within_one_class(cls):
    record = build(cls)
    assert record == build(cls)
    assert not record != build(cls)
    assert record != tuple(FIELDS[cls].values())
    same_fields_other_class = type("Other", (cls,), {})
    assert record != same_fields_other_class(*FIELDS[cls].values())
    for other in FIELDS:
        if other is not cls:
            assert record != build(other)


@records
def test_one_different_field_breaks_equality(cls):
    fields = dict(FIELDS[cls])
    first = next(iter(fields))
    fields[first] = 1 if fields[first] == 0 else 0
    if cls is CoefficientRow:  # keep the row valid
        fields["coefficients"] = (F(1),)
    if cls is BernoulliTable:  # keep the table valid
        fields["ratios_minus"] = ((1, 1),)
    assert cls(**fields) != build(cls)


@records
def test_repr_rebuilds_an_equal_record(cls):
    record = build(cls)
    assert repr(record).startswith(f"{cls.__name__}({next(iter(FIELDS[cls]))}=")
    assert eval(repr(record), {"Fraction": Fraction, cls.__name__: cls}) == record


@records
def test_copy_and_pickle_give_an_equal_record(cls):
    record = build(cls)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment_and_hash_by_value(cls):
    record = build(cls)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == build(cls)
    assert hash(record) == hash(build(cls))
    assert len({record, build(cls)}) == 1


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda cls: cls.__name__)
def test_mutable_records_take_assignment_and_are_unhashable(cls):
    record = build(cls)
    with pytest.raises(TypeError):
        hash(record)
    name = next(iter(FIELDS[cls]))
    setattr(record, name, None)
    assert record != build(cls)


def test_op_counter_starts_at_zero():
    assert OpCounter() == OpCounter(0, 0)


class Ratio:
    """A rational of another type, registered as `numbers.Rational` without
    `as_integer_ratio`, as numpy's integers are."""

    def __repr__(self):
        return "Ratio(1)"


numbers.Rational.register(Ratio)

NOT_A_PAIR = "is not a reduced pair of ints with a positive denominator"


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (CoefficientRow, ((),), "a row holds a_1 at least, got no coefficients"),
        (CoefficientRow, ((0.5, 0.5),),
         "coefficient of n^1 is not a Fraction or int: 0.5"),
        (CoefficientRow, ((F(1, 2), Decimal("0.5")),),
         "coefficient of n^2 is not a Fraction or int: Decimal('0.5')"),
        (CoefficientRow, ((Ratio(),),), "coefficient of n^1 is not a Fraction or int: Ratio(1)"),
        (BernoulliTable, ((),), "a table holds b_0 at least, got no numbers"),
        (BernoulliTable, (((1, 1), (1, 2), (1, 6)),),
         "a table stores b_1 = (-1, 2), got b_1 = (1, 2)"),
        # (-1.0, 2) == (-1, 2): the b_1 check alone would take this table.
        (BernoulliTable, (((1, 1), (-1.0, 2)),),
         f"b_1 {NOT_A_PAIR}: (-1.0, 2)"),
        (BernoulliTable, (((1, 1), (-1, 2), (Decimal(1), 6)),),
         f"b_2 {NOT_A_PAIR}: (Decimal('1'), 6)"),
        (BernoulliTable, (((1, 1), (-1, 2), (2, 4)),), f"b_2 {NOT_A_PAIR}: (2, 4)"),
        (BernoulliTable, (((1, 1), (-1, 2), (1, 6), (0, 2)),), f"b_3 {NOT_A_PAIR}: (0, 2)"),
        (BernoulliTable, (((1, 1), (-1, 2), (1, 0)),), f"b_2 {NOT_A_PAIR}: (1, 0)"),
        (BernoulliTable, (((1, 1), (-1, 2), (-1, -6)),), f"b_2 {NOT_A_PAIR}: (-1, -6)"),
        (BernoulliTable, ((1, (-1, 2)),), f"b_0 {NOT_A_PAIR}: 1"),
        (BernoulliTable, (((1, 1), (-1, 2, 1)),), f"b_1 {NOT_A_PAIR}: (-1, 2, 1)"),
    ],
    ids=["row-empty", "row-float-entry", "row-decimal-entry",
         "row-registered-rational", "table-too-short", "table-b1-conflated",
         "table-float-entry", "table-decimal-entry", "table-unreduced-entry",
         "table-unreduced-zero", "table-zero-denominator", "table-negative-denominator",
         "table-bare-int", "table-triple"],
)
def test_records_reject_malformed_fields(cls, fields, message):
    with pytest.raises(ValueError) as excinfo:
        cls(*fields)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("length", [1, 2, 7])
def test_counts_are_read_from_the_sequences_they_count(length):
    built = CoefficientRow(tuple(F(k, length) for k in range(length)))
    for row in built, CoefficientRow.from_scaled(built.numerators, built.denominator):
        assert row.degree == len(row.coefficients) - 1 == length - 1
    report = VerifyReport((), (True,) * length, {})
    assert report.p_max == length - 1
    assert report.render().splitlines()[1] == f"  degrees:      p = 0..{length - 1}"


def test_a_row_keeps_no_reference_to_the_callers_list():
    entries = [F(1, 2), F(1, 2)]
    row = CoefficientRow(entries)
    entries[0] = F(7)
    assert type(row.coefficients) is tuple
    assert format_plain(row) == "a_1=1/2 a_2=1/2"
    assert direct_coefficients(2, start=row) == direct_coefficients(2)


def test_the_seed_is_the_pair_row_of_one():
    assert start_row(3, None) == CoefficientRow.from_scaled((1,), 1) == CoefficientRow((1,))


def test_a_pair_row_builds_its_fractions_at_each_read():
    row = integration_coefficients(5)
    first, second = row.coefficients, row.coefficients
    assert first == second == direct_coefficients(5).coefficients and first is not second
    assert row.coefficient(4) == F(5, 12) and row._coefficients is None


@pytest.mark.parametrize("values", [[(1, 1), (-1, 2), (1, 6)], [(1, 1)]])
def test_a_table_stores_a_tuple_of_a_list(values):
    table = BernoulliTable(values)
    assert table.ratios_minus == tuple(values) and type(table.ratios_minus) is tuple
    assert table == BernoulliTable(tuple(values)) and table.limit == len(values) - 1
    values[0] = (7, 1)
    assert table.ratios_minus[0] == (1, 1)


def test_a_table_builds_its_fractions_at_each_read():
    table = BernoulliTable([(1, 1), (-1, 2), (1, 6), (0, 1)])
    assert table.values_minus == (F(1), F(-1, 2), F(1, 6), F(0))
    assert table.values_plus == (F(1), F(1, 2), F(1, 6), F(0))
    assert [type(b) for b in table.values_minus + table.values_plus] == [Fraction] * 8
    assert table.values_minus is not table.values_minus  # none kept
