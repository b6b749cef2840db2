"""The package's five record classes: constructors by position and keyword,
equality within one class, immutability and hashing of the three frozen
ones, and the validation of `CoefficientRow` and `BernoulliTable`."""
import copy
import pickle
from fractions import Fraction

import pytest

from faulhaber import BernoulliTable, CoefficientRow, OpCounter
from faulhaber.cli import Mismatch, VerifyReport

F = Fraction

# class -> the constructor's keyword arguments, in positional order
FIELDS = {
    CoefficientRow: {"degree": 2, "coefficients": (F(1, 6), F(1, 2), F(1, 3))},
    BernoulliTable: {
        "limit": 1, "values_minus": (F(1), F(-1, 2)), "values_plus": (F(1), F(1, 2))},
    Mismatch: {"p": 7, "pair": "direct vs lemma", "power": 3},
    OpCounter: {"additions": 54, "multiplications": 45},
    VerifyReport: {
        "p_max": 0,
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
        fields["values_minus"] = fields["values_plus"] = (F(1),)
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
    setattr(record, name, getattr(record, name) + 1)
    assert record != build(cls)


def test_op_counter_starts_at_zero():
    assert OpCounter() == OpCounter(0, 0)


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (CoefficientRow, (-1, ()), "degree must be >= 0, got -1"),
        (CoefficientRow, (2, (F(1),)), "a row of degree 2 holds 3 coefficients, got 1"),
        (BernoulliTable, (10, (F(1), F(-1, 2)), (F(1), F(1, 2))),
         "a table through b_10 holds 11 numbers per convention, got 2 and 2"),
        (BernoulliTable, (1, (F(1), F(-1, 2)), (F(1),)),
         "a table through b_1 holds 2 numbers per convention, got 2 and 1"),
        (BernoulliTable, (1, (F(1), F(-1, 2)), (F(1), F(-1, 2))),
         "the conventions differ only in b_1 = -1/2 and +1/2, got b_1 = -1/2 and -1/2"),
        (BernoulliTable, (2, (F(1), F(-1, 2), F(1, 6)), (F(1), F(1, 2), F(7, 6))),
         "the conventions differ only in b_1 = -1/2 and +1/2, got b_2 = 1/6 and 7/6"),
    ],
    ids=["row-negative-degree", "row-too-short", "table-too-short", "table-conventions-differ",
         "table-b1-conflated", "table-conventions-disagree-past-b1"],
)
def test_records_reject_malformed_fields(cls, fields, message):
    with pytest.raises(ValueError) as excinfo:
        cls(*fields)
    assert str(excinfo.value) == message
