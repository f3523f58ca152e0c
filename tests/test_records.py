"""The frozen records: construction, immutability, repr, equality and hashing.

The array-holding records compare by identity and are hashable; the value
records compare and hash by their fields.
"""

import copy
import pickle

import numpy as np
import pytest

import kmetrics
from kmetrics.simplicial import Record, ValueRecord


def _chain():
    return kmetrics.Chain(n=4, dim=1, coeffs=np.ones(6))


# name -> the field values of one record, in field order
ARRAY_RECORDS = {
    "Chain": (4, 1, np.ones(6)),
    "LinearChainOperator": (4, 1, 0, np.ones((4, 6))),
    "KMetric": (4, 3, np.ones(4)),
    "ChainMatrix": (4, 3, np.ones((6, 2))),
    "PointCloud": (np.ones((4, 2)),),
    "WeightedComplex": (4, 3, ((0, 1, 2),), np.ones(1)),
    "StandardFormLP": (np.ones((1, 2)), np.ones(1), np.ones(2)),
    "LPSolution": ("optimal", np.ones(2), np.ones(1), 1.0),
}
VALUE_RECORDS = {
    "StrongWitness": ((0, 1, 2), 2.0, 1.0, _chain()),
    "VerificationReport": (True, (), ((0, 1, 2),), False, None, (((0, 1, 2), 1.0, 2.0),)),
    "HypertreeReport": (True, True, True, 3, 3, 3),
    "NormSpec": (2.0,),
    "CorpusInstance": ("name", 1, {"verdict": True}, {"note": 1}),
}
RECORDS = {**ARRAY_RECORDS, **VALUE_RECORDS}


def _state(value):
    """A comparable form of a field value, arrays as their bits."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, Record):
        return type(value).__name__, tuple(map(_state, value._values()))
    return value


def _class(name):
    return getattr(kmetrics.corpus if name == "CorpusInstance" else kmetrics, name)


def _fields(record) -> dict:
    return {field: _state(getattr(record, field)) for field in record.__slots__}


def test_the_package_has_thirteen_records():
    records = {name for name in kmetrics.__all__
               if isinstance(getattr(kmetrics, name), type)
               and issubclass(getattr(kmetrics, name), Record)}
    assert records | {"CorpusInstance"} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_construction_agree(name):
    cls = _class(name)
    values = RECORDS[name]
    assert len(cls.__slots__) == len(values)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert _fields(by_position) == _fields(by_keyword)
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{cls.__slots__[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, bogus=1)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    cls = _class(name)
    record = cls(*RECORDS[name])
    before = _fields(record)
    for field in (*cls.__slots__, "bogus"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert _fields(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    cls = _class(name)
    record = cls(*RECORDS[name])
    text = repr(record)
    assert text.startswith(f"{name}(") and text.endswith(")")
    positions = [text.index(f"{field}=") for field in cls.__slots__]
    assert positions == sorted(positions)


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_rebuild_the_fields(name):
    cls = _class(name)
    record = cls(*RECORDS[name])
    for rebuilt in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is cls
        assert _fields(rebuilt) == _fields(record)


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_by_identity_and_hash(name):
    cls = _class(name)
    record = cls(*ARRAY_RECORDS[name])
    twin = cls(**{field: getattr(record, field) for field in cls.__slots__})  # the same values
    assert not isinstance(record, ValueRecord)
    assert record == record
    assert record != twin
    assert len({record, twin}) == 2


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_compare_by_their_fields(name):
    cls = _class(name)
    values = VALUE_RECORDS[name]
    record, twin = cls(*values), cls(*values)
    assert record == twin and not record != twin
    assert record != values  # a tuple of the same fields is another class
    other = cls(*values[:-1], None if name != "NormSpec" else 3.0)
    assert record != other
    if name == "CorpusInstance":  # dict fields, unhashable as the dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2


def test_defaults_fill_the_trailing_fields():
    report = kmetrics.VerificationReport(True, (), ())
    assert (report.is_strong, report.strong_witness, report.strong_margins) == (None, None, ())
    assert kmetrics.VerificationReport(is_weak=False, weak_violations=(),
                                       pseudo_violations=(), is_strong=True).is_strong is True
    first = kmetrics.corpus.CorpusInstance("a", 1, {})
    second = kmetrics.corpus.CorpusInstance(name="b", payload=2, expected={})
    assert first.aux == {} and second.aux == {} and first.aux is not second.aux
    with pytest.raises(TypeError, match="takes each of the fields"):
        kmetrics.VerificationReport(True, ())
