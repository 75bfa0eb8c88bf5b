"""The contract of the five immutable result records, whatever their implementation."""

import math
from fractions import Fraction

import pytest

from zetacomb.exactalg import PiNumber
from zetacomb.kernels import SampleTable
from zetacomb.quad import QuadResult
from zetacomb.testfn import TestFunction as SmoothFunction
from zetacomb.zeta_ladder import LadderState, ZetaValue

# (record type, field names and values in order, repr of the record built
# from them).  The repr strings were taken from the dataclass implementation.
RECORDS = [
    (
        QuadResult,
        {"value": 1.5, "error_estimate": 2.5e-13, "panels_used": 7},
        "QuadResult(value=1.5, error_estimate=2.5e-13, panels_used=7)",
    ),
    (
        SampleTable,
        {"column_names": ("x", "a"), "rows": ((0.0, (1.0,)), (0.5, (2.0,)))},
        "SampleTable(column_names=('x', 'a'), rows=((0.0, (1.0,)), (0.5, (2.0,))))",
    ),
    (
        SmoothFunction,
        {"evaluator": math.sin, "support": (-1.0, 2.0), "label": "sine"},
        "TestFunction(evaluator=<built-in function sin>, support=(-1.0, 2.0), label='sine')",
    ),
    (
        LadderState,
        {"order": 3, "coeffs": (Fraction(1, 3), Fraction(0), Fraction(-1, 2))},
        "LadderState(order=3, coeffs=(Fraction(1, 3), Fraction(0, 1), Fraction(-1, 2)))",
    ),
    (
        ZetaValue,
        {"two_k": 4, "value": PiNumber.pi_power(4, Fraction(1, 90))},
        "ZetaValue(two_k=4, value=PiNumber.pi_power(4, Fraction(1, 90)))",
    ),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, record, fields, text):
        by_position = record(*fields.values())
        by_keyword = record(**fields)
        assert by_position == by_keyword
        assert {name: getattr(by_position, name) for name in fields} == fields

    def test_fields_cannot_be_assigned(self, record, fields, text):
        r = record(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        with pytest.raises(AttributeError):
            r.extra = None

    def test_equal_records_compare_and_hash_equal(self, record, fields, text):
        a, b = record(**fields), record(**fields)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_is_unchanged(self, record, fields, text):
        assert repr(record(**fields)) == text


INVALID = [
    (QuadResult, {"value": 1.0, "error_estimate": -1e-3, "panels_used": 5}),
    (QuadResult, {"value": 1.0, "error_estimate": 0.0, "panels_used": 0}),
    # a row narrower than the columns, then an x grid that does not increase
    (SampleTable, {"column_names": ("x", "a", "b"), "rows": ((0.0, (1.0,)),)}),
    (SampleTable, {"column_names": ("x", "v"), "rows": ((0.0, (1.0,)), (0.0, (1.0,)))}),
    (SmoothFunction, {"evaluator": math.sin, "support": (1.0, 1.0), "label": "empty"}),
    (ZetaValue, {"two_k": 2, "value": PiNumber.zero()}),
    (ZetaValue, {"two_k": 2, "value": PiNumber.pi_power(2, Fraction(-1, 6))}),
]
VALID = {record: fields for record, fields, _ in RECORDS}


@pytest.mark.parametrize("record, fields", INVALID)
def test_invalid_fields_are_refused(record, fields):
    with pytest.raises(ValueError):
        record(*fields.values())
    with pytest.raises(ValueError):
        record(**fields)


def refused(build):
    try:
        build()
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("record, fields", INVALID)
def test_replace_checks_the_fields_as_construction_does(record, fields):
    valid = record(**VALID[record])
    assert refused(lambda: valid._replace(**fields))
    for name, value in fields.items():  # one field at a time: refused exactly when construction is
        alone = {**VALID[record], name: value}
        assert refused(lambda: valid._replace(**{name: value})) == refused(lambda: record(**alone))
