import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabforge.data import ColumnKind, ColumnMeta
from tabforge.textrow import ParseFailure, parse_row_text, serialize_row_text


SCHEMA = [
    ColumnMeta("Age", ColumnKind.numerical()),
    ColumnMeta("Gender", ColumnKind.categorical(), ("M", "F")),
]


def test_printed_example_sentence():
    assert serialize_row_text(SCHEMA, [26.0, "M"]) == "Age is 26 and Gender is M"


def test_single_column():
    schema = [ColumnMeta("x", ColumnKind.numerical())]
    assert serialize_row_text(schema, [1.5]) == "x is 1.5"


def test_value_containing_separator_is_quoted_and_round_trips():
    schema = [ColumnMeta("genre", ColumnKind.categorical(), ("rock and roll", "jazz"))]
    sentence = serialize_row_text(schema, ["rock and roll"])
    assert sentence == 'genre is "rock and roll"'
    assert parse_row_text(schema, sentence) == ["rock and roll"]


def test_round_trip_and_order_independence():
    row = [26.0, "M"]
    sentence = serialize_row_text(SCHEMA, row)
    assert parse_row_text(SCHEMA, sentence) == row
    assert parse_row_text(SCHEMA, "Gender is M and Age is 26") == row


def test_permutation_round_trip_any_seed():
    for seed in range(10):
        sentence = serialize_row_text(SCHEMA, [31.0, "F"], permute=True, rng=np.random.default_rng(seed))
        assert parse_row_text(SCHEMA, sentence) == [31.0, "F"]


def test_numeric_parse_failure():
    out = parse_row_text(SCHEMA, "Age is banana and Gender is M")
    assert isinstance(out, ParseFailure) and out.reason == "numeric_parse"


def test_unknown_column_and_missing_column_failures():
    assert parse_row_text(SCHEMA, "Height is 2 and Gender is M").reason == "unknown_column"
    assert parse_row_text(SCHEMA, "Age is 26").reason == "missing_columns"
    assert parse_row_text(SCHEMA, "Age is 26 and Age is 27").reason == "duplicate_column"


def test_out_of_vocabulary_category_failure():
    assert parse_row_text(SCHEMA, "Age is 26 and Gender is Q").reason == "unknown_category"


def test_null_cell_raises():
    with pytest.raises(ValueError):
        serialize_row_text(SCHEMA, [None, "M"])


def test_six_significant_digits():
    schema = [ColumnMeta("x", ColumnKind.numerical())]
    assert serialize_row_text(schema, [1234567.0]) == "x is 1.23457e+06"
    assert serialize_row_text(schema, [1.25]) == "x is 1.25"


@settings(max_examples=200, deadline=None)
@given(
    label=st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        min_size=1,
        max_size=30,
    ),
    name=st.text(alphabet="abcdef isand\"\\", min_size=1, max_size=12),
    value=st.floats(allow_nan=False, allow_infinity=False, width=32),
)
@example(label="0", name="\\ is", value=0.0)  # a name ending in " is"
@example(label="0", name="x and", value=1.0)  # a name ending in " and"
def test_round_trip_survives_hostile_names_and_labels(label, name, value):
    schema = [
        ColumnMeta(name, ColumnKind.numerical()),
        ColumnMeta(name + "_cat", ColumnKind.categorical(), (label,)),
    ]
    row = [float(value), label]
    sentence = serialize_row_text(schema, row, permute=True, rng=np.random.default_rng(0))
    parsed = parse_row_text(schema, sentence)
    assert not isinstance(parsed, ParseFailure), f"{sentence!r} -> {parsed}"
    assert parsed[1] == label
    assert parsed[0] == pytest.approx(row[0], rel=1e-5, abs=1e-30)
