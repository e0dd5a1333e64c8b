import csv
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabforge.cleaning import (
    categorical_sparsity_check,
    clean_table,
    cleaning_config,
    detect_identity,
    detect_timestamp,
    impute_column,
)
from tabforge.config import load_config
from tabforge.cli import load_clean_table, write_table_csv
from tabforge.data import ColumnKind, ColumnMeta, DataError, Table, infer_schema, ingest_csv

CONFIG = cleaning_config(load_config())


def num_col(name="x"):
    return ColumnMeta(name, ColumnKind.numerical())


def cat_col(name, categories):
    return ColumnMeta(name, ColumnKind.categorical(), tuple(categories))


class TestDetectIdentity:
    def test_id_named_running_integers(self):
        assert detect_identity(num_col("user_id"), [1.0, 2.0, 3.0, 4.0])

    def test_duplicates_are_not_identity(self):
        assert not detect_identity(num_col("age"), [21.0, 21.0, 35.0])

    def test_distinct_noncontiguous_without_name_hint(self):
        assert not detect_identity(num_col("code"), [7.0, 3.0, 9.0, 1.0])

    def test_contiguous_run_without_name_hint(self):
        assert detect_identity(num_col("rownum"), [3.0, 1.0, 2.0, 4.0])

    def test_name_hint_with_distinct_values(self):
        assert detect_identity(cat_col("ID", ("a", "b")), ["a", "b"])


class TestDetectTimestamp:
    def test_iso_dates(self):
        col = cat_col("when", ("2021-03-01", "2021-03-02"))
        assert detect_timestamp(col, ["2021-03-01", "2021-03-02"])

    def test_plain_categories(self):
        assert not detect_timestamp(cat_col("color", ("red", "blue")), ["red", "blue"])

    def test_epoch_seconds_with_name_hint(self):
        values = [1.6e9 + i for i in range(10)]
        assert detect_timestamp(num_col("timestamp"), values)
        assert not detect_timestamp(num_col("price"), values)  # no name hint

    def test_slash_and_dash_formats(self):
        assert detect_timestamp(cat_col("d", ("03/15/2021",)), ["03/15/2021", "04/01/2021"])
        assert detect_timestamp(cat_col("d", ("15-03-2021",)), ["15-03-2021", "01-04-2021"])


class TestSparsity:
    def test_mostly_unique_dropped(self):
        cats = tuple(f"c{i}" for i in range(95))
        cells = [f"c{i}" for i in range(95)] + ["c0"] * 5
        assert not categorical_sparsity_check(cat_col("g", cats), cells, CONFIG)

    def test_balanced_two_categories_kept(self):
        cells = ["a"] * 50 + ["b"] * 50
        assert categorical_sparsity_check(cat_col("g", ("a", "b")), cells, CONFIG)

    def test_fifty_uniform_categories_dropped(self):
        # avg frequency 1/50 = 0.02 < 0.03
        cats = tuple(f"c{i}" for i in range(50))
        cells = [f"c{i % 50}" for i in range(100)]
        assert not categorical_sparsity_check(cat_col("g", cats), cells, CONFIG)


class TestImpute:
    def test_numeric_mean_fill(self):
        meta, cells, n = impute_column(num_col(), [1.0, 2.0, None, 3.0], CONFIG)
        assert cells == [1.0, 2.0, 2.0, 3.0]
        assert n == 1

    def test_categorical_mode_fill(self):
        col = cat_col("g", ("A", "B"))
        meta, cells, n = impute_column(col, ["A", "A", "B", None], CONFIG)
        assert cells == ["A", "A", "B", "A"]

    def test_mode_tie_breaks_to_first_category(self):
        col = cat_col("g", ("B", "A"))
        _, cells, _ = impute_column(col, ["A", "B", None, None], CONFIG)
        assert cells[2] == "B"

    def test_over_half_null_dropped(self):
        meta, reason, _ = impute_column(num_col(), [1.0] * 4 + [None] * 6, CONFIG)
        assert meta is None and reason == "too_many_nulls"

    def test_all_null_dropped(self):
        meta, reason, _ = impute_column(num_col(), [None, None], CONFIG)
        assert meta is None and reason == "all_null"

    def test_huge_cells_impute_a_finite_mean(self, tmp_path, cli_run):
        # Two cells near the float limit overflow a plain sum of the column.
        corpus = tmp_path / "raw"
        corpus.mkdir()
        rows = ["1e308,a", "1e308,b", ",a"] + [f"{i}.5,{'ab'[i % 2]}" for i in range(9)]
        (corpus / "huge.csv").write_text("x,g\n" + "\n".join(rows) + "\n")
        cli_run(["clean", str(corpus), str(tmp_path / "out")])
        cleaned = load_clean_table(tmp_path / "out" / "huge.csv")
        fill = cleaned.rows[2][0]
        assert math.isfinite(fill) and fill == pytest.approx(2 * (1e308 / 11))


def demo_table():
    cols = [
        ColumnMeta("id", ColumnKind.numerical()),
        ColumnMeta("date", ColumnKind.categorical(), tuple(f"2020-01-{d:02d}" for d in range(1, 13))),
        ColumnMeta("price", ColumnKind.numerical()),
        ColumnMeta("color", ColumnKind.categorical(), ("red", "blue")),
    ]
    rows = [
        [float(i + 1), f"2020-01-{i + 1:02d}", 10.0 + (i % 3), "red" if i % 2 else "blue"]
        for i in range(12)
    ]
    return Table("demo", cols, rows)


class TestCleanTable:
    def test_rule_composition(self):
        cleaned, report = clean_table(demo_table(), CONFIG)
        assert [c.name for c in cleaned.columns] == ["price", "color"]
        assert report.columns["id"]["reason"] == "identity"
        assert report.columns["date"]["reason"] == "timestamp"
        assert report.verdict == "kept"

    def test_all_columns_dropped_discards_table(self):
        cols = [ColumnMeta(f"c{i}_id", ColumnKind.numerical()) for i in range(10)]
        rows = [[float(r * 10 + i) for i in range(10)] for r in range(12)]
        table = Table("ids", cols, rows)
        cleaned, report = clean_table(table, CONFIG)
        assert cleaned is None
        assert report.verdict == "discarded"
        assert report.verdict_reason == "too_many_dropped_columns"

    def test_too_few_rows_discards(self):
        cols = [num_col("a"), num_col("b")]
        table = Table("small", cols, [[1.0, 2.0]] * 5)
        cleaned, report = clean_table(table, CONFIG)
        assert cleaned is None and report.verdict_reason == "too_few_rows"

    def test_clean_is_idempotent_and_null_free(self):
        cleaned, _ = clean_table(demo_table(), CONFIG)
        again, report = clean_table(cleaned, CONFIG)
        assert again is not None
        assert again.rows == cleaned.rows
        assert [c.name for c in again.columns] == [c.name for c in cleaned.columns]
        assert all(entry == {"action": "kept"} for entry in report.columns.values())
        assert all(cell is not None for row in cleaned.rows for cell in row)

    def test_report_covers_every_original_column(self):
        table = demo_table()
        _, report = clean_table(table, CONFIG)
        assert set(report.columns) == {c.name for c in table.columns}


def test_config_validation():
    with pytest.raises(DataError):
        cleaning_config(load_config(overrides=["--cleaning.max_null_fraction=0.0"]))
    with pytest.raises(DataError):
        cleaning_config(load_config(overrides=["--cleaning.category_uniqueness_max=1.5"]))


NUMBERS = ("1", "2", "3", "0.5")
WORDS = ("red", "blue", "x")
URLS = ("https://a.org/1", "www.b.com/2", "http://c.net/3")


@st.composite
def raw_tables(draw):
    """Columns of equal length, each mostly one kind of label (numbers,
    words or URLs) with a few of another and some blanks, so that
    imputation can carry a column across the 95% numeric and 90% URL
    rules."""
    n = draw(st.integers(12, 60))
    columns = []
    for _ in range(draw(st.integers(2, 4))):
        major, minor = draw(st.sampled_from([NUMBERS, WORDS, URLS])), draw(st.sampled_from([NUMBERS, WORDS, URLS]))
        n_minor = draw(st.integers(0, n // 5))
        n_blank = draw(st.integers(0, n // 2))
        cells = (
            draw(st.lists(st.sampled_from(major), min_size=n - n_minor - n_blank, max_size=n - n_minor - n_blank))
            + draw(st.lists(st.sampled_from(minor), min_size=n_minor, max_size=n_minor))
            + [""] * n_blank
        )
        columns.append(draw(st.permutations(cells)))
    return columns


NUMERIC_FLIP = [["1"] * 50 + ["2"] * 40 + ["x"] * 6 + [""] * 50, NUMBERS[:2] * 73]
URL_FLIP = [[URLS[i % 3] for i in range(88)] + ["other"] * 12 + [""] * 40, WORDS[:2] * 70]


@settings(max_examples=60, deadline=None)
@given(raw_tables())
@example(NUMERIC_FLIP)
@example(URL_FLIP)
def test_a_kept_table_reads_back_as_cleaned(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        raw_path, clean_path = Path(tmp) / "raw.csv", Path(tmp) / "t.csv"
        with open(raw_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *zip(*columns)])
        cleaned, _ = clean_table(infer_schema(ingest_csv(raw_path, "t")), CONFIG)
        if cleaned is None:
            return
        write_table_csv(cleaned, clean_path)
        again = load_clean_table(clean_path)
    assert [c.name for c in again.columns] == [c.name for c in cleaned.columns]
    assert [c.kind for c in again.columns] == [c.kind for c in cleaned.columns]
    assert [set(c.categories) for c in again.columns] == [set(c.categories) for c in cleaned.columns]
