import json

import pytest

from tabforge.cli import main
from tabforge.data import (
    ColumnKind,
    ColumnMeta,
    DataError,
    Table,
    infer_schema,
    ingest_csv,
)
from tabforge.config import load_config
from tabforge.split import DatasetSplit, split_spec


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestIngest:
    def test_majority_parse_types_columns(self, tmp_path):
        t = ingest_csv(write(tmp_path, "a,b\n1,x\n2,y\n"), "t")
        assert t.n_rows == 2 and t.n_cols == 2
        assert t.columns[0].kind.is_numerical
        assert t.columns[1].kind.is_categorical
        assert t.rows[0] == [1.0, "x"]

    def test_empty_string_becomes_null(self, tmp_path):
        t = ingest_csv(write(tmp_path, "a,b\n1,\n2,y\n"), "t")
        assert t.rows[0][1] is None

    def test_ragged_rows_error(self, tmp_path):
        with pytest.raises(DataError, match="ragged"):
            ingest_csv(write(tmp_path, "a,b\n1,2\n3\n"), "t")

    def test_zero_data_rows_error(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(write(tmp_path, "a,b\n"), "t")

    def test_missing_file_error(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(tmp_path / "nope.csv", "t")

    def test_95_percent_threshold(self, tmp_path):
        # 19/20 numeric -> numerical (straggler nulled); 18/20 -> categorical
        rows_ok = "\n".join([str(i) for i in range(19)] + ["junk"])
        t = ingest_csv(write(tmp_path, "a\n" + rows_ok + "\n", "ok.csv"), "t")
        assert t.columns[0].kind.is_numerical
        assert t.rows[19][0] is None
        rows_bad = "\n".join([str(i) for i in range(18)] + ["junk", "junk2"])
        t2 = ingest_csv(write(tmp_path, "a\n" + rows_bad + "\n", "bad.csv"), "t2")
        assert t2.columns[0].kind.is_categorical

    def test_rfc4180_quoting(self, tmp_path):
        t = ingest_csv(write(tmp_path, 'a,b\n"1,5",x\n"2,5",y\n'), "t")
        assert t.columns[0].kind.is_categorical  # "1,5" does not parse
        assert t.rows[0][0] == "1,5"


class TestInferSchema:
    def test_enumerates_categories_in_first_appearance_order(self, tmp_path):
        t = infer_schema(ingest_csv(write(tmp_path, "g\nM\nF\nM\n"), "t"))
        assert t.columns[0].categories == ("M", "F")

    def test_url_column_rejected(self, tmp_path):
        body = "\n".join(f"http://example.com/{i}" for i in range(5))
        t = infer_schema(ingest_csv(write(tmp_path, "link\n" + body + "\n"), "t"))
        assert t.columns[0].kind.is_rejected
        assert t.columns[0].kind.reason == "url"

    def test_long_strings_rejected(self, tmp_path):
        body = "\n".join("x" * 60 for _ in range(4))
        t = infer_schema(ingest_csv(write(tmp_path, "blob\n" + body + "\n"), "t"))
        assert t.columns[0].kind.reason == "long_string"

    def test_path_column_rejected(self, tmp_path):
        body = "\n".join(f"images/cats/{i:03d}.png" for i in range(6))
        t = infer_schema(ingest_csv(write(tmp_path, "file\n" + body + "\n"), "t"))
        assert t.columns[0].kind.reason == "path"

    def test_phone_column_rejected_but_punctuation_kept(self, tmp_path):
        body = "\n".join(f"555-123-4{i:03d}" for i in range(5))
        t = infer_schema(ingest_csv(write(tmp_path, "contact\n" + body + "\n"), "t"))
        assert t.columns[0].kind.reason == "phone"
        # Punctuation-only strings are not phone numbers.
        body2 = "\n".join("- - - - ()" for _ in range(5))
        t2 = infer_schema(ingest_csv(write(tmp_path, "sep\n" + body2 + "\n", "o.csv"), "t2"))
        assert t2.columns[0].kind.is_categorical


class TestDatasetStats:
    """Corpus statistics: what `clean` writes to stats.json about the tables it keeps."""

    @staticmethod
    def clean(cli_run, tmp_path, shapes: dict[str, tuple[int, int]]):
        corpus, out = tmp_path / "corpus", tmp_path / "cleaned"
        corpus.mkdir()
        for name, (n_rows, n_cols) in shapes.items():
            header = ",".join(f"c{i}" for i in range(n_cols))
            rows = [",".join([f"{r + 0.5}"] * n_cols) for r in range(n_rows)]
            write(corpus, "\n".join([header, *rows]) + "\n", f"{name}.csv")
        args = ["clean", str(corpus), str(out), "--cleaning.min_rows=1"]
        cli_run(args)
        return out, json.loads((out / "stats.json").read_text())

    def test_single_table(self, tmp_path, cli_run):
        _, stats = self.clean(cli_run, tmp_path, {"a": (3, 5)})
        assert (stats["tables"], stats["avg_columns"], stats["avg_rows"]) == (1, 5.0, 3.0)

    def test_two_table_means(self, tmp_path, cli_run):
        _, stats = self.clean(cli_run, tmp_path, {"a": (2, 4), "b": (4, 6)})
        assert stats["avg_columns"] == 5.0
        assert stats["avg_rows"] == 3.0

    def test_dangling_id_errors(self, tmp_path, monkeypatch, capsys, cli_run):
        cleaned, _ = self.clean(cli_run, tmp_path, {"a": (3, 5)})
        manifest = tmp_path / "split.json"
        manifest.write_text(DatasetSplit(["ghost"], [], [], split_spec(load_config())).to_json())
        args = ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned), "--method", "stvae",
                "--out", str(tmp_path / "m")]
        monkeypatch.setattr("sys.argv", ["tabforge", *args])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert f"error: cannot read {cleaned / 'ghost.csv'}: " in capsys.readouterr().err


def test_table_invariants_enforced():
    cols = [ColumnMeta("x", ColumnKind.numerical()), ColumnMeta("g", ColumnKind.categorical(), ("a",))]
    with pytest.raises(DataError):
        Table("t", cols, [[1.0]])  # wrong cell count
    with pytest.raises(DataError):
        Table("t", cols, [[float("inf"), "a"]])  # non-finite numeric
    with pytest.raises(DataError):
        Table("t", cols, [[1.0, "zzz"]])  # label outside categories
    Table("t", cols, [[1.0, None], [None, "a"]])  # nulls are fine


@pytest.mark.parametrize("rows, message", [
    ([[1.0, "a", "x"], [2.0, "zzz", 1], [float("nan"), "a", None]],
     "table 't': label 'zzz' not in categories of column 'g'"),
    ([[1.0, "b", None], [float("nan"), "zzz", None]], "table 't': non-finite numeric cell at (1,0)"),
    ([[None, None, None], ["1", "a", None]], "table 't': non-finite numeric cell at (1,0)"),
    ([[1.0, "a", None], [1.0, "a"], [float("inf"), "a", None]], "table 't': row 1 has 2 cells, expected 3"),
])
def test_table_names_its_first_bad_cell_in_row_major_order(rows, message):
    cols = [
        ColumnMeta("x", ColumnKind.numerical()),
        ColumnMeta("g", ColumnKind.categorical(), ("a", "b")),
        ColumnMeta("r", ColumnKind.rejected("url")),  # holds anything
    ]
    with pytest.raises(DataError) as exc:
        Table("t", cols, rows)
    assert str(exc.value) == message


def test_column_kind_requires_reason_for_rejection():
    with pytest.raises(ValueError):
        ColumnKind("rejected")
    assert ColumnKind.rejected("url").reason == "url"


@pytest.mark.parametrize("column, doc", [
    (ColumnMeta("x", ColumnKind.numerical()), {"name": "x", "kind": "numerical", "categories": []}),
    (ColumnMeta("g", ColumnKind.categorical(), ("b", "a")),
     {"name": "g", "kind": "categorical", "categories": ["b", "a"]}),
    (ColumnMeta("u", ColumnKind.rejected("url")),
     {"name": "u", "kind": "rejected", "categories": [], "reason": "url"}),
], ids=["numerical", "categorical", "rejected"])
def test_column_meta_round_trips_through_json(column, doc):
    assert column.to_dict() == doc
    assert ColumnMeta.from_dict(json.loads(json.dumps(doc))) == column
