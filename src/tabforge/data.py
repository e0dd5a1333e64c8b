"""Table representation, CSV ingestion, schema inference, corpus statistics.

A Table keeps cells as ``float`` (numeric), ``str`` (category label) or
``None`` (null).  Schema inference only distinguishes numerical vs
categorical vs rejected; anything fancier (timestamps, identities) is the
cleaning pipeline's job.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field

Cell = float | str | None

NUMERIC_PARSE_THRESHOLD = 0.95  # fraction of non-null cells that must parse
LONG_STRING_MEDIAN = 50
PATTERN_REJECT_FRACTION = 0.90

_URL_RE = re.compile(r"^(https?://|www\.)\S+$", re.IGNORECASE)
_PATH_RE = re.compile(r"^(?:[A-Za-z]:)?(?:\.{0,2})?[\\/]?(?:[\w\-. ]+[\\/])+[\w\-. ]*$")
_PHONE_RE = re.compile(r"^\+?[\d\s\-().]{7,}$")


class DataError(Exception):
    """Raised on malformed input data (unreadable files, ragged rows, ...).

    Every module's own error class subclasses it, so the CLI reports all of
    them with exit 2 without importing the modules that define them."""


class BudgetExhausted(DataError):
    """A wall-clock budget ran out; the CLI exits 3."""


def read_file(path, encoding: str | None = None) -> bytes | str:
    """The bytes of the file at `path`, or its text in `encoding`, newlines
    untranslated; a file that cannot be read or decoded is a DataError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data if encoding is None else data.decode(encoding)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def write_file(path, data: bytes | str) -> None:
    """Write `data` (text as UTF-8) to a new file beside `path`, then replace
    `path` with it; a failure is a DataError that leaves `path` as it was."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise DataError(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class ColumnKind:
    variant: str  # "numerical" | "categorical" | "rejected"
    reason: str = ""

    def __post_init__(self):
        if self.variant not in ("numerical", "categorical", "rejected"):
            raise ValueError(f"unknown column kind {self.variant!r}")
        if self.variant == "rejected" and not self.reason:
            raise ValueError("rejected kind requires a reason code")
        if self.variant != "rejected" and self.reason:
            raise ValueError("only rejected kinds carry a reason")

    @classmethod
    def numerical(cls) -> "ColumnKind":
        return cls("numerical")

    @classmethod
    def categorical(cls) -> "ColumnKind":
        return cls("categorical")

    @classmethod
    def rejected(cls, reason: str) -> "ColumnKind":
        return cls("rejected", reason)

    @property
    def is_numerical(self) -> bool:
        return self.variant == "numerical"

    @property
    def is_categorical(self) -> bool:
        return self.variant == "categorical"

    @property
    def is_rejected(self) -> bool:
        return self.variant == "rejected"


@dataclass(frozen=True)
class ColumnMeta:
    name: str
    kind: ColumnKind
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"column {self.name!r}: duplicate category labels")
        if self.kind.is_numerical and self.categories:
            raise ValueError(f"column {self.name!r}: numerical columns have no categories")

    def to_dict(self) -> dict:
        """The column as JSON: its name, kind and categories, and a rejected
        kind's reason."""
        doc = {"name": self.name, "kind": self.kind.variant, "categories": list(self.categories)}
        if self.kind.reason:
            doc["reason"] = self.kind.reason
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ColumnMeta":
        """The inverse of `to_dict`; older checkpoints also wrote an empty reason."""
        return cls(doc["name"], ColumnKind(doc["kind"], doc.get("reason", "")), tuple(doc.get("categories", ())))


@dataclass
class Table:
    name: str
    columns: list[ColumnMeta]
    rows: list[list[Cell]] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        names = [c.name for c in self.columns]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DataError(f"table {self.name!r}: column {name!r} appears more than once")
        ncols = len(self.columns)
        numeric = [c.kind.is_numerical for c in self.columns]
        labels = [set(c.categories) if c.kind.is_categorical else None for c in self.columns]
        for r, row in enumerate(self.rows):
            if len(row) != ncols:
                raise DataError(f"table {self.name!r}: row {r} has {len(row)} cells, expected {ncols}")
            for i, cell in enumerate(row):
                if cell is None:
                    continue
                if numeric[i]:
                    if not isinstance(cell, (int, float)) or not math.isfinite(cell):
                        raise DataError(f"table {self.name!r}: non-finite numeric cell at ({r},{i})")
                elif labels[i] is not None and cell not in labels[i]:
                    raise DataError(
                        f"table {self.name!r}: label {cell!r} not in categories of column "
                        f"{self.columns[i].name!r}"
                    )

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def column_values(self, index: int) -> list[Cell]:
        return [row[index] for row in self.rows]

    def numeric_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.kind.is_numerical]

    def categorical_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.kind.is_categorical]


def parse_number(text: str) -> float | None:
    """`text` as a finite float, or None when it is not one."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of an RFC-4180 CSV, each data cell
    stripped.  An unreadable or empty file, one without data rows and a
    ragged row are DataErrors."""
    text = io.StringIO(read_file(path, "utf-8-sig"), newline="")
    raw = [row for row in csv.reader(text) if row]
    if not raw:
        raise DataError(f"{path}: empty file")
    header, data = raw[0], raw[1:]
    if not data:
        raise DataError(f"{path}: no data rows")
    for r, row in enumerate(data):
        if len(row) != len(header):
            raise DataError(f"{path}: ragged row {r + 1} ({len(row)} cells, header has {len(header)})")
    return header, [[cell.strip() for cell in row] for row in data]


def ingest_csv(path, name: str, parse_threshold: float = NUMERIC_PARSE_THRESHOLD) -> Table:
    """Read an RFC-4180 CSV with a header row into a typed Table.

    Each column is typed by majority parse: numerical when at least
    `parse_threshold` (95% for a raw table) of its non-null cells parse as
    finite numbers (stragglers become null), categorical otherwise.  Empty
    strings are nulls.
    """
    header, data = read_csv(path)
    columns: list[ColumnMeta] = []
    typed_cols: list[list[Cell]] = []
    for i, col_name in enumerate(header):
        cells = [row[i] for row in data]
        non_null = [c for c in cells if c != ""]
        parsed = [parse_number(c) for c in non_null]
        ok = sum(1 for p in parsed if p is not None)
        numeric = bool(non_null) and ok >= parse_threshold * len(non_null)
        if numeric:
            values: list[Cell] = [None if c == "" else parse_number(c) for c in cells]
            columns.append(ColumnMeta(col_name, ColumnKind.numerical()))
        else:
            values = [None if c == "" else c for c in cells]
            categories = dict.fromkeys(v for v in values if v is not None)
            columns.append(ColumnMeta(col_name, ColumnKind.categorical(), tuple(categories)))
        typed_cols.append(values)

    rows = [[typed_cols[i][r] for i in range(len(header))] for r in range(len(data))]
    return Table(name=name, columns=columns, rows=rows)


def _looks_like_phone(value: str) -> bool:
    # The character-class match alone would accept punctuation-only strings.
    return bool(_PHONE_RE.match(value)) and sum(c.isdigit() for c in value) >= 7


def _pattern_reason(values: list[str]) -> str | None:
    lengths = sorted(len(v) for v in values)
    median = lengths[len(lengths) // 2]
    if median > LONG_STRING_MEDIAN:
        return "long_string"
    checks = (
        ("url", lambda v: bool(_URL_RE.match(v))),
        ("path", lambda v: bool(_PATH_RE.match(v))),
        ("phone", _looks_like_phone),
    )
    for reason, match in checks:
        hits = sum(1 for v in values if match(v))
        if hits >= PATTERN_REJECT_FRACTION * len(values):
            return reason
    return None


def infer_schema(table: Table) -> Table:
    """Finalize column kinds: keep numericals, reject long-string / URL /
    path / phone-like columns, enumerate categories in appearance order."""
    if table.n_rows == 0:
        raise DataError(f"table {table.name!r} is empty")
    new_columns: list[ColumnMeta] = []
    for i, col in enumerate(table.columns):
        if col.kind.is_numerical:
            new_columns.append(col)
            continue
        strings = [str(v) for v in table.column_values(i) if v is not None]
        reason = _pattern_reason(strings) if strings else "all_null"
        if reason is not None:
            new_columns.append(ColumnMeta(col.name, ColumnKind.rejected(reason)))
            continue
        new_columns.append(ColumnMeta(col.name, ColumnKind.categorical(), tuple(dict.fromkeys(strings))))
    return Table(name=table.name, columns=new_columns, rows=table.rows)

