"""Textual row serialization for the autoregressive path.

A row becomes `name is value and name is value and ...`.  Names or values
that contain the structural separators (" is ", " and "), end in " is" or
" and", or contain a double quote are wrapped in double quotes with
backslash escaping, so parsing is exact.
Numeric values render with up to 6 significant digits (documented lossy
beyond ~1e-6 relative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tabforge.data import Cell, ColumnMeta

_SEPARATORS = (" is ", " and ")


@dataclass(frozen=True)
class ParseFailure:
    reason: str
    detail: str = ""


def _format_number(value: float) -> str:
    text = f"{value:.6g}"
    return text


def _needs_quoting(text: str) -> bool:
    # A name is followed by " is " and a value by " and ", so a text ending
    # in " is" or " and" would complete a separator across its own end.
    padded = text + " "
    return any(sep in padded for sep in _SEPARATORS) or '"' in text or text == "" or text != text.strip()


def _quote(text: str) -> str:
    if not _needs_quoting(text):
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _split_top_level(sentence: str, sep: str) -> list[str]:
    """Split on `sep` outside double-quoted regions."""
    parts: list[str] = []
    buf: list[str] = []
    i = 0
    in_quotes = False
    while i < len(sentence):
        ch = sentence[i]
        if ch == "\\" and in_quotes and i + 1 < len(sentence):
            buf.append(sentence[i : i + 2])
            i += 2
            continue
        if ch == '"':
            in_quotes = not in_quotes
            buf.append(ch)
            i += 1
            continue
        if not in_quotes and sentence.startswith(sep, i):
            parts.append("".join(buf))
            buf = []
            i += len(sep)
            continue
        buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return parts


def _unquote(token: str) -> str | None:
    token = token.strip()
    if not token.startswith('"'):
        return token
    if len(token) < 2 or not token.endswith('"'):
        return None
    body = token[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append(body[i + 1])
            i += 2
            continue
        if ch == '"':
            return None  # unescaped quote inside a quoted token
        out.append(ch)
        i += 1
    return "".join(out)


def serialize_row_text(
    schema: list[ColumnMeta],
    row: list[Cell],
    permute: bool = False,
    rng: np.random.Generator | None = None,
) -> str:
    """Render one row as `name is value` clauses joined by ` and `."""
    if len(row) != len(schema):
        raise ValueError(f"row has {len(row)} cells, schema has {len(schema)}")
    clauses = []
    for col, cell in zip(schema, row):
        if cell is None:
            raise ValueError(f"null cell in column {col.name!r}; clean the table first")
        if col.kind.is_numerical:
            value = _format_number(float(cell))
        else:
            value = _quote(str(cell))
        clauses.append(f"{_quote(col.name)} is {value}")
    if permute:
        if rng is None:
            raise ValueError("permute=True needs an rng")
        order = rng.permutation(len(clauses))
        clauses = [clauses[i] for i in order]
    return " and ".join(clauses)


def parse_row_text(schema: list[ColumnMeta], sentence: str):
    """Parse a serialized sentence back into a row (clause order irrelevant).

    Returns the row on success, else a ParseFailure naming what went wrong;
    it never raises, so generation loops can retry cheaply.
    """
    by_name = {col.name: (i, col) for i, col in enumerate(schema)}
    cells: dict[int, Cell] = {}
    for clause in _split_top_level(sentence.strip(), " and "):
        halves = _split_top_level(clause, " is ")
        if len(halves) != 2:
            return ParseFailure("malformed_clause", clause)
        raw_name, raw_value = halves
        name = _unquote(raw_name)
        if name is None:
            return ParseFailure("bad_quoting", raw_name)
        if name not in by_name:
            return ParseFailure("unknown_column", name)
        idx, col = by_name[name]
        if idx in cells:
            return ParseFailure("duplicate_column", name)
        if col.kind.is_numerical:
            try:
                value = float(raw_value.strip())
            except ValueError:
                return ParseFailure("numeric_parse", raw_value)
            if not math.isfinite(value):
                return ParseFailure("numeric_parse", raw_value)
            cells[idx] = value
        else:
            label = _unquote(raw_value)
            if label is None:
                return ParseFailure("bad_quoting", raw_value)
            if label not in col.categories:
                return ParseFailure("unknown_category", label)
            cells[idx] = label
    if len(cells) != len(schema):
        missing = [c.name for i, c in enumerate(schema) if i not in cells]
        return ParseFailure("missing_columns", ",".join(missing))
    return [cells[i] for i in range(len(schema))]
