"""Automated table cleaning: identity/timestamp removal, sparse-categorical
pruning, imputation, and table-level rejection.

Rules run in a fixed order per column (schema rejection, identity,
timestamp, categorical sparsity, imputation) and the report records which
rule removed each column, so a cleaning decision is always reconstructible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from tabforge.data import Cell, ColumnMeta, DataError, Table

_ID_NAME_RE = re.compile(r"(^|_)id$", re.IGNORECASE)
_TS_NAME_RE = re.compile(r"date|time|stamp", re.IGNORECASE)
_DATE_PATTERNS = (
    re.compile(r"^\d{4}-\d{2}-\d{2}$"),                                  # ISO date
    re.compile(r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(:\d{2})?(\.\d+)?Z?$"),  # ISO datetime
    re.compile(r"^\d{1,2}/\d{1,2}/\d{4}$"),                              # MM/DD/YYYY
    re.compile(r"^\d{1,2}-\d{1,2}-\d{4}$"),                              # DD-MM-YYYY
)
_EPOCH_RANGE = (1e8, 2e10)
_TS_MATCH_FRACTION = 0.90


@dataclass(frozen=True)
class CleaningConfig:
    category_uniqueness_max: float
    min_avg_category_freq: float
    max_null_fraction: float
    max_rejected_column_fraction: float
    min_columns: int
    min_rows: int

    def __post_init__(self):
        for name in (
            "category_uniqueness_max",
            "min_avg_category_freq",
            "max_null_fraction",
            "max_rejected_column_fraction",
        ):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise DataError(f"{name} must be in (0, 1], got {v}")


def cleaning_config(cfg: dict) -> CleaningConfig:
    return CleaningConfig(**cfg["cleaning"])


@dataclass
class CleaningReport:
    table: str
    columns: dict[str, dict] = field(default_factory=dict)  # name -> {action, reason?, imputed?}
    verdict: str = "kept"  # "kept" | "discarded"
    verdict_reason: str = ""

    def kept(self, name: str, imputed: int = 0) -> None:
        entry: dict = {"action": "imputed", "count": imputed} if imputed else {"action": "kept"}
        self.columns[name] = entry

    def dropped(self, name: str, reason: str) -> None:
        self.columns[name] = {"action": "dropped", "reason": reason}

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "columns": self.columns,
            "verdict": self.verdict,
            "verdict_reason": self.verdict_reason,
        }


def detect_identity(column: ColumnMeta, cells: list[Cell]) -> bool:
    """Identity column: all non-null values distinct AND (id-like name or a
    contiguous integer run).  Distinctness alone is not enough: distinct
    floats are common in measurements."""
    non_null = [c for c in cells if c is not None]
    if not non_null:
        return False
    if len(set(non_null)) != len(non_null):
        return False
    if _ID_NAME_RE.search(column.name):
        return True
    if column.kind.is_numerical:
        ints = []
        for v in non_null:
            if float(v).is_integer():
                ints.append(int(v))
            else:
                return False
        ints.sort()
        return ints == list(range(ints[0], ints[0] + len(ints)))
    return False


def detect_timestamp(column: ColumnMeta, cells: list[Cell]) -> bool:
    """Timestamp column: >= 90% of non-null cells match a date/time pattern,
    or epoch-second-sized integers under a date/time-ish column name."""
    non_null = [c for c in cells if c is not None]
    if not non_null:
        return False
    if column.kind.is_numerical:
        if not _TS_NAME_RE.search(column.name):
            return False
        hits = sum(
            1
            for v in non_null
            if float(v).is_integer() and _EPOCH_RANGE[0] <= float(v) <= _EPOCH_RANGE[1]
        )
    else:
        hits = sum(1 for v in non_null if any(p.match(str(v)) for p in _DATE_PATTERNS))
    return hits >= _TS_MATCH_FRACTION * len(non_null)


def categorical_sparsity_check(column: ColumnMeta, cells: list[Cell], config: CleaningConfig) -> bool:
    """Keep/drop decision for a categorical column.

    Drop when the number of categories exceeds the uniqueness threshold
    relative to non-null rows, or when the average per-category frequency
    (as a fraction of non-null rows) falls below the minimum.
    """
    if not column.kind.is_categorical:
        raise ValueError("sparsity check applies to categorical columns")
    non_null = [c for c in cells if c is not None]
    if not non_null:
        return False
    n_cats = len(column.categories)
    if n_cats == 0:
        return False
    if n_cats / len(non_null) > config.category_uniqueness_max:
        return False
    counts: dict[str, int] = {}
    for v in non_null:
        counts[v] = counts.get(v, 0) + 1
    avg_freq = sum(counts.values()) / n_cats / len(non_null)
    return avg_freq >= config.min_avg_category_freq


def impute_column(column: ColumnMeta, cells: list[Cell], config: CleaningConfig):
    """Fill nulls (numeric mean / modal category) or drop the column when too
    sparse.  Returns (new_meta, new_cells, imputed_count) or (None, reason,
    0) when dropped."""
    non_null = [c for c in cells if c is not None]
    if not non_null:
        return None, "all_null", 0
    null_count = len(cells) - len(non_null)
    if null_count / len(cells) > config.max_null_fraction:
        return None, "too_many_nulls", 0
    if null_count == 0:
        return column, list(cells), 0
    if column.kind.is_numerical:
        fill: Cell = math.fsum(non_null) / len(non_null)
    else:
        counts = {cat: 0 for cat in column.categories}
        for v in non_null:
            counts[v] += 1
        # Ties break to the first category in appearance order.
        fill = max(column.categories, key=lambda cat: counts[cat])
        if counts[fill] == 0:
            return None, "all_null", 0
    return column, [fill if c is None else c for c in cells], null_count


def clean_table(table: Table, config: CleaningConfig):
    """Run the full per-column rule chain and the table-level verdict.

    Returns (cleaned Table | None, CleaningReport); a None table means the
    verdict is "discarded" (too many dropped columns or too small to train).
    """
    report = CleaningReport(table=table.name)
    kept_meta: list[ColumnMeta] = []
    kept_cells: list[list[Cell]] = []

    for i, col in enumerate(table.columns):
        cells = table.column_values(i)
        if col.kind.is_rejected:
            report.dropped(col.name, f"schema:{col.kind.reason}")
            continue
        if detect_identity(col, cells):
            report.dropped(col.name, "identity")
            continue
        if detect_timestamp(col, cells):
            report.dropped(col.name, "timestamp")
            continue
        if col.kind.is_categorical and not categorical_sparsity_check(col, cells, config):
            report.dropped(col.name, "sparse_categories")
            continue
        meta, cells_or_reason, imputed = impute_column(col, cells, config)
        if meta is None:
            report.dropped(col.name, cells_or_reason)
            continue
        # Categories may shrink after imputation only in pathological cases;
        # re-enumerate to keep Table invariants tight.
        if meta.kind.is_categorical:
            seen = set(cells_or_reason)
            present = [cat for cat in meta.categories if cat in seen]
            meta = ColumnMeta(meta.name, meta.kind, tuple(present))
        report.kept(col.name, imputed)
        kept_meta.append(meta)
        kept_cells.append(cells_or_reason)

    dropped = table.n_cols - len(kept_meta)
    if table.n_cols and dropped / table.n_cols > config.max_rejected_column_fraction:
        report.verdict = "discarded"
        report.verdict_reason = "too_many_dropped_columns"
        return None, report
    if len(kept_meta) < config.min_columns:
        report.verdict = "discarded"
        report.verdict_reason = "too_few_columns"
        return None, report
    if table.n_rows < config.min_rows:
        report.verdict = "discarded"
        report.verdict_reason = "too_few_rows"
        return None, report

    rows = [[kept_cells[c][r] for c in range(len(kept_meta))] for r in range(table.n_rows)]
    return Table(name=table.name, columns=kept_meta, rows=rows), report
