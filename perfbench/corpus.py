"""Seeded raw-CSV corpora for the benchmark workloads.

The same (shape, seed) always writes the same bytes.  Every seed gives the
same table count, row count and column layout, so run-to-run differences in
cost come from the values alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CorpusShape:
    """How many tables to write and what each one holds.

    `kind="mixed"`: a contiguous `row_id` (cleaning drops it as an identity
    column), `numeric` float columns whose values come from 2, 3, 1, 2, ...
    true Gaussian modes by position, and `categorical` columns of 2 to 4
    labels, the first tied to the mode of the first numeric column so trends
    are non-trivial.
    About 1% of the first numeric column is blank, so cleaning imputes.

    `kind="text"`: two columns for the text model, a small integer `n` and
    a two-level `ok` label that mostly follows `n`.
    """

    kind: str
    tables: int
    rows: int
    numeric: int = 0
    categorical: int = 0


_MODE_CENTRES = {1: np.array([0.0]), 2: np.array([-3.0, 3.0]), 3: np.array([-6.0, 0.0, 6.0])}


def write_corpus(shape: CorpusShape, seed: int, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for t in range(shape.tables):
        rng = np.random.default_rng([seed, t])
        if shape.kind == "mixed":
            header, rows = _mixed_table(shape, rng)
        elif shape.kind == "text":
            header, rows = _text_table(shape, rng)
        else:
            raise ValueError(f"unknown corpus kind {shape.kind!r}")
        path = out_dir / f"t{t:02d}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)
    return paths


def _mixed_table(shape: CorpusShape, rng: np.random.Generator):
    n = shape.rows
    header = ["row_id"]
    cols: list[list[str]] = [[str(i + 1) for i in range(n)]]
    first_modes = None
    for c in range(shape.numeric):
        # Every table and seed has the same modes per column position, laid
        # out the same way up to shift and scale, so GMM fitting and model
        # quality vary little from seed to seed; only the values move.
        k = 1 + (c + 1) % 3
        scale, offset = rng.uniform(0.5, 5.0), rng.uniform(-50.0, 50.0)
        centres = offset + scale * _MODE_CENTRES[k]
        spreads = scale * rng.uniform(0.8, 1.2, size=k)
        weights = rng.dirichlet(np.full(k, 20.0))
        modes = rng.choice(k, size=n, p=weights)
        values = rng.normal(centres[modes], spreads[modes])
        cells = [f"{v:.4f}" for v in values]
        if c == 0:
            first_modes = modes
            for i in rng.choice(n, size=max(1, n // 100), replace=False):
                cells[i] = ""
        header.append(f"x{c}")
        cols.append(cells)
    for c in range(shape.categorical):
        labels = [f"{chr(ord('a') + c)}{j}" for j in range(2 + c % 3)]
        picks = rng.integers(len(labels), size=n)
        if c == 0 and first_modes is not None:
            follow = rng.random(n) < 0.7
            picks = np.where(follow, first_modes % len(labels), picks)
        header.append(f"c{c}")
        cols.append([labels[p] for p in picks])
    return header, [list(r) for r in zip(*cols)]


def _text_table(shape: CorpusShape, rng: np.random.Generator):
    # More rows than the 21 possible values of `n`, so it always repeats and
    # cleaning never mistakes it for an identity column.
    n = rng.integers(0, 21, size=shape.rows)
    agree = rng.random(shape.rows) < 0.8
    ok = np.where((n >= 10) == agree, "yes", "no")
    return ["n", "ok"], [[str(int(a)), str(b)] for a, b in zip(n, ok)]
