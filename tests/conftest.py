import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tabforge.cli import main
from tabforge.config import load_config
from tabforge.training import train_config

sys.path.insert(0, str(Path(__file__).parent))


def run_config(kind: str, *overrides: str, **fields):
    """The TrainConfig a `kind` run builds, as the CLI builds it:
    `train_config` over `load_config` with `--section.key=value` overrides.
    `fields` replace what no config key reaches, such as `hidden`: a
    TrainConfig field, or for `ctgan`, `vae` and `great` a dict of the
    sub-config's fields."""
    cfg = train_config(load_config(overrides=list(overrides)), kind)
    for name in ("ctgan", "vae", "great"):
        if name in fields:
            fields[name] = replace(getattr(cfg, name), **fields[name])
    return replace(cfg, **fields)


def write_csv(directory: Path, name: str, header: list[str], rows: list[list]) -> Path:
    path = directory / f"{name}.csv"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if c is None else str(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_toy_corpus(directory: Path, n_good: int = 4, rows: int = 30, seed: int = 0) -> Path:
    """n_good trainable tables plus two that the cleaner must discard."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for t in range(n_good):
        data = []
        for i in range(rows):
            x = rng.normal(t, 1.0)
            y = rng.normal(-t, 2.0)
            g = ["red", "green", "blue"][int(rng.integers(3))]
            data.append([f"{x:.4f}", f"{y:.4f}", g])
        write_csv(directory, f"table{t}", ["x", "y", "color"], data)
    # All columns are identities: discarded for too many dropped columns.
    write_csv(
        directory,
        "all_ids",
        ["user_id", "item_id"],
        [[i + 1, 100 + i] for i in range(rows)],
    )
    # Only one column survives: discarded for too few columns.
    write_csv(
        directory,
        "too_thin",
        ["session_id", "value"],
        [[i + 1, f"{rng.normal():.3f}"] for i in range(rows)],
    )
    return directory


@pytest.fixture
def toy_corpus(tmp_path):
    return make_toy_corpus(tmp_path / "corpus")


@pytest.fixture
def cli_run(monkeypatch, capsys):
    """`cli_run(args, code=0)` runs `tabforge ARGS` in this process through
    `cli.main()`, as the console script does, checks that it exits with
    `code` and returns what it printed (`.out` and `.err`)."""

    def run(args, code=0):
        monkeypatch.setattr("sys.argv", ["tabforge", *args])
        capsys.readouterr()
        try:
            main()
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code
        captured = capsys.readouterr()
        assert exit_code == code, captured.err
        return captured

    return run
