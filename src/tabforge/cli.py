"""Command-line surface.

Every command takes `-c/--config FILE` plus trailing `--section.key=value`
overrides, and is re-runnable: identical config and seed give byte-identical
artifacts.  No command-line option names a config key, so each setting has
one knob: `split` reads `split.mode` and `sample` reads `seed` from the
config, while the method to train and the benchmark's worker count are
options only.  Work-dir layout: cleaned/, splits/, checkpoints/, samples/,
reports/.

Exit codes: 0 success, 1 usage, 2 data error, 3 budget exceeded.  Every
data error is a `DataError`.

Each command imports what it runs inside its own body, so a process loads
only the modules of the command it runs: `clean` and `report` never load
numpy, and `split` never loads the training stack.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from tabforge.config import ConfigError, config_hash, load_config
from tabforge.data import (
    ColumnKind,
    ColumnMeta,
    DataError,
    Table,
    infer_schema,
    ingest_csv,
    parse_number,
    read_csv,
)


def _write_json(path: Path, doc: dict, cfg) -> None:
    """`doc` and the run's provenance as sorted, indented JSON."""
    doc = {**doc, "_provenance": {"config": config_hash(cfg), "seed": cfg["seed"]}}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def _write_csv(path: Path, text: str, cfg) -> None:
    """CSV `text` under a comment line giving the run's provenance."""
    path.write_text(f"# config={config_hash(cfg)} seed={cfg['seed']}\n" + text, encoding="utf-8")


def write_table_csv(table: Table, path: Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([c.name for c in table.columns])
    for row in table.rows:
        out = []
        for cell, col in zip(row, table.columns):
            if cell is None:
                out.append("")
            elif col.kind.is_numerical:
                out.append(repr(float(cell)))
            else:
                out.append(str(cell))
        writer.writerow(out)
    path.write_text(buf.getvalue(), encoding="utf-8")


def load_clean_table(path: Path) -> Table:
    """A CSV that `clean` wrote.  A column is numerical only when every
    non-empty cell parses as a finite number, and no column is rejected:
    imputation can carry a column across the raw-table rules of
    `infer_schema`, which only `clean` applies."""
    return ingest_csv(path, Path(path).stem, parse_threshold=1.0)


def load_as_schema(path: Path, schema: list[ColumnMeta]) -> Table:
    """Read a CSV under an existing schema (synthetic data evaluation): a
    numerical column's cells must parse as finite numbers, a categorical
    column's cells keep their text, and empty cells are nulls.  A
    categorical column takes its own labels, in order of appearance."""
    header, data = read_csv(path)
    if header != [c.name for c in schema]:
        raise DataError(f"{path}: columns do not match the reference schema")
    rows = [[None if cell == "" else cell for cell in row] for row in data]
    cols = []
    for i, ref in enumerate(schema):
        if ref.kind.is_numerical:
            for row in rows:
                if row[i] is not None:
                    row[i] = parse_number(row[i])
                    if row[i] is None:
                        raise DataError(f"{path}: non-numeric cell in numeric column {ref.name!r}")
        else:
            labels = dict.fromkeys(row[i] for row in rows if row[i] is not None)
            ref = ColumnMeta(ref.name, ColumnKind.categorical(), tuple(labels))
        cols.append(ref)
    return Table(Path(path).stem, cols, rows)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every failure is a usage error (exit 1), as
    a bad config is, instead of argparse's exit 2, which means a data error
    here."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _existing(text: str) -> str:
    if not Path(text).exists():
        raise argparse.ArgumentTypeError(f"path {text!r} does not exist")
    return text


def _directory(text: str) -> str:
    """A path that is not a file; it need not exist yet."""
    if Path(text).is_file():
        raise argparse.ArgumentTypeError(f"{text!r} is a file, not a directory")
    return text


def _existing_directory(text: str) -> str:
    return _directory(_existing(text))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _row_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _method_path(text: str) -> tuple[str, Path]:
    method, eq, path = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expected METHOD=PATH, got {text!r}")
    return method, Path(path)


def _arg(*flags, **kwargs):
    """One `add_argument` call, spelled where its command is declared."""
    return flags, kwargs


class _Cli:
    """The `tabforge` command line: one subcommand per decorated function.

    Every command takes `-c/--config FILE` and trailing `--section.key=value`
    overrides besides its own arguments, and its function receives the
    config they load as `cfg`.  `commands` maps each name to an object whose
    `callback` runs the command; `main` reads it at call time, so a callback
    replaced after import (a tracing wrapper) is the one that runs.
    """

    def __init__(self, description: str):
        self.description = description
        self.commands: dict[str, SimpleNamespace] = {}

    def command(self, name: str, *arguments):
        def decorator(fn):
            self.commands[name] = SimpleNamespace(callback=fn, arguments=arguments, doc=fn.__doc__)
            return fn

        return decorator

    def parser(self) -> argparse.ArgumentParser:
        parser = _Parser(prog="tabforge", description=self.description, allow_abbrev=False)
        subparsers = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        for name, cmd in self.commands.items():
            sub = subparsers.add_parser(
                name,
                help=cmd.doc.splitlines()[0],
                description=cmd.doc,
                epilog="Trailing --section.key=value tokens override config keys.",
                allow_abbrev=False,
            )
            for flags, kwargs in cmd.arguments:
                sub.add_argument(*flags, **kwargs)
            sub.add_argument("-c", "--config", dest="config_path", type=_existing, metavar="FILE")
        return parser


cli = _Cli("Clean tables, split corpora, train generators, score synthetic data.")

_SPLIT = _arg("--split", dest="manifest_path", type=_existing, required=True, metavar="MANIFEST")
_CLEAN_DIR = _arg("--clean-dir", type=_existing_directory, required=True, metavar="DIR")
_METHOD = _arg("--method", required=True)
_OUT = _arg("--out", dest="out_path", required=True, metavar="PATH")
_CHECKPOINT = _arg("--checkpoint", dest="ckpt_path", type=_existing, required=True, metavar="CKPT")
_TABLE = _arg("--table", dest="table_path", type=_existing, required=True, metavar="CSV")


@cli.command(
    "clean",
    _arg("corpus_dir", type=_existing_directory, metavar="CORPUS_DIR"),
    _arg("out_dir", type=_directory, metavar="OUT_DIR"),
)
def clean(corpus_dir, out_dir, cfg):
    """Ingest, infer schemas, and clean every CSV under CORPUS_DIR."""
    from tabforge.cleaning import clean_table, cleaning_config

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ccfg = cleaning_config(cfg)
    files = sorted(Path(corpus_dir).glob("*.csv"))
    if not files:
        raise DataError(f"no CSV files under {corpus_dir}")
    kept, failed = [], 0
    for path in files:
        try:
            table = infer_schema(ingest_csv(path, path.stem))
            cleaned, report = clean_table(table, ccfg)
        except DataError as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            failed += 1
            continue
        _write_json(out / f"{path.stem}.report.json", report.to_dict(), cfg)
        if cleaned is None:
            print(f"discarded: {path.stem} ({report.verdict_reason})")
            continue
        write_table_csv(cleaned, out / f"{path.stem}.csv")
        kept.append(cleaned)
        print(f"cleaned: {path.stem} ({cleaned.n_rows}x{cleaned.n_cols})")
    stats = {
        "tables": len(kept),
        "discarded": len(files) - failed - len(kept),
        "failed": failed,
        "avg_columns": sum(t.n_cols for t in kept) / len(kept) if kept else 0.0,
        "avg_rows": sum(t.n_rows for t in kept) / len(kept) if kept else 0.0,
    }
    _write_json(out / "stats.json", stats, cfg)
    if failed == len(files):
        raise DataError("every input file failed")


@cli.command(
    "split",
    _arg("clean_dir", type=_existing_directory, metavar="CLEAN_DIR"),
    _OUT,
    _arg("--embeddings", dest="embeddings_path", type=_existing, default=None, metavar="FILE"),
)
def split(clean_dir, out_path, embeddings_path, cfg):
    """Emit a train/val/test split manifest for a cleaned corpus.

    Only the names of the cleaned CSVs are read, not their contents."""
    from tabforge.split import (
        domain_split,
        load_embedding_file,
        name_embedding,
        random_split,
        split_spec,
    )

    # In the order of the sorted paths, which the seeded shuffle depends on.
    names = [p.stem for p in sorted(Path(clean_dir).glob("*.csv"))]
    spec = split_spec(cfg)
    if spec.mode == "random":
        result = random_split(names, spec)
    else:
        if embeddings_path:
            emb = load_embedding_file(embeddings_path)
        else:
            dim = cfg["split"]["embedding_dim"]
            emb = {name: name_embedding(name, dim) for name in names}
        result = domain_split(names, emb, spec)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(result.to_json() + "\n", encoding="utf-8")
    print(
        f"split: train={len(result.train)} val={len(result.val)} test={len(result.test)}"
    )


def _load_manifest(path: str):
    """The split manifest at `path`; one that is not a manifest is a
    DataError naming the file."""
    from tabforge.split import DatasetSplit

    return DatasetSplit.from_json(Path(path).read_bytes(), path)


def _load_part(manifest, clean_dir: str, part: str) -> list[Table]:
    """The cleaned tables of a split manifest's `part`."""
    names = {"train": manifest.train, "val": manifest.val, "test": manifest.test}[part]
    tables = []
    for name in names:
        path = Path(clean_dir) / f"{name}.csv"
        if not path.exists():
            raise DataError(f"manifest references {name!r} but {path} is missing")
        tables.append(load_clean_table(path))
    return tables


def _save_run(ckpt, log, out_path, cfg) -> Path:
    """Save `ckpt` at `out_path` and its training log beside it, as
    `<stem>.log.csv` under the provenance line; returns the path."""
    from tabforge.checkpoint import save_checkpoint

    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt, out)
    _write_csv(out.with_suffix(".log.csv"), log.to_csv(), cfg)
    return out


@cli.command("pretrain", _SPLIT, _CLEAN_DIR, _METHOD, _OUT)
def pretrain_cmd(manifest_path, clean_dir, method, out_path, cfg):
    """Pretrain a model body across the manifest's training tables.

    A spent wall-clock budget exits 3: after writing the checkpoint and log
    of the completed iterations, or with nothing written if none completed.
    """
    from tabforge.training import BudgetExhausted, pretrain, train_config

    manifest = _load_manifest(manifest_path)
    corpus = _load_part(manifest, clean_dir, "train")
    tcfg = train_config(cfg, method)
    try:
        ckpt, log = pretrain(corpus, tcfg)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    out = _save_run(ckpt, log, out_path, cfg)
    print(f"pretrained {method} on {len(corpus)} tables -> {out}")
    if log.stop_reason == "budget":
        print(
            f"error: wall-clock budget of {tcfg.wall_clock_budget:g} s exhausted after "
            f"{len(log.entries)} of {tcfg.iterations} pretraining iterations",
            file=sys.stderr,
        )
        sys.exit(3)


def _single_table_cmd(action, table_path, base, method, out_path, cfg):
    """Train on one table from `base` (None: from scratch) and save it."""
    from tabforge.training import finetune, train_config

    table = load_clean_table(Path(table_path))
    ckpt, log = finetune(base, table, train_config(cfg, method))
    out = _save_run(ckpt, log, out_path, cfg)
    print(f"{action} {method} on {table.name} -> {out} (best epoch {log.best_epoch})")


@cli.command("finetune", _CHECKPOINT, _TABLE, _OUT)
def finetune_cmd(ckpt_path, table_path, out_path, cfg):
    """Fine-tune a pretrained body on one cleaned table with the checkpoint's own method."""
    from tabforge.checkpoint import load_checkpoint

    base = load_checkpoint(ckpt_path)
    _single_table_cmd("finetune", table_path, base, base.kind, out_path, cfg)


@cli.command("train-scratch", _TABLE, _METHOD, _OUT)
def train_scratch_cmd(table_path, method, out_path, cfg):
    """Train a fresh model on one cleaned table."""
    _single_table_cmd("scratch", table_path, None, method, out_path, cfg)


@cli.command(
    "sample",
    _CHECKPOINT,
    _arg("--rows", type=_row_count, required=True),
    _OUT,
)
def sample_cmd(ckpt_path, rows, out_path, cfg):
    """Decode synthetic rows from a trained checkpoint into a CSV."""
    from tabforge.checkpoint import load_checkpoint
    from tabforge.training import sample_from_checkpoint

    ckpt = load_checkpoint(ckpt_path)
    out = Path(out_path)
    table = sample_from_checkpoint(ckpt, rows, cfg["seed"], out.stem)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table_csv(table, out)
    print(f"sampled {table.n_rows} rows -> {out}")


@cli.command(
    "evaluate",
    _arg("--real", dest="real_path", type=_existing, required=True, metavar="CSV"),
    _arg("--synthetic", dest="syn_path", type=_existing, required=True, metavar="CSV"),
    _OUT,
    _arg("--histograms", dest="hist_path", default=None, metavar="PATH"),
)
def evaluate_cmd(real_path, syn_path, out_path, hist_path, cfg):
    """Score a synthetic CSV against its real source table."""
    from tabforge.metrics import column_histogram, table_report

    real = load_clean_table(Path(real_path))
    syn = load_as_schema(Path(syn_path), list(real.columns))
    report = table_report(real, syn)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, report.to_dict(), cfg)
    if hist_path:
        hists = {}
        for i, col in enumerate(real.columns):
            if col.kind.is_numerical:
                hists[col.name] = column_histogram(
                    [r[i] for r in real.rows], [r[i] for r in syn.rows]
                )
        hist = Path(hist_path)
        hist.parent.mkdir(parents=True, exist_ok=True)
        hist.write_text(json.dumps(hists, indent=2, sort_keys=True), encoding="utf-8")
    print(
        f"shape={report.s_shape:.4f} trend={report.s_trend:.4f} overall={report.s_overall:.4f}"
    )


def _benchmark_one(args):
    """(table × method) task: finetune + scratch, sample, score."""
    # Imported here, not at module level: process-pool workers call this.
    from tabforge.checkpoint import load_checkpoint_bytes
    from tabforge.metrics import TableReport, table_report
    from tabforge.training import finetune, sample_from_checkpoint, train_config

    table, method, ckpt_blob, cfg = args
    tcfg = train_config(cfg, method)
    base = load_checkpoint_bytes(ckpt_blob)
    results = {}
    logs = {}
    checkpoints = {}
    for regime, start in (("finetuned", base), ("scratch", None)):
        ckpt, log = finetune(start, table, tcfg)
        syn = sample_from_checkpoint(ckpt, table.n_rows, tcfg.seed, table.name)
        if syn.n_rows == 0:
            # Nothing parseable came out (possible for the text model); score
            # the regime zero instead of aborting the whole grid.
            results[regime] = TableReport(table.name, {}, {}, 0.0, 0.0, 0.0, 0, False)
        else:
            results[regime] = table_report(table, syn)
        logs[regime] = log
        checkpoints[regime] = ckpt
    return table.name, results, logs, checkpoints


@cli.command(
    "benchmark",
    _SPLIT,
    _CLEAN_DIR,
    _arg("--method", dest="methods", action="append", required=True, metavar="METHOD"),
    _arg("--pretrained", dest="pretrained", type=_method_path, action="append", required=True,
         metavar="METHOD=PATH", help="a pretrained checkpoint, one per --method"),
    _arg("--part", choices=["val", "test"], default="test"),
    _arg("--out-dir", type=_directory, required=True, metavar="DIR"),
    _arg("--workers", type=_positive_int, default=1),
)
def benchmark_cmd(manifest_path, clean_dir, methods, pretrained, part, out_dir, workers, cfg):
    """Finetune-vs-scratch grid over a split part; emits the leaderboard."""
    from tabforge.checkpoint import CheckpointError, save_checkpoint
    from tabforge.leaderboard import build_leaderboard

    manifest = _load_manifest(manifest_path)
    tables = _load_part(manifest, clean_dir, part)
    if not tables:
        raise DataError(f"no tables in part {part!r}")
    ckpt_by_method = dict(pretrained)
    for i, m in enumerate(methods):
        if m in methods[:i]:
            raise DataError(f"--method {m!r} given more than once")
        if m not in ckpt_by_method:
            raise CheckpointError(f"missing pretrained checkpoint for method {m!r}")
        if not ckpt_by_method[m].exists():
            raise CheckpointError(f"checkpoint {ckpt_by_method[m]} does not exist")

    out = Path(out_dir)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(parents=True, exist_ok=True)

    tasks = []
    for method in methods:
        blob = ckpt_by_method[method].read_bytes()
        for table in tables:
            tasks.append((table, method, blob, cfg))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_benchmark_one, tasks))
    else:
        raw = [_benchmark_one(t) for t in tasks]

    split_name = f"{manifest.provenance.mode}-{part}"
    keyed: dict[tuple[str, str, str], list] = {}
    # pool.map preserves task order, so outputs stay deterministic.
    for (_, method, _, _), (name, results, logs, ckpts) in zip(tasks, raw):
        for regime, report in results.items():
            keyed.setdefault((split_name, method, regime), []).append(report)
            _write_json(out / "reports" / f"{name}.{method}.{regime}.json", report.to_dict(), cfg)
            _write_csv(out / "logs" / f"{name}.{method}.{regime}.csv", logs[regime].to_csv(), cfg)
            save_checkpoint(ckpts[regime], out / "checkpoints" / f"{name}.{method}.{regime}.ckpt")

    board = build_leaderboard(keyed)
    _write_csv(out / "leaderboard.csv", board.to_csv(), cfg)
    print(board.render())


def _read_report(path: Path) -> tuple:
    """A `<table>.<method>.<regime>.json` report as its key and TableReport;
    a file that is not one is a DataError naming it."""
    from tabforge.leaderboard import MetricError, TableReport

    key = tuple(path.stem.rsplit(".", 2))
    if len(key) != 3:
        raise DataError(f"{path}: a report is named <table>.<method>.<regime>.json")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: not a benchmark report: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a benchmark report: not a JSON object")
    try:
        return key, TableReport(**{k: v for k, v in doc.items() if k != "_provenance"})
    except (TypeError, MetricError) as exc:  # missing, unknown or ill-typed fields
        raise DataError(f"{path}: not a benchmark report: {exc}") from None


@cli.command(
    "report",
    _arg("--bench-dir", type=_existing_directory, required=True, metavar="DIR"),
    _arg("--out-dir", type=_directory, required=True, metavar="DIR"),
)
def report_cmd(bench_dir, out_dir, cfg):
    """Render leaderboard text and per-column/per-pair score deltas."""
    from tabforge.leaderboard import build_leaderboard

    bench = Path(bench_dir)
    reports_dir = bench / "reports"
    if not reports_dir.exists():
        raise DataError(f"{bench_dir} has no reports/ directory")
    loaded = dict(_read_report(path) for path in sorted(reports_dir.glob("*.json")))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deltas = {}
    for (table, method, regime), report in loaded.items():
        if regime != "finetuned":
            continue
        scratch = loaded.get((table, method, "scratch"))
        if scratch is None:
            continue
        deltas[f"{table}.{method}"] = {
            "shape": {
                col: report.shape_scores[col] - scratch.shape_scores.get(col, 0.0)
                for col in report.shape_scores
            },
            "trend": {
                pair: report.trend_scores[pair] - scratch.trend_scores.get(pair, 0.0)
                for pair in report.trend_scores
            },
        }
    (out / "deltas.json").write_text(json.dumps(deltas, indent=2, sort_keys=True), encoding="utf-8")

    keyed: dict[tuple[str, str, str], list] = {}
    for (_, method, regime), report in loaded.items():
        keyed.setdefault(("bench", method, regime), []).append(report)
    board = build_leaderboard(keyed)
    _write_csv(out / "leaderboard.csv", board.to_csv(), cfg)
    (out / "leaderboard.txt").write_text(board.render(), encoding="utf-8")
    print(board.render())


def main():
    """Parse `sys.argv` and run its command.  The tokens the parser does not
    know are the config overrides, which `load_config` checks."""
    try:
        params, overrides = cli.parser().parse_known_args()
        params = vars(params)
        cmd = cli.commands[params.pop("command")]
        cfg = load_config(params.pop("config_path"), overrides)
        cmd.callback(**params, cfg=cfg)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        sys.exit(1)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
