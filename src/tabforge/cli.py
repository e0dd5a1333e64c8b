"""Command-line surface.

Every command takes `-c/--config FILE` plus trailing `--section.key=value`
overrides, and is re-runnable: identical config and seed give byte-identical
artifacts.  No command-line option names a config key, so each setting has
one knob: `split` reads `split.mode` and `sample` reads `seed` from the
config, while the method to train and the benchmark's worker count are
options only.  argparse types check every path argument but `-c`, which
`load_config` reads, before a command runs; `data.read_file` and
`data.write_file` read and write every other file, the latter atomically.

Exit codes: 0 success, 1 usage, 2 data error, 3 budget exceeded.  Every
data error is a `DataError`, and an exceeded budget a `BudgetExhausted`;
`main` alone turns them into exit codes.

Each command imports what it runs inside its own body, so a process loads
only the modules of the command it runs: `clean` and `report` never load
numpy, and `split` never loads the training stack.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from tabforge.config import ConfigError, config_hash, load_config
from tabforge.data import (
    BudgetExhausted,
    ColumnKind,
    ColumnMeta,
    DataError,
    Table,
    infer_schema,
    ingest_csv,
    parse_number,
    read_csv,
    read_file,
    write_file,
)

# One BLAS thread, set before any command imports numpy: a product split over
# threads sums in another order, so artifacts would depend on the core count.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

def _write_json(path: Path, doc: dict, cfg, **provenance) -> None:
    """`doc` as sorted, indented JSON, under a `_provenance` of the config
    hash, the seed and any `provenance` items."""
    doc = {**doc, "_provenance": {"config": config_hash(cfg), "seed": cfg["seed"], **provenance}}
    write_file(path, json.dumps(doc, indent=2, sort_keys=True))


def _write_csv(path: Path, text: str, cfg) -> None:
    """CSV `text` under a comment line giving the run's provenance."""
    write_file(path, f"# config={config_hash(cfg)} seed={cfg['seed']}\n" + text)


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
    write_file(path, buf.getvalue())


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


def _path(directory: bool, must_exist: bool, error=argparse.ArgumentTypeError):
    """A check for the path of a directory or file: existing, or creatable.
    It raises `error`, so by default it is an argparse type."""

    def check(text: str) -> str:
        path = Path(text)
        if must_exist and not path.exists():
            raise error(f"path {text!r} does not exist")
        if path.exists() and path.is_dir() != directory:
            raise error(f"{text!r} is a {'file' if directory else 'directory'}")
        if any(parent.is_file() for parent in path.parents):
            raise error(f"cannot create {text!r}: a parent is a file")
        return text

    return check


_IN_FILE = _path(directory=False, must_exist=True)
_IN_DIR = _path(directory=True, must_exist=True)
_OUT_FILE = _path(directory=False, must_exist=False)
_OUT_DIR = _path(directory=True, must_exist=False)


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


def _method_path(text: str) -> tuple[str, str]:
    """METHOD=PATH, PATH checked as an output is: a missing one is a data error when read."""
    method, eq, path = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expected METHOD=PATH, got {text!r}")
    return method, _OUT_FILE(path)


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
            sub.add_argument("-c", "--config", dest="config_path", metavar="FILE")
        return parser


cli = _Cli("Clean tables, split corpora, train generators, score synthetic data.")

_SPLIT = _arg("--split", dest="manifest_path", type=_IN_FILE, required=True, metavar="MANIFEST")
_CLEAN_DIR = _arg("--clean-dir", type=_IN_DIR, required=True, metavar="DIR")
_METHOD = _arg("--method", required=True)
_OUT = _arg("--out", dest="out_path", type=_OUT_FILE, required=True, metavar="PATH")
_CHECKPOINT = _arg("--checkpoint", dest="ckpt_path", type=_IN_FILE, required=True, metavar="CKPT")
_TABLE = _arg("--table", dest="table_path", type=_IN_FILE, required=True, metavar="CSV")


@cli.command(
    "clean",
    _arg("corpus_dir", type=_IN_DIR, metavar="CORPUS_DIR"),
    _arg("out_dir", type=_OUT_DIR, metavar="OUT_DIR"),
)
def clean(corpus_dir, out_dir, cfg):
    """Ingest, infer schemas, and clean every CSV under CORPUS_DIR."""
    from tabforge.cleaning import clean_table, cleaning_config

    out = Path(out_dir)
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
    _arg("clean_dir", type=_IN_DIR, metavar="CLEAN_DIR"),
    _OUT,
    _arg("--embeddings", dest="embeddings_path", type=_IN_FILE, default=None, metavar="FILE"),
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
    if not names:
        raise DataError(f"no CSV files under {clean_dir}")
    spec = split_spec(cfg)
    if spec.mode == "random":
        if embeddings_path:
            raise DataError("--embeddings is read only when split.mode is 'domain', not 'random'")
        result = random_split(names, spec)
    elif embeddings_path:
        result = domain_split(names, load_embedding_file(embeddings_path), spec, embeddings_path)
    else:
        dim = cfg["split"]["embedding_dim"]
        result = domain_split(names, {name: name_embedding(name, dim) for name in names}, spec)
    write_file(out_path, result.to_json() + "\n")
    print(
        f"split: train={len(result.train)} val={len(result.val)} test={len(result.test)}"
    )


def _load_part(manifest_path: str, clean_dir: str, part: str) -> tuple:
    """The split manifest at `manifest_path` and the cleaned tables of its
    `part`; a manifest that is not one is a DataError naming the file."""
    from tabforge.split import DatasetSplit

    manifest = DatasetSplit.from_json(read_file(manifest_path), manifest_path)
    return manifest, [load_clean_table(Path(clean_dir) / f"{name}.csv") for name in getattr(manifest, part)]


def _save_run(ckpt, log, out_path, cfg) -> None:
    """Save `ckpt` at `out_path` and its training log beside it, as
    `<stem>.log.csv` under the provenance line."""
    from tabforge.checkpoint import save_checkpoint

    save_checkpoint(ckpt, out_path)
    _write_csv(Path(out_path).with_suffix(".log.csv"), log.to_csv(), cfg)


@cli.command("pretrain", _SPLIT, _CLEAN_DIR, _METHOD, _OUT)
def pretrain_cmd(manifest_path, clean_dir, method, out_path, cfg):
    """Pretrain a model body across the manifest's training tables.

    A spent wall-clock budget exits 3: after writing the checkpoint and log
    of the completed iterations, or with nothing written if none completed.
    """
    from tabforge.training import pretrain, train_config

    _, corpus = _load_part(manifest_path, clean_dir, "train")
    tcfg = train_config(cfg, method)
    ckpt, log = pretrain(corpus, tcfg)
    _save_run(ckpt, log, out_path, cfg)
    print(f"pretrained {method} on {len(corpus)} tables -> {out_path}")
    if log.stop_reason == "budget":
        raise BudgetExhausted(
            f"wall-clock budget of {tcfg.wall_clock_budget:g} s exhausted after "
            f"{len(log.entries)} of {tcfg.iterations} pretraining iterations"
        )


def _single_table_cmd(action, table_path, base, method, out_path, cfg):
    """Train on one table from `base` (None: from scratch) and save it."""
    from tabforge.training import finetune, train_config

    table = load_clean_table(Path(table_path))
    ckpt, log = finetune(base, table, train_config(cfg, method))
    _save_run(ckpt, log, out_path, cfg)
    print(f"{action} {method} on {table.name} -> {out_path} (best epoch {log.best_epoch})")


@cli.command("finetune", _CHECKPOINT, _TABLE, _OUT)
def finetune_cmd(ckpt_path, table_path, out_path, cfg):
    """Fine-tune a pretrained body on one cleaned table with the checkpoint's own method."""
    from tabforge.checkpoint import load_checkpoint, naming

    base = load_checkpoint(ckpt_path)
    with naming(ckpt_path):  # an aux entry the run cannot read
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
    """Decode synthetic rows from a trained checkpoint into a CSV.

    A model that decodes fewer valid rows than asked writes those it has,
    says so on stderr and exits 0."""
    from tabforge.checkpoint import load_checkpoint, naming
    from tabforge.training import sample_from_checkpoint

    ckpt = load_checkpoint(ckpt_path)
    out = Path(out_path)
    with naming(ckpt_path):  # a header that no model rebuilds from
        table = sample_from_checkpoint(ckpt, rows, cfg["seed"], out.stem)
    write_table_csv(table, out)
    print(f"sampled {table.n_rows} rows -> {out}")
    if table.n_rows < rows:
        print(f"wrote {table.n_rows} of {rows} requested rows", file=sys.stderr)


@cli.command(
    "evaluate",
    _arg("--real", dest="real_path", type=_IN_FILE, required=True, metavar="CSV"),
    _arg("--synthetic", dest="syn_path", type=_IN_FILE, required=True, metavar="CSV"),
    _OUT,
    _arg("--histograms", dest="hist_path", type=_OUT_FILE, default=None, metavar="PATH"),
)
def evaluate_cmd(real_path, syn_path, out_path, hist_path, cfg):
    """Score a synthetic CSV against its real source table."""
    from tabforge.metrics import column_histogram, table_report

    real = load_clean_table(Path(real_path))
    syn = load_as_schema(Path(syn_path), list(real.columns))
    report = table_report(real, syn)
    _write_json(out_path, report.to_dict(), cfg)
    if hist_path:
        hists = {}
        for i, col in enumerate(real.columns):
            if col.kind.is_numerical:
                hists[col.name] = column_histogram(
                    [r[i] for r in real.rows], [r[i] for r in syn.rows]
                )
        write_file(hist_path, json.dumps(hists, indent=2, sort_keys=True))
    print(
        f"shape={report.s_shape:.4f} trend={report.s_trend:.4f} overall={report.s_overall:.4f}"
    )


def _benchmark_one(task):
    """One (table, method, regime) task: train from the base (None: scratch),
    sample the table's row count and score it; returns (report, log, ckpt)."""
    # Imported here, not at module level: process-pool workers call this.
    from tabforge.training import finetune, sample_from_checkpoint, score_synthetic

    table, _, _, start, tcfg = task
    ckpt, log = finetune(start, table, tcfg)
    syn = sample_from_checkpoint(ckpt, table.n_rows, tcfg.seed, table.name)
    return score_synthetic(table, syn), log, ckpt


@cli.command(
    "benchmark",
    _SPLIT,
    _CLEAN_DIR,
    _arg("--method", dest="methods", action="append", required=True, metavar="METHOD"),
    _arg("--pretrained", dest="pretrained", type=_method_path, action="append", required=True,
         metavar="METHOD=PATH", help="a pretrained checkpoint, one per --method"),
    _arg("--part", choices=["val", "test"], default="test"),
    _arg("--out-dir", type=_OUT_DIR, required=True, metavar="DIR"),
    _arg("--workers", type=_positive_int, default=1),
)
def benchmark_cmd(manifest_path, clean_dir, methods, pretrained, part, out_dir, workers, cfg):
    """Finetune-vs-scratch grid over a split part; emits the leaderboard.

    Each (table, method, regime) task's files are written as it finishes; a
    failed task ends the command with the earlier tasks' files and no leaderboard."""
    from tabforge.checkpoint import load_checkpoint, save_checkpoint
    from tabforge.leaderboard import build_leaderboard
    from tabforge.training import train_config

    manifest, tables = _load_part(manifest_path, clean_dir, part)
    if not tables:
        raise DataError(f"no tables in part {part!r}")
    named = [m for m, _ in pretrained]
    pairs = (("--method", methods, "--pretrained", named), ("--pretrained", named, "--method", methods))
    for flag, given, other, partners in pairs:
        for i, m in enumerate(given):
            if m in given[:i]:
                raise DataError(f"{flag} {m!r} given more than once")
            if m not in partners:
                raise DataError(f"{flag} {m!r} has no matching {other}")
    out = Path(out_dir)
    for sub in ("reports", "logs", "checkpoints"):  # before any training, as --out-dir was
        _path(directory=True, must_exist=False, error=DataError)(str(out / sub))
    # Every finetuned task starts from its method's base; finetune only reads it.
    bases = {m: load_checkpoint(path) for m, path in pretrained}
    tcfgs = {m: train_config(cfg, m) for m in methods}
    tasks = [(table, m, regime, start, tcfgs[m]) for m in methods for table in tables
             for regime, start in (("finetuned", bases[m]), ("scratch", None))]

    split_name = f"{manifest.provenance.mode}-{part}"
    keyed: dict[tuple[str, str, str], list] = {}
    with contextlib.ExitStack() as stack:
        run = map  # in this process, where a tracer sees every call
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        # Both maps yield in task order, so outputs stay deterministic.
        for (table, method, regime, _, _), (report, log, ckpt) in zip(tasks, run(_benchmark_one, tasks)):
            stem = f"{table.name}.{method}.{regime}"
            keyed.setdefault((split_name, method, regime), []).append(report)
            _write_json(out / "reports" / f"{stem}.json", report.to_dict(), cfg, split=split_name)
            _write_csv(out / "logs" / f"{stem}.csv", log.to_csv(), cfg)
            save_checkpoint(ckpt, out / "checkpoints" / f"{stem}.ckpt")

    board = build_leaderboard(keyed)
    _write_csv(out / "leaderboard.csv", board.to_csv(), cfg)
    print(board.render())


def _read_report(path: Path) -> tuple:
    """A `<table>.<method>.<regime>.json` report as its key, the split its
    provenance names and its TableReport; a file that is not one is a
    DataError naming it."""
    from tabforge.leaderboard import MetricError, TableReport

    key = tuple(path.stem.rsplit(".", 2))
    if len(key) != 3:
        raise DataError(f"{path}: a report is named <table>.<method>.<regime>.json")
    try:
        doc = json.loads(read_file(path, "utf-8"))
    except ValueError as exc:  # not JSON
        raise DataError(f"{path}: not a benchmark report: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a benchmark report: not a JSON object")
    try:
        report = TableReport(**{k: v for k, v in doc.items() if k != "_provenance"})
        return key, doc["_provenance"]["split"], report
    except (TypeError, KeyError, MetricError) as exc:  # missing, unknown or ill-typed fields
        raise DataError(f"{path}: not a benchmark report: {exc}") from None


@cli.command(
    "report",
    _arg("--bench-dir", type=_IN_DIR, required=True, metavar="DIR"),
    _arg("--out-dir", type=_OUT_DIR, required=True, metavar="DIR"),
)
def report_cmd(bench_dir, out_dir, cfg):
    """Render leaderboard text and per-column/per-pair score deltas."""
    from tabforge.leaderboard import build_leaderboard

    reports_dir = Path(bench_dir) / "reports"
    read = [_read_report(path) for path in sorted(reports_dir.glob("*.json"))]
    loaded = {key: report for key, _, report in read}
    if not loaded:
        raise DataError(f"no benchmark reports under {reports_dir}")

    out = Path(out_dir)
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
    write_file(out / "deltas.json", json.dumps(deltas, indent=2, sort_keys=True))

    keyed: dict[tuple[str, str, str], list] = {}
    for (_, method, regime), split, report in read:
        keyed.setdefault((split, method, regime), []).append(report)
    board = build_leaderboard(keyed)
    _write_csv(out / "leaderboard.csv", board.to_csv(), cfg)
    write_file(out / "leaderboard.txt", board.render())
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
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
