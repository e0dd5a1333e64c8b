"""Command-line surface.

Every command takes `-c/--config FILE` plus trailing `--section.key=value`
overrides, and is re-runnable: identical config and seed give byte-identical
artifacts.  Work-dir layout: cleaned/, splits/, checkpoints/, samples/,
reports/.

Exit codes: 0 success, 1 usage, 2 data error, 3 budget exceeded.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from tabforge.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tabforge.cleaning import clean_table
from tabforge.config import (
    ConfigError,
    cleaning_config,
    config_hash,
    load_config,
    split_spec,
    train_config,
)
from tabforge.data import (
    ColumnKind,
    ColumnMeta,
    DataError,
    Table,
    infer_schema,
    ingest_csv,
)
from tabforge.great.model import GreatError
from tabforge.metrics import (
    MetricError,
    TableReport,
    build_leaderboard,
    column_histogram,
    table_report,
)
from tabforge.models.ctgan import ModelError
from tabforge.split import (
    DatasetSplit,
    domain_split,
    load_embedding_file,
    name_embedding,
    random_split,
)
from tabforge.training import (
    TrainingError,
    finetune,
    pretrain,
    sample_from_checkpoint,
    train_scratch,
)
from tabforge.transform import TransformError

_DATA_ERRORS = (
    DataError,
    MetricError,
    TransformError,
    CheckpointError,
    TrainingError,
    ModelError,
    GreatError,
)

EXTRA = {"ignore_unknown_options": True}


def _cfg(config_path, overrides):
    return load_config(config_path, list(overrides))


def _provenance(cfg) -> dict:
    return {"config": config_hash(cfg), "seed": cfg["seed"]}


def _provenance_line(cfg) -> str:
    return f"# config={config_hash(cfg)} seed={cfg['seed']}\n"


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
    return infer_schema(ingest_csv(path, Path(path).stem))


def _union_categories(schema: list[ColumnMeta], rows: list[list]) -> list[ColumnMeta]:
    """`schema` with each non-numeric column made categorical over its
    categories plus the labels of `rows` it lacks, in order of appearance."""
    cols = []
    for i, ref in enumerate(schema):
        if not ref.kind.is_numerical:
            union = list(ref.categories)
            for row in rows:
                if row[i] is not None and row[i] not in union:
                    union.append(row[i])
            ref = ColumnMeta(ref.name, ColumnKind.categorical(), tuple(union))
        cols.append(ref)
    return cols


def load_as_schema(path: Path, schema: list[ColumnMeta]) -> Table:
    """Read a CSV under an existing schema (synthetic data evaluation)."""
    raw = ingest_csv(path, Path(path).stem)
    if [c.name for c in raw.columns] != [c.name for c in schema]:
        raise DataError(f"{path}: columns do not match the reference schema")
    rows = [list(r) for r in raw.rows]
    for i, ref in enumerate(schema):
        for row in rows:
            if ref.kind.is_numerical and isinstance(row[i], str):
                raise DataError(f"{path}: non-numeric cell in numeric column {ref.name!r}")
            if not ref.kind.is_numerical and row[i] is not None:
                row[i] = str(row[i])
    return Table(raw.name, _union_categories(schema, rows), rows)


@click.group()
def cli():
    """Clean tables, split corpora, train generators, score synthetic data."""


@cli.command(context_settings=EXTRA)
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def clean(corpus_dir, out_dir, config_path, overrides):
    """Ingest, infer schemas, and clean every CSV under CORPUS_DIR."""
    cfg = _cfg(config_path, overrides)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ccfg = cleaning_config(cfg)
    files = sorted(Path(corpus_dir).glob("*.csv"))
    if not files:
        raise DataError(f"no CSV files under {corpus_dir}")
    kept, failed = [], 0
    for path in files:
        try:
            table = load_clean_table(path)
            cleaned, report = clean_table(table, ccfg)
        except DataError as exc:
            click.echo(f"error: {path.name}: {exc}", err=True)
            failed += 1
            continue
        doc = report.to_dict()
        doc["_provenance"] = _provenance(cfg)
        (out / f"{path.stem}.report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8"
        )
        if cleaned is None:
            click.echo(f"discarded: {path.stem} ({report.verdict_reason})")
            continue
        write_table_csv(cleaned, out / f"{path.stem}.csv")
        kept.append(cleaned)
        click.echo(f"cleaned: {path.stem} ({cleaned.n_rows}x{cleaned.n_cols})")
    stats = {
        "tables": len(kept),
        "discarded": len(files) - failed - len(kept),
        "failed": failed,
        "avg_columns": float(np.mean([t.n_cols for t in kept])) if kept else 0.0,
        "avg_rows": float(np.mean([t.n_rows for t in kept])) if kept else 0.0,
        "_provenance": _provenance(cfg),
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True), encoding="utf-8")
    if failed == len(files):
        raise DataError("every input file failed")


@cli.command(context_settings=EXTRA)
@click.argument("clean_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--mode", type=click.Choice(["random", "domain"]), default=None)
@click.option("--embeddings", "embeddings_path", type=click.Path(exists=True), default=None)
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def split(clean_dir, out_path, mode, embeddings_path, config_path, overrides):
    """Emit a train/val/test split manifest for a cleaned corpus."""
    cfg = _cfg(config_path, overrides)
    if mode:
        cfg["split"]["mode"] = mode
    corpus = [load_clean_table(p) for p in sorted(Path(clean_dir).glob("*.csv"))]
    spec = split_spec(cfg)
    if spec.mode == "random":
        result = random_split(corpus, spec)
    else:
        if embeddings_path:
            emb = load_embedding_file(embeddings_path)
        else:
            dim = cfg["split"]["embedding_dim"]
            emb = {t.name: name_embedding(t.name, dim) for t in corpus}
        result = domain_split(corpus, emb, spec)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(result.to_json() + "\n", encoding="utf-8")
    click.echo(
        f"split: train={len(result.train)} val={len(result.val)} test={len(result.test)}"
    )


def _load_part(manifest: DatasetSplit, clean_dir: str, part: str) -> list[Table]:
    names = {"train": manifest.train, "val": manifest.val, "test": manifest.test}[part]
    tables = []
    for name in names:
        path = Path(clean_dir) / f"{name}.csv"
        if not path.exists():
            raise DataError(f"manifest references {name!r} but {path} is missing")
        tables.append(load_clean_table(path))
    return tables


@cli.command("pretrain", context_settings=EXTRA)
@click.option("--split", "manifest_path", type=click.Path(exists=True), required=True)
@click.option("--clean-dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--method", default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def pretrain_cmd(manifest_path, clean_dir, method, out_path, config_path, overrides):
    """Pretrain a model body across the manifest's training tables."""
    cfg = _cfg(config_path, overrides)
    method = method or cfg["method"]
    manifest = DatasetSplit.from_json(Path(manifest_path).read_text(encoding="utf-8"))
    corpus = _load_part(manifest, clean_dir, "train")
    tcfg = train_config(cfg, method)
    ckpt, log = pretrain(method, corpus, tcfg)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt, out)
    out.with_suffix(".log.csv").write_text(_provenance_line(cfg) + log.to_csv(), encoding="utf-8")
    click.echo(f"pretrained {method} on {len(corpus)} tables -> {out}")
    if log.stop_reason == "budget":
        sys.exit(3)


def _single_table_cmd(action, table_path, ckpt_path, method, out_path, cfg):
    table = load_clean_table(Path(table_path))
    method = method or cfg["method"]
    tcfg = train_config(cfg, method)
    if action == "finetune":
        base = load_checkpoint(ckpt_path)
        ckpt, log = finetune(base, table, tcfg, kind=method)
    else:
        ckpt, log = train_scratch(method, table, tcfg)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt, out)
    out.with_suffix(".log.csv").write_text(_provenance_line(cfg) + log.to_csv(), encoding="utf-8")
    click.echo(f"{action} {method} on {table.name} -> {out} (best epoch {log.best_epoch})")


@cli.command("finetune", context_settings=EXTRA)
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True), required=True)
@click.option("--table", "table_path", type=click.Path(exists=True), required=True)
@click.option("--method", default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def finetune_cmd(ckpt_path, table_path, method, out_path, config_path, overrides):
    """Fine-tune a pretrained body on one cleaned table."""
    cfg = _cfg(config_path, overrides)
    if method is None:
        method = load_checkpoint(ckpt_path).kind
    _single_table_cmd("finetune", table_path, ckpt_path, method, out_path, cfg)


@cli.command("train-scratch", context_settings=EXTRA)
@click.option("--table", "table_path", type=click.Path(exists=True), required=True)
@click.option("--method", default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def train_scratch_cmd(table_path, method, out_path, config_path, overrides):
    """Train a fresh model on one cleaned table."""
    cfg = _cfg(config_path, overrides)
    _single_table_cmd("scratch", table_path, None, method, out_path, cfg)


@cli.command("sample", context_settings=EXTRA)
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True), required=True)
@click.option("--rows", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def sample_cmd(ckpt_path, rows, out_path, seed, config_path, overrides):
    """Decode synthetic rows from a trained checkpoint into a CSV."""
    cfg = _cfg(config_path, overrides)
    if rows < 0:
        raise DataError("--rows must be >= 0")
    ckpt = load_checkpoint(ckpt_path)
    out = Path(out_path)
    table = sample_from_checkpoint(ckpt, rows, cfg["seed"] if seed is None else seed, out.stem)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table_csv(table, out)
    click.echo(f"sampled {table.n_rows} rows -> {out}")


@cli.command("evaluate", context_settings=EXTRA)
@click.option("--real", "real_path", type=click.Path(exists=True), required=True)
@click.option("--synthetic", "syn_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--histograms", "hist_path", type=click.Path(), default=None)
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def evaluate_cmd(real_path, syn_path, out_path, hist_path, config_path, overrides):
    """Score a synthetic CSV against its real source table."""
    cfg = _cfg(config_path, overrides)
    real = load_clean_table(Path(real_path))
    syn = load_as_schema(Path(syn_path), list(real.columns))
    real = Table(real.name, syn.columns, real.rows)  # align category unions
    report = table_report(real, syn)
    doc = report.to_dict()
    doc["_provenance"] = _provenance(cfg)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    if hist_path:
        hists = {}
        for i, col in enumerate(real.columns):
            if col.kind.is_numerical:
                hists[col.name] = column_histogram(
                    [r[i] for r in real.rows], [r[i] for r in syn.rows]
                )
        Path(hist_path).write_text(json.dumps(hists, indent=2, sort_keys=True), encoding="utf-8")
    click.echo(
        f"shape={report.s_shape:.4f} trend={report.s_trend:.4f} overall={report.s_overall:.4f}"
    )


def _benchmark_one(args):
    """(table × method) task: finetune + scratch, sample, score."""
    table, method, ckpt_blob, cfg = args
    from tabforge.checkpoint import load_checkpoint_bytes

    tcfg = train_config(cfg, method)
    base = load_checkpoint_bytes(ckpt_blob)
    results = {}
    logs = {}
    checkpoints = {}
    for regime in ("finetuned", "scratch"):
        if regime == "finetuned":
            ckpt, log = finetune(base, table, tcfg, kind=method)
        else:
            ckpt, log = train_scratch(method, table, tcfg)
        syn = sample_from_checkpoint(ckpt, table.n_rows, tcfg.seed, table.name)
        if syn.n_rows == 0:
            # Nothing parseable came out (possible for the text model); score
            # the regime zero instead of aborting the whole grid.
            results[regime] = TableReport(table.name, {}, {}, 0.0, 0.0, 0.0, 0, False)
        else:
            cols = _union_categories(table.columns, syn.rows)
            real, syn = Table(table.name, cols, table.rows), Table(syn.name, cols, syn.rows)
            results[regime] = table_report(real, syn)
        logs[regime] = log
        checkpoints[regime] = ckpt
    return table.name, results, logs, checkpoints


@cli.command("benchmark", context_settings=EXTRA)
@click.option("--split", "manifest_path", type=click.Path(exists=True), required=True)
@click.option("--clean-dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--method", "methods", multiple=True, required=True)
@click.option("--pretrained", "pretrained_paths", multiple=True, required=True,
              help="method=path to a pretrained checkpoint, one per --method")
@click.option("--part", type=click.Choice(["val", "test"]), default="test")
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@click.option("--workers", type=int, default=None)
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def benchmark_cmd(manifest_path, clean_dir, methods, pretrained_paths, part, out_dir, workers, config_path, overrides):
    """Finetune-vs-scratch grid over a split part; emits the leaderboard."""
    cfg = _cfg(config_path, overrides)
    workers = workers or cfg["workers"]
    manifest = DatasetSplit.from_json(Path(manifest_path).read_text(encoding="utf-8"))
    tables = _load_part(manifest, clean_dir, part)
    if not tables:
        raise DataError(f"no tables in part {part!r}")
    ckpt_by_method = {}
    for token in pretrained_paths:
        if "=" not in token:
            raise DataError("--pretrained takes method=path")
        m, p = token.split("=", 1)
        ckpt_by_method[m] = Path(p)
    for m in methods:
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_benchmark_one, tasks))
    else:
        raw = [_benchmark_one(t) for t in tasks]

    split_name = f"{manifest.provenance.mode}-{part}"
    keyed: dict[tuple[str, str, str], list[TableReport]] = {}
    # pool.map preserves task order, so outputs stay deterministic.
    for (_, method, _, _), (name, results, logs, ckpts) in zip(tasks, raw):
        for regime, report in results.items():
            keyed.setdefault((split_name, method, regime), []).append(report)
            doc = report.to_dict()
            doc["_provenance"] = _provenance(cfg)
            (out / "reports" / f"{name}.{method}.{regime}.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8"
            )
            (out / "logs" / f"{name}.{method}.{regime}.csv").write_text(
                _provenance_line(cfg) + logs[regime].to_csv(), encoding="utf-8"
            )
            save_checkpoint(ckpts[regime], out / "checkpoints" / f"{name}.{method}.{regime}.ckpt")

    board = build_leaderboard(keyed)
    (out / "leaderboard.csv").write_text(_provenance_line(cfg) + board.to_csv(), encoding="utf-8")
    click.echo(board.render())


@cli.command("report", context_settings=EXTRA)
@click.option("--bench-dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@click.option("-c", "--config", "config_path", type=click.Path(exists=True), default=None)
@click.argument("overrides", nargs=-1, type=click.UNPROCESSED)
def report_cmd(bench_dir, out_dir, config_path, overrides):
    """Render leaderboard text and per-column/per-pair score deltas."""
    cfg = _cfg(config_path, overrides)
    bench = Path(bench_dir)
    reports_dir = bench / "reports"
    if not reports_dir.exists():
        raise DataError(f"{bench_dir} has no reports/ directory")
    loaded: dict[tuple[str, str, str], dict] = {}
    for path in sorted(reports_dir.glob("*.json")):
        table, method, regime = path.stem.rsplit(".", 2)
        loaded[(table, method, regime)] = json.loads(path.read_text(encoding="utf-8"))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deltas = {}
    for (table, method, regime), doc in loaded.items():
        if regime != "finetuned":
            continue
        scratch = loaded.get((table, method, "scratch"))
        if scratch is None:
            continue
        deltas[f"{table}.{method}"] = {
            "shape": {
                col: doc["shape_scores"][col] - scratch["shape_scores"].get(col, 0.0)
                for col in doc["shape_scores"]
            },
            "trend": {
                pair: doc["trend_scores"][pair] - scratch["trend_scores"].get(pair, 0.0)
                for pair in doc["trend_scores"]
            },
        }
    (out / "deltas.json").write_text(json.dumps(deltas, indent=2, sort_keys=True), encoding="utf-8")

    keyed: dict[tuple[str, str, str], list[TableReport]] = {}
    for (table, method, regime), doc in loaded.items():
        rep = TableReport(**{k: v for k, v in doc.items() if k != "_provenance"})
        keyed.setdefault(("bench", method, regime), []).append(rep)
    board = build_leaderboard(keyed)
    (out / "leaderboard.csv").write_text(_provenance_line(cfg) + board.to_csv(), encoding="utf-8")
    (out / "leaderboard.txt").write_text(board.render(), encoding="utf-8")
    click.echo(board.render())


def main():
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except ConfigError as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(1)
    except _DATA_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
