"""In-memory span tracing around tabforge's public functions.

A traced stage process calls `install()` after importing `tabforge.cli`.
Each listed function is replaced by a wrapper that records a span (name,
start, end, parent) in every module that holds a reference to it, because
callers look functions up in their own module: `tabforge.training` calls the
`encode_table` it imported, not `tabforge.transform.encode_table`.  Methods
are wrapped on their class.  Spans stay in memory and are written once, when
the stage ends; `summarize()` merges the files of every stage of a run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.open: Counter = Counter()  # span name -> how many are on the stack
        self._stack: list[int] = []
        self.fit_keys: list[str] = []

    def wrap(self, fn, name: str, after=None):
        """`fn` inside a span; `after(result, args, kwargs)` runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            self.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
                self.open[name] -= 1
            self.counts[name + "_calls"] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def count(self, fn, counter):
        """`fn` with `counter(result, args, kwargs)` after each call; no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(result, args, kwargs)
            return result

        return counted

    def dump(self, path: Path) -> None:
        doc = {"spans": self.spans, "counts": dict(self.counts), "fit_keys": self.fit_keys}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _replace_everywhere(original, replacement) -> int:
    """Rebind every tabforge module attribute that is `original`."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("tabforge") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import tabforge.checkpoint as checkpoint
    import tabforge.cleaning as cleaning
    import tabforge.cli as cli
    import tabforge.data as data
    import tabforge.great.bpe as bpe
    import tabforge.great.model as great
    import tabforge.metrics as metrics
    import tabforge.models.ctgan as ctgan
    import tabforge.models.vae as vae
    import tabforge.split as split
    import tabforge.training as training
    import tabforge.transform as transform
    from tabforge.nn.layers import Net
    from tabforge.nn.optim import Adam
    from tabforge.nn.tensor import Tensor
    from tabforge.textrow import ParseFailure

    def saved_bytes(_result, args, kwargs):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        rec.counts["checkpoint.bytes"] += os.path.getsize(path)

    functions = [
        (data.ingest_csv, "data.ingest", None),
        (data.infer_schema, "data.ingest", None),
        (cleaning.clean_table, "cleaning.clean_table", None),
        (split.random_split, "split.split", None),
        (transform.encode_table, "transform.encode", None),
        (transform.decode_matrix, "transform.decode", None),
        (ctgan.ctgan_train_batch, "models.ctgan_batch", None),
        (ctgan.gradient_penalty, "models.gp", None),
        (vae.vae_train_batch, "models.vae_batch", None),
        (ctgan.ctgan_sample, "models.sample", None),
        (vae.vae_sample, "models.sample", None),
        (bpe.train_bpe, "great.bpe", None),
        (great.great_train_step, "great.train_step", None),
        (great.great_generate, "great.generate", None),
        (training.pretrain, "training.pretrain", None),
        (training.finetune, "training.finetune", None),
        (metrics.table_report, "metrics.table_report", None),
        (checkpoint.save_checkpoint, "checkpoint.save", saved_bytes),
        (checkpoint.load_checkpoint, "checkpoint.load", None),
        (checkpoint.load_checkpoint_bytes, "checkpoint.load", None),
    ]
    for fn, name, after in functions:
        if _replace_everywhere(fn, rec.wrap(fn, name, after)) == 0:
            raise RuntimeError(f"no tabforge module references {fn.__qualname__}")

    for command in ("clean", "split", "pretrain", "benchmark", "report"):
        cmd = cli.cli.commands[command]
        cmd.callback = rec.wrap(cmd.callback, f"cli.{command}")

    Net.forward = rec.wrap(Net.forward, "nn.forward")
    Tensor.backward = rec.wrap(Tensor.backward, "nn.backward")
    Adam.step = rec.wrap(Adam.step, "nn.adam")

    fit = transform.ColumnTransformer.fit.__func__

    def fit_key(_result, args, kwargs):
        _cls, table, *rest = args
        modes = kwargs.get("modes", rest[0] if rest else transform.DEFAULT_MODES)
        seed = kwargs.get("seed", rest[1] if len(rest) > 1 else 0)
        cols = [(c.name, c.kind.variant, c.categories) for c in table.columns]
        text = repr((table.name, cols, table.rows, modes, seed))
        rec.fit_keys.append(hashlib.sha256(text.encode("utf-8")).hexdigest())

    transform.ColumnTransformer.fit = classmethod(rec.wrap(fit, "transform.fit", fit_key))

    def decode_step(_result, _args, _kwargs):
        if rec.open["great.generate"]:
            rec.counts["great.decode_steps"] += 1

    great.GreatModel.forward = rec.count(great.GreatModel.forward, decode_step)

    def parsed(result, _args, _kwargs):
        rec.counts["great.parse_attempted"] += 1
        if not isinstance(result, ParseFailure):
            rec.counts["great.parse_ok"] += 1

    if _replace_everywhere(great.parse_row_text, rec.count(great.parse_row_text, parsed)) == 0:
        raise RuntimeError("no tabforge module references parse_row_text")

    def epoch(_result, _args, _kwargs):
        rec.counts["training.epochs"] += 1

    training.TrainLog.record = rec.count(training.TrainLog.record, epoch)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus the duration of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def total_times(spans: list[list]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, start, end, _parent in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def summarize(paths: list[Path]) -> dict:
    """Merge the per-stage trace files of one pipeline run."""
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    counts: Counter = Counter()
    fit_keys: list[str] = []
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        self_s.update(self_times(doc["spans"]))
        total_s.update(total_times(doc["spans"]))
        counts.update(doc["counts"])
        fit_keys.extend(doc["fit_keys"])
    return {"self_s": dict(self_s), "total_s": dict(total_s), "counts": dict(counts), "fit_keys": fit_keys}
