"""Training orchestration: corpus pretraining, fine-tuning from a
pretrained body, from-scratch training, early stopping, checkpoints.

Pretraining loops single epochs over a reshuffled corpus; per-table head
layers (anything whose width depends on the table) are rebuilt for every
dataset pass while body tensors carry over, with segment-aware partial
loading for weights whose input mixes table-specific and shared blocks.

Fine-tuning for the VAE family and the autoregressive model early-stops on
validation loss and returns the best epoch's weights.  The GAN has no
usable validation loss, so it snapshots every `ckpt_every` epochs and keeps
the snapshot that scores best against a held-out slice.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from tabforge.checkpoint import CheckpointError, ModelCheckpoint
from tabforge.data import BudgetExhausted, ColumnKind, ColumnMeta, DataError, Table
from tabforge.great.bpe import BOS, EOS, Vocab, train_bpe
from tabforge.great.model import (
    GreatConfig,
    GreatError,
    build_great,
    great_generate,
    great_train_step,
    pad_batch,
    sequence_nll,
)
from tabforge.metrics import MetricError, TableReport, table_report
from tabforge.models.ctgan import (
    CtganConfig,
    build_ctgan,
    build_row_index,
    ctgan_sample,
    ctgan_train_batch,
    make_ctgan,
)
from tabforge.models.vae import (
    VARIANTS,
    VaeConfig,
    build_vae,
    vae_sample,
    vae_train_batch,
    vae_val_loss,
)
from tabforge.rng import substream
from tabforge.textrow import serialize_row_text
from tabforge.transform import ColumnTransformer, encode_table

class TrainingError(DataError):
    pass


@dataclass
class TrainConfig:
    kind: str
    seed: int
    iterations: int  # pretraining corpus passes
    epochs: int  # finetune / scratch epochs
    wall_clock_budget: float | None  # seconds, checked at iteration bounds
    patience: int
    min_delta: float
    ckpt_every: int
    val_fraction: float
    gmm_modes: int
    model: CtganConfig | VaeConfig | GreatConfig  # the config of the method `kind` names

    def __post_init__(self):
        if self.iterations < 1:
            raise TrainingError(f"training.iterations must be >= 1, got {self.iterations}")
        if self.epochs < 0:
            raise TrainingError(f"training.epochs must be >= 0, got {self.epochs}")
        if self.patience < 1:
            raise TrainingError(f"training.patience must be >= 1, got {self.patience}")
        if self.min_delta < 0:
            raise TrainingError(f"training.min_delta must be >= 0, got {self.min_delta}")
        if self.ckpt_every < 1:
            raise TrainingError(f"training.ckpt_every must be >= 1, got {self.ckpt_every}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise TrainingError(f"training.val_fraction must be in [0, 1), got {self.val_fraction}")


def train_config(cfg: dict, method: str) -> TrainConfig:
    """A `method` run's config, with the model config of that method alone."""
    return TrainConfig(
        kind=method,
        seed=cfg["seed"],
        gmm_modes=cfg["transform"]["gmm_modes"],
        model=_driver(method).model_config(cfg["model"]),
        **cfg["training"],
    )


@dataclass
class TrainLog:
    entries: list[dict] = field(default_factory=list)
    best_epoch: int | None = None
    stop_reason: str = ""
    checkpoints: list[dict] = field(default_factory=list)

    def record(self, epoch: int, train_loss: float, val_loss: float | None) -> None:
        if self.entries and epoch <= self.entries[-1]["epoch"]:
            raise TrainingError("epochs must be recorded in increasing order")
        self.entries.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss"]
        for e in self.entries:
            val = "" if e["val_loss"] is None else f"{e['val_loss']:.6g}"
            lines.append(f"{e['epoch']},{e['train_loss']:.6g},{val}")
        return "\n".join(lines) + "\n"


def corpus_hash(tables: list[Table]) -> str:
    lines = sorted(f"{t.name}:{t.n_rows}x{t.n_cols}" for t in tables)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


# -- model state -------------------------------------------------------------------
#
# Every model exposes the same surface: tensors() maps each checkpoint name
# to its live Tensor (parameters, BatchNorm running stats and the tvae
# delta), and segments() names the row blocks of weights whose input mixes
# table-specific and shared blocks.


def copy_state(model) -> dict[str, np.ndarray]:
    """A copy of every tensor of `model`, by checkpoint name."""
    return {name: t.data.copy() for name, t in model.tensors().items()}


def transfer_state(model, tensors: dict[str, np.ndarray], segments: dict | None = None) -> list[str]:
    """Load pretrained weights onto a (possibly differently-shaped) model.

    Same-shape tensors copy whole, including head layers, whose weights are
    only table-specific through their widths; a tensor whose shape differs
    stays freshly initialized.  The one exception is a weight whose model
    declares row segments: it copies the row blocks of segments present on
    both sides with matching widths (e.g. the noise rows of the generator's
    first layer transfer while the conditional rows stay fresh).  Returns
    the loaded names.
    """
    segments = segments or {}
    model_segments = model.segments()
    loaded: list[str] = []
    for name, target in model.tensors().items():
        if name not in tensors:
            continue
        src = tensors[name]
        if src.shape == target.data.shape:
            copied = src.astype(target.data.dtype).copy()
        elif (
            name in model_segments
            and name in segments
            and src.ndim == 2
            and target.data.ndim == 2
            and src.shape[1] == target.data.shape[1]
        ):
            copied = target.data.copy()
            src_rows = _segment_rows(segments[name])
            dst_rows = _segment_rows(model_segments[name])
            any_seg = False
            for seg_name, (d0, d1) in dst_rows.items():
                if seg_name in src_rows:
                    s0, s1 = src_rows[seg_name]
                    if s1 - s0 == d1 - d0 and d1 > d0:
                        copied[d0:d1] = src[s0:s1].astype(target.data.dtype)
                        any_seg = True
            if not any_seg:
                continue
        else:
            continue
        target.data = copied
        loaded.append(name)
    return loaded


def _segment_rows(seglist) -> dict[str, tuple[int, int]]:
    rows = {}
    pos = 0
    for seg_name, width in seglist:
        rows[seg_name] = (pos, pos + int(width))
        pos += int(width)
    return rows


# -- drivers ------------------------------------------------------------------------
#
# A driver owns everything that differs between methods: the model config
# it builds from the config's "model" section, the per-table prep (whose
# "rows" a run splits into training and validation rows), the start of a
# run, one epoch, the validation loss, sampling, the checkpoint aux and the
# rebuild from it.  Only `start` reads the prep: it builds the model and
# its session from the rows the run trains on.  Every later step reads the
# model, which holds its transformer or its vocabulary and schema, and the
# session, which holds whatever else an epoch or a validation pass reads.
# Drivers hold no state of their own.  `early_stops` picks fine-tuning's
# policy: early stopping on validation loss, or scoring snapshots against a
# held-out slice.
#
# Drivers call the model functions by their module-global names at call
# time, never through a reference captured in a class body, so that a
# profiler that rebinds those names sees every call.


def _from_aux(ckpt: ModelCheckpoint, key: str, build):
    """`build` over the checkpoint's aux entry `key`; a missing entry, or a
    key missing inside it, is a CheckpointError naming it."""
    if key not in ckpt.aux:
        raise CheckpointError(f"checkpoint has no {key}; was it a pretraining body?")
    try:
        return build(ckpt.aux[key])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {key} lacks {exc.args[0]!r}") from None


def _json_fits(value, hint) -> bool:
    """Whether the JSON `value` fits the field type `hint`: an int, a str, a
    float (any number) or a tuple of them (as a list in JSON)."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return type(value) in (list, tuple) and len(value) == len(args) and all(map(_json_fits, value, args))
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def _stored_config(cls, ckpt: ModelCheckpoint):
    """The checkpoint's model config; JSON stored its tuples as lists.  Keys
    the config no longer has (older checkpoints' settings that became
    constants) are ignored; a field the checkpoint lacks, or holds a value
    of another type in, is a CheckpointError naming it."""
    hints = typing.get_type_hints(cls)
    doc = ckpt.config["model"]
    missing = [name for name in hints if name not in doc]
    if missing:
        raise CheckpointError(f"checkpoint model config lacks {', '.join(missing)}")
    for name, hint in hints.items():
        if not _json_fits(doc[name], hint):
            type_name = hint.__name__ if type(hint) is type else hint
            raise CheckpointError(f"checkpoint model config {name} is {json.dumps(doc[name])}, not of type {type_name}")
    return cls(**{name: tuple(doc[name]) if type(doc[name]) is list else doc[name] for name in hints})


NET_SIZES = {"small": (128, 128), "normal": (256, 256)}


def _hidden(m: dict) -> tuple[int, int]:
    """The hidden widths `model.net_size` names."""
    hidden = NET_SIZES.get(m["net_size"])
    if hidden is None:
        raise TrainingError(f"model.net_size must be one of {', '.join(NET_SIZES)}, got {m['net_size']!r}")
    return hidden


class _GmmDriver:
    """What the GMM-encoded methods share: the fitted column transformer,
    and the encoded matrix as the rows."""

    early_stops = True

    def corpus_aux(self, corpus: list[Table], config: TrainConfig) -> dict:
        return {}  # every table fits its own transformer

    def prep(self, table: Table, config: TrainConfig, aux: dict):
        tf = ColumnTransformer.fit(table, config.gmm_modes, config.seed)
        enc_rng = substream(config.seed, "encode", table.name)
        return {"transformer": tf, "rows": encode_table(table, tf, enc_rng)}

    def aux(self, model) -> dict:
        return {"transformer": model.transformer.to_dict()}

    def _transformer(self, ckpt: ModelCheckpoint) -> ColumnTransformer:
        return _from_aux(ckpt, "transformer", ColumnTransformer.from_dict)


def _batches(n: int, size: int, rng) -> list[np.ndarray]:
    """`rng.permutation(n)` cut into consecutive batches of `size` indices."""
    order = rng.permutation(n)
    return [order[start : start + size] for start in range(0, n, size)]


class _VaeDriver(_GmmDriver):
    def model_config(self, m: dict) -> VaeConfig:
        same = {key: m[key] for key in ("latent", "sig_dim", "batch", "recon_weight")}
        return VaeConfig(**same, hidden=_hidden(m), lr=m["lr_vae"])

    def start(self, prep, rows: np.ndarray, config: TrainConfig, seed: int):
        model = build_vae(prep["transformer"], config.kind, config.model, seed)
        return model, {"opt": model.optimizer(), "rows": rows}

    def train_epoch(self, model, session, rng) -> float:
        rows = session["rows"]
        losses = [
            vae_train_batch(model, rows[ids], rng, session["opt"])
            for ids in _batches(len(rows), model.config.batch, rng)
        ]
        return float(np.mean(losses))

    def val_loss(self, model, session, val_matrix: np.ndarray, rng) -> float:
        return vae_val_loss(model, val_matrix, rng)

    def sample(self, model, n: int, rng) -> Table:
        return vae_sample(model, n, rng)

    def rebuild(self, ckpt: ModelCheckpoint):
        return build_vae(self._transformer(ckpt), ckpt.kind, _stored_config(VaeConfig, ckpt), seed=0)


class _CtganDriver(_GmmDriver):
    early_stops = False  # a GAN has no usable validation loss

    def model_config(self, m: dict) -> CtganConfig:
        same = {key: m[key] for key in ("z_dim", "pac", "batch", "lambda_gp", "tau")}
        return CtganConfig(**same, hidden=_hidden(m), lr=m["lr_gan"])

    def start(self, prep, rows: np.ndarray, config: TrainConfig, seed: int):
        # The condition PMFs and the row index cover the rows trained on: a
        # category whose rows all fell into the validation slice gets zero
        # mass, so the condition sampler never asks for a real row that is
        # not there.
        model = build_ctgan(prep["transformer"], rows, config.model, seed)
        critic_opt, gen_opt = model.optimizers()
        row_index = build_row_index(model, rows)
        return model, {"critic_opt": critic_opt, "gen_opt": gen_opt, "rows": rows, "row_index": row_index}

    def train_epoch(self, model, session, rng) -> float:
        rows = session["rows"]
        losses = []
        for _ in range(max(1, rows.shape[0] // model.config.batch)):
            out = ctgan_train_batch(
                model, rows, rng, session["critic_opt"], session["gen_opt"], session["row_index"]
            )
            losses.append(out["generator_loss"])
        return float(np.mean(losses))

    def sample(self, model, n: int, rng) -> Table:
        return ctgan_sample(model, n, rng)

    def aux(self, model) -> dict:
        # The condition PMFs of the rows trained on, for sampling.
        return {**super().aux(model), "log_pmfs": [p.tolist() for p in model.log_pmfs]}

    def rebuild(self, ckpt: ModelCheckpoint):
        log_pmfs = _from_aux(ckpt, "log_pmfs", lambda doc: [np.asarray(p, dtype=np.float64) for p in doc])
        cfg = _stored_config(CtganConfig, ckpt)
        return make_ctgan(self._transformer(ckpt), cfg, log_pmfs, seed=0)


@contextlib.contextmanager
def _too_small(table: Table, key: str):
    """A GReaT size error as one that names the method, the table and the
    config key to raise."""
    try:
        yield
    except GreatError as exc:
        raise GreatError(f"great on table {table.name!r}: {exc}; raise {key}") from None


class _GreatDriver:
    early_stops = True

    def model_config(self, m: dict) -> GreatConfig:
        return GreatConfig(**m["great"])

    def corpus_aux(self, corpus: list[Table], config: TrainConfig) -> dict:
        """The vocabulary every table of the corpus shares."""
        sentences = [serialize_row_text(t.columns, row) for t in corpus for row in t.rows]
        return {"vocab": train_bpe(sentences, config.model.vocab_size).to_dict()}

    def prep(self, table: Table, config: TrainConfig, aux: dict):
        # Fine-tuning continues with the pretraining vocabulary; training
        # from scratch fits one to the table.
        vocab = Vocab.from_dict((aux or self.corpus_aux([table], config))["vocab"])
        return {"table": table, "vocab": vocab, "rows": np.arange(table.n_rows)}

    def start(self, prep, rows: np.ndarray, config: TrainConfig, seed: int):
        table = prep["table"]
        with _too_small(table, "model.great.vocab_size"):
            model = build_great(config.model, prep["vocab"], table.columns, seed)
        return model, {"opt": model.optimizer(), "table": table, "rows": rows}

    def _padded(self, model, session, seqs: list[list[int]]) -> np.ndarray:
        with _too_small(session["table"], "model.great.ctx"):
            return pad_batch(seqs, model.config.ctx)

    def _framed(self, model, session, rows, permute_rng=None) -> list[list[int]]:
        table = session["table"]
        out = []
        for r in rows:
            sentence = serialize_row_text(
                table.columns, table.rows[r], permute=permute_rng is not None, rng=permute_rng
            )
            out.append([BOS] + model.vocab.encode(sentence) + [EOS])
        return out

    def train_epoch(self, model, session, rng) -> float:
        seqs = self._framed(model, session, session["rows"], permute_rng=rng)
        losses = [
            great_train_step(model, self._padded(model, session, [seqs[i] for i in ids]), session["opt"])
            for ids in _batches(len(seqs), model.config.batch, rng)
        ]
        return float(np.mean(losses))

    def val_loss(self, model, session, row_ids: np.ndarray, rng) -> float:
        seqs = self._framed(model, session, row_ids)  # fixed column order for evaluation
        return sequence_nll(model, self._padded(model, session, seqs))

    def sample(self, model, n: int, rng) -> Table:
        table, _ = great_generate(model, n, rng)
        return table

    def aux(self, model) -> dict:
        return {
            "vocab": model.vocab.to_dict(),
            "schema": [
                {"name": c.name, "kind": c.kind.variant, "categories": list(c.categories)}
                for c in model.schema
            ],
        }

    def rebuild(self, ckpt: ModelCheckpoint):
        schema = _from_aux(ckpt, "schema", lambda doc: [
            ColumnMeta(c["name"], ColumnKind(c["kind"]), tuple(c.get("categories", ()))) for c in doc
        ])
        vocab = _from_aux(ckpt, "vocab", Vocab.from_dict)
        return build_great(_stored_config(GreatConfig, ckpt), vocab, schema, seed=0)


_DRIVERS = {"ctgan": _CtganDriver(), **dict.fromkeys(VARIANTS, _VaeDriver()), "great": _GreatDriver()}
KINDS = tuple(_DRIVERS)


def _driver(kind: str, error=TrainingError):
    """The driver of the method `kind`; an unknown kind raises `error`."""
    driver = _DRIVERS.get(kind)
    if driver is None:
        raise error(f"unknown model kind {kind!r}")
    return driver


@contextlib.contextmanager
def _diverged(failure: str):
    """Report a non-finite value from the model as a TrainingError that
    says which method, table and stage it came from."""
    try:
        yield
    except FloatingPointError as exc:
        raise TrainingError(f"{failure}: {exc}") from exc


def _check_no_nulls(tables: list[Table]) -> None:
    """Every method trains on clean rows; a null cell names its table and column."""
    for table in tables:
        for i, col in enumerate(table.columns):
            if any(row[i] is None for row in table.rows):
                raise DataError(f"table {table.name!r}: null cell in column {col.name!r}")


def _checkpoint(model, config: TrainConfig, tensors, aux: dict, corpus: list[Table], epoch: int):
    """The run's checkpoint; its header's config is the run's TrainConfig,
    which holds each setting once, the model's under "model"."""
    return ModelCheckpoint(
        kind=config.kind,
        config=asdict(config),
        tensors=tensors,
        segments={k: [list(s) for s in v] for k, v in model.segments().items()},
        aux=aux,
        provenance={"corpus_hash": corpus_hash(corpus), "seed": config.seed, "epoch": epoch},
    )


# -- pretraining ------------------------------------------------------------------------


def pretrain(corpus: list[Table], config: TrainConfig) -> tuple[ModelCheckpoint, TrainLog]:
    """Iterate single epochs over a reshuffled corpus, carrying the body."""
    if not corpus:
        raise TrainingError("pretraining needs a non-empty corpus")
    driver = _driver(config.kind)
    log = TrainLog()
    start_time = time.monotonic()

    _check_no_nulls(corpus)
    aux = driver.corpus_aux(corpus, config)
    preps = [driver.prep(t, config, aux) for t in corpus]

    body: dict[str, np.ndarray] | None = None
    last_model = None
    stop_reason = "iterations"
    for iteration in range(config.iterations):
        if config.wall_clock_budget is not None and time.monotonic() - start_time > config.wall_clock_budget:
            stop_reason = "budget"
            break
        shuffle_rng = substream(config.seed, "pretrain", "shuffle", iteration)
        order = shuffle_rng.permutation(len(corpus))
        iteration_losses = []
        for idx in order:
            table, prep = corpus[int(idx)], preps[int(idx)]
            model_seed = int(substream(config.seed, "pretrain", "model", table.name, iteration).integers(2**63))
            model, session = driver.start(prep, prep["rows"], config, model_seed)
            if body is not None:
                transfer_state(model, body, last_model.segments())
            rng = substream(config.seed, "pretrain", "epoch", table.name, iteration)
            where = f"pretraining iteration {iteration + 1}"
            with _diverged(f"{config.kind} training diverged on table {table.name!r} at {where}"):
                loss = driver.train_epoch(model, session, rng)
            iteration_losses.append(loss)
            body = copy_state(model)
            last_model = model
        log.record(iteration + 1, float(np.mean(iteration_losses)), None)
    log.stop_reason = stop_reason
    if body is None:
        raise BudgetExhausted(
            f"wall-clock budget of {config.wall_clock_budget:g} s exhausted before the first pretraining iteration"
        )
    return _checkpoint(last_model, config, body, aux, corpus, len(log.entries)), log


# -- fine-tuning and single training ------------------------------------------------------


def _val_split(n_rows: int, fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    order = rng.permutation(n_rows)
    n_val = int(np.floor(n_rows * fraction))
    if fraction > 0 and n_val == 0 and n_rows >= 2:
        n_val = 1
    return order[n_val:], order[:n_val]


def finetune(
    checkpoint: ModelCheckpoint | None, table: Table, config: TrainConfig
) -> tuple[ModelCheckpoint, TrainLog]:
    """Train on one table, warm-starting the body from `checkpoint`.

    With checkpoint=None this is from-scratch (single) training.
    """
    if checkpoint is not None and checkpoint.kind != config.kind:
        raise CheckpointError(f"checkpoint kind {checkpoint.kind!r} != requested {config.kind!r}")
    driver = _driver(config.kind)
    _check_no_nulls([table])
    prep = driver.prep(table, config, checkpoint.aux if checkpoint is not None else {})
    rows = prep["rows"]
    train_ids, val_ids = _val_split(len(rows), config.val_fraction, substream(config.seed, "valsplit", table.name))
    val_rows = rows[val_ids]
    model_seed = int(substream(config.seed, "model", table.name).integers(2**63))
    model, session = driver.start(prep, rows[train_ids], config, model_seed)
    if checkpoint is not None:
        transfer_state(model, checkpoint.tensors, checkpoint.segments)

    # One running best: an epoch yields at most one loss, the validation loss
    # or a snapshot's negated Overall score; only validation losses stop early.
    log = TrainLog()
    best_loss, best_state, best_epoch, stale = np.inf, None, config.epochs, 0
    min_delta = config.min_delta if driver.early_stops else 0.0  # a snapshot tie keeps the earlier
    stop_reason = "epochs"

    for epoch in range(1, config.epochs + 1):
        with _diverged(f"{config.kind} training diverged on table {table.name!r} at epoch {epoch}"):
            rng = substream(config.seed, "epoch", table.name, epoch)
            train_loss = driver.train_epoch(model, session, rng)
            val_loss = loss = None
            if driver.early_stops and len(val_ids):
                val_rng = substream(config.seed, "val", table.name, epoch)
                val_loss = loss = driver.val_loss(model, session, val_rows, val_rng)
            elif len(val_ids) and (epoch % config.ckpt_every == 0 or epoch == config.epochs):
                score = _snapshot_score(driver, model, table, val_ids, config, epoch)
                log.checkpoints.append({"epoch": epoch, "overall": score})
                loss = -score
            log.record(epoch, train_loss, val_loss)

        if loss is not None and loss < best_loss - min_delta:
            best_loss, best_state, best_epoch, stale = loss, copy_state(model), epoch, 0
        elif val_loss is not None:
            stale += 1
            if stale >= config.patience:
                stop_reason = "early_stop"
                break

    log.best_epoch = best_epoch
    log.stop_reason = stop_reason
    if best_state is None:  # nothing scored: keep the final weights
        best_state = copy_state(model)
    return _checkpoint(model, config, best_state, driver.aux(model), [table], best_epoch), log


def score_synthetic(real: Table, syn: Table) -> TableReport:
    """`syn` scored against `real`; a sample the metrics cannot score (empty,
    or one row where a trend needs two) scores zero instead of ending the run."""
    try:
        return table_report(real, syn)
    except MetricError:
        return TableReport(real.name, {}, {}, 0.0, 0.0, 0.0, syn.n_rows)


def _snapshot_score(driver, model, table: Table, val_ids: np.ndarray, config: TrainConfig, epoch: int) -> float:
    val_table = Table(table.name, list(table.columns), [table.rows[int(i)] for i in val_ids])
    rng = substream(config.seed, "snapshot", table.name, epoch)
    return score_synthetic(val_table, driver.sample(model, val_table.n_rows, rng)).s_overall


# -- sampling from persisted models -----------------------------------------------------


def rebuild_model(ckpt: ModelCheckpoint):
    """The checkpoint's sampling-ready model, every tensor loaded strictly."""
    model = _driver(ckpt.kind, CheckpointError).rebuild(ckpt)
    loaded = set(transfer_state(model, ckpt.tensors))
    for name, target in model.tensors().items():
        if name not in loaded:
            if name not in ckpt.tensors:
                raise CheckpointError(f"checkpoint has no tensor {name!r}")
            raise CheckpointError(
                f"checkpoint tensor {name!r} has shape {ckpt.tensors[name].shape}, the model needs {target.data.shape}"
            )
    return model


def sample_from_checkpoint(ckpt: ModelCheckpoint, n: int, seed: int, name: str = "synthetic") -> Table:
    """`n` synthetic rows from the checkpoint, as a table called `name`; a
    non-finite value on the way is a TrainingError naming method and table."""
    model = rebuild_model(ckpt)
    with _diverged(f"{ckpt.kind} sampling diverged on table {name!r}"):
        table = _driver(ckpt.kind).sample(model, n, substream(seed, "sample"))
    table.name = name
    return table
