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
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from tabforge.checkpoint import CheckpointError, ModelCheckpoint
from tabforge.config import ConfigError
from tabforge.data import ColumnKind, ColumnMeta, DataError, Table
from tabforge.great.bpe import BOS, EOS, Vocab, train_bpe
from tabforge.great.model import (
    GreatConfig,
    build_great,
    great_generate,
    great_train_step,
    pad_batch,
    sequence_nll,
)
from tabforge.metrics import MetricError, table_report
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

KINDS = ("ctgan", "tvae", "stvae", "stvaem", "great")


class TrainingError(DataError):
    pass


class BudgetExhausted(TrainingError):
    """Pretraining's wall-clock budget ran out before its first pass, so
    there is no checkpoint to write."""


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
    ctgan: CtganConfig
    vae: VaeConfig
    great: GreatConfig

    def __post_init__(self):
        if self.kind not in KINDS:
            raise TrainingError(f"unknown model kind {self.kind!r}")
        if self.kind in VARIANTS and self.vae.variant != self.kind:
            raise TrainingError(f"a {self.kind} run needs vae.variant {self.kind!r}, got {self.vae.variant!r}")
        if self.iterations < 1:
            raise TrainingError("iterations must be >= 1")
        if self.epochs < 0:
            raise TrainingError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience < 1:
            raise TrainingError(f"patience must be >= 1, got {self.patience}")
        if self.min_delta < 0:
            raise TrainingError(f"min_delta must be >= 0, got {self.min_delta}")
        if self.ckpt_every < 1:
            raise TrainingError(f"ckpt_every must be >= 1, got {self.ckpt_every}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise TrainingError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


NET_SIZES = {"small": (128, 128), "normal": (256, 256)}


def train_config(cfg: dict, method: str) -> TrainConfig:
    m = cfg["model"]
    hidden = NET_SIZES.get(m["net_size"])
    if hidden is None:
        raise ConfigError(f"unknown net_size {m['net_size']!r}")
    ctgan = CtganConfig(
        z_dim=m["z_dim"],
        pac=m["pac"],
        batch=m["batch"],
        lambda_gp=m["lambda_gp"],
        tau=m["tau"],
        hidden=hidden,
        lr=m["lr_gan"],
    )
    vae = VaeConfig(
        variant=method if method in VARIANTS else "stvae",
        latent=m["latent"],
        hidden=hidden,
        sig_dim=m["sig_dim"],
        lr=m["lr_vae"],
        batch=m["batch"],
        recon_weight=m["recon_weight"],
    )
    return TrainConfig(
        kind=method,
        seed=cfg["seed"],
        gmm_modes=cfg["transform"]["gmm_modes"],
        ctgan=ctgan,
        vae=vae,
        great=GreatConfig(**m["great"]),
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
# A driver owns everything that differs between methods: the per-table prep
# (whose "rows" a run splits into training and validation rows), the start
# of a run, one epoch, the validation loss, sampling, the checkpoint aux and
# the rebuild from it.  Only `start` reads the prep: it builds the model and
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


def _aux_entry(ckpt: ModelCheckpoint, key: str):
    if key not in ckpt.aux:
        raise CheckpointError(f"checkpoint has no {key}; was it a pretraining body?")
    return ckpt.aux[key]


def _stored_config(cls, ckpt: ModelCheckpoint):
    """The checkpoint's model config; JSON stored its tuples as lists.  Keys
    the config no longer has (older checkpoints' settings that became
    constants) are ignored; a field the checkpoint lacks is a
    CheckpointError naming it."""
    names = [f.name for f in fields(cls)]
    doc = ckpt.config["model"]
    missing = [name for name in names if name not in doc]
    if missing:
        raise CheckpointError(f"checkpoint model config lacks {', '.join(missing)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items() if k in names})


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
        return ColumnTransformer.from_dict(_aux_entry(ckpt, "transformer"))


def _batches(n: int, size: int, rng) -> list[np.ndarray]:
    """`rng.permutation(n)` cut into consecutive batches of `size` indices."""
    order = rng.permutation(n)
    return [order[start : start + size] for start in range(0, n, size)]


class _VaeDriver(_GmmDriver):
    def start(self, prep, rows: np.ndarray, config: TrainConfig, seed: int):
        model = build_vae(prep["transformer"], config.vae, seed)
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
        return build_vae(self._transformer(ckpt), _stored_config(VaeConfig, ckpt), seed=0)


class _CtganDriver(_GmmDriver):
    early_stops = False  # a GAN has no usable validation loss

    def start(self, prep, rows: np.ndarray, config: TrainConfig, seed: int):
        # The condition PMFs and the row index cover the rows trained on: a
        # category whose rows all fell into the validation slice gets zero
        # mass, so the condition sampler never asks for a real row that is
        # not there.
        model = build_ctgan(prep["transformer"], rows, config.ctgan, seed)
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
        log_pmfs = [np.asarray(p, dtype=np.float64) for p in _aux_entry(ckpt, "log_pmfs")]
        cfg = _stored_config(CtganConfig, ckpt)
        return make_ctgan(self._transformer(ckpt), cfg, log_pmfs, seed=0)


class _GreatDriver:
    early_stops = True

    def corpus_aux(self, corpus: list[Table], config: TrainConfig) -> dict:
        """The vocabulary every table of the corpus shares."""
        sentences = [serialize_row_text(t.columns, row) for t in corpus for row in t.rows]
        return {"vocab": train_bpe(sentences, config.great.vocab_size).to_dict()}

    def prep(self, table: Table, config: TrainConfig, aux: dict):
        # Fine-tuning continues with the pretraining vocabulary; training
        # from scratch fits one to the table.
        vocab = Vocab.from_dict((aux or self.corpus_aux([table], config))["vocab"])
        return {"table": table, "vocab": vocab, "rows": np.arange(table.n_rows)}

    def start(self, prep, rows: np.ndarray, config: TrainConfig, seed: int):
        table = prep["table"]
        model = build_great(config.great, prep["vocab"], table.columns, seed)
        return model, {"opt": model.optimizer(), "table": table, "rows": rows}

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
            great_train_step(model, pad_batch([seqs[i] for i in ids], model.config.ctx), session["opt"])
            for ids in _batches(len(seqs), model.config.batch, rng)
        ]
        return float(np.mean(losses))

    def val_loss(self, model, session, row_ids: np.ndarray, rng) -> float:
        seqs = self._framed(model, session, row_ids)  # fixed column order for evaluation
        batch = pad_batch(seqs, model.config.ctx)
        return sequence_nll(model, batch)

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
        schema = [
            ColumnMeta(c["name"], ColumnKind(c["kind"]), tuple(c.get("categories", ())))
            for c in _aux_entry(ckpt, "schema")
        ]
        vocab = Vocab.from_dict(_aux_entry(ckpt, "vocab"))
        return build_great(_stored_config(GreatConfig, ckpt), vocab, schema, seed=0)


_DRIVERS = {"ctgan": _CtganDriver(), **dict.fromkeys(VARIANTS, _VaeDriver()), "great": _GreatDriver()}


def _driver(kind: str):
    driver = _DRIVERS.get(kind)
    if driver is None:
        raise TrainingError(f"unknown model kind {kind!r}")
    return driver


@contextlib.contextmanager
def _diverged(failure: str):
    """Report a non-finite value from the model as a TrainingError that
    says which method, table and stage it came from."""
    try:
        yield
    except FloatingPointError as exc:
        raise TrainingError(f"{failure}: {exc}") from exc


def _checkpoint(model, config: TrainConfig, tensors, aux: dict, corpus: list[Table], epoch: int):
    return ModelCheckpoint(
        kind=config.kind,
        config={"model": asdict(model.config), "train": asdict(config)},
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


def _snapshot_score(driver, model, table: Table, val_ids: np.ndarray, config: TrainConfig, epoch: int) -> float:
    val_table = Table(table.name, list(table.columns), [table.rows[int(i)] for i in val_ids])
    rng = substream(config.seed, "snapshot", table.name, epoch)
    syn = driver.sample(model, val_table.n_rows, rng)
    syn.name = val_table.name
    try:
        return table_report(val_table, syn).s_overall
    except MetricError:
        return 0.0  # early garbage snapshots may not be scoreable; rank them last


# -- sampling from persisted models -----------------------------------------------------


def rebuild_model(ckpt: ModelCheckpoint):
    """The checkpoint's sampling-ready model, every tensor loaded strictly."""
    model = _driver(ckpt.kind).rebuild(ckpt)
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
