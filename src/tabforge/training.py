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

import hashlib
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from tabforge.checkpoint import CheckpointError, ModelCheckpoint
from tabforge.data import Table
from tabforge.great.bpe import BOS, EOS, Vocab, train_bpe
from tabforge.great.model import (
    GreatConfig,
    GreatModel,
    build_great,
    great_generate,
    great_train_step,
    pad_batch,
    sequence_nll,
)
from tabforge.metrics import MetricError, table_report
from tabforge.models.ctgan import (
    CtganConfig,
    build_row_index,
    counts_to_log_pmfs,
    ctgan_sample,
    ctgan_train_batch,
    make_ctgan,
    refresh_log_pmfs,
)
from tabforge.models.vae import (
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


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    kind: str = "stvae"
    seed: int = 0
    iterations: int = 10  # pretraining corpus passes
    epochs: int = 50  # finetune / scratch epochs
    wall_clock_budget: float | None = None  # seconds, checked at iteration bounds
    patience: int = 30
    min_delta: float = 1e-4
    ckpt_every: int = 50
    val_fraction: float = 0.1
    gmm_modes: int = 10
    great_vocab: int = 2048
    ctgan: CtganConfig = field(default_factory=CtganConfig)
    vae: VaeConfig = field(default_factory=VaeConfig)
    great: GreatConfig = field(default_factory=GreatConfig)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise TrainingError(f"unknown model kind {self.kind!r}")
        if self.iterations < 1:
            raise TrainingError("iterations must be >= 1")


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


class EarlyStopper:
    """Stop after `patience` epochs without improving by at least min_delta."""

    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.best = np.inf
        self.best_epoch = 0
        self.counter = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Returns True when training should stop."""
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.best_epoch = epoch
            self.counter = 0
            return False
        self.counter += 1
        return self.counter >= self.patience


def corpus_hash(tables: list[Table]) -> str:
    lines = sorted(f"{t.name}:{t.n_rows}x{t.n_cols}" for t in tables)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


# -- state transfer --------------------------------------------------------------


def transfer_state(model, tensors: dict[str, np.ndarray], segments: dict | None = None) -> list[str]:
    """Load pretrained weights onto a (possibly differently-shaped) model.

    Same-shape tensors copy whole, including head layers, whose weights are
    only table-specific through their widths; a head whose width differs
    re-dimensions, i.e. stays freshly initialized.  Body weights whose input
    concatenates named segments copy row blocks for segments present on both
    sides with matching widths (e.g. the noise rows of the generator's first
    layer transfer while the conditional rows stay fresh).  Returns the
    loaded names.
    """
    segments = segments or {}
    loaded: list[str] = []
    if isinstance(model, GreatModel):
        for name, p in model.params.items():
            if name in tensors and tensors[name].shape == p.data.shape:
                p.data = tensors[name].astype(p.data.dtype).copy()
                loaded.append(name)
        return loaded

    heads = model.head_names()
    model_segments = model.segments()
    for prefix, net in model.nets().items():
        for name in list(net.params) + list(net.buffers):
            full = f"{prefix}.{name}"
            if full not in tensors:
                continue
            src = tensors[full]
            target = net.params[name].data if name in net.params else net.buffers[name]
            if src.shape == target.shape:
                copied = src.astype(target.dtype).copy()
            elif full in heads:
                continue  # differently-sized head: keep the fresh init
            elif (
                full in model_segments
                and full in segments
                and src.ndim == 2
                and target.ndim == 2
                and src.shape[1] == target.shape[1]
            ):
                copied = target.copy()
                src_rows = _segment_rows(segments[full])
                dst_rows = _segment_rows(model_segments[full])
                any_seg = False
                for seg_name, (d0, d1) in dst_rows.items():
                    if seg_name in src_rows:
                        s0, s1 = src_rows[seg_name]
                        if s1 - s0 == d1 - d0 and d1 > d0:
                            copied[d0:d1] = src[s0:s1].astype(target.dtype)
                            any_seg = True
                if not any_seg:
                    continue
            else:
                continue
            if name in net.params:
                net.params[name].data = copied
            else:
                net.buffers[name] = copied
            loaded.append(full)
    delta = getattr(model, "delta", None)
    if delta is not None and "delta" in tensors and tensors["delta"].shape == delta.data.shape:
        delta.data = tensors["delta"].astype(delta.data.dtype).copy()
        loaded.append("delta")
    return loaded


def _segment_rows(seglist) -> dict[str, tuple[int, int]]:
    rows = {}
    pos = 0
    for seg_name, width in seglist:
        rows[seg_name] = (pos, pos + int(width))
        pos += int(width)
    return rows


# -- drivers ------------------------------------------------------------------------


def _gmm_prep(table: Table, config: TrainConfig):
    """Shared prep of the GMM-encoded methods: fit the column transformer
    and encode the table."""
    tf = ColumnTransformer.fit(table, config.gmm_modes, config.seed)
    enc_rng = substream(config.seed, "encode", table.name)
    matrix = encode_table(table, tf, enc_rng).matrix
    return {"transformer": tf, "matrix": matrix, "table": table}


class _VaeDriver:
    prep = staticmethod(_gmm_prep)

    def __init__(self, variant: str):
        self.variant = variant

    def build(self, prep, config: TrainConfig, seed: int):
        cfg = VaeConfig(**{**asdict(config.vae), "variant": self.variant})
        model = build_vae(prep["transformer"], cfg, seed)
        return model

    def setup(self, model):
        return {"opt": model.optimizer()}

    def train_epoch(self, model, session, matrix: np.ndarray, rng) -> float:
        batch_size = model.config.batch
        order = rng.permutation(matrix.shape[0])
        losses = []
        for start in range(0, len(order), batch_size):
            batch = matrix[order[start : start + batch_size]]
            losses.append(vae_train_batch(model, batch, rng, session["opt"]))
        return float(np.mean(losses))

    def val_loss(self, model, prep, val_matrix: np.ndarray, rng) -> float:
        return vae_val_loss(model, val_matrix, rng)

    def sample(self, model, prep, n: int, rng) -> Table:
        return vae_sample(model, n, rng)

    def aux(self, prep) -> dict:
        return {"transformer": prep["transformer"].to_dict()}

    def model_config(self, model) -> dict:
        return asdict(model.config)


class _CtganDriver:
    prep = staticmethod(_gmm_prep)

    def build(self, prep, config: TrainConfig, seed: int):
        from tabforge.models.ctgan import _category_counts, cond_layout_of

        layout = cond_layout_of(prep["transformer"])
        counts = _category_counts(prep["table"], layout)
        return make_ctgan(prep["transformer"], config.ctgan, counts_to_log_pmfs(counts), seed)

    def setup(self, model):
        critic_opt, gen_opt = model.optimizers()
        return {"critic_opt": critic_opt, "gen_opt": gen_opt, "row_index": None}

    def train_epoch(self, model, session, matrix: np.ndarray, rng) -> float:
        if session["row_index"] is None or session.get("rows") is not matrix:
            session["row_index"] = build_row_index(model, matrix)
            session["rows"] = matrix
            refresh_log_pmfs(model, matrix)
        steps = max(1, matrix.shape[0] // model.config.batch)
        losses = []
        for _ in range(steps):
            out = ctgan_train_batch(
                model, matrix, rng, session["critic_opt"], session["gen_opt"], session["row_index"]
            )
            losses.append(out["generator_loss"])
        return float(np.mean(losses))

    def val_loss(self, model, prep, val_matrix, rng):
        return None  # GAN validation loss is not used for stopping

    def sample(self, model, prep, n: int, rng) -> Table:
        return ctgan_sample(model, n, rng)

    def aux(self, prep) -> dict:
        return {"transformer": prep["transformer"].to_dict()}

    def model_config(self, model) -> dict:
        return asdict(model.config)


class _GreatDriver:
    def prep(self, table: Table, config: TrainConfig, vocab: Vocab | None = None):
        sentences = [serialize_row_text(table.columns, row) for row in table.rows]
        if vocab is None:
            vocab = train_bpe(sentences, config.great_vocab)
        return {"table": table, "vocab": vocab, "sentences": sentences}

    def build(self, prep, config: TrainConfig, seed: int):
        return build_great(config.great, prep["vocab"], seed)

    def setup(self, model):
        return {"opt": model.optimizer()}

    def _framed(self, prep, rows, permute_rng=None) -> list[list[int]]:
        table = prep["table"]
        vocab = prep["vocab"]
        out = []
        for r in rows:
            sentence = serialize_row_text(
                table.columns, table.rows[r], permute=permute_rng is not None, rng=permute_rng
            )
            out.append([BOS] + vocab.encode(sentence) + [EOS])
        return out

    def train_epoch(self, model, session, row_ids: np.ndarray, rng) -> float:
        seqs = self._framed(session["prep"], row_ids, permute_rng=rng)
        order = rng.permutation(len(seqs))
        batch_size = model.config.batch
        losses = []
        for start in range(0, len(order), batch_size):
            chunk = [seqs[i] for i in order[start : start + batch_size]]
            batch = pad_batch(chunk, model.config.ctx)
            losses.append(great_train_step(model, batch, session["opt"]))
        return float(np.mean(losses))

    def val_loss(self, model, prep, row_ids: np.ndarray, rng) -> float:
        seqs = self._framed(prep, row_ids)  # fixed column order for evaluation
        batch = pad_batch(seqs, model.config.ctx)
        return sequence_nll(model, batch)

    def sample(self, model, prep, n: int, rng) -> Table:
        table, _ = great_generate(model, list(prep["table"].columns), n, rng)
        return table

    def aux(self, prep) -> dict:
        table = prep["table"]
        return {
            "vocab": prep["vocab"].to_dict(),
            "schema": [
                {"name": c.name, "kind": c.kind.variant, "categories": list(c.categories)}
                for c in table.columns
            ],
        }

    def model_config(self, model) -> dict:
        return asdict(model.config)


def _driver(kind: str):
    if kind == "ctgan":
        return _CtganDriver()
    if kind in ("tvae", "stvae", "stvaem"):
        return _VaeDriver(kind)
    if kind == "great":
        return _GreatDriver()
    raise TrainingError(f"unknown model kind {kind!r}")


def _model_state(model) -> dict[str, np.ndarray]:
    return model.state()


def _model_segments(model) -> dict:
    return model.segments()


def _load_exact(model, tensors: dict[str, np.ndarray]) -> None:
    """Strict full-state load (same table, same widths)."""
    if isinstance(model, GreatModel):
        for name, p in model.params.items():
            p.data = tensors[name].astype(p.data.dtype).copy()
        return
    for prefix, net in model.nets().items():
        state = {
            name: tensors[f"{prefix}.{name}"] for name in list(net.params) + list(net.buffers)
        }
        net.load_state_dict(state)
    if getattr(model, "delta", None) is not None:
        model.delta.data = tensors["delta"].astype(model.delta.data.dtype).copy()


# -- pretraining ------------------------------------------------------------------------


def pretrain(kind: str, corpus: list[Table], config: TrainConfig) -> tuple[ModelCheckpoint, TrainLog]:
    """Iterate single epochs over a reshuffled corpus, carrying the body."""
    if not corpus:
        raise TrainingError("pretraining needs a non-empty corpus")
    if kind != config.kind:
        raise TrainingError(f"config kind {config.kind!r} != requested {kind!r}")
    driver = _driver(kind)
    log = TrainLog()
    start_time = time.monotonic()

    shared_vocab = None
    if kind == "great":
        all_sentences = [
            serialize_row_text(t.columns, row) for t in corpus for row in t.rows
        ]
        shared_vocab = train_bpe(all_sentences, config.great_vocab)

    preps = {}
    for t in corpus:
        preps[t.name] = (
            driver.prep(t, config, vocab=shared_vocab) if kind == "great" else driver.prep(t, config)
        )

    body: dict[str, np.ndarray] | None = None
    body_segments: dict = {}
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
            table = corpus[int(idx)]
            prep = preps[table.name]
            model = driver.build(
                prep, config, int(substream(config.seed, "pretrain", "model", table.name, iteration).integers(2**63))
            )
            if body is not None:
                transfer_state(model, body, body_segments)
            session = driver.setup(model)
            session["prep"] = prep
            data = prep["matrix"] if kind != "great" else np.arange(table.n_rows)
            rng = substream(config.seed, "pretrain", "epoch", table.name, iteration)
            loss = driver.train_epoch(model, session, data, rng)
            iteration_losses.append(loss)
            body = _model_state(model)
            body_segments = _model_segments(model)
            last_model = model
        log.record(iteration + 1, float(np.mean(iteration_losses)), None)
    log.stop_reason = stop_reason
    if body is None:
        raise TrainingError("wall-clock budget exhausted before the first iteration")

    ckpt = ModelCheckpoint(
        kind=kind,
        config={"model": driver.model_config(last_model), "train": _config_snapshot(config)},
        tensors=body,
        segments={k: [list(s) for s in v] for k, v in body_segments.items()},
        head_names=sorted(last_model.head_names()),
        aux=(
            {"vocab": shared_vocab.to_dict()}
            if kind == "great"
            else {}
        ),
        provenance={"corpus_hash": corpus_hash(corpus), "seed": config.seed, "epoch": len(log.entries)},
    )
    return ckpt, log


def _config_snapshot(config: TrainConfig) -> dict:
    doc = asdict(config)
    return doc


# -- fine-tuning and single training ------------------------------------------------------


def _val_split(n_rows: int, fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    order = rng.permutation(n_rows)
    n_val = int(np.floor(n_rows * fraction))
    if fraction > 0 and n_val == 0 and n_rows >= 2:
        n_val = 1
    return order[n_val:], order[:n_val]


def finetune(
    checkpoint: ModelCheckpoint | None,
    table: Table,
    config: TrainConfig,
    kind: str | None = None,
) -> tuple[ModelCheckpoint, TrainLog]:
    """Train on one table, warm-starting the body from `checkpoint`.

    With checkpoint=None this is from-scratch (single) training.
    """
    kind = kind or (checkpoint.kind if checkpoint is not None else config.kind)
    if checkpoint is not None and checkpoint.kind != kind:
        raise CheckpointError(f"checkpoint kind {checkpoint.kind!r} != requested {kind!r}")
    if kind != config.kind:
        raise TrainingError(f"config kind {config.kind!r} != requested {kind!r}")
    driver = _driver(kind)

    if kind == "great" and checkpoint is not None:
        # Finetuning continues with the pretraining vocabulary.
        prep = driver.prep(table, config, vocab=Vocab.from_dict(checkpoint.aux["vocab"]))
    else:
        prep = driver.prep(table, config)

    model_seed = int(substream(config.seed, "model", table.name).integers(2**63))
    model = driver.build(prep, config, model_seed)
    if checkpoint is not None:
        transfer_state(model, checkpoint.tensors, checkpoint.segments)
    session = driver.setup(model)
    session["prep"] = prep

    split_rng = substream(config.seed, "valsplit", table.name)
    if kind == "great":
        train_ids, val_ids = _val_split(table.n_rows, config.val_fraction, split_rng)
        train_data, val_data = train_ids, val_ids
    else:
        train_ids, val_ids = _val_split(prep["matrix"].shape[0], config.val_fraction, split_rng)
        train_data, val_data = prep["matrix"][train_ids], prep["matrix"][val_ids]

    log = TrainLog()
    best_state = _model_state(model)
    best_epoch = 0
    uses_early_stop = kind != "ctgan"
    stopper = EarlyStopper(config.patience, config.min_delta)
    snapshots: list[tuple[int, dict, float]] = []
    stop_reason = "epochs"

    for epoch in range(1, config.epochs + 1):
        rng = substream(config.seed, "epoch", table.name, epoch)
        train_loss = driver.train_epoch(model, session, train_data, rng)
        val_loss = None
        if uses_early_stop and len(val_ids):
            val_loss = driver.val_loss(model, prep, val_data, substream(config.seed, "val", table.name, epoch))
        log.record(epoch, train_loss, val_loss)

        if uses_early_stop and val_loss is not None:
            if val_loss < stopper.best - config.min_delta:
                best_state = _model_state(model)
            if stopper.update(epoch, val_loss):
                stop_reason = "early_stop"
                best_epoch = stopper.best_epoch
                break
            best_epoch = stopper.best_epoch
        elif kind == "ctgan" and (epoch % config.ckpt_every == 0 or epoch == config.epochs):
            score = _snapshot_score(driver, model, prep, table, val_ids, config, epoch)
            snapshots.append((epoch, _model_state(model), score))
            log.checkpoints.append({"epoch": epoch, "overall": score})

    if uses_early_stop:
        if config.epochs == 0 or not log.entries or all(e["val_loss"] is None for e in log.entries):
            best_state = _model_state(model)
            best_epoch = config.epochs
        log.best_epoch = best_epoch
    else:
        if snapshots:
            best_epoch, best_state, _ = max(snapshots, key=lambda s: (s[2], -s[0]))
        else:
            best_state = _model_state(model)
            best_epoch = config.epochs
        log.best_epoch = best_epoch
    log.stop_reason = stop_reason

    aux = driver.aux(prep)
    if kind == "ctgan":
        aux["log_pmfs"] = [p.tolist() for p in model.log_pmfs]
    ckpt = ModelCheckpoint(
        kind=kind,
        config={"model": driver.model_config(model), "train": _config_snapshot(config)},
        tensors=best_state,
        segments={k: [list(s) for s in v] for k, v in _model_segments(model).items()},
        head_names=sorted(model.head_names()),
        aux=aux,
        provenance={"corpus_hash": corpus_hash([table]), "seed": config.seed, "epoch": best_epoch},
    )
    return ckpt, log


def _snapshot_score(driver, model, prep, table: Table, val_ids: np.ndarray, config: TrainConfig, epoch: int) -> float:
    if len(val_ids) == 0:
        return 0.0
    val_table = Table(table.name, list(table.columns), [table.rows[int(i)] for i in val_ids])
    rng = substream(config.seed, "snapshot", table.name, epoch)
    syn = driver.sample(model, prep, val_table.n_rows, rng)
    syn.name = val_table.name
    try:
        return table_report(val_table, syn).s_overall
    except MetricError:
        return 0.0  # early garbage snapshots may not be scoreable; rank them last


def train_scratch(kind: str, table: Table, config: TrainConfig) -> tuple[ModelCheckpoint, TrainLog]:
    return finetune(None, table, config, kind=kind)


# -- sampling from persisted models -----------------------------------------------------


def rebuild_model(ckpt: ModelCheckpoint):
    """Reconstruct a sampling-ready model from a fine-tuned checkpoint."""
    kind = ckpt.kind
    if kind == "great":
        cfg = GreatConfig(**ckpt.config["model"])
        vocab = Vocab.from_dict(ckpt.aux["vocab"])
        model = build_great(cfg, vocab, seed=0)
        _load_exact(model, ckpt.tensors)
        return model
    if "transformer" not in ckpt.aux:
        raise CheckpointError("checkpoint has no fitted transformer; was it a pretraining body?")
    tf = ColumnTransformer.from_dict(ckpt.aux["transformer"])
    if kind == "ctgan":
        cfg_doc = dict(ckpt.config["model"])
        for key in ("hidden", "betas"):
            cfg_doc[key] = tuple(cfg_doc[key])
        cfg = CtganConfig(**cfg_doc)
        counts = [np.ones(len(tf.schema[c].categories)) for c in
                  [s.column for s in tf.spans if s.kind == "categorical"]]
        model = make_ctgan(tf, cfg, counts_to_log_pmfs([c for c in counts]), seed=0)
        if "log_pmfs" in ckpt.aux:
            model.log_pmfs = [np.asarray(p, dtype=np.float64) for p in ckpt.aux["log_pmfs"]]
        _load_exact(model, ckpt.tensors)
        return model
    cfg_doc = dict(ckpt.config["model"])
    for key in ("hidden", "betas"):
        cfg_doc[key] = tuple(cfg_doc[key])
    cfg = VaeConfig(**cfg_doc)
    model = build_vae(tf, cfg, seed=0)
    _load_exact(model, ckpt.tensors)
    return model


def sample_from_checkpoint(ckpt: ModelCheckpoint, n: int, seed: int) -> Table:
    model = rebuild_model(ckpt)
    rng = substream(seed, "sample")
    if ckpt.kind == "great":
        from tabforge.data import ColumnKind, ColumnMeta

        schema = [
            ColumnMeta(
                c["name"],
                ColumnKind(c["kind"]),
                tuple(c.get("categories", ())),
                0.0,
            )
            for c in ckpt.aux["schema"]
        ]
        table, _ = great_generate(model, schema, n, rng)
        return table
    if ckpt.kind == "ctgan":
        return ctgan_sample(model, n, rng)
    return vae_sample(model, n, rng)
