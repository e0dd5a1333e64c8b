"""Tiny decoder-only transformer over serialized rows.

Pre-norm blocks (x + attn(ln(x)), x + mlp(ln(x))), learned positional
embeddings, causal masking, and an output projection tied to the token
embedding.  Sized for desk-scale corpora; the training objective is plain
next-token cross entropy with PAD positions masked out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tabforge.data import ColumnMeta, DataError, Table
from tabforge.great.bpe import BOS, EOS, MIN_VOCAB, PAD, Vocab
from tabforge.nn import tensor as T
from tabforge.nn.optim import Adam
from tabforge.nn.tensor import Tensor
from tabforge.textrow import ParseFailure, parse_row_text


class GreatError(DataError):
    pass


@dataclass
class GreatConfig:
    d_model: int
    n_heads: int
    n_layers: int
    ctx: int
    vocab_size: int
    lr: float
    batch: int
    temperature: float
    max_retries: int

    def __post_init__(self):
        for name in ("d_model", "n_heads", "n_layers", "ctx", "batch"):
            if getattr(self, name) < 1:
                raise GreatError(f"great.{name} must be >= 1, got {getattr(self, name)}")
        for name in ("max_retries", "temperature"):
            if getattr(self, name) < 0:
                raise GreatError(f"great.{name} must be >= 0, got {getattr(self, name)}")
        if self.vocab_size < MIN_VOCAB:
            raise GreatError(f"great.vocab_size must be >= {MIN_VOCAB}, got {self.vocab_size}")
        if self.d_model % self.n_heads:
            raise GreatError("d_model must be divisible by n_heads")


class KVCache:
    """Per-layer keys and values of a batch of sequences decoded in lockstep,
    preallocated to the context: (batch, n_heads, ctx, d_head) per layer.

    Every sequence is at the same position.  Position i holds what the
    cached forward computed for the i-th token fed; `tokens` keeps those ids
    so a failing step can be replayed on the tape.
    """

    def __init__(self, config: GreatConfig, batch: int = 1):
        shape = (batch, config.n_heads, config.ctx, config.d_model // config.n_heads)
        self.keys = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.values = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.tokens = np.empty((batch, config.ctx), dtype=np.int64)
        self.length = 0

    def __len__(self) -> int:
        return self.length

    @property
    def batch(self) -> int:
        return len(self.tokens)

    def keep(self, rows: np.ndarray) -> None:
        """Drop every sequence but those at `rows` (ascending batch indices),
        moving only the filled positions within the preallocated buffers."""
        n, m = self.length, len(rows)
        for buffers in (self.keys, self.values):
            for l, buf in enumerate(buffers):
                buf[:m, :, :n] = buf[rows, :, :n]
                buffers[l] = buf[:m]
        self.tokens = self.tokens[rows]


@dataclass
class GreatModel:
    config: GreatConfig
    vocab: Vocab
    schema: list[ColumnMeta]  # the columns a sampled sentence parses into
    params: dict[str, Tensor]
    _mask_cache: dict[int, np.ndarray] = field(init=False, default_factory=dict)

    def tensors(self) -> dict[str, Tensor]:
        """Every tensor by checkpoint name (live, not copies)."""
        return dict(self.params)

    def segments(self) -> dict:
        return {}

    def optimizer(self) -> Adam:
        return Adam(list(self.params.items()), lr=self.config.lr)

    # -- forward ------------------------------------------------------------

    def _mask(self, t: int) -> np.ndarray:
        if t not in self._mask_cache:
            m = np.triu(np.full((t, t), -1e9, dtype=np.float32), k=1)
            self._mask_cache[t] = m[None, None, :, :]
        return self._mask_cache[t]

    def forward(self, ids: np.ndarray, cache: KVCache | None = None):
        """Token ids (B, T) -> logits (B, T, vocab).

        Without a cache this is the taped pass training differentiates and
        returns a Tensor.  With one, `ids` (B, 1) holds the next token of
        each of the cache's B sequences, all at position `len(cache)`: their
        keys and values join the cache and the logits come back as a plain
        (B, 1, vocab) array, computed with no tape.
        """
        if cache is not None:
            return self._cached_step(ids, cache)
        cfg = self.config
        ids = np.asarray(ids)
        b, t = ids.shape
        if t > cfg.ctx:
            raise GreatError(f"sequence length {t} exceeds context {cfg.ctx}")
        p = self.params
        x = T.take_rows(p["tok_emb"], ids) + p["pos_emb"][:t]
        for l in range(cfg.n_layers):
            ln1 = T.layer_norm(x, p[f"b{l}.ln1.g"], p[f"b{l}.ln1.b"])
            qkv = T.linear(ln1, p[f"b{l}.attn.wqkv"], p[f"b{l}.attn.bqkv"])
            att = T.causal_attention(qkv, cfg.n_heads, self._mask(t))
            x = x + T.linear(att, p[f"b{l}.attn.wproj"], p[f"b{l}.attn.bproj"])
            ln2 = T.layer_norm(x, p[f"b{l}.ln2.g"], p[f"b{l}.ln2.b"])
            mid = T.gelu(T.linear(ln2, p[f"b{l}.mlp.w1"], p[f"b{l}.mlp.b1"]))
            x = x + T.linear(mid, p[f"b{l}.mlp.w2"], p[f"b{l}.mlp.b2"])
        x = T.layer_norm(x, p["lnf.g"], p["lnf.b"])
        return T.matmul(x, T.transpose(p["tok_emb"]))  # tied output projection

    def _cached_step(self, ids: np.ndarray, cache: KVCache) -> np.ndarray:
        """The taped pass's arithmetic for one new token per sequence, on
        plain arrays.

        The last row of the causal mask adds zero everywhere, so it is left
        out.  Any overflow or invalid value stops the step, and so do
        non-finite logits: the taped pass then reruns over the sequences'
        prefixes so its FloatingPointError names the op.
        """
        cfg = self.config
        ids = np.asarray(ids)
        b = cache.batch
        if ids.shape != (b, 1):
            raise GreatError(f"a cached forward takes one token for each of {b} sequences, got shape {ids.shape}")
        pos = len(cache)
        if pos >= cfg.ctx:
            raise GreatError(f"position {pos} exceeds context {cfg.ctx}")
        cache.tokens[:, pos] = ids[:, 0]
        cache.length += 1
        p = {name: tensor.data for name, tensor in self.params.items()}
        d, h = cfg.d_model, cfg.d_model // cfg.n_heads
        try:
            with np.errstate(over="raise", invalid="raise"):
                x = p["tok_emb"][ids[:, 0]] + p["pos_emb"][pos : pos + 1]
                for l in range(cfg.n_layers):
                    ln1 = T.layer_norm(x, p[f"b{l}.ln1.g"], p[f"b{l}.ln1.b"])
                    qkv = (ln1 @ p[f"b{l}.attn.wqkv"] + p[f"b{l}.attn.bqkv"]).reshape(b, 3, cfg.n_heads, 1, h)
                    keys, values = cache.keys[l], cache.values[l]
                    keys[:, :, pos], values[:, :, pos] = qkv[:, 1, :, 0], qkv[:, 2, :, 0]
                    scores = qkv[:, 0] @ keys[:, :, : pos + 1].swapaxes(-1, -2) * (1.0 / math.sqrt(h))
                    att = (T.softmax_array(scores) @ values[:, :, : pos + 1]).reshape(b, d)
                    x = x + (att @ p[f"b{l}.attn.wproj"] + p[f"b{l}.attn.bproj"])
                    ln2 = T.layer_norm(x, p[f"b{l}.ln2.g"], p[f"b{l}.ln2.b"])
                    mid, _ = T.gelu_array(ln2 @ p[f"b{l}.mlp.w1"] + p[f"b{l}.mlp.b1"])
                    x = x + (mid @ p[f"b{l}.mlp.w2"] + p[f"b{l}.mlp.b2"])
                logits = T.layer_norm(x, p["lnf.g"], p["lnf.b"]) @ p["tok_emb"].T
            if np.isfinite(logits).all():
                return logits[:, None]
        except FloatingPointError:
            pass
        with T.no_grad():
            self.forward(cache.tokens[:, : pos + 1])
        raise FloatingPointError(f"overflow in the cached forward at position {pos}")


def build_great(config: GreatConfig, vocab: Vocab, schema: list[ColumnMeta], seed: int) -> GreatModel:
    if vocab.size > config.vocab_size:
        raise GreatError(f"vocab size {vocab.size} exceeds configured {config.vocab_size}")
    rng = np.random.default_rng(seed)
    d = config.d_model

    def normal(*shape):
        return Tensor(rng.normal(0.0, 0.02, shape).astype(np.float32), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)

    params: dict[str, Tensor] = {
        # Sized to the fitted vocab; config.vocab_size is the training budget.
        "tok_emb": normal(vocab.size, d),
        "pos_emb": normal(config.ctx, d),
        "lnf.g": ones(d),
        "lnf.b": zeros(d),
    }
    for l in range(config.n_layers):
        params[f"b{l}.ln1.g"] = ones(d)
        params[f"b{l}.ln1.b"] = zeros(d)
        params[f"b{l}.attn.wqkv"] = normal(d, 3 * d)
        params[f"b{l}.attn.bqkv"] = zeros(3 * d)
        params[f"b{l}.attn.wproj"] = normal(d, d)
        params[f"b{l}.attn.bproj"] = zeros(d)
        params[f"b{l}.ln2.g"] = ones(d)
        params[f"b{l}.ln2.b"] = zeros(d)
        params[f"b{l}.mlp.w1"] = normal(d, 4 * d)
        params[f"b{l}.mlp.b1"] = zeros(4 * d)
        params[f"b{l}.mlp.w2"] = normal(4 * d, d)
        params[f"b{l}.mlp.b2"] = zeros(d)
    return GreatModel(config, vocab, schema, params)


def pad_batch(sequences: list[list[int]], ctx: int) -> np.ndarray:
    """BOS/EOS-framed sequences padded to a common length (<= ctx + 1)."""
    longest = max(len(s) for s in sequences)
    if longest - 1 > ctx:
        raise GreatError(f"sequence of length {longest} exceeds context {ctx}")
    out = np.full((len(sequences), longest), PAD, dtype=np.int64)
    for i, s in enumerate(sequences):
        out[i, : len(s)] = s
    return out


def great_train_step(model: GreatModel, token_batch: np.ndarray, opt: Adam) -> float:
    """Mean next-token cross entropy under the causal mask, PAD masked out:
    one guarded forward and backward, then one update."""
    ids = np.asarray(token_batch)
    inputs, targets = ids[:, :-1], ids[:, 1:]
    tgt = targets.reshape(-1)
    rows = np.flatnonzero(tgt != PAD)

    def step():
        logits = model.forward(inputs)
        b, t, v = logits.data.shape
        logp = T.log_softmax(T.reshape(logits, (b * t, v)), axis=-1)
        loss = -T.mean(T.take_pairs(logp, rows, tgt[rows]))
        opt.zero_grad()
        loss.backward()
        return (loss,)

    (loss,) = T.guarded_step("the great training step", step, opt.params)
    opt.step()
    return float(loss.data)


def sequence_nll(model: GreatModel, token_batch: np.ndarray) -> float:
    """Evaluation-only mean token NLL (no update)."""
    ids = np.asarray(token_batch)
    inputs, targets = ids[:, :-1], ids[:, 1:]
    with T.no_grad():
        logits = model.forward(inputs)
    b, t, v = logits.data.shape
    logp = T.log_softmax_array(logits.data.reshape(b * t, v))
    tgt = targets.reshape(-1)
    keep = tgt != PAD
    return float(-logp[np.flatnonzero(keep), tgt[keep]].mean())


# Rows that share one K/V cache.  A cache holds 2 * n_layers * ctx * d_model
# floats per row, 1 MiB at the default config, so a long sample decodes in
# chunks; which uniforms a row uses does not depend on its chunk.
DECODE_ROWS = 64


def great_generate(model: GreatModel, n: int, rng: np.random.Generator):
    """Sample rows token by token at the configured temperature; parse them
    back under the model's schema; retry failures.

    Every pending row is decoded in lockstep waves; a row that fails to
    parse goes into the next wave, for at most `max_retries + 1` waves.
    Returns (Table, validity_rate), rows in row-index order.  Rows that
    fail in every wave are skipped and counted against the validity rate.
    """
    cfg = model.config
    rows: list = [None] * n
    pending = list(range(n))
    attempted = 0
    parsed = 0
    for _ in range(cfg.max_retries + 1):
        if not pending:
            break
        failed = []
        for i, sentence in zip(pending, _sample_wave(model, len(pending), rng)):
            attempted += 1
            out = parse_row_text(model.schema, sentence)
            if isinstance(out, ParseFailure):
                failed.append(i)
            else:
                rows[i] = out
                parsed += 1
        pending = failed
    table = Table("synthetic", list(model.schema), [row for row in rows if row is not None])
    validity = parsed / attempted if attempted else 1.0
    return table, validity


def _sample_wave(model: GreatModel, count: int, rng: np.random.Generator) -> list[str]:
    """Decode `count` sentences from BOS.

    Unless the temperature is zero, one `rng.random((count, ctx))` block
    is drawn, and sentence j samples its token after position p with
    uniform [j, p].
    """
    cfg = model.config
    uniforms = rng.random((count, cfg.ctx)) if cfg.temperature > 1e-6 else None
    sentences = []
    for lo in range(0, count, DECODE_ROWS):
        hi = min(lo + DECODE_ROWS, count)
        block = None if uniforms is None else uniforms[lo:hi]
        sentences += _decode_lockstep(model, hi - lo, block)
    return sentences


def _decode_lockstep(model: GreatModel, count: int, uniforms: np.ndarray | None) -> list[str]:
    """Decode `count` sentences together through one K/V cache: one
    `model.forward` of shape (active, 1) per position.  A sentence leaves
    the batch, and the cache, when it samples EOS; the rest run to ctx.
    `uniforms` None decodes greedily."""
    cfg = model.config
    cache = KVCache(cfg, count)
    sampled = np.full((count, cfg.ctx - 1), PAD, dtype=np.int64)
    active = np.arange(count)
    ids = np.full((count, 1), BOS, dtype=np.int64)
    for pos in range(cfg.ctx - 1):
        logits = model.forward(ids, cache)[:, 0].astype(np.float64)
        if uniforms is None:
            nxt = logits.argmax(axis=1)
        else:
            probs = T.softmax_array(logits / cfg.temperature)
            nxt = (uniforms[active, pos][:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
            nxt = np.minimum(nxt, probs.shape[1] - 1)
        going = np.flatnonzero(nxt != EOS)
        sampled[active[going], pos] = nxt[going]
        if len(going) < len(active):
            if not len(going):
                break
            cache.keep(going)
            active = active[going]
        ids = nxt[going, None]
    return [model.vocab.decode(row.tolist()) for row in sampled]
