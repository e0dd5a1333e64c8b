"""Tiny decoder-only transformer over serialized rows.

Pre-norm blocks (x + attn(ln(x)), x + mlp(ln(x))), learned positional
embeddings, causal masking, and an output projection tied to the token
embedding.  Sized for desk-scale corpora; the training objective is plain
next-token cross entropy with PAD positions masked out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
                raise GreatError(f"model.great.{name} must be >= 1, got {getattr(self, name)}")
        for name in ("max_retries", "temperature"):
            if getattr(self, name) < 0:
                raise GreatError(f"model.great.{name} must be >= 0, got {getattr(self, name)}")
        if self.vocab_size < MIN_VOCAB:
            raise GreatError(f"model.great.vocab_size must be >= {MIN_VOCAB}, got {self.vocab_size}")
        if self.d_model % self.n_heads:
            raise GreatError(
                f"model.great.d_model must be divisible by model.great.n_heads, got {self.d_model} and {self.n_heads}"
            )


class KVCache:
    """Per-layer keys and values of a batch of sequences decoded in lockstep,
    preallocated to the context: (batch, n_heads, ctx, d_head) per layer.

    Every sequence is at the same position.  Position i holds the keys and
    values the cached forward computed for the i-th token fed.
    """

    def __init__(self, config: GreatConfig, batch: int = 1):
        shape = (batch, config.n_heads, config.ctx, config.d_model // config.n_heads)
        self.keys = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.values = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.length = 0

    def __len__(self) -> int:
        return self.length

    @property
    def batch(self) -> int:
        return len(self.keys[0])

    def attend(self, layer: int, qkv: np.ndarray, n_heads: int) -> np.ndarray:
        """Self-attention of one new position per sequence: its keys and
        values, from the (B, 3 * d) block `qkv`, are written at position
        `len(self)` of `layer`, and its queries attend over every position
        up to it.  Returns (B, d).  The causal mask's last row adds zero
        everywhere, so it is left out."""
        pos = self.length
        b, width = qkv.shape
        h = width // 3 // n_heads
        qkv = qkv.reshape(b, 3, n_heads, 1, h)
        keys, values = self.keys[layer], self.values[layer]
        keys[:, :, pos], values[:, :, pos] = qkv[:, 1, :, 0], qkv[:, 2, :, 0]
        scores = qkv[:, 0] @ keys[:, :, : pos + 1].swapaxes(-1, -2) * (1.0 / math.sqrt(h))
        return (T.softmax_array(scores) @ values[:, :, : pos + 1]).reshape(b, width // 3)

    def keep(self, rows: np.ndarray) -> None:
        """Drop every sequence but those at `rows` (ascending batch indices),
        moving only the filled positions within the preallocated buffers."""
        n, m = self.length, len(rows)
        for buffers in (self.keys, self.values):
            for l, buf in enumerate(buffers):
                buf[:m, :, :n] = buf[rows, :, :n]
                buffers[l] = buf[:m]


@dataclass
class GreatModel:
    config: GreatConfig
    vocab: Vocab
    schema: list[ColumnMeta]  # the columns a sampled sentence parses into
    params: dict[str, Tensor]

    def tensors(self) -> dict[str, Tensor]:
        """Every tensor by checkpoint name (live, not copies)."""
        return dict(self.params)

    def segments(self) -> dict:
        return {}

    def optimizer(self) -> Adam:
        return Adam(list(self.params.items()), lr=self.config.lr)

    # -- forward ------------------------------------------------------------

    def forward(self, ids: np.ndarray, cache: KVCache | None = None):
        """Token ids (B, T) -> logits (B, T, vocab).

        Without a cache this is the taped pass training differentiates and
        returns a Tensor.  With one, `ids` (B, 1) holds the next token of
        each of the cache's B sequences, all at position `len(cache)`: the
        same layers run untaped on one (B, d) row per sequence, their keys
        and values join the cache, and the logits come back as a plain
        (B, 1, vocab) array.  The step runs inside `guarded_step`, so its
        FloatingPointError names the failing line and the position.
        """
        cfg = self.config
        p = self.params
        ids = np.asarray(ids)
        if cache is None:
            b, t = ids.shape
            if t > cfg.ctx:
                raise GreatError(f"sequence length {t} exceeds context {cfg.ctx}")
            x = T.gather(p["tok_emb"], ids) + p["pos_emb"][:t]
            return self._layers(x, lambda l, qkv: T.causal_attention(qkv, cfg.n_heads))
        if ids.shape != (cache.batch, 1):
            raise GreatError(f"a cached forward takes one token for each of {cache.batch} sequences, got {ids.shape}")
        pos = len(cache)
        if pos >= cfg.ctx:
            raise GreatError(f"position {pos} exceeds context {cfg.ctx}")

        def step():
            x = T.gather(p["tok_emb"], ids[:, 0]) + p["pos_emb"][pos : pos + 1]
            logits = self._layers(x, lambda l, qkv: Tensor(cache.attend(l, qkv.data, cfg.n_heads)))
            cache.length = pos + 1
            return (logits,)

        with T.no_grad():
            (logits,) = T.guarded_step(f"the cached forward at position {pos}", step)
        return logits.data[:, None]

    def _layers(self, x: Tensor, attention) -> Tensor:
        """The blocks, the final norm and the tied output projection over
        embedded tokens `x`; `attention(l, qkv)` is layer l's self-attention."""
        cfg = self.config
        p = self.params
        for l in range(cfg.n_layers):
            ln1 = T.layer_norm(x, p[f"b{l}.ln1.g"], p[f"b{l}.ln1.b"])
            qkv = T.linear(ln1, p[f"b{l}.attn.wqkv"], p[f"b{l}.attn.bqkv"])
            x = x + T.linear(attention(l, qkv), p[f"b{l}.attn.wproj"], p[f"b{l}.attn.bproj"])
            ln2 = T.layer_norm(x, p[f"b{l}.ln2.g"], p[f"b{l}.ln2.b"])
            mid = T.gelu(T.linear(ln2, p[f"b{l}.mlp.w1"], p[f"b{l}.mlp.b1"]))
            x = x + T.linear(mid, p[f"b{l}.mlp.w2"], p[f"b{l}.mlp.b2"])
        x = T.layer_norm(x, p["lnf.g"], p["lnf.b"])
        return T.matmul(x, T.transpose(p["tok_emb"]))  # tied output projection


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
    """BOS/EOS-framed sequences padded to a common length (<= ctx + 1).

    The model reads all but a sequence's last token, so a row that does not
    fit names the context it needs; another column order may frame a
    longer row, hence "at least"."""
    longest = max(len(s) for s in sequences)
    if longest - 1 > ctx:
        raise GreatError(f"a row needs a context of at least {longest - 1}, not {ctx}")
    out = np.full((len(sequences), longest), PAD, dtype=np.int64)
    for i, s in enumerate(sequences):
        out[i, : len(s)] = s
    return out


def _token_nll(model: GreatModel, token_batch: np.ndarray) -> Tensor:
    """Mean next-token cross entropy under the causal mask, PAD masked out."""
    ids = np.asarray(token_batch)
    inputs, targets = ids[:, :-1], ids[:, 1:]
    tgt = targets.reshape(-1)
    rows = np.flatnonzero(tgt != PAD)
    logits = model.forward(inputs)
    b, t, v = logits.data.shape
    logp = T.log_softmax(T.reshape(logits, (b * t, v)), axis=-1)
    return -T.mean(T.gather(logp, (rows, tgt[rows])))


def great_train_step(model: GreatModel, token_batch: np.ndarray, opt: Adam) -> float:
    """The token NLL's one guarded forward and backward, then one update."""

    def step():
        loss = _token_nll(model, token_batch)
        opt.zero_grad()
        loss.backward()
        return (loss,)

    (loss,) = T.guarded_step("the great training step", step, opt.params)
    opt.step()
    return float(loss.data)


def sequence_nll(model: GreatModel, token_batch: np.ndarray) -> float:
    """The training step's token NLL, untaped and with no update."""
    with T.no_grad():
        (loss,) = T.guarded_step("the great validation loss", lambda: (_token_nll(model, token_batch),))
    return float(loss.data)


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
