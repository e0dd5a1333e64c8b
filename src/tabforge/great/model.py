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

from tabforge.data import Table
from tabforge.great.bpe import BOS, EOS, PAD, Vocab
from tabforge.nn import tensor as T
from tabforge.nn.optim import Adam
from tabforge.nn.tensor import Tensor
from tabforge.textrow import ParseFailure, parse_row_text


class GreatError(Exception):
    pass


@dataclass
class GreatConfig:
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 4
    ctx: int = 256
    vocab_size: int = 2048
    lr: float = 3e-4
    batch: int = 32
    temperature: float = 0.7
    max_retries: int = 8

    def __post_init__(self):
        for name in ("d_model", "n_heads", "n_layers", "ctx", "batch"):
            if getattr(self, name) < 1:
                raise GreatError(f"great.{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads:
            raise GreatError("d_model must be divisible by n_heads")


class KVCache:
    """One sequence's per-layer keys and values, preallocated to the context.

    Position i holds what the cached forward computed for the i-th token fed;
    `tokens` keeps those ids so a failing step can be replayed on the tape.
    """

    def __init__(self, config: GreatConfig):
        shape = (config.n_heads, config.ctx, config.d_model // config.n_heads)
        self.keys = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.values = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.tokens: list[int] = []

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class GreatModel:
    config: GreatConfig
    vocab: Vocab
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
        returns a Tensor.  With one, `ids` is a single sequence's next token
        (1, 1) at position `len(cache)`: its keys and values join the cache
        and the logits come back as a plain (1, 1, vocab) array, computed
        with no tape.
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
        """The taped pass's arithmetic for one new token, on plain arrays.

        The last row of the causal mask adds zero everywhere, so it is left
        out.  Any overflow or invalid value stops the step, and so do
        non-finite logits: the taped pass then reruns over the whole prefix
        so its FloatingPointError names the op.
        """
        cfg = self.config
        ids = np.asarray(ids)
        if ids.shape != (1, 1):
            raise GreatError(f"a cached forward takes one token of one sequence, got shape {ids.shape}")
        pos = len(cache)
        if pos >= cfg.ctx:
            raise GreatError(f"position {pos} exceeds context {cfg.ctx}")
        cache.tokens.append(int(ids[0, 0]))
        p = {name: tensor.data for name, tensor in self.params.items()}
        d, h = cfg.d_model, cfg.d_model // cfg.n_heads
        try:
            with np.errstate(over="raise", invalid="raise"):
                x = p["tok_emb"][ids[0]] + p["pos_emb"][pos : pos + 1]
                for l in range(cfg.n_layers):
                    ln1 = T.layer_norm(x, p[f"b{l}.ln1.g"], p[f"b{l}.ln1.b"])
                    qkv = (ln1 @ p[f"b{l}.attn.wqkv"] + p[f"b{l}.attn.bqkv"]).reshape(3, cfg.n_heads, 1, h)
                    keys, values = cache.keys[l], cache.values[l]
                    keys[:, pos], values[:, pos] = qkv[1, :, 0], qkv[2, :, 0]
                    scores = qkv[0] @ keys[:, : pos + 1].swapaxes(-1, -2) * (1.0 / math.sqrt(h))
                    att = (T.softmax_array(scores) @ values[:, : pos + 1]).reshape(1, d)
                    x = x + (att @ p[f"b{l}.attn.wproj"] + p[f"b{l}.attn.bproj"])
                    ln2 = T.layer_norm(x, p[f"b{l}.ln2.g"], p[f"b{l}.ln2.b"])
                    mid, _ = T.gelu_array(ln2 @ p[f"b{l}.mlp.w1"] + p[f"b{l}.mlp.b1"])
                    x = x + (mid @ p[f"b{l}.mlp.w2"] + p[f"b{l}.mlp.b2"])
                logits = T.layer_norm(x, p["lnf.g"], p["lnf.b"]) @ p["tok_emb"].T
            if np.isfinite(logits).all():
                return logits[None]
        except FloatingPointError:
            pass
        with T.no_grad():
            self.forward(np.asarray([cache.tokens]))
        raise FloatingPointError(f"overflow in the cached forward at position {pos}")


def build_great(config: GreatConfig, vocab: Vocab, seed: int) -> GreatModel:
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
    return GreatModel(config, vocab, params)


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


def great_generate(
    model: GreatModel,
    schema,
    n: int,
    rng: np.random.Generator,
):
    """Sample rows token by token at the configured temperature; parse back;
    retry failures.

    Returns (Table, validity_rate).  Rows that keep failing after
    `max_retries` retries are skipped and counted against the validity rate.
    """
    cfg = model.config
    rows = []
    attempted = 0
    parsed = 0
    for _ in range(n):
        row = None
        for _ in range(cfg.max_retries + 1):
            attempted += 1
            sentence = _sample_sentence(model, rng, cfg.temperature)
            out = parse_row_text(schema, sentence)
            if not isinstance(out, ParseFailure):
                row = out
                parsed += 1
                break
        if row is not None:
            rows.append(row)
    metas = [m for m in schema]
    table = Table("synthetic", metas, rows)
    validity = parsed / attempted if attempted else 1.0
    return table, validity


def _sample_sentence(model: GreatModel, rng: np.random.Generator, temperature: float) -> str:
    """Decode one sentence, feeding each token once through a K/V cache.

    One `model.forward` call per sampled token, EOS included, and one
    `rng.random()` draw per token unless the temperature is zero.
    """
    ids = [BOS]
    cfg = model.config
    cache = KVCache(cfg)
    while len(ids) < cfg.ctx:
        logits = model.forward(np.asarray([ids[-1:]]), cache)
        last = logits[0, -1].astype(np.float64)
        if temperature <= 1e-6:
            nxt = int(last.argmax())
        else:
            probs = T.softmax_array(last / temperature)
            nxt = int((rng.random() > np.cumsum(probs)).sum())
            nxt = min(nxt, len(probs) - 1)
        if nxt == EOS:
            break
        ids.append(nxt)
    return model.vocab.decode(ids[1:])
