"""Conditional GAN for encoded table rows.

Batch step, per the training-by-sampling procedure: draw a categorical
column uniformly and a category from its log-frequency PMF, build the
conditional vector, generate packed fake rows, sample matching real rows,
and optimize the critic (Wasserstein difference + gradient penalty on
per-pack interpolates) and then the generator (negated critic score + cross
entropy between the generated one-hot and the conditioning mask).

The critic consumes `pac` rows jointly; the generator grows its hidden
state by concatenation (h ⊕ ReLU(BN(FC(h)))) into one Dense over the row
width; `generator_heads` then applies the per-column heads: tanh for each
alpha, gumbel-softmax (tau 0.2) for each mode indicator and categorical
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tabforge.data import Table
from tabforge.nn import tensor as T
from tabforge.nn.functional import gumbel_softmax
from tabforge.nn.layers import (
    BatchNorm,
    ConcatSkip,
    Dense,
    Dropout,
    LeakyReLU,
    Net,
    ReLU,
)
from tabforge.nn.optim import Adam
from tabforge.nn.tensor import Tensor
from tabforge.transform import ColumnTransformer, decode_matrix


CRITIC_DROPOUT = 0.5
BETAS = (0.5, 0.9)  # Adam's, for both critic and generator


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class CondLayout:
    """Offsets of each categorical column's one-hot block within cond."""

    columns: tuple[int, ...]  # schema indices, in encoded (categorical) order
    widths: tuple[int, ...]

    @property
    def offsets(self) -> tuple[int, ...]:
        out = []
        pos = 0
        for w in self.widths:
            out.append(pos)
            pos += w
        return tuple(out)

    @property
    def total_width(self) -> int:
        return sum(self.widths)

    @property
    def n_columns(self) -> int:
        return len(self.columns)


def build_cond_vector(layout: CondLayout, i_star: int, k_star: int) -> np.ndarray:
    """All-zero vector with a single 1 at offset(i*) + k*."""
    if not 0 <= i_star < layout.n_columns:
        raise ModelError(f"categorical column index {i_star} out of range")
    if not 0 <= k_star < layout.widths[i_star]:
        raise ModelError(f"category index {k_star} out of range for column {i_star}")
    vec = np.zeros(layout.total_width, dtype=np.float32)
    vec[layout.offsets[i_star] + k_star] = 1.0
    return vec


@dataclass
class CtganConfig:
    z_dim: int = 128
    pac: int = 10
    batch: int = 500
    lambda_gp: float = 10.0
    tau: float = 0.2
    hidden: tuple[int, int] = (256, 256)
    lr: float = 2e-4

    def __post_init__(self):
        if self.tau <= 0:
            raise ModelError("tau (gumbel-softmax temperature) must be positive")


@dataclass
class CtganModel:
    transformer: ColumnTransformer
    layout: CondLayout
    generator: Net
    critic: Net
    log_pmfs: list[np.ndarray]  # per categorical column, sums to 1
    config: CtganConfig
    row_width: int = field(init=False)

    def __post_init__(self):
        self.row_width = self.transformer.total_width
        gen_out = self.generator.out_width
        if gen_out != self.row_width:
            raise ModelError(f"generator output {gen_out} != encoded row width {self.row_width}")
        expect = self.config.pac * (self.row_width + self.layout.total_width)
        if self.critic.in_width != expect:
            raise ModelError(f"critic input {self.critic.in_width} != pac*(row+cond) = {expect}")

    # -- state surface used by training/checkpointing ------------------------

    def tensors(self) -> dict[str, Tensor]:
        """Every tensor by checkpoint name (live, not copies)."""
        out = {f"gen.{k}": v for k, v in self.generator.tensors().items()}
        out.update({f"critic.{k}": v for k, v in self.critic.tensors().items()})
        return out

    def segments(self) -> dict[str, tuple[tuple[str, int], ...]]:
        out = {f"gen.{k}": v for k, v in self.generator.param_segments.items()}
        out.update({f"critic.{k}": v for k, v in self.critic.param_segments.items()})
        return out

    def optimizers(self) -> tuple[Adam, Adam]:
        lr = self.config.lr
        gen = Adam([(f"gen.{n}", p) for n, p in self.generator.parameters()], lr=lr, betas=BETAS)
        critic = Adam([(f"critic.{n}", p) for n, p in self.critic.parameters()], lr=lr, betas=BETAS)
        return critic, gen


def build_ctgan(
    transformer: ColumnTransformer,
    matrix: np.ndarray,
    config: CtganConfig,
    seed: int,
    dtype=np.float32,
) -> CtganModel:
    """A fresh model whose condition PMFs are those of the encoded rows."""
    return make_ctgan(transformer, config, condition_log_pmfs(transformer, matrix), seed, dtype)


def cond_layout_of(transformer: ColumnTransformer) -> CondLayout:
    cat_spans = [s for s in transformer.spans if s.kind == "categorical"]
    return CondLayout(
        columns=tuple(s.column for s in cat_spans),
        widths=tuple(s.width for s in cat_spans),
    )


def condition_log_pmfs(transformer: ColumnTransformer, matrix: np.ndarray) -> list[np.ndarray]:
    """Per categorical column, the log-frequency PMF of its categories over
    the rows of an encoded matrix."""
    pmfs = []
    for span in transformer.spans:
        if span.kind == "categorical":
            counts = matrix[:, span.start : span.start + span.width].sum(axis=0)
            logs = np.log1p(np.asarray(counts, dtype=np.float64))
            total = logs.sum()
            pmfs.append(logs / total if total > 0 else np.full(len(counts), 1.0 / len(counts)))
    return pmfs


def make_ctgan(
    transformer: ColumnTransformer,
    config: CtganConfig,
    log_pmfs: list[np.ndarray],
    seed: int,
    dtype=np.float32,
) -> CtganModel:
    layout = cond_layout_of(transformer)
    row_w = transformer.total_width
    cond_w = layout.total_width
    z = config.z_dim
    h1, h2 = config.hidden

    in0 = z + cond_w
    gen_layers = [
        ConcatSkip(
            (
                Dense(in0, h1, segments=(("z", z), ("cond", cond_w))),
                BatchNorm(h1),
                ReLU(),
            )
        ),
        ConcatSkip(
            (
                Dense(in0 + h1, h2, segments=(("z", z), ("cond", cond_w), ("block0", h1))),
                BatchNorm(h2),
                ReLU(),
            )
        ),
        Dense(in0 + h1 + h2, row_w),
    ]

    critic_in = config.pac * (row_w + cond_w)
    critic_layers = [
        Dense(critic_in, h1),
        LeakyReLU(),
        Dropout(CRITIC_DROPOUT),
        Dense(h1, h2),
        LeakyReLU(),
        Dropout(CRITIC_DROPOUT),
        Dense(h2, 1),
    ]

    rng = np.random.default_rng(seed)
    generator = Net(gen_layers, rng, dtype=dtype)
    critic = Net(critic_layers, rng, dtype=dtype)

    return CtganModel(transformer, layout, generator, critic, list(log_pmfs), config)


# -- training-by-sampling -----------------------------------------------------


def sample_conditions(model: CtganModel, n: int, rng: np.random.Generator):
    """n draws of (i*, k*): column uniform, category from its log-frequency
    PMF.  Returns (i_stars, k_stars, cond matrix); condition-free tables (no
    categorical columns) give (None, None, an (n, 0) matrix)."""
    layout = model.layout
    if layout.n_columns == 0:
        return None, None, np.zeros((n, 0), dtype=np.float32)
    i_stars = rng.integers(layout.n_columns, size=n)
    k_stars = np.zeros(n, dtype=np.int64)
    for c in range(layout.n_columns):
        mask = i_stars == c
        if not mask.any():
            continue
        cum = np.cumsum(model.log_pmfs[c])
        u = rng.random(int(mask.sum()))
        k_stars[mask] = np.minimum((u[:, None] > cum[None, :]).sum(axis=1), len(cum) - 1)
    cond = np.zeros((n, layout.total_width), dtype=np.float32)
    offsets = np.asarray(layout.offsets)
    cond[np.arange(n), offsets[i_stars] + k_stars] = 1.0
    return i_stars, k_stars, cond


@dataclass(frozen=True)
class RowIndex:
    """Row ids of an encoded matrix grouped by cond position offset(i*) + k*."""

    offsets: np.ndarray  # per categorical column: its first cond position
    starts: np.ndarray  # per cond position: where its rows begin in `rows`
    counts: np.ndarray  # per cond position: how many rows carry that one-hot
    rows: np.ndarray


def build_row_index(model: CtganModel, matrix: np.ndarray) -> RowIndex:
    """Index the rows of an encoded matrix by their categorical one-hots."""
    layout = model.layout
    cols = [
        model.transformer.span_for(col_idx).start + k
        for col_idx, width in zip(layout.columns, layout.widths)
        for k in range(width)
    ]
    hits = matrix[:, cols] == 1.0
    _, rows = np.nonzero(hits.T)  # grouped by cond position, rows ascending
    counts = hits.sum(axis=0)
    return RowIndex(np.asarray(layout.offsets, dtype=np.int64), np.cumsum(counts) - counts, counts, rows)


def sample_real_conditioned(
    matrix: np.ndarray,
    row_index: RowIndex,
    i_stars: np.ndarray,
    k_stars: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """For each (i*, k*) pair, a uniform draw among the rows whose one-hot for
    column i* equals k*; `row_index` is `build_row_index` of the same matrix."""
    flat = row_index.offsets[i_stars] + k_stars
    counts = row_index.counts[flat]
    if not counts.all():
        j = int(np.argmin(counts))  # the first empty condition
        raise ModelError(f"no real row satisfies condition ({i_stars[j]}, {k_stars[j]})")
    return matrix[row_index.rows[row_index.starts[flat] + rng.integers(counts)]]


# -- losses ---------------------------------------------------------------------


def _pack(arr: np.ndarray, pac: int) -> np.ndarray:
    groups = arr.shape[0] // pac
    return arr.reshape(groups, pac * arr.shape[1])


def _pack_tensor(t: Tensor, pac: int) -> Tensor:
    groups = t.data.shape[0] // pac
    return T.reshape(t, (groups, pac * t.data.shape[1]))


def gradient_penalty(
    critic: Net,
    real_pacs: np.ndarray,
    fake_pacs: np.ndarray,
    cond_pacs: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> Tensor:
    """lambda * mean((|grad_r Critic(r_interp, cond)|_2 - 1)^2).

    One interpolation weight per pac group; the norm runs over the packed
    row coordinates only (cond passes through unmixed).  The result is a
    graph node: backprop reaches the critic parameters through the input
    gradient itself.
    """
    if real_pacs.shape != fake_pacs.shape:
        raise ModelError(f"pac shapes differ: {real_pacs.shape} vs {fake_pacs.shape}")
    groups, row_block = real_pacs.shape
    rho = rng.random((groups, 1)).astype(np.float32)
    interp = rho * fake_pacs + (1.0 - rho) * real_pacs
    critic.forward(np.concatenate([interp, cond_pacs], axis=1), mode="train", rng=rng)
    grad = critic.input_gradient()
    grad_rows = grad[:, :row_block]
    # The tiny epsilon keeps sqrt differentiable at an exactly-zero gradient
    # without moving the penalty beyond 1e-6 of its analytic value.
    norm = T.sqrt(T.sum_(grad_rows * grad_rows, axis=1) + 1e-16)
    gap = norm - 1.0
    return T.mean(gap * gap) * lam


def _batch_size(model: CtganModel, n_rows: int) -> int:
    cfg = model.config
    batch = (min(cfg.batch, n_rows) // cfg.pac) * cfg.pac
    if batch < cfg.pac:
        batch = cfg.pac  # sample rows with replacement on tiny tables
    return batch


def generator_heads(raw: Tensor, spans, tau: float, mode: str, rng) -> tuple[Tensor, dict[int, Tensor]]:
    """The generator's per-column heads over its last Dense output: tanh for
    each alpha, gumbel-softmax for each mode indicator and categorical block.

    Returns the encoded row and, in train mode, each block's noised logits
    over tau by its start column (the conditional cross entropy reads them).
    """
    parts, scaled = [], {}
    for span in spans:
        start = span.start
        if span.kind == "numeric":
            parts.append(T.tanh(raw[:, start : start + 1]))
            start += 1
        out, scaled[start] = gumbel_softmax(raw[:, start : span.start + span.width], tau, mode, rng)
        parts.append(out)
    return T.concat(parts, axis=1), scaled


def _generate(model: CtganModel, cond: np.ndarray, mode: str, rng: np.random.Generator):
    """Noise ⊕ cond through the generator body and heads: (row, scaled blocks)."""
    z = rng.standard_normal((cond.shape[0], model.config.z_dim)).astype(np.float32)
    raw = model.generator.forward(np.concatenate([z, cond], axis=1), mode=mode, rng=rng)
    return generator_heads(raw, model.transformer.spans, model.config.tau, mode, rng)


def critic_loss_graph(
    model: CtganModel,
    matrix: np.ndarray,
    rng: np.random.Generator,
    row_index: RowIndex,
):
    """Wasserstein difference + gradient penalty as a graph (no updates)."""
    cfg = model.config
    batch = _batch_size(model, matrix.shape[0])
    i_s, k_s, cond = sample_conditions(model, batch, rng)
    fake, _ = _generate(model, cond, "train", rng)
    if i_s is None:
        real = matrix[rng.integers(matrix.shape[0], size=batch)]
    else:
        real = sample_real_conditioned(matrix, row_index, i_s, k_s, rng)
    cond_pac = _pack(cond, cfg.pac)
    fake_pac = _pack(fake.data, cfg.pac)  # detached: the critic step never reaches G
    real_pac = _pack(real.astype(fake.data.dtype), cfg.pac)

    fake_scores = model.critic.forward(
        np.concatenate([fake_pac, cond_pac], axis=1), mode="train", rng=rng
    )
    real_scores = model.critic.forward(
        np.concatenate([real_pac, cond_pac], axis=1), mode="train", rng=rng
    )
    w_loss = T.mean(fake_scores) - T.mean(real_scores)
    penalty = gradient_penalty(model.critic, real_pac, fake_pac, cond_pac, cfg.lambda_gp, rng)
    return w_loss, penalty


def generator_loss_graph(model: CtganModel, n_rows: int, rng: np.random.Generator):
    """-mean critic(fake) + mean CE(generated one-hot, conditioning mask)."""
    cfg = model.config
    batch = _batch_size(model, n_rows)
    i_s, k_s, cond = sample_conditions(model, batch, rng)
    fake, scaled_blocks = _generate(model, cond, "train", rng)
    cond_pac = _pack(cond, cfg.pac)
    fake_pac = _pack_tensor(fake, cfg.pac)
    scores = model.critic.forward(
        T.concat([fake_pac, Tensor(cond_pac.astype(fake.data.dtype))], axis=1),
        mode="train",
        rng=rng,
    )
    gen_loss = -T.mean(scores)
    ce = None
    if i_s is not None:
        ce_terms = []
        for pos, col_idx in enumerate(model.layout.columns):
            mask = i_s == pos
            if not mask.any():
                continue
            span = model.transformer.span_for(col_idx)
            rows = np.flatnonzero(mask)
            logp = T.log_softmax(scaled_blocks[span.start], axis=1)
            picked = T.take_pairs(logp, rows, k_s[rows])
            ce_terms.append(-T.sum_(picked))
        if ce_terms:
            total = ce_terms[0]
            for t in ce_terms[1:]:
                total = total + t
            ce = total * (1.0 / batch)
            gen_loss = gen_loss + ce
    return gen_loss, ce


def ctgan_train_batch(
    model: CtganModel,
    matrix: np.ndarray,
    rng: np.random.Generator,
    adam_critic: Adam,
    adam_gen: Adam,
    row_index: RowIndex,
) -> dict[str, float]:
    """One critic update, then one generator update on a fresh batch."""
    w_loss, penalty = critic_loss_graph(model, matrix, rng, row_index)
    critic_loss = w_loss + penalty
    adam_critic.zero_grad()
    adam_gen.zero_grad()
    critic_loss.backward()
    adam_critic.step()

    gen_loss, ce = generator_loss_graph(model, matrix.shape[0], rng)
    adam_gen.zero_grad()
    adam_critic.zero_grad()
    gen_loss.backward()
    adam_gen.step()

    return {
        "critic_loss": float(w_loss.data),
        "penalty": float(penalty.data),
        "generator_loss": float(gen_loss.data),
        "condition_ce": 0.0 if ce is None else float(ce.data),
    }


def ctgan_sample(
    model: CtganModel,
    n: int,
    rng: np.random.Generator,
    condition: tuple[int, int] | None = None,
) -> Table:
    """Decode n generated rows; `condition` forces (i*, k*) for every row."""
    cfg = model.config
    rows = []
    remaining = n
    while remaining > 0:
        chunk = min(remaining, cfg.batch)
        if condition is not None:
            cond = np.tile(build_cond_vector(model.layout, *condition), (chunk, 1))
        else:
            _, _, cond = sample_conditions(model, chunk, rng)
        with T.no_grad():
            out, _ = _generate(model, cond, "eval", rng)
        rows.append(out.data)
        remaining -= chunk
    matrix = np.concatenate(rows, axis=0) if rows else np.zeros((0, model.row_width), dtype=np.float32)
    table = decode_matrix(matrix, model.transformer)
    table.name = "synthetic"
    return table
