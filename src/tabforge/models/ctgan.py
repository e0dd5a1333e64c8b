"""Conditional GAN for encoded table rows.

Batch step, per the training-by-sampling procedure: draw a categorical
column uniformly and a category from its log-frequency PMF, build the
conditional vector, generate packed fake rows, sample matching real rows,
and optimize the critic (Wasserstein difference + gradient penalty on
per-pack interpolates) and then the generator (negated critic score + cross
entropy between the generated one-hot and the conditioning mask).

The critic consumes `pac` rows jointly; the generator grows its hidden
state by concatenation (h ⊕ ReLU(BN(FC(h)))) into one Dense over the row
width; the per-column heads over it are tanh for each alpha and
gumbel-softmax (tau 0.2) for each mode indicator and categorical block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tabforge.data import DataError, Table
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
from tabforge.transform import ColumnTransformer, decode_batches


CRITIC_DROPOUT = 0.5
BETAS = (0.5, 0.9)  # Adam's, for both critic and generator


class ModelError(DataError):
    pass


@dataclass
class CtganConfig:
    z_dim: int
    pac: int
    batch: int
    lambda_gp: float
    tau: float
    hidden: tuple[int, int]
    lr: float

    def __post_init__(self):
        for name in ("z_dim", "pac", "batch"):
            if getattr(self, name) < 1:
                raise ModelError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ModelError(f"model.tau (the gumbel-softmax temperature) must be > 0, got {self.tau}")


@dataclass
class CtganModel:
    transformer: ColumnTransformer
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
        cond_w = self.row_width - self.transformer.cond_start
        expect = self.config.pac * (self.row_width + cond_w)
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


def _cond_blocks(transformer: ColumnTransformer) -> list[tuple[int, int]]:
    """The categorical one-hot blocks: the row's tail the condition covers."""
    return [b for b in transformer.blocks if b[0] >= transformer.cond_start]


def condition_log_pmfs(transformer: ColumnTransformer, matrix: np.ndarray) -> list[np.ndarray]:
    """Per categorical column, the log-frequency PMF of its categories over
    the rows of an encoded matrix."""
    pmfs = []
    for start, stop in _cond_blocks(transformer):
        counts = matrix[:, start:stop].sum(axis=0)
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
    row_w = transformer.total_width
    cond_w = row_w - transformer.cond_start
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

    return CtganModel(transformer, generator, critic, list(log_pmfs), config)


# -- training-by-sampling -----------------------------------------------------


def _cond_matrix(transformer: ColumnTransformer, i_stars: np.ndarray, k_stars: np.ndarray) -> np.ndarray:
    """One conditional vector per (i*, k*) pair: the row's categorical tail,
    all zero but for category k* of categorical column i*."""
    blocks = _cond_blocks(transformer)
    bad = (i_stars < 0) | (i_stars >= len(blocks))
    if bad.any():
        raise ModelError(f"categorical column index {i_stars[bad][0]} out of range")
    starts = np.array([start for start, _ in blocks], dtype=np.int64)
    widths = np.array([stop - start for start, stop in blocks], dtype=np.int64)
    bad = (k_stars < 0) | (k_stars >= widths[i_stars])
    if bad.any():
        j = int(np.argmax(bad))
        raise ModelError(f"category index {k_stars[j]} out of range for column {i_stars[j]}")
    cond = np.zeros((len(i_stars), transformer.total_width - transformer.cond_start), dtype=np.float32)
    cond[np.arange(len(i_stars)), starts[i_stars] - transformer.cond_start + k_stars] = 1.0
    return cond


def sample_conditions(model: CtganModel, n: int, rng: np.random.Generator):
    """n draws of (i*, k*): column uniform, category from its log-frequency
    PMF.  Returns (i_stars, k_stars, cond matrix); condition-free tables (no
    categorical columns) give (None, None, an (n, 0) matrix)."""
    n_columns = len(_cond_blocks(model.transformer))
    if n_columns == 0:
        return None, None, np.zeros((n, 0), dtype=np.float32)
    i_stars = rng.integers(n_columns, size=n)
    k_stars = np.zeros(n, dtype=np.int64)
    for c in range(n_columns):
        mask = i_stars == c
        if not mask.any():
            continue
        cum = np.cumsum(model.log_pmfs[c])
        u = rng.random(int(mask.sum()))
        k_stars[mask] = np.minimum((u[:, None] > cum[None, :]).sum(axis=1), len(cum) - 1)
    return i_stars, k_stars, _cond_matrix(model.transformer, i_stars, k_stars)


@dataclass(frozen=True)
class RowIndex:
    """Row ids of an encoded matrix grouped by cond position offset(i*) + k*."""

    offsets: np.ndarray  # per categorical column: its first cond position
    starts: np.ndarray  # per cond position: where its rows begin in `rows`
    counts: np.ndarray  # per cond position: how many rows carry that one-hot
    rows: np.ndarray


def build_row_index(model: CtganModel, matrix: np.ndarray) -> RowIndex:
    """Index the rows of an encoded matrix by their categorical one-hots."""
    cond_start = model.transformer.cond_start
    hits = matrix[:, cond_start:] == 1.0
    _, rows = np.nonzero(hits.T)  # grouped by cond position, rows ascending
    counts = hits.sum(axis=0)
    offsets = np.array([start - cond_start for start, _ in _cond_blocks(model.transformer)], dtype=np.int64)
    return RowIndex(offsets, np.cumsum(counts) - counts, counts, rows)


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


def _generate(model: CtganModel, cond: np.ndarray, mode: str, rng: np.random.Generator):
    """Noise ⊕ cond through the generator body, then its per-column heads
    over the last Dense output: tanh for each alpha, gumbel-softmax for each
    mode indicator and categorical block.

    Returns the encoded row and, in train mode, the noised logits over tau
    (the conditional cross entropy reads its categorical blocks).
    """
    z = rng.standard_normal((cond.shape[0], model.config.z_dim)).astype(np.float32)
    raw = model.generator.forward(np.concatenate([z, cond], axis=1), mode=mode, rng=rng)
    tf = model.transformer
    return gumbel_softmax(raw, model.config.tau, mode, rng, tf.blocks, tf.alphas)


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
    with T.no_grad():  # the critic step never reaches G
        fake, _ = _generate(model, cond, "train", rng)
    if i_s is None:
        real = matrix[rng.integers(matrix.shape[0], size=batch)]
    else:
        real = sample_real_conditioned(matrix, row_index, i_s, k_s, rng)
    cond_pac = _pack(cond, cfg.pac)
    fake_pac = _pack(fake.data, cfg.pac)
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
    fake, scaled = _generate(model, cond, "train", rng)
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
        for pos, (start, stop) in enumerate(_cond_blocks(model.transformer)):
            mask = i_s == pos
            if not mask.any():
                continue
            rows = np.flatnonzero(mask)
            logp = T.log_softmax(scaled[:, start:stop], axis=1)
            picked = T.gather(logp, (rows, k_s[rows]))
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
    """One critic update, then one generator update on a fresh batch; each
    update's forward and backward is one guarded step."""
    def critic_step():
        w_loss, penalty = critic_loss_graph(model, matrix, rng, row_index)
        adam_critic.zero_grad()
        adam_gen.zero_grad()
        (w_loss + penalty).backward()
        return w_loss, penalty

    def generator_step():
        adam_gen.zero_grad()
        adam_critic.zero_grad()
        with T.frozen(p for _, p in adam_critic.params):  # this step leaves the critic as it is
            gen_loss, ce = generator_loss_graph(model, matrix.shape[0], rng)
            gen_loss.backward()
        return gen_loss, ce

    w_loss, penalty = T.guarded_step("the ctgan critic step", critic_step, adam_critic.params)
    adam_critic.step()
    gen_loss, ce = T.guarded_step("the ctgan generator step", generator_step, adam_gen.params)
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

    def draw(count: int) -> np.ndarray:
        if condition is not None:
            i_star, k_star = condition
            cond = _cond_matrix(model.transformer, np.full(count, i_star), np.full(count, k_star))
        else:
            _, _, cond = sample_conditions(model, count, rng)
        with T.no_grad():
            out, _ = T.guarded_step("the ctgan sampling draw", lambda: _generate(model, cond, "eval", rng))
        return out.data

    return decode_batches(model.transformer, n, model.config.batch, draw)
