"""Loss pieces and the gumbel-softmax head shared by the model families."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from tabforge.nn import tensor as T
from tabforge.nn.tensor import Tensor


def kl_std_normal(mu: Tensor, sigma: Tensor) -> Tensor:
    """KL(N(mu, diag(sigma^2)) || N(0, I)) = 1/2 sum(mu^2 + sigma^2 - 1 - ln sigma^2).

    Accepts 1-D vectors (returns a scalar) or 2-D batches (returns per-row
    values); reduction over the last axis.
    """
    var = sigma * sigma
    inner = mu * mu + var - 1.0 - T.log(var)
    return T.mul(T.sum_(inner, axis=-1), 0.5)


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row cross entropy -log softmax(logits)[target]; callers aggregate."""
    targets = np.asarray(targets)
    logp = T.log_softmax(logits, axis=-1)
    rows = np.arange(logits.data.shape[0])
    return -T.gather(logp, (rows, targets))


def gumbel_softmax(
    logits: Tensor,
    tau: float,
    mode: str,
    rng: np.random.Generator | None,
    blocks: list[tuple[int, int]],
    alphas: Sequence[int],
) -> tuple[Tensor, Tensor | None]:
    """Gumbel-softmax over each (start, stop) column block of a (batch, width)
    array of logits, with tanh at the `alphas` columns instead; the blocks
    and alphas must cover every column.

    Train mode returns (heads, (logits + g) / tau) with g standard Gumbel
    noise drawn block by block, one `rng.random` draw each; the second value
    is what a cross entropy against a block reads.  Eval mode is
    deterministic: the hard one-hot at each block's un-noised argmax, and
    None.  The heads are one tape node; the noising is an add and a scale.
    """
    if mode == "eval":
        return T.span_heads(logits, alphas, blocks), None
    if rng is None:
        raise ValueError("train-mode gumbel-softmax needs an rng")
    noise = np.zeros_like(logits.data)
    for start, stop in blocks:
        u = np.clip(rng.random((logits.data.shape[0], stop - start)), 1e-12, 1.0 - 1e-12)
        noise[:, start:stop] = -np.log(-np.log(u))
    scaled = T.scale(logits + Tensor(noise), 1.0 / tau)
    return T.span_heads(logits, alphas, blocks, scaled), scaled
