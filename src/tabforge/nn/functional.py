"""Loss pieces and the gumbel-softmax head shared by the model families."""

from __future__ import annotations

import numpy as np

from tabforge.nn import tensor as T
from tabforge.nn.tensor import Tensor


def kl_std_normal(mu: Tensor, sigma: Tensor) -> Tensor:
    """KL(N(mu, diag(sigma^2)) || N(0, I)) = 1/2 sum(mu^2 + sigma^2 - 1 - ln sigma^2).

    Accepts 1-D vectors (returns a scalar) or 2-D batches (returns per-row
    values); reduction over the last axis.
    """
    if np.any(sigma.data <= 0):
        raise ValueError("sigma must be positive")
    var = sigma * sigma
    inner = mu * mu + var - 1.0 - T.log(var)
    return T.mul(T.sum_(inner, axis=-1), 0.5)


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row cross entropy -log softmax(logits)[target]; callers aggregate."""
    targets = np.asarray(targets)
    logp = T.log_softmax(logits, axis=-1)
    rows = np.arange(logits.data.shape[0])
    return -T.take_pairs(logp, rows, targets)


def gumbel_softmax(
    logits: Tensor, tau: float, mode: str, rng: np.random.Generator | None
) -> tuple[Tensor, Tensor | None]:
    """Gumbel-softmax over the rows of a (batch, k) block of logits.

    Train mode returns (softmax((logits + g) / tau), (logits + g) / tau) with
    g standard Gumbel noise from one `rng.random` draw; the second value is
    what a cross entropy against the block reads.  Eval mode is
    deterministic: the hard one-hot at the un-noised argmax, and None.
    """
    if mode == "eval":
        idx = logits.data.argmax(axis=1)
        hard = np.zeros_like(logits.data)
        hard[np.arange(hard.shape[0]), idx] = 1.0
        return Tensor(hard), None
    if rng is None:
        raise ValueError("train-mode gumbel-softmax needs an rng")
    u = rng.random(logits.data.shape)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    noise = -np.log(-np.log(u)).astype(logits.data.dtype)
    scaled = (logits + Tensor(noise)) * (1.0 / tau)
    return T.softmax(scaled, axis=1), scaled
