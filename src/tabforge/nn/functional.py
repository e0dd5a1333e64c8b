"""Loss pieces shared by the model families."""

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
