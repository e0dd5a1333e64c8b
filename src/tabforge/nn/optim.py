"""Bias-corrected Adam over named parameter tensors."""

from __future__ import annotations

import numpy as np

from tabforge.nn.tensor import Tensor

EPS = 1e-8


class Adam:
    def __init__(
        self,
        params: list[tuple[str, Tensor]],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)
