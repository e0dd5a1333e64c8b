"""Layer descriptors and the Net executor.

A network is described by an ordered tuple of descriptors (its NetSpec) and
executed by :class:`Net`, which owns the parameters and walks the tuple
itself to build, run and differentiate it.  Every descriptor acts on the
whole row; per-column output heads (tanh, softmax, gumbel-softmax over
slices of the last Dense's output) belong to the models that read them.

ReLU, LeakyReLU and Dropout each multiply by a constant `factor`, their a.e.
derivative, through the tape's `scale` op; `input_gradient` reuses it.

``Dense.segments`` optionally names contiguous row blocks of the weight
matrix (e.g. which rows consume the noise vector vs. the conditional
vector).  Training uses this to transfer weights between networks whose
input widths differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from tabforge.nn import tensor as T
from tabforge.nn.tensor import Tensor

LEAKY_SLOPE = 0.2
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int
    segments: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.segments and sum(w for _, w in self.segments) != self.in_dim:
            raise ValueError("segment widths must sum to in_dim")


@dataclass(frozen=True)
class ReLU:
    def factor(self, x: np.ndarray, mode: str, rng) -> np.ndarray:
        """max(x, 0) over x, in x's dtype."""
        return (x > 0.0).astype(x.dtype)


@dataclass(frozen=True)
class LeakyReLU:
    def factor(self, x: np.ndarray, mode: str, rng) -> np.ndarray:
        """1 where x > 0, else the slope; a data-dependent `np.where` is ~15x slower."""
        return np.maximum((x > 0.0).astype(x.dtype), x.dtype.type(LEAKY_SLOPE))


@dataclass(frozen=True)
class BatchNorm:
    dim: int


@dataclass(frozen=True)
class Dropout:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError("dropout p must be in [0, 1)")

    def factor(self, x: np.ndarray, mode: str, rng) -> np.ndarray | None:
        """Kept units scaled by 1 / (1 - p) in train mode; None (identity) otherwise."""
        if mode != "train" or self.p == 0.0:
            return None
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        keep = (rng.random(x.shape) >= self.p).astype(x.dtype)
        return keep / np.asarray(1.0 - self.p, dtype=x.dtype)


@dataclass(frozen=True)
class ConcatSkip:
    """Output = input ⊕ inner(input); the residual-by-concatenation block."""

    inner: tuple = field(default_factory=tuple)

    @property
    def in_dim(self) -> int | None:
        return getattr(self.inner[0], "in_dim", None) if self.inner else None


class Net:
    """Executable network: the descriptor tuple and its parameters, named by
    layer path and role (`2.W`; `0.1.gamma` inside ConcatSkip 0)."""

    def __init__(self, layers: Sequence, rng: np.random.Generator, dtype=np.float32):
        self.layers = tuple(layers)
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, Tensor] = {}  # running statistics, not trained
        self.param_segments: dict[str, tuple[tuple[str, int], ...]] = {}
        self.in_width = getattr(self.layers[0], "in_dim", None) if self.layers else None
        if self.in_width is None:
            raise ValueError("a Net's first layer must be a Dense or a ConcatSkip that starts with one")
        self.out_width = self._build(self.layers, "", self.in_width, rng)
        # The last forward's batch size, and the factors it scaled by, by layer name.
        self._batch: int | None = None
        self._factors: dict[str, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def _build(self, layers, prefix: str, width: int, rng) -> int:
        """Create `layers`' tensors in order, checking each layer against the
        width it receives; returns the width it emits."""
        for i, layer in enumerate(layers):
            name = f"{prefix}{i}"
            if isinstance(layer, Dense):
                if width != layer.in_dim:
                    raise ValueError(f"layer {name}: expected input width {width}, Dense has {layer.in_dim}")
                k = 1.0 / np.sqrt(layer.in_dim)
                w = rng.uniform(-k, k, size=(layer.in_dim, layer.out_dim)).astype(self.dtype)
                b = rng.uniform(-k, k, size=(layer.out_dim,)).astype(self.dtype)
                self.params[f"{name}.W"] = Tensor(w, requires_grad=True)
                self.params[f"{name}.b"] = Tensor(b, requires_grad=True)
                if layer.segments:
                    self.param_segments[f"{name}.W"] = layer.segments
                width = layer.out_dim
            elif isinstance(layer, BatchNorm):
                if width != layer.dim:
                    raise ValueError(f"layer {name}: BatchNorm dim {layer.dim} != width {width}")
                self.params[f"{name}.gamma"] = Tensor(np.ones(layer.dim, dtype=self.dtype), requires_grad=True)
                self.params[f"{name}.beta"] = Tensor(np.zeros(layer.dim, dtype=self.dtype), requires_grad=True)
                self.buffers[f"{name}.running_mean"] = Tensor(np.zeros(layer.dim, dtype=self.dtype))
                self.buffers[f"{name}.running_var"] = Tensor(np.ones(layer.dim, dtype=self.dtype))
            elif isinstance(layer, ConcatSkip):
                width += self._build(layer.inner, f"{name}.", width, rng)
            elif not isinstance(layer, (ReLU, LeakyReLU, Dropout)):
                raise TypeError(f"unknown layer descriptor {layer!r}")
        return width

    # -- execution -----------------------------------------------------------

    def forward(self, x, mode: str = "train", rng: np.random.Generator | None = None) -> Tensor:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be train or eval, got {mode!r}")
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.data.ndim != 2 or x.data.shape[1] != self.in_width:
            raise ValueError(f"expected input shape (batch, {self.in_width}), got {x.data.shape}")
        self._batch = x.data.shape[0]
        self._factors = {}
        return self._walk(self.layers, "", x, mode, rng)

    def _walk(self, layers, prefix: str, x: Tensor, mode: str, rng) -> Tensor:
        for i, layer in enumerate(layers):
            name = f"{prefix}{i}"
            if isinstance(layer, Dense):
                x = T.linear(x, self.params[f"{name}.W"], self.params[f"{name}.b"])
            elif isinstance(layer, BatchNorm):
                x = self._batchnorm(name, x, mode)
            elif isinstance(layer, ConcatSkip):
                x = T.concat([x, self._walk(layer.inner, f"{name}.", x, mode, rng)], axis=1)
            else:
                factor = layer.factor(x.data, mode, rng)
                if factor is not None:
                    self._factors[name] = factor
                    x = T.scale(x, factor)
        return x

    def _batchnorm(self, name: str, x: Tensor, mode: str) -> Tensor:
        gamma, beta = self.params[f"{name}.gamma"], self.params[f"{name}.beta"]
        rm, rv = self.buffers[f"{name}.running_mean"], self.buffers[f"{name}.running_var"]
        if mode == "train":
            out, mu, var = T.batch_norm(x, gamma, beta, BN_EPS)
            m = BN_MOMENTUM
            rm.data = ((1.0 - m) * rm.data + m * mu).astype(self.dtype)
            rv.data = ((1.0 - m) * rv.data + m * var).astype(self.dtype)
            return out
        return T.batch_norm(x, gamma, beta, BN_EPS, (rm.data, rv.data))[0]

    # -- gradients -------------------------------------------------------------

    def input_gradient(self) -> Tensor:
        """Gradient of the summed scalar output w.r.t. the last forward's
        input, built as a differentiable graph over the parameters.

        Only defined for plain stacks of Dense / (Leaky)ReLU / Dropout with a
        scalar output: exactly the WGAN critic shape.  The activation and
        dropout factors enter as constants, which is their a.e. derivative.
        """
        if self._batch is None:
            raise RuntimeError("input_gradient called before forward")
        if self.out_width != 1:
            raise ValueError("input_gradient requires a scalar-output net")
        g = Tensor(np.ones((self._batch, 1), dtype=self.dtype))
        for i, layer in reversed(list(enumerate(self.layers))):
            name = str(i)
            if isinstance(layer, Dense):
                g = T.matmul(g, T.transpose(self.params[f"{name}.W"]))
            elif isinstance(layer, (BatchNorm, ConcatSkip)):
                raise ValueError("input_gradient only supports Dense/activation/Dropout stacks")
            elif name in self._factors:
                g = T.scale(g, self._factors[name])
        return g

    # -- state ---------------------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def tensors(self) -> dict[str, Tensor]:
        """Every tensor by name: parameters, then BatchNorm running stats."""
        return {**self.params, **self.buffers}
