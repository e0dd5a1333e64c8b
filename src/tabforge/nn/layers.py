"""Layer descriptors and the Net executor.

A network is described by an ordered tuple of descriptors (its NetSpec) and
executed by :class:`Net`, which owns the parameters.  Every descriptor acts
on the whole row; per-column output heads (tanh, softmax, gumbel-softmax over
slices of the last Dense's output) belong to the models that read them.

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
    pass


@dataclass(frozen=True)
class LeakyReLU:
    pass


@dataclass(frozen=True)
class BatchNorm:
    dim: int


@dataclass(frozen=True)
class Dropout:
    p: float


@dataclass(frozen=True)
class ConcatSkip:
    """Output = input ⊕ inner(input); the residual-by-concatenation block."""

    inner: tuple = field(default_factory=tuple)


class Net:
    """Executable network: parameters + compiled layer program."""

    def __init__(self, layers: Sequence, rng: np.random.Generator, dtype=np.float32):
        self.layers = tuple(layers)
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, Tensor] = {}  # running statistics, not trained
        self.param_segments: dict[str, tuple[tuple[str, int], ...]] = {}
        self._program = []
        self.in_width: int | None = None
        self.out_width: int | None = None
        self._trace: list | None = None
        self._last_output: Tensor | None = None
        self._compile(rng)

    # -- construction ------------------------------------------------------

    def _add_dense(self, name: str, layer: Dense, rng) -> None:
        k = 1.0 / np.sqrt(layer.in_dim)
        w = rng.uniform(-k, k, size=(layer.in_dim, layer.out_dim)).astype(self.dtype)
        b = rng.uniform(-k, k, size=(layer.out_dim,)).astype(self.dtype)
        self.params[f"{name}.W"] = Tensor(w, requires_grad=True)
        self.params[f"{name}.b"] = Tensor(b, requires_grad=True)
        if layer.segments:
            self.param_segments[f"{name}.W"] = layer.segments

    def _add_batchnorm(self, name: str, layer: BatchNorm) -> None:
        self.params[f"{name}.gamma"] = Tensor(np.ones(layer.dim, dtype=self.dtype), requires_grad=True)
        self.params[f"{name}.beta"] = Tensor(np.zeros(layer.dim, dtype=self.dtype), requires_grad=True)
        self.buffers[f"{name}.running_mean"] = Tensor(np.zeros(layer.dim, dtype=self.dtype))
        self.buffers[f"{name}.running_var"] = Tensor(np.ones(layer.dim, dtype=self.dtype))

    def _compile(self, rng, layers=None, prefix="", width=None):
        top_level = layers is None
        layers = self.layers if layers is None else layers
        program = []
        first_in = None
        for i, layer in enumerate(layers):
            name = f"{prefix}{i}"
            if isinstance(layer, Dense):
                if width is not None and width != layer.in_dim:
                    raise ValueError(f"layer {name}: expected input width {width}, Dense has {layer.in_dim}")
                if width is None:
                    first_in = layer.in_dim
                self._add_dense(name, layer, rng)
                program.append(("dense", name, layer))
                width = layer.out_dim
            elif isinstance(layer, (ReLU, LeakyReLU)):
                program.append(("act", name, layer))
            elif isinstance(layer, BatchNorm):
                if width is not None and width != layer.dim:
                    raise ValueError(f"layer {name}: BatchNorm dim {layer.dim} != width {width}")
                self._add_batchnorm(name, layer)
                program.append(("batchnorm", name, layer))
            elif isinstance(layer, Dropout):
                if not 0.0 <= layer.p < 1.0:
                    raise ValueError("dropout p must be in [0, 1)")
                program.append(("dropout", name, layer))
            elif isinstance(layer, ConcatSkip):
                inner_prog, inner_out, inner_in = self._compile(rng, layer.inner, prefix=f"{name}.", width=width)
                program.append(("concat_skip", name, inner_prog))
                if width is None:
                    width = inner_in
                    first_in = inner_in
                width += inner_out
            else:
                raise TypeError(f"unknown layer descriptor {layer!r}")
        if top_level:
            self._program = program
            self.out_width = width
            self.in_width = first_in if first_in is not None else width
            return None
        return program, width, first_in

    # -- execution -----------------------------------------------------------

    def forward(self, x, mode: str = "train", rng: np.random.Generator | None = None) -> Tensor:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be train or eval, got {mode!r}")
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.data.ndim != 2 or (self.in_width is not None and x.data.shape[1] != self.in_width):
            raise ValueError(f"expected input shape (batch, {self.in_width}), got {x.data.shape}")
        self._trace = []
        out = self._run(self._program, x, mode, rng)
        self._last_output = out
        return out

    def _run(self, program, x: Tensor, mode: str, rng) -> Tensor:
        for kind, name, layer in program:
            if kind == "dense":
                w, b = self.params[f"{name}.W"], self.params[f"{name}.b"]
                self._trace.append(("dense", w))
                x = T.linear(x, w, b)
            elif kind == "act":
                if isinstance(layer, ReLU):
                    factor = T.relu_factor(x.data)
                    x = T.relu(x, factor)
                else:
                    factor = T.leaky_factor(x.data, LEAKY_SLOPE)
                    x = T.leaky_relu(x, factor)
                self._trace.append(("scale", factor))
            elif kind == "batchnorm":
                x = self._batchnorm(name, x, mode)
                self._trace.append(("opaque", None))
            elif kind == "dropout":
                if mode == "train" and layer.p > 0.0:
                    if rng is None:
                        raise ValueError("train-mode dropout needs an rng")
                    keep = (rng.random(x.data.shape) >= layer.p).astype(x.data.dtype)
                    scaled = keep / np.asarray(1.0 - layer.p, dtype=x.data.dtype)
                    x = x * Tensor(scaled)
                    self._trace.append(("scale", scaled))
                else:
                    self._trace.append(("scale", None))
            elif kind == "concat_skip":
                inner_out = self._run(layer, x, mode, rng)
                x = T.concat([x, inner_out], axis=1)
                self._trace.append(("opaque", None))
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
        if self._trace is None:
            raise RuntimeError("input_gradient called before forward")
        if self.out_width != 1:
            raise ValueError("input_gradient requires a scalar-output net")
        batch = self._last_output.data.shape[0]
        g: Tensor | None = None
        for kind, payload in reversed(self._trace):
            if kind == "dense":
                w = payload
                if g is None:
                    g = T.matmul(Tensor(np.ones((batch, 1), dtype=self.dtype)), T.transpose(w))
                else:
                    g = T.matmul(g, T.transpose(w))
            elif kind == "scale":
                if payload is not None:
                    if g is None:
                        raise ValueError("net does not end in a Dense layer")
                    g = g * Tensor(payload)
            else:
                raise ValueError("input_gradient only supports Dense/activation/Dropout stacks")
        return g

    # -- state ---------------------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def tensors(self) -> dict[str, Tensor]:
        """Every tensor by name: parameters, then BatchNorm running stats."""
        return {**self.params, **self.buffers}
