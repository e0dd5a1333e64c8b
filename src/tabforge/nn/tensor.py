"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float32 (or float64, for finite-difference checks) numpy
array and records the operations that produced it.  Calling ``backward`` on
a scalar loss walks the tape in reverse topological order and accumulates
gradients into every reachable Tensor created with ``requires_grad=True``.

Every op asserts its output is finite, so a NaN or overflow surfaces at the
op that produced it instead of three layers later.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (sampling / evaluation paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _check_finite(arr: np.ndarray, opname: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values produced by op '{opname}'")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    # -- graph plumbing -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _connected(self) -> bool:
        return self.requires_grad or self._vjp is not None

    def backward(self, grad: np.ndarray | None = None) -> None:
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.data.shape}")

        # Iterative topological sort; training graphs can exceed the
        # default recursion limit.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p._connected():
                    stack.append((p, False))

        pending: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent._connected():
                    continue
                pg = pg.astype(parent.data.dtype, copy=False)
                if id(parent) in pending:
                    pending[id(parent)] = pending[id(parent)] + pg
                else:
                    pending[id(parent)] = pg

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self), -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), _wrap(other, self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        other = _wrap(other, self)
        return mul(self, pow_(other, -1.0))

    def __rtruediv__(self, other):
        return mul(_wrap(other, self), pow_(self, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp, opname: str) -> Tensor:
    _check_finite(data, opname)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p._connected() for p in parents):
        out._parents = parents
        out._vjp = vjp
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ---------------------------------------------------------


def add(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.data.dtype))
    b = _wrap(b, a)
    data = a.data + b.data

    def vjp(g):
        return _sum_to_shape(g, a.data.shape), _sum_to_shape(g, b.data.shape)

    return _node(data, (a, b), vjp, "add")


def mul(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.data.dtype))
    b = _wrap(b, a)
    data = a.data * b.data

    def vjp(g):
        return _sum_to_shape(g * b.data, a.data.shape), _sum_to_shape(g * a.data, b.data.shape)

    return _node(data, (a, b), vjp, "mul")


def pow_(a: Tensor, exponent: float):
    data = a.data**exponent

    def vjp(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _node(data, (a,), vjp, "pow")


def exp(a: Tensor):
    data = np.exp(a.data)

    def vjp(g):
        return (g * data,)

    return _node(data, (a,), vjp, "exp")


def log(a: Tensor):
    data = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _node(data, (a,), vjp, "log")


def sqrt(a: Tensor):
    data = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / data,)

    return _node(data, (a,), vjp, "sqrt")


def tanh(a: Tensor):
    data = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - data * data),)

    return _node(data, (a,), vjp, "tanh")


def relu(a: Tensor):
    data = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _node(data, (a,), vjp, "relu")


def leaky_relu(a: Tensor, slope: float = 0.2):
    factor = np.where(a.data > 0.0, 1.0, slope).astype(a.data.dtype)
    data = a.data * factor

    def vjp(g):
        return (g * factor,)

    return _node(data, (a,), vjp, "leaky_relu")


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU (the flavor used in GPT-style blocks) on a
    plain array: (output, tanh term), the tanh term for the tape's vjp."""
    t = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + t), t


def gelu(a: Tensor):
    x = a.data
    data, t = gelu_array(x)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return _node(data, (a,), vjp, "gelu")


def maximum_const(a: Tensor, floor: float):
    """Elementwise max(a, floor); subgradient 0 where the floor binds."""
    mask = (a.data > floor).astype(a.data.dtype)
    data = np.maximum(a.data, floor)

    def vjp(g):
        return (g * mask,)

    return _node(data, (a,), vjp, "maximum_const")


def layer_norm(x, gamma, beta):
    """Normalise over the last axis, then scale and shift.  The same
    formula runs taped on Tensors and untaped on plain float32 arrays, with
    the same float32 arithmetic on both."""
    mu = _last_axis_mean(x)
    centered = x - mu
    var = _last_axis_mean(centered * centered)
    return centered * ((var + 1e-5) ** -0.5) * gamma + beta


def _last_axis_mean(x):
    if isinstance(x, Tensor):
        return x.mean(axis=-1, keepdims=True)
    # What `mean` computes: the sum times the reciprocal count in x's dtype.
    return x.sum(axis=-1, keepdims=True) * x.dtype.type(1.0 / x.shape[-1])


# -- reductions ----------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims=False):
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).copy(),)

    return _node(data, (a,), vjp, "sum")


def mean(a: Tensor, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        n = a.data.shape[axis]
    return mul(sum_(a, axis, keepdims), 1.0 / n)


# -- shape ---------------------------------------------------------------


def reshape(a: Tensor, shape):
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _node(data, (a,), vjp, "reshape")


def transpose(a: Tensor, axes=None):
    data = a.data.transpose(axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inv),)

    return _node(data, (a,), vjp, "transpose")


def swapaxes(a: Tensor, ax1: int, ax2: int):
    data = a.data.swapaxes(ax1, ax2)

    def vjp(g):
        return (g.swapaxes(ax1, ax2),)

    return _node(data, (a,), vjp, "swapaxes")


def concat(parts: Sequence[Tensor], axis: int = -1):
    parts = [p if isinstance(p, Tensor) else Tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(data, tuple(parts), vjp, "concat")


def take(a: Tensor, key):
    """Basic slicing (views by slice/int tuple); gradient scatters back."""
    data = a.data[key]

    def vjp(g):
        out = np.zeros_like(a.data)
        out[key] = g
        return (out,)

    return _node(np.ascontiguousarray(data), (a,), vjp, "take")


def take_rows(a: Tensor, idx: np.ndarray):
    """Row gather (embedding lookup): out[i...] = a[idx[i...]]."""
    data = a.data[idx]

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return _node(data, (a,), vjp, "take_rows")


def take_pairs(a: Tensor, rows: np.ndarray, cols: np.ndarray):
    """Gather a[rows[i], cols[i]] as a vector; used for CE target picking."""
    data = a.data[rows, cols]

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (rows, cols), g)
        return (out,)

    return _node(data, (a,), vjp, "take_pairs")


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires operands with ndim >= 2")
    data = a.data @ b.data

    def vjp(g):
        ga = g @ b.data.swapaxes(-1, -2)
        gb = a.data.swapaxes(-1, -2) @ g
        return _sum_to_shape(ga, a.data.shape), _sum_to_shape(gb, b.data.shape)

    return _node(data, (a, b), vjp, "matmul")


# -- softmax family --------------------------------------------------------


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax of a plain array."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted log-softmax of a plain array."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1):
    data = softmax_array(a.data, axis)

    def vjp(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _node(data, (a,), vjp, "softmax")


def log_softmax(a: Tensor, axis: int = -1):
    data = log_softmax_array(a.data, axis)

    def vjp(g):
        soft = np.exp(data)
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _node(data, (a,), vjp, "log_softmax")
