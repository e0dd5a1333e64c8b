"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float32 (or float64, for finite-difference checks) numpy
array and records the operations that produced it.  Calling ``backward`` on
a scalar loss walks the tape in reverse topological order and accumulates
gradients into every reachable Tensor created with ``requires_grad=True``.

By default every op asserts its output is finite, so a NaN or overflow
surfaces at the op that produced it instead of three layers later.  A
training step instead runs through `guarded_step`: the per-op checks are off,
numpy raises on any overflow or invalid value, and the losses and gradients
are checked once; only a failing step is replayed op by op to name the op.

Fused ops (`linear`, `batch_norm`, `layer_norm`, `causal_attention`,
`gumbel_scale`, `span_heads`) record one node for what would otherwise be a
chain of elementary ops.  Each runs the chain's numpy calls in the chain's
order, forward and backward, and sums a gradient's contributions in the
order the tape would, so a fused and an unfused step give the same bytes.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True
_FLOATS = (np.float32, np.float64)
_CHECK_OPS = True  # per-op finiteness checks; guarded_step turns them off


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


@contextlib.contextmanager
def frozen(params):
    """Leave the parameters `params` out of any backward pass run inside:
    they get no gradient, and a fused op skips computing one."""
    params = [p for p in params if p.requires_grad]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


@contextlib.contextmanager
def _op_checks(on: bool):
    global _CHECK_OPS
    prev = _CHECK_OPS
    _CHECK_OPS = on
    try:
        yield
    finally:
        _CHECK_OPS = prev


def _check_finite(arr: np.ndarray, opname: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values produced by op '{opname}'")


def _checked(*outputs: tuple[np.ndarray, str]) -> None:
    """A fused op's intermediates, checked in order under the names of the
    ops that would have produced them, when per-op checks are on."""
    if _CHECK_OPS:
        for arr, opname in outputs:
            _check_finite(arr, opname)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOATS:
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

        # Each node's contributions add up in the order its consumers run.
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
                if pg.dtype != parent.data.dtype:
                    pg = pg.astype(parent.data.dtype)
                prev = pending.get(id(parent))
                pending[id(parent)] = pg if prev is None else prev + pg

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
    if _CHECK_OPS:
        _check_finite(data, opname)
    out = Tensor.__new__(Tensor)  # an op's output is already a float array
    out.data = data if data.dtype in _FLOATS else data.astype(np.float32)
    out.grad = None
    out.requires_grad = False
    if _GRAD_ENABLED and any(p._connected() for p in parents):
        out._parents = parents
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
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


def relu_factor(x: np.ndarray) -> np.ndarray:
    """ReLU's derivative at x, in x's dtype."""
    return (x > 0.0).astype(x.dtype)


def leaky_factor(x: np.ndarray, slope: float) -> np.ndarray:
    """LeakyReLU's derivative at x, in x's dtype; also its output over x."""
    return np.where(x > 0.0, x.dtype.type(1.0), x.dtype.type(slope))


def relu(a: Tensor, factor: np.ndarray):
    """max(a, 0); `factor` is `relu_factor(a.data)`, its derivative."""
    data = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * factor,)

    return _node(data, (a,), vjp, "relu")


def leaky_relu(a: Tensor, factor: np.ndarray):
    """a * factor, with `factor` = `leaky_factor(a.data, slope)`."""
    data = a.data * factor

    def vjp(g):
        return (g * factor,)

    return _node(data, (a,), vjp, "leaky_relu")


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU (the flavor used in GPT-style blocks) on a
    plain array: (output, tanh term), the tanh term for the tape's vjp.
    The cube is two multiplies, since float32 `x**3` goes through `powf`
    at about fifty times the cost; the product is off from the correctly
    rounded cube by an ulp or so, far below the approximation's own error."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
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


def transpose(a: Tensor):
    """Reversed axes (the matrix transpose of a 2-D tensor)."""
    data = a.data.transpose()

    def vjp(g):
        return (g.transpose(),)

    return _node(data, (a,), vjp, "transpose")


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


def log_softmax(a: Tensor, axis: int = -1):
    data = log_softmax_array(a.data, axis)

    def vjp(g):
        soft = np.exp(data)
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _node(data, (a,), vjp, "log_softmax")


# -- fused ops -----------------------------------------------------------------
#
# Each comment "as the tape" names the chain of elementary ops a fused op
# stands for; the forward and the vjp run that chain's numpy calls in order.


def linear(x: Tensor, w: Tensor, b: Tensor):
    """x @ w + b as one node (a Dense layer); as the tape: matmul, add."""
    mm = x.data @ w.data
    _checked((mm, "matmul"))
    data = mm + b.data
    x_connected = x._connected()

    def vjp(g):
        gx = _sum_to_shape(g @ w.data.swapaxes(-1, -2), x.data.shape) if x_connected else None
        if not w.requires_grad:  # frozen
            return gx, None, None
        gw = _sum_to_shape(x.data.swapaxes(-1, -2) @ g, w.data.shape)
        return gx, gw, _sum_to_shape(g, b.data.shape)

    return _node(data, (x, w, b), vjp, "add")


def _normalize(x: np.ndarray, axis: int, keepdims: bool, eps: float, check: bool = True):
    """Mean and variance over `axis`, then the normalised x.  As the tape:
    sum, mul (mean); sub; mul, sum, mul (variance); add, pow; mul."""
    n = x.dtype.type(1.0 / x.shape[axis])
    s = x.sum(axis=axis, keepdims=keepdims)
    mu = s * n
    centered = x - mu
    sq = centered * centered
    s2 = sq.sum(axis=axis, keepdims=keepdims)
    var = s2 * n
    ve = var + x.dtype.type(eps)
    r = ve**-0.5
    norm = centered * r
    if check:
        _checked(
            (s, "sum"), (mu, "mul"), (centered, "add"), (sq, "mul"), (s2, "sum"),
            (var, "mul"), (ve, "add"), (r, "pow"), (norm, "mul"),
        )
    return n, mu, centered, var, ve, r, norm


def _normalize_node(x: Tensor, gamma: Tensor, beta: Tensor, axis: int, keepdims: bool, eps: float):
    """(normalised x) * gamma + beta as one node; returns it with the mean
    and variance.

    Its parents are (x, x, gamma, beta): x's gradient comes back as its two
    contributions, the centering path's then the mean's, so `backward` adds
    them to x's other uses in the order the tape did.
    """
    n, mu, centered, var, ve, r, norm = _normalize(x.data, axis, keepdims, eps)
    scaled = norm * gamma.data
    _checked((scaled, "mul"))
    data = scaled + beta.data

    def spread(g):  # a sum's vjp: the reduced gradient back over `axis`
        return np.broadcast_to(g if keepdims else np.expand_dims(g, axis), x.data.shape).copy()

    def vjp(g):
        g_norm = g * gamma.data
        g_gamma = _sum_to_shape(g * norm, gamma.data.shape)
        g_beta = _sum_to_shape(g, beta.data.shape)
        g_centered = g_norm * r
        g_r = _sum_to_shape(g_norm * centered, r.shape)
        g_var = g_r * -0.5 * ve**-1.5
        g_sq = spread(g_var * n)
        # `centered` feeds the normalisation and both sides of its square.
        g_centered = (g_centered + g_sq * centered) + g_sq * centered
        g_mu = _sum_to_shape(g_centered, mu.shape) * x.dtype.type(-1.0)
        return g_centered, spread(g_mu * n), g_gamma, g_beta

    return _node(data, (x, x, gamma, beta), vjp, "add"), mu, var


LN_EPS = 1e-5


def layer_norm(x, gamma, beta):
    """Normalise over the last axis, then scale and shift: one node on
    Tensors, and the same float32 arithmetic untaped on plain arrays."""
    if isinstance(x, Tensor):
        return _normalize_node(x, gamma, beta, -1, True, LN_EPS)[0]
    return _normalize(x, -1, True, LN_EPS, check=False)[-1] * gamma + beta


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, running=None):
    """Batch normalisation over axis 0 as one node.

    Train mode (`running` None) normalises by the batch's mean and variance;
    eval mode by `running`, a (mean, variance) pair of arrays.  Returns the
    output and the mean and variance it normalised by.
    """
    if running is None:
        return _normalize_node(x, gamma, beta, 0, False, eps)
    mean, var = running
    # As the tape: sub; mul by the constant inverse std; mul, add.
    inv_std = (var + eps) ** -0.5
    diff = x.data - mean
    norm = diff * inv_std
    scaled = norm * gamma.data
    _checked((diff, "add"), (norm, "mul"), (scaled, "mul"))
    data = scaled + beta.data

    def vjp(g):
        g_gamma = _sum_to_shape(g * norm, gamma.data.shape)
        return (g * gamma.data) * inv_std, g_gamma, _sum_to_shape(g, beta.data.shape)

    return _node(data, (x, gamma, beta), vjp, "add"), mean, var


def causal_attention(qkv: Tensor, n_heads: int, mask: np.ndarray):
    """Multi-head self-attention over a (batch, time, 3 * d) block of
    concatenated queries, keys and values, as one node.  `mask` is added to
    the scaled scores (-1e9 above the diagonal).  As the tape: per q, k, v a
    slice, reshape and swapaxes; then matmul, mul, add, softmax, matmul,
    swapaxes and reshape back to (batch, time, d)."""
    b, t, width = qkv.data.shape
    d = width // 3
    h = d // n_heads
    scale = 1.0 / math.sqrt(h)

    def heads(lo, hi):
        return np.ascontiguousarray(qkv.data[:, :, lo:hi]).reshape(b, t, n_heads, h).swapaxes(1, 2)

    q, k, v = heads(0, d), heads(d, 2 * d), heads(2 * d, width)
    kt = k.swapaxes(-1, -2)
    raw = q @ kt
    scores = raw * scale
    masked = scores + mask
    probs = softmax_array(masked, axis=-1)
    att = probs @ v
    _checked((raw, "matmul"), (scores, "mul"), (masked, "add"), (probs, "softmax"), (att, "matmul"))
    data = att.swapaxes(1, 2).reshape(b, t, d)

    def vjp(g):
        g_att = g.reshape(b, t, n_heads, h).swapaxes(1, 2)
        g_probs = g_att @ v.swapaxes(-1, -2)
        g_v = probs.swapaxes(-1, -2) @ g_att
        dot = (g_probs * probs).sum(axis=-1, keepdims=True)
        g_raw = (probs * (g_probs - dot)) * scale
        g_q = g_raw @ kt.swapaxes(-1, -2)
        g_k = (q.swapaxes(-1, -2) @ g_raw).swapaxes(-1, -2)
        parts = [p.swapaxes(1, 2).reshape(b, t, d) for p in (g_q, g_k, g_v)]
        return (np.concatenate(parts, axis=-1),)

    return _node(data, (qkv,), vjp, "reshape")


def gumbel_scale(logits: Tensor, noise: np.ndarray, tau: float):
    """(logits + noise) / tau as one node; as the tape: add, mul."""
    noised = logits.data + noise
    _checked((noised, "add"))
    inv_tau = 1.0 / tau
    data = noised * inv_tau

    def vjp(g):
        return (g * inv_tau,)

    return _node(data, (logits,), vjp, "mul")


def span_heads(raw: Tensor, alphas, blocks, probs_of: Tensor | None = None):
    """Per-column output heads over a row as one node: tanh of `raw` at the
    `alphas` columns and, over each (start, stop) block, the softmax of
    `probs_of` (which may be `raw` itself), or with `probs_of` None the
    one-hot at raw's argmax, which carries no gradient.  As the tape: per
    column a slice and tanh or softmax, then one concat."""
    alphas = np.asarray(alphas, dtype=np.int64)
    th = np.tanh(raw.data[:, alphas])
    _checked((th, "tanh"))
    data = np.empty_like(raw.data)
    data[:, alphas] = th
    soft = []
    for start, stop in blocks:
        if probs_of is None:
            block = np.zeros((raw.data.shape[0], stop - start), dtype=raw.data.dtype)
            block[np.arange(block.shape[0]), raw.data[:, start:stop].argmax(axis=1)] = 1.0
        else:
            block = softmax_array(probs_of.data[:, start:stop], axis=1)
            _checked((block, "softmax"))
            soft.append(block)
        data[:, start:stop] = block

    def vjp(g):
        g_raw = np.zeros_like(raw.data)
        g_raw[:, alphas] = g[:, alphas] * (1.0 - th * th)
        if probs_of is None:
            return g_raw, None
        g_probs = g_raw if probs_of is raw else np.zeros_like(probs_of.data)
        for (start, stop), block in zip(blocks, soft):
            gb = g[:, start:stop]
            dot = (gb * block).sum(axis=1, keepdims=True)
            g_probs[:, start:stop] = block * (gb - dot)
        return g_raw, (None if probs_of is raw else g_probs)

    return _node(data, (raw, raw if probs_of is None else probs_of), vjp, "concat")


# -- the training-step guard ------------------------------------------------------


def guarded_step(step: str, run: Callable[[], tuple], params, rng=None):
    """Run one training step's forward and backward with one finiteness check.

    `run()` builds the losses, backpropagates and returns the losses (None
    for a term the step did not have).  It runs with the per-op checks off
    and numpy raising on any overflow or invalid value; then the losses and
    the gradients of `params`, (name, tensor) pairs as an optimizer holds
    them, are checked once.  On a failure `rng` is rewound and the step
    replays with per-op checks, so the FloatingPointError names the op; if
    the replay names none, it names `step`.
    """
    rng_state = None if rng is None else rng.bit_generator.state
    try:
        with _op_checks(False), np.errstate(over="raise", invalid="raise"):
            losses = run()
        if all(t is None or np.isfinite(t.data).all() for t in losses) and all(
            p.grad is None or np.isfinite(p.grad).all() for _, p in params
        ):
            return losses
        detail = "a non-finite loss or gradient"
    except FloatingPointError as exc:
        detail = str(exc)
    if rng is not None:
        rng.bit_generator.state = rng_state
    with _op_checks(True):
        run()
    raise FloatingPointError(f"{detail} in {step}")
