"""Differentiable-substrate tests: per-layer and per-head gradient checks,
Adam, gumbel, KL, and the forward-mode contracts (determinism, batch-norm
statistics)."""

import numpy as np
import pytest

from tabforge.nn import tensor as T
from tabforge.models.vae import decoder_heads
from tabforge.nn.functional import cross_entropy_logits, gumbel_softmax, kl_std_normal
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
from tabforge.transform import ColumnSpan, ColumnTransformer

from gradcheck import assert_grads_match, clear_grads, finite_diff, max_rel_error


def _scalarize(out: Tensor, rng: np.random.Generator) -> Tensor:
    w = rng.normal(size=out.data.shape)
    return T.sum_(out * Tensor(w.astype(out.data.dtype)))


# A numeric column with 3 modes (alpha + 3-wide mode indicator) and a
# 2-category column: the row layout the model heads read.
HEAD_SPANS = (ColumnSpan(0, "numeric", 0, 4), ColumnSpan(1, "categorical", 4, 2))
HEAD_LAYOUT = ColumnTransformer((), {}, HEAD_SPANS, 6)

def tanh_head(out: Tensor) -> Tensor:
    """Elementwise tanh as the models' heads compute it: every column an alpha."""
    return T.span_heads(out, range(out.data.shape[1]), [])


def softmax_head(out: Tensor) -> Tensor:
    """Row softmax as the models' heads compute it: one block over the row."""
    return T.span_heads(out, [], [(0, out.data.shape[1])], out)


# Each case: Net layers, then the head (if any) the models apply to its output.
LAYER_CASES = {
    "dense": ([Dense(5, 4)], None),
    "relu": ([Dense(5, 4), ReLU()], None),
    "leaky": ([Dense(5, 4), LeakyReLU()], None),
    "tanh": ([Dense(5, 4)], lambda out, rng: tanh_head(out)),
    "softmax": ([Dense(5, 4)], lambda out, rng: softmax_head(out)),
    "gumbel": ([Dense(5, 4)], lambda out, rng: gumbel_softmax(out, 0.5, "train", rng, [(0, 4)], ())[0]),
    "batchnorm": ([Dense(5, 4), BatchNorm(4)], None),
    "dropout": ([Dense(5, 4), Dropout(0.4)], None),
    "concat_skip": ([ConcatSkip((Dense(5, 3), BatchNorm(3), ReLU()))], None),
    "spans": (
        [Dense(5, 6)],
        lambda out, rng: gumbel_softmax(out, 0.3, "train", rng, HEAD_LAYOUT.blocks, HEAD_LAYOUT.alphas)[0],
    ),
    "decoder_spans": ([Dense(5, 6)], lambda out, rng: decoder_heads(out, HEAD_LAYOUT)[0]),
}


def case_output(name: str, net: Net, x: np.ndarray) -> Tensor:
    """Train-mode output of LAYER_CASES[name]: the net, then its head."""
    rng = np.random.default_rng(99)
    out = net.forward(x, mode="train", rng=rng)
    head = LAYER_CASES[name][1]
    return out if head is None else head(out, rng)


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_layer_gradients_match_finite_differences(name):
    rng = np.random.default_rng(11)
    net = Net(LAYER_CASES[name][0], rng, dtype=np.float64)
    x = rng.normal(size=(6, 5))
    proj = np.random.default_rng(5)

    def loss_value():
        return float(_scalarize(case_output(name, net, x), np.random.default_rng(5)).data)

    loss = _scalarize(case_output(name, net, x), proj)
    clear_grads(net)
    loss.backward()
    numeric = finite_diff(loss_value, net.parameters())
    assert_grads_match(net.parameters(), numeric)


def test_zero_output_gradient_gives_zero_parameter_gradients():
    rng = np.random.default_rng(0)
    net = Net([Dense(3, 4), ReLU(), Dense(4, 2)], rng)
    out = net.forward(rng.normal(size=(5, 3)).astype(np.float32), mode="train", rng=rng)
    out.backward(np.zeros((5, 2), dtype=np.float32))
    for p in net.params.values():
        assert np.all(p.grad == 0.0)


def test_tanh_derivative_at_zero_is_one():
    x = Tensor(np.zeros((1, 1)), requires_grad=True)
    y = tanh_head(x)
    y.backward(np.ones((1, 1)))
    assert np.allclose(x.grad, 1.0)


def test_input_gradient_before_forward_raises():
    net = Net([Dense(2, 1)], np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        net.input_gradient()


def test_input_gradient_equals_the_backward_input_gradient():
    # The critic's shape, in train mode: the activation and dropout factors
    # the forward recorded are the ones the tape differentiates through.
    rng = np.random.default_rng(0)
    layers = [Dense(6, 5), LeakyReLU(), Dropout(0.3), Dense(5, 4), LeakyReLU(), Dropout(0.3), Dense(4, 1)]
    net = Net(layers, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(7, 6)), requires_grad=True)
    T.sum_(net.forward(x, "train", np.random.default_rng(1))).backward()
    assert np.array_equal(net.input_gradient().data, x.grad)


@pytest.mark.parametrize("p", [1.0, -0.1])
def test_dropout_outside_unit_interval_raises_at_construction(p):
    with pytest.raises(ValueError, match="dropout p"):
        Dropout(p)


@pytest.mark.parametrize("layers", [[ReLU(), Dense(3, 2)], [ConcatSkip((BatchNorm(3),))], []])
def test_net_without_an_input_width_raises(layers):
    with pytest.raises(ValueError, match="first layer"):
        Net(layers, np.random.default_rng(0))


def test_identity_dense_passes_input_through():
    net = Net([Dense(3, 3)], np.random.default_rng(0))
    net.params["0.W"].data = np.eye(3, dtype=np.float32)
    net.params["0.b"].data = np.zeros(3, dtype=np.float32)
    x = np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32)
    out = net.forward(x, mode="eval")
    assert np.allclose(out.data, x)


def test_dropout_p0_is_identity_in_both_modes():
    net = Net([Dense(3, 3), Dropout(0.0)], np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32)
    rng = np.random.default_rng(2)
    assert np.array_equal(net.forward(x, "train", rng).data, net.forward(x, "eval").data)


def test_softmax_rows_sum_to_one():
    net = Net([Dense(5, 4)], np.random.default_rng(3))
    x = np.random.default_rng(0).normal(size=(7, 5)).astype(np.float32)
    out = softmax_head(net.forward(x, "eval"))
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


def test_eval_forward_is_bitwise_deterministic():
    rng = np.random.default_rng(4)
    net = Net([Dense(6, 8), BatchNorm(8), ReLU(), Dropout(0.5), Dense(8, 3)], rng)
    x = np.random.default_rng(1).normal(size=(9, 6)).astype(np.float32)
    # Touch train mode first so running stats are non-trivial.
    net.forward(x, "train", np.random.default_rng(7))
    a = softmax_head(net.forward(x, "eval")).data
    b = softmax_head(net.forward(x, "eval")).data
    assert np.array_equal(a, b)


def test_batchnorm_train_mode_normalizes_batch():
    rng = np.random.default_rng(5)
    net = Net([Dense(4, 6), BatchNorm(6)], rng)
    x = (np.random.default_rng(2).normal(size=(256, 4)) * 3 + 1).astype(np.float32)
    out = net.forward(x, "train", rng).data  # gamma=1, beta=0 at init
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-5
    assert np.allclose(out.var(axis=0), 1.0, atol=1e-4)


class TestGumbelSoftmax:
    """`gumbel_softmax`, the head the CTGAN generator runs on each block."""

    def test_soft_mode_simplex(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(50, 6)).astype(np.float32))
        out, _ = gumbel_softmax(logits, 0.5, "train", rng, [(0, 6)], ())
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.data > 0.0)

    def test_dominant_logit_wins(self):
        logits = Tensor(np.array([[50.0, 0.0, 0.0]], dtype=np.float32))
        for seed in range(20):
            out, _ = gumbel_softmax(logits, 0.2, "train", np.random.default_rng(seed), [(0, 3)], ())
            assert out.data[0, 0] > 0.999

    def test_eval_mode_is_one_hot_at_argmax(self):
        logits = np.random.default_rng(1).normal(size=(10, 4)).astype(np.float32)
        out, scaled = gumbel_softmax(Tensor(logits), 0.3, "eval", None, [(0, 4)], ())
        assert scaled is None
        assert np.all(np.sort(out.data, axis=1)[:, :-1] == 0.0)
        assert np.all(out.data.max(axis=1) == 1.0)
        assert np.array_equal(out.data.argmax(axis=1), logits.argmax(axis=1))


class TestKLStdNormal:
    def test_standard_normal_is_zero(self):
        assert kl_std_normal(Tensor(np.zeros(3)), Tensor(np.ones(3))).data == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_case(self):
        # 1/2 (mu^2 + sigma^2 - 1 - ln sigma^2) = 1/2 per dimension
        kl = kl_std_normal(Tensor(np.array([1.0])), Tensor(np.array([1.0])))
        assert kl.data == pytest.approx(0.5, abs=1e-12)

    def test_matches_quadrature(self):
        mu, sigma = 0.7, 1.3
        xs = np.linspace(-12, 12, 200001)
        p = np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
        q = np.exp(-0.5 * xs**2) / np.sqrt(2 * np.pi)
        integrand = p * (np.log(p) - np.log(q))
        expected = np.trapezoid(integrand, xs)
        got = kl_std_normal(Tensor(np.array([mu])), Tensor(np.array([sigma])))
        assert got.data == pytest.approx(expected, abs=1e-4)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            kl_std_normal(Tensor(np.zeros(2)), Tensor(np.array([1.0, 0.0])))

    def test_graph_gradient(self):
        mu = Tensor(np.array([0.3, -0.8]), requires_grad=True)
        sigma = Tensor(np.array([0.9, 1.4]), requires_grad=True)
        kl = kl_std_normal(mu, sigma)
        kl.backward()

        def f():
            return float(kl_std_normal(Tensor(mu.data), Tensor(sigma.data)).data)

        numeric = finite_diff(f, [("mu", mu), ("sigma", sigma)])
        assert max_rel_error(mu.grad, numeric["mu"]) <= 1e-3
        assert max_rel_error(sigma.grad, numeric["sigma"]) <= 1e-3


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        before = p.data.copy()
        for _ in range(5):
            p.grad = np.zeros_like(p.data)
            opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude(self):
        # Bias-corrected first step with g=1: delta = -lr / (1 + eps)
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(-0.1 * 1.0 / (1.0 + 1e-8), abs=1e-12)

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(3)
            net = Net([Dense(4, 8), ReLU(), Dense(8, 1)], rng)
            opt = Adam(net.parameters(), lr=1e-3)
            x = np.random.default_rng(0).normal(size=(16, 4)).astype(np.float32)
            for _ in range(10):
                out = net.forward(x, "train", rng)
                loss = T.mean(out * out)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return net.tensors()

        a, b = run(), run()
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)


def test_cross_entropy_logits_zero_for_confident_match():
    logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]], dtype=np.float32))
    ce = cross_entropy_logits(logits, np.array([0, 1]))
    assert np.allclose(ce.data, 0.0, atol=1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nan_guard_trips_on_overflow():
    x = Tensor(np.array([[1e30]], dtype=np.float32))
    with pytest.raises(FloatingPointError):
        T.exp(T.mul(x, 1e10))
