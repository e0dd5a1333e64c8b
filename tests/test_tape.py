"""The fused tape ops and the guarded step: each fused op's gradients
against finite differences, the bytes of whole training runs, the tape
nodes per step, and what a failing forward reports."""

import hashlib

import numpy as np
import pytest

from tabforge.data import ColumnKind, ColumnMeta, Table
from tabforge.great.bpe import BOS, EOS, MIN_VOCAB, train_bpe
from tabforge.great.model import KVCache, build_great, great_train_step, pad_batch, sequence_nll
from tabforge.models.ctgan import build_ctgan, build_row_index, ctgan_sample, ctgan_train_batch
from tabforge.models.vae import build_vae, vae_sample, vae_train_batch, vae_val_loss
from tabforge.nn import tensor as T
from tabforge.nn.tensor import Tensor
from tabforge.training import finetune, pretrain
from tabforge.transform import ColumnTransformer, encode_table

from conftest import run_config
from gradcheck import assert_grads_match, finite_diff


def check_gradients(build, **arrays):
    """Gradients of a fixed random projection of `build(**tensors)` with
    respect to every input, against central differences in float64."""
    params = [(name, Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)) for name, a in arrays.items()]
    inputs = dict(params)
    proj = np.random.default_rng(5).normal(size=build(**inputs).data.shape)

    def value():
        return float((build(**inputs).data * proj).sum())

    T.sum_(build(**inputs) * Tensor(proj)).backward()
    assert_grads_match(params, finite_diff(value, params))


def normal(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestFusedGradients:
    def test_linear(self):
        check_gradients(T.linear, x=normal(4, 3), w=normal(3, 5, seed=1), b=normal(5, seed=2))

    def test_linear_over_a_sequence_batch(self):
        check_gradients(T.linear, x=normal(2, 3, 4), w=normal(4, 5, seed=1), b=normal(5, seed=2))

    def test_linear_skips_an_unconnected_input(self):
        x = Tensor(normal(4, 3))
        w, b = Tensor(normal(3, 2, seed=1), requires_grad=True), Tensor(normal(2, seed=2), requires_grad=True)
        out = T.linear(x, w, b)
        assert out._vjp(np.ones((4, 2)))[0] is None
        T.sum_(out).backward()
        assert np.allclose(w.grad, x.data.sum(axis=0)[:, None]) and np.allclose(b.grad, 4.0)

    def test_frozen_parameters_get_no_gradient(self):
        x = Tensor(normal(4, 3), requires_grad=True)
        w, b = Tensor(normal(3, 2, seed=1), requires_grad=True), Tensor(normal(2, seed=2), requires_grad=True)
        with T.frozen([w, b]):
            T.sum_(T.linear(x, w, b)).backward()
        assert w.grad is None and b.grad is None and w.requires_grad and b.requires_grad
        assert np.allclose(x.grad, np.ones((4, 2)) @ w.data.T)

    def test_batch_norm_train(self):
        check_gradients(
            lambda x, gamma, beta: T.batch_norm(x, gamma, beta)[0],
            x=normal(6, 4) * 2 + 1, gamma=normal(4, seed=1), beta=normal(4, seed=2),
        )

    def test_batch_norm_eval(self):
        running = (normal(4, seed=3), np.abs(normal(4, seed=4)) + 0.5)
        check_gradients(
            lambda x, gamma, beta: T.batch_norm(x, gamma, beta, running)[0],
            x=normal(6, 4), gamma=normal(4, seed=1), beta=normal(4, seed=2),
        )

    def test_batch_norm_returns_the_statistics_it_used(self):
        x = Tensor(normal(8, 3) * 3 + 2)
        ones, zeros = Tensor(np.ones(3)), Tensor(np.zeros(3))
        _, mu, var = T.batch_norm(x, ones, zeros)
        assert np.allclose(mu, x.data.mean(axis=0)) and np.allclose(var, x.data.var(axis=0))
        running = (np.zeros(3), np.ones(3))
        _, mean, var = T.batch_norm(x, ones, zeros, running)
        assert mean is running[0] and var is running[1]

    def test_layer_norm_feeding_a_residual(self):
        # x reaches the loss three ways: the residual, the centering and the mean.
        check_gradients(
            lambda x, gamma, beta: x + T.layer_norm(x, gamma, beta),
            x=normal(2, 3, 5), gamma=normal(5, seed=1), beta=normal(5, seed=2),
        )

    def test_causal_attention(self):
        check_gradients(lambda qkv: T.causal_attention(qkv, 2), qkv=normal(2, 4, 12))

    def test_causal_attention_ignores_later_positions(self):
        qkv = normal(1, 5, 6)
        changed = qkv.copy()
        changed[0, -1] += 3.0
        a = T.causal_attention(Tensor(qkv), 1).data
        b = T.causal_attention(Tensor(changed), 1).data
        assert np.array_equal(a[0, :-1], b[0, :-1]) and not np.array_equal(a[0, -1], b[0, -1])

    def test_gather_embedding_rows(self):
        ids = np.array([[0, 2, 2], [3, 0, 2]])  # repeated rows add their gradients
        check_gradients(lambda emb: T.gather(emb, ids), emb=normal(4, 5))

    def test_gather_row_column_pairs(self):
        rows, cols = np.array([0, 1, 1, 3, 3]), np.array([2, 0, 0, 1, 2])
        check_gradients(lambda logp: T.gather(logp, (rows, cols)), logp=normal(4, 3))

    @pytest.mark.parametrize("source", ["scaled", "raw"])
    def test_span_heads(self, source):
        blocks = [(1, 4), (4, 6)]

        def heads(raw):
            probs_of = raw if source == "raw" else T.scale(raw + Tensor(np.zeros(raw.data.shape)), 0.5)
            return T.span_heads(raw, [0], blocks, probs_of)

        check_gradients(heads, raw=normal(5, 6))

    def test_hard_span_heads(self):
        raw = normal(5, 4)
        out = T.span_heads(Tensor(raw), [0], [(1, 4)]).data
        assert np.array_equal(out[:, 0], np.tanh(raw[:, 0]))
        assert np.array_equal(out[:, 1:].argmax(axis=1), raw[:, 1:].argmax(axis=1))
        assert np.array_equal(out[:, 1:].sum(axis=1), np.ones(5))
        check_gradients(lambda raw: T.span_heads(raw, [0], [(1, 4)]), raw=raw)


# -- whole training runs ---------------------------------------------------------


def fixture_table(name, seed, n=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    y = np.concatenate([rng.normal(-3, 0.5, n // 2), rng.normal(3, 0.5, n - n // 2)])
    labels = [("a", "b", "c")[int(i)] for i in rng.integers(0, 3, n)]
    cols = [
        ColumnMeta("u", ColumnKind.numerical()),
        ColumnMeta("w", ColumnKind.numerical()),
        ColumnMeta("g", ColumnKind.categorical(), ("a", "b", "c")),
    ]
    return Table(name, cols, [[float(x[i]), float(y[i]), labels[i]] for i in range(n)])


def fixture_config(kind):
    return run_config(
        kind,
        "--seed=3",
        "--training.iterations=2",
        "--training.epochs=3",
        "--training.ckpt_every=2",
        "--transform.gmm_modes=2",
        "--model.z_dim=8",
        "--model.pac=2",
        "--model.batch=16",
        "--model.latent=8",
        "--model.great.d_model=16",
        "--model.great.n_heads=2",
        "--model.great.n_layers=2",
        "--model.great.ctx=96",
        "--model.great.vocab_size=300",
        "--model.great.batch=8",
        model={} if kind == "great" else {"hidden": (16, 16)},
    )


# sha256 over the fine-tuned tensors (name, then bytes, in name order) after
# pretraining on two tables and fine-tuning on a third.  Recorded with the
# unfused tape, one node per elementary op and every op checked (x86-64,
# numpy 2.4 with OpenBLAS): fusing ops and checking once per step must not
# move a bit.  GReaT's was recorded again when GELU's cube became x * x * x.
GOLDEN = {
    "ctgan": "7f5ffac19b0192da06696984327cfc10c98d566480418ba5bf8593855c496ffb",
    "tvae": "23716894c880cd0d1db02801de0c69d880cca80c21e5daffe7ddbe024e2ef59e",
    "great": "e0e779a40875ea23860f27ef97f143207f40cb6b358ba28141b907a1c23f800d",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_finetuned_tensors_keep_their_bytes(kind):
    cfg = fixture_config(kind)
    body, _ = pretrain([fixture_table("p0", 1), fixture_table("p1", 2)], cfg)
    tuned, _ = finetune(body, fixture_table("t", 4), cfg)
    digest = hashlib.sha256()
    for name in sorted(tuned.tensors):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tuned.tensors[name]).tobytes())
    assert digest.hexdigest() == GOLDEN[kind]


@pytest.fixture
def node_count(monkeypatch):
    """[nodes built, nodes recorded]: every op output, and those that keep a
    vjp for the backward."""
    count = [0, 0]
    node = T._node

    def spy(*args, **kwargs):
        out = node(*args, **kwargs)
        count[0] += 1
        count[1] += out._vjp is not None
        return out

    monkeypatch.setattr(T, "_node", spy)
    return count


def test_tape_nodes_per_ctgan_batch(node_count):
    """The grid-ctgan shape: four numeric and three categorical columns,
    pac 10.  The unfused tape built 231 nodes per batch.  The critic step's
    generator forward builds 12 nodes but records none: that step only
    reads the fake rows' values."""
    rng = np.random.default_rng(0)
    cols = [ColumnMeta(f"x{i}", ColumnKind.numerical()) for i in range(4)]
    cols += [ColumnMeta(f"c{i}", ColumnKind.categorical(), ("a", "b", "c")) for i in range(3)]
    rows = [[float(v) for v in rng.normal(size=4)] + [str(c) for c in rng.choice(["a", "b", "c"], 3)] for _ in range(300)]
    table = Table("t", cols, rows)
    tf = ColumnTransformer.fit(table, 2, 0)
    matrix = encode_table(table, tf, np.random.default_rng(1))
    cfg = run_config("ctgan", "--model.z_dim=8", "--model.batch=250", model={"hidden": (16, 16)}).model
    model = build_ctgan(tf, matrix, cfg, seed=1)
    critic_opt, gen_opt = model.optimizers()
    index = build_row_index(model, matrix)
    node_count[:] = [0, 0]
    ctgan_train_batch(model, matrix, np.random.default_rng(2), critic_opt, gen_opt, index)
    assert node_count == [104, 91]


def test_tape_nodes_per_great_step(node_count):
    """The grid-great shape: two layers.  The unfused tape built 127."""
    sentences = [f"n is {i} and ok is {'yes' if i % 2 else 'no'}" for i in range(8)]
    vocab = train_bpe(sentences, MIN_VOCAB + 6)
    cfg = run_config(
        "great",
        "--model.great.d_model=32",
        "--model.great.n_heads=2",
        "--model.great.n_layers=2",
        "--model.great.ctx=24",
        "--model.great.batch=8",
    ).model
    model = build_great(cfg, vocab, [], 0)
    batch = pad_batch([[BOS] + vocab.encode(s) + [EOS] for s in sentences], 24)
    node_count[:] = [0, 0]
    great_train_step(model, batch, model.optimizer())
    assert node_count == [32, 32]


# -- the guarded step ---------------------------------------------------------------


def raised_at(function, step):
    """The FloatingPointError text of an overflow numpy raised in `function`
    of the package during `step`; any line."""
    return rf"overflow encountered in \w+ at [\w/]+\.py:\d+ \({function}\) in {step}$"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_failing_step_runs_once_and_names_the_line():
    calls = []

    def run():
        calls.append(1)
        return (T.mul(Tensor(np.array([1e30], dtype=np.float32)), 1e10),)

    named = r"^overflow encountered in multiply at nn/tensor\.py:\d+ \(mul\) in the test step$"
    with pytest.raises(FloatingPointError, match=named):
        T.guarded_step("the test step", run)
    assert calls == [1]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_no_op_reports_names_the_step():
    # GELU's cube overflows while tanh saturates: every op output is finite,
    # and numpy still stops at the cube.
    def run():
        return (T.gelu(Tensor(np.array([[1e13]], dtype=np.float32))),)

    with pytest.raises(FloatingPointError, match=raised_at("gelu", "the test step")):
        T.guarded_step("the test step", run)


def test_non_finite_gradient_fails_the_step():
    p = Tensor(np.ones(2), requires_grad=True)

    def run():
        p.grad = np.array([1.0, np.inf])
        return (Tensor(np.zeros(1)),)

    with pytest.raises(FloatingPointError, match="^a non-finite output or gradient in the test step$"):
        T.guarded_step("the test step", run, [("p", p)])


def test_passing_step_runs_once_without_op_checks():
    calls = []

    def run():
        calls.append(1)
        return (Tensor(np.ones(1)), None)

    assert T.guarded_step("the test step", run)[1] is None
    assert calls == [1]


def blow_up(net, *names):
    """Scale each named parameter of `net` by 1e30: one such layer keeps
    its output finite, two stacked ones overflow the second's matmul."""
    for name in names:
        net.params[name].data = net.params[name].data * np.float32(1e30)


def overflowing_forward(forward):
    """A call of the guarded `forward` on a model whose weights overflow it."""
    table = fixture_table("t", 4)
    tf = ColumnTransformer.fit(table, 2, 0)
    matrix = encode_table(table, tf, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    method = forward.split()[0]
    if method == "ctgan":
        model = build_ctgan(tf, matrix, fixture_config(method).model, seed=1)
        critic, gen = model.optimizers()
        if forward == "ctgan sampling":
            blow_up(model.generator, "0.0.W", "1.0.W")
            return lambda: ctgan_sample(model, 10, rng)
        if forward == "ctgan critic step":
            blow_up(model.critic, "0.W")
        else:  # the critic's update leaves a generator that overflows
            update = critic.step
            critic.step = lambda: (update(), blow_up(model.generator, "0.0.W", "1.0.W"))
        return lambda: ctgan_train_batch(model, matrix, rng, critic, gen, build_row_index(model, matrix))
    if method == "stvae":
        model = build_vae(tf, method, fixture_config(method).model, seed=1)
        if forward == "stvae sampling":
            blow_up(model.decoder, "0.W", "2.W")
            return lambda: vae_sample(model, 10, rng)
        blow_up(model.encoder, "0.W")
        if forward == "stvae step":
            return lambda: vae_train_batch(model, matrix[:16], rng, model.optimizer())
        return lambda: vae_val_loss(model, matrix[:16], rng)
    sentences = [f"n is {i} and ok is {'yes' if i % 2 else 'no'}" for i in range(8)]
    vocab = train_bpe(sentences, MIN_VOCAB + 6)
    model = build_great(fixture_config(method).model, vocab, table.columns, 0)
    # MLP pre-activations near 1e13: GELU's cube overflows, tanh saturates.
    model.params["b0.mlp.w1"].data = model.params["b0.mlp.w1"].data * np.float32(1e14)
    batch = pad_batch([[BOS] + vocab.encode(s) + [EOS] for s in sentences], model.config.ctx)
    if forward == "great step":
        return lambda: great_train_step(model, batch, model.optimizer())
    if forward == "great validation loss":
        return lambda: sequence_nll(model, batch)
    return lambda: model.forward(np.full((2, 1), BOS), KVCache(model.config, 2))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("forward, function, step", [
    ("ctgan critic step", "mul", "the ctgan critic step"),
    ("ctgan generator step", "_normalize", "the ctgan generator step"),  # train-mode batch norm squares
    ("ctgan sampling", "linear", "the ctgan sampling draw"),
    ("stvae step", "exp", "the stvae step"),
    ("stvae validation loss", "exp", "the stvae validation loss"),
    ("stvae sampling", "linear", "the stvae sampling draw"),
    ("great step", "gelu", "the great training step"),
    ("great validation loss", "gelu", "the great validation loss"),
    ("great decode step", "gelu", "the cached forward at position 0"),
])
def test_every_forward_names_its_function_and_step(forward, function, step):
    with pytest.raises(FloatingPointError, match=raised_at(function, step)):
        overflowing_forward(forward)()
