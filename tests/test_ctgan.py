import numpy as np
import pytest

from tabforge.data import ColumnKind, ColumnMeta, Table
from tabforge.models.ctgan import (
    ModelError,
    _cond_matrix,
    build_ctgan,
    build_row_index,
    critic_loss_graph,
    ctgan_sample,
    ctgan_train_batch,
    generator_loss_graph,
    gradient_penalty,
    sample_conditions,
    sample_real_conditioned,
)
from tabforge.nn.layers import Dense, Dropout, LeakyReLU, Net
from tabforge.transform import ColumnTransformer, encode_table

from conftest import run_config
from gradcheck import clear_grads, finite_diff, max_rel_error


def toy_table(n=120, seed=0, cats=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, n)
    labels = [cats[int(i)] for i in rng.integers(0, len(cats), n)]
    cols = [
        ColumnMeta("x", ColumnKind.numerical()),
        ColumnMeta("g", ColumnKind.categorical(), tuple(cats)),
    ]
    rows = [[float(x[i]), labels[i]] for i in range(n)]
    return Table("toy", cols, rows)


def ctgan_config(*overrides, hidden):
    """A run's CtganConfig with z_dim 8, pac 2 and `hidden` widths."""
    return run_config("ctgan", "--model.z_dim=8", "--model.pac=2", *overrides, model={"hidden": hidden}).model


def small_model(table=None, dtype=np.float32, overrides=()):
    table = table or toy_table()
    tf = ColumnTransformer.fit(table, modes=2, seed=0)
    cfg = ctgan_config("--model.batch=16", *overrides, hidden=(16, 16))
    matrix = encode_table(table, tf, np.random.default_rng(3))
    model = build_ctgan(tf, matrix, cfg, seed=1, dtype=dtype)
    return model, matrix


def cond_transformer(*widths):
    """A transformer over a numeric column then categorical columns with
    `widths` categories each: its conditional vector is the categorical tail."""
    cols = [ColumnMeta("x", ColumnKind.numerical())]
    for i, w in enumerate(widths):
        cols.append(ColumnMeta(f"c{i}", ColumnKind.categorical(), tuple(f"v{k}" for k in range(w))))
    rows = [[float(r)] + [f"v{r % w}" for w in widths] for r in range(12)]
    return ColumnTransformer.fit(Table("cond", cols, rows), modes=1, seed=0)


def cond_vector(tf, i_star, k_star):
    return _cond_matrix(tf, np.array([i_star]), np.array([k_star]))[0]


class TestCondLayout:
    def test_build_cond_vector_example(self):
        tf = cond_transformer(3, 2)
        assert np.array_equal(cond_vector(tf, 1, 0), [0, 0, 0, 1, 0])

    def test_every_valid_pair_has_single_one(self):
        tf = cond_transformer(2, 4, 3)
        for i, w in enumerate((2, 4, 3)):
            for k in range(w):
                v = cond_vector(tf, i, k)
                assert v.sum() == 1.0

    def test_offsets_match_enumeration(self):
        tf = cond_transformer(2, 4, 3)
        expected_pos = 0
        for i, w in enumerate((2, 4, 3)):
            for k in range(w):
                v = cond_vector(tf, i, k)
                assert v.argmax() == expected_pos
                expected_pos += 1

    def test_out_of_range_errors(self):
        tf = cond_transformer(2)
        with pytest.raises(ModelError):
            cond_vector(tf, 1, 0)
        with pytest.raises(ModelError):
            cond_vector(tf, 0, 2)

    def test_forced_sampling_checks_the_condition(self):
        model, _ = small_model()
        with pytest.raises(ModelError, match="categorical column index 1 out of range"):
            ctgan_sample(model, 4, np.random.default_rng(0), condition=(1, 0))
        with pytest.raises(ModelError, match="category index 3 out of range for column 0"):
            ctgan_sample(model, 4, np.random.default_rng(0), condition=(0, 3))


def test_config_rejects_nonpositive_tau():
    with pytest.raises(ModelError, match="tau"):
        run_config("ctgan", "--model.tau=0.0")


class TestSampleCondition:
    def test_single_category_always_chosen(self):
        table = toy_table(cats=("only",))
        model, _ = small_model(table)
        i_s, k_s, cond = sample_conditions(model, 50, np.random.default_rng(0))
        assert np.all(i_s == 0) and np.all(k_s == 0)
        assert np.all(cond == [[1.0]])

    def test_columns_uniform(self):
        rng = np.random.default_rng(0)
        table = toy_table(n=200, cats=("a", "b"))
        # add a second categorical column by cloning
        cols = list(table.columns) + [ColumnMeta("h", ColumnKind.categorical(), ("x", "y"))]
        rows = [row + ["x" if i % 2 else "y"] for i, row in enumerate(table.rows)]
        table2 = Table("t2", cols, rows)
        tf = ColumnTransformer.fit(table2, modes=2, seed=0)
        matrix = encode_table(table2, tf, np.random.default_rng(0))
        model = build_ctgan(tf, matrix, ctgan_config(hidden=(8, 8)), seed=0)
        picks, _, _ = sample_conditions(model, 10_000, rng)
        freq = float(np.mean(picks == 0))
        assert abs(freq - 0.5) < 0.02

    def test_log_frequency_pmf(self):
        # counts (1, e-1): PMF ratio log(2) : 1
        rng = np.random.default_rng(1)
        n1 = 1
        table_cats = ["a"] * n1 + ["b"] * 100
        x = np.linspace(0, 1, len(table_cats))
        cols = [
            ColumnMeta("x", ColumnKind.numerical()),
            ColumnMeta("g", ColumnKind.categorical(), ("a", "b")),
        ]
        rows = [[float(x[i]), table_cats[i]] for i in range(len(table_cats))]
        table = Table("t", cols, rows)
        tf = ColumnTransformer.fit(table, modes=1, seed=0)
        matrix = encode_table(table, tf, np.random.default_rng(0))
        model = build_ctgan(tf, matrix, ctgan_config(hidden=(8, 8)), seed=0)
        expected = np.log1p([1, 100])
        expected = expected / expected.sum()
        _, draws, _ = sample_conditions(model, 100_000, rng)
        freq_a = float((draws == 0).mean())
        assert abs(freq_a - expected[0]) < 0.02 * max(1.0, 1 / expected[0] / 10)

    def test_no_categorical_columns_is_condition_free(self):
        cols = [ColumnMeta("x", ColumnKind.numerical()), ColumnMeta("y", ColumnKind.numerical())]
        rows = [[float(i), float(i * 2)] for i in range(40)]
        table = Table("nums", cols, rows)
        tf = ColumnTransformer.fit(table, modes=2, seed=0)
        matrix = encode_table(table, tf, np.random.default_rng(0))
        model = build_ctgan(tf, matrix, ctgan_config(hidden=(8, 8)), seed=0)
        i_s, k_s, cond = sample_conditions(model, 8, np.random.default_rng(0))
        assert i_s is None and k_s is None
        assert cond.shape == (8, 0)
        assert model.transformer.cond_start == model.row_width


class TestSampleRealConditioned:
    def test_single_matching_row_always_returned(self):
        table = toy_table(n=40, cats=("a", "b"))
        # force exactly one 'b'
        rows = [[r[0], "a"] for r in table.rows]
        rows[7][1] = "b"
        table = Table("t", table.columns[:1] + [ColumnMeta("g", ColumnKind.categorical(), ("a", "b"))], rows)
        tf = ColumnTransformer.fit(table, modes=1, seed=0)
        matrix = encode_table(table, tf, np.random.default_rng(0))
        model = build_ctgan(tf, matrix, ctgan_config(hidden=(8, 8)), seed=0)
        index = build_row_index(model, matrix)
        rows = sample_real_conditioned(matrix, index, np.zeros(10, int), np.ones(10, int), np.random.default_rng(5))
        assert rows.shape == (10, matrix.shape[1])
        assert all(np.array_equal(row, matrix[7]) for row in rows)

    def test_empirically_uniform_over_matches(self):
        model, matrix = small_model(toy_table(n=60, seed=2))
        index = build_row_index(model, matrix)
        candidates = np.flatnonzero(matrix[:, model.transformer.cond_start] == 1.0)
        zeros = np.zeros(30_000, int)
        rows = sample_real_conditioned(matrix, index, zeros, zeros, np.random.default_rng(0))
        draws = [row.tobytes() for row in rows]
        unique, counts = np.unique(draws, return_counts=True)
        assert len(unique) == len(np.unique(matrix[candidates], axis=0))
        fracs = counts / counts.sum()
        # Uniform within 3 points of a percent at this sample size.
        assert np.all(np.abs(fracs - 1.0 / len(unique)) < 0.03)

    def test_batch_draws_equal_one_draw_per_row(self):
        model, matrix = small_model()
        index = build_row_index(model, matrix)
        i_s, k_s, _ = sample_conditions(model, 200, np.random.default_rng(1))
        got = sample_real_conditioned(matrix, index, i_s, k_s, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        starts = [start for start, _ in model.transformer.blocks if start >= model.transformer.cond_start]
        for row, i, k in zip(got, i_s, k_s):
            candidates = np.flatnonzero(matrix[:, starts[i] + k] == 1.0)
            assert np.array_equal(row, matrix[candidates[rng.integers(len(candidates))]])

    def test_no_match_errors(self):
        model, matrix = small_model()
        matrix = matrix.copy()
        matrix[:, model.transformer.cond_start] = 0.0  # erase category 0 everywhere
        index = build_row_index(model, matrix)
        with pytest.raises(ModelError, match=r"condition \(0, 0\)"):
            sample_real_conditioned(matrix, index, np.array([0, 0]), np.array([1, 0]), np.random.default_rng(0))


class TestGradientPenalty:
    def unit_critic(self, in_width, seed=0):
        # critic(x) = w.x with |w|=1 over the row block, no bias
        rng = np.random.default_rng(seed)
        net = Net([Dense(in_width, 1)], rng, dtype=np.float64)
        w = rng.normal(size=(in_width, 1))
        w /= np.linalg.norm(w)
        net.params["0.W"].data = w
        net.params["0.b"].data = np.zeros(1)
        return net

    def test_unit_gradient_linear_critic_gives_zero(self):
        rng = np.random.default_rng(0)
        critic = self.unit_critic(12)
        real = rng.normal(size=(6, 12))
        fake = rng.normal(size=(6, 12))
        cond = np.zeros((6, 0))
        pen = gradient_penalty(critic, real, fake, cond, lam=10.0, rng=rng)
        assert float(pen.data) <= 1e-6

    def test_constant_critic_gives_lambda(self):
        rng = np.random.default_rng(0)
        net = Net([Dense(8, 1)], rng, dtype=np.float64)
        net.params["0.W"].data = np.zeros((8, 1))
        net.params["0.b"].data = np.array([3.0])
        pen = gradient_penalty(net, rng.normal(size=(5, 8)), rng.normal(size=(5, 8)), np.zeros((5, 0)), 10.0, rng)
        assert float(pen.data) == pytest.approx(10.0, abs=1e-6)

    def test_penalty_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        critic = Net(
            [Dense(10, 7), LeakyReLU(), Dropout(0.3), Dense(7, 5), LeakyReLU(), Dense(5, 1)],
            rng,
            dtype=np.float64,
        )
        real = rng.normal(size=(4, 10))
        fake = rng.normal(size=(4, 10))
        cond = np.zeros((4, 0))

        def penalty_value():
            return float(
                gradient_penalty(critic, real, fake, cond, 10.0, np.random.default_rng(42)).data
            )

        pen = gradient_penalty(critic, real, fake, cond, 10.0, np.random.default_rng(42))
        for _, p in critic.parameters():
            p.grad = None
        pen.backward()
        numeric = finite_diff(penalty_value, critic.parameters())
        for name, p in critic.parameters():
            err = max_rel_error(np.zeros_like(p.data) if p.grad is None else p.grad, numeric[name])
            assert err <= 1e-3, f"{name}: {err}"


class TestTrainBatch:
    def test_losses_and_parameters_stay_finite_over_200_steps(self):
        model, matrix = small_model()
        adam_c, adam_g = model.optimizers()
        rng = np.random.default_rng(0)
        index = build_row_index(model, matrix)
        for _ in range(200):
            losses = ctgan_train_batch(model, matrix, rng, adam_c, adam_g, index)
            assert all(np.isfinite(v) for v in losses.values())
        for name, tensor in model.tensors().items():
            assert np.all(np.isfinite(tensor.data)), name

    def test_critic_separates_frozen_generator(self):
        # lambda=0, frozen generator, linearly separable real vs fake:
        # the critic loss (fake - real score difference) must fall.
        model, matrix = small_model(overrides=["--model.lambda_gp=0.0"])
        adam_c, _ = model.optimizers()
        rng = np.random.default_rng(1)
        index = build_row_index(model, matrix)
        first, last = None, None
        for step in range(50):
            w_loss, penalty = critic_loss_graph(model, matrix, rng, index)
            total = w_loss + penalty
            adam_c.zero_grad()
            clear_grads(model.generator)
            total.backward()
            adam_c.step()
            if step == 0:
                first = float(w_loss.data)
            last = float(w_loss.data)
        assert last < first

    def test_ce_zero_when_generator_emits_exact_mask(self):
        # With the conditioned span's scaled logits forced to a huge margin at
        # the target, CE collapses to ~0.
        model, matrix = small_model()
        rng = np.random.default_rng(0)
        gen_loss, ce = generator_loss_graph(model, matrix.shape[0], rng)
        assert ce is not None and float(ce.data) > 0.0
        # Degenerate 1-category table: the mask matches by construction.
        table = toy_table(cats=("only",))
        model1, matrix1 = small_model(table)
        _, ce1 = generator_loss_graph(model1, matrix1.shape[0], np.random.default_rng(0))
        # Single category: softmax over width-1 span is exactly 1 -> CE 0.
        assert float(ce1.data) == pytest.approx(0.0, abs=1e-7)

    def test_full_loss_gradients_match_finite_differences(self):
        # Noise seeds sit away from ReLU/leaky kinks: central differences at
        # h=1e-3 are pure truncation there (verified to shrink as h^2).
        model, matrix = small_model(dtype=np.float64)
        index = build_row_index(model, matrix)

        def critic_value():
            w, p = critic_loss_graph(model, matrix, np.random.default_rng(7), index)
            return float((w + p).data)

        w, p = critic_loss_graph(model, matrix, np.random.default_rng(7), index)
        loss = w + p
        clear_grads(model.critic, model.generator)
        loss.backward()
        numeric = finite_diff(critic_value, model.critic.parameters())
        for name, param in model.critic.parameters():
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            assert max_rel_error(grad, numeric[name]) <= 1e-3, name

        def gen_value():
            g, _ = generator_loss_graph(model, matrix.shape[0], np.random.default_rng(4))
            return float(g.data)

        g, _ = generator_loss_graph(model, matrix.shape[0], np.random.default_rng(4))
        clear_grads(model.critic, model.generator)
        g.backward()
        numeric = finite_diff(gen_value, model.generator.parameters())
        for name, param in model.generator.parameters():
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            assert max_rel_error(grad, numeric[name]) <= 1e-3, name


class TestSampling:
    def test_output_schema_matches_training_schema(self):
        model, _ = small_model()
        table = ctgan_sample(model, 12, np.random.default_rng(0))
        assert [c.name for c in table.columns] == ["x", "g"]
        assert table.n_rows == 12
        assert all(row[1] in ("a", "b", "c") for row in table.rows)

    def test_zero_rows(self):
        model, _ = small_model()
        table = ctgan_sample(model, 0, np.random.default_rng(0))
        assert table.n_rows == 0
        assert [c.name for c in table.columns] == ["x", "g"]

    def test_architecture_widths(self):
        model, _ = small_model()
        cfg = model.config
        cond_width = model.row_width - model.transformer.cond_start
        in0 = cfg.z_dim + cond_width
        # concat-skip: |h_{l+1}| = |h_l| + L_l
        assert model.generator.in_width == in0
        assert model.generator.out_width == model.row_width
        assert model.critic.in_width == cfg.pac * (model.row_width + cond_width)

    def test_pac_must_divide_batch(self):
        table = toy_table()
        tf = ColumnTransformer.fit(table, modes=2, seed=0)
        cfg = ctgan_config("--model.pac=3", "--model.batch=16", hidden=(8, 8))
        matrix = encode_table(table, tf, np.random.default_rng(0))
        model = build_ctgan(tf, matrix, cfg, seed=0)
        adam_c, adam_g = model.optimizers()
        # batch clamps to a multiple of pac rather than erroring
        index = build_row_index(model, matrix)
        losses = ctgan_train_batch(model, matrix, np.random.default_rng(0), adam_c, adam_g, index)
        assert np.isfinite(losses["generator_loss"])
