from dataclasses import replace

import numpy as np
import pytest

from tabforge.data import ColumnKind, ColumnMeta, Table
from tabforge.models.ctgan import ModelError
from tabforge.models.vae import (
    build_vae,
    elbo_loss,
    stvaem_signatures,
    vae_forward,
    vae_sample,
    vae_train_batch,
)
from tabforge.nn.tensor import Tensor
from tabforge.transform import ColumnTransformer, encode_table

from conftest import run_config
from gradcheck import finite_diff, max_rel_error


def toy_table(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(5, 1, n)
    labels = ["u" if v else "v" for v in rng.random(n) < 0.6]
    cols = [
        ColumnMeta("x", ColumnKind.numerical()),
        ColumnMeta("g", ColumnKind.categorical(), ("u", "v")),
    ]
    return Table("toy", cols, [[float(x[i]), labels[i]] for i in range(n)])


def small(variant="stvae", table=None, dtype=np.float32, sig_dim=4, latent=6, recon_weight=1.0):
    table = table or toy_table()
    tf = ColumnTransformer.fit(table, modes=2, seed=0)
    cfg = run_config(
        variant,
        f"--model.latent={latent}",
        f"--model.sig_dim={sig_dim}",
        "--model.batch=32",
        f"--model.recon_weight={recon_weight}",
        model={"hidden": (16, 16)},
    ).model
    model = build_vae(tf, variant, cfg, seed=1, dtype=dtype)
    matrix = encode_table(table, tf, np.random.default_rng(2))
    return model, matrix


class TestForward:
    def test_eps_zero_reduces_to_mu(self):
        model, matrix = small()

        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        mu, sigma, heads, _, z = vae_forward(model, matrix[:8], ZeroRng())
        assert np.allclose(z.data, mu.data)

    def test_softmax_heads_sum_to_one(self):
        model, matrix = small()
        _, _, heads, _, _ = vae_forward(model, matrix[:16], np.random.default_rng(0))
        for start, stop in model.transformer.blocks:
            probs = heads.data[:, start:stop]
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_stvaem_input_width_accounts_for_signatures(self):
        model, matrix = small("stvaem", sig_dim=4)
        n_cols = len(model.transformer.spans)
        assert len(model.signatures) == n_cols * 4
        assert model.encoder.in_width == model.transformer.total_width + n_cols * 4
        mu, sigma, heads, _, _ = vae_forward(model, matrix[:4], np.random.default_rng(0))
        assert heads.data.shape == (4, model.transformer.total_width)

    def test_width_mismatch_errors(self):
        model, matrix = small()
        with pytest.raises(ModelError):
            vae_forward(model, matrix[:4, :-1], np.random.default_rng(0))


def margin_logits(model, batch):
    """Block logits, in block order, with a +/- 60 margin at the target one-hots."""
    return [Tensor(60.0 * (2 * batch[:, start:stop] - 1)) for start, stop in model.transformer.blocks]


class TestElbo:
    def test_perfect_reconstruction_stvae_loss_zero(self):
        # Feed targets through hand-built outputs: alpha_hat == alpha, CE
        # logits with a huge margin, mu=0, sigma=1.
        model, matrix = small()
        batch = matrix[:4]
        mu, sigma, heads, _, _ = vae_forward(model, batch, np.random.default_rng(0))
        perfect = Tensor(batch.copy())
        zeros = Tensor(np.zeros_like(mu.data))
        ones = Tensor(np.ones_like(sigma.data))
        loss = elbo_loss(model, perfect, margin_logits(model, batch), batch, zeros, ones)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-5)

    def test_tvae_nll_at_match_is_half_log_2pi_delta_sq(self):
        model, matrix = small("tvae")
        batch = matrix[:4]
        model.delta.data[:] = 0.25
        perfect = Tensor(batch.copy())
        zeros = Tensor(np.zeros((4, model.config.latent), dtype=np.float32))
        ones = Tensor(np.ones((4, model.config.latent), dtype=np.float32))
        loss = elbo_loss(model, perfect, margin_logits(model, batch), batch, zeros, ones)
        n_numeric = len(model.transformer.alphas)
        expected = n_numeric * 0.5 * np.log(2 * np.pi * 0.25**2)
        assert float(loss.data) == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("variant", ["tvae", "stvae", "stvaem"])
    def test_gradients_match_finite_differences(self, variant):
        model, matrix = small(variant, dtype=np.float64, sig_dim=3)
        batch = matrix[:6].astype(np.float64)

        def value():
            mu, sigma, heads, logits, _ = vae_forward(model, batch, np.random.default_rng(11))
            return float(elbo_loss(model, heads, logits, batch, mu, sigma).data)

        mu, sigma, heads, logits, _ = vae_forward(model, batch, np.random.default_rng(11))
        loss = elbo_loss(model, heads, logits, batch, mu, sigma)
        for p in model.tensors().values():
            p.grad = None
        loss.backward()
        numeric = finite_diff(value, model.tensors().items())
        for name, p in model.tensors().items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            err = max_rel_error(grad, numeric[name])
            assert err <= 1e-3, f"{variant}/{name}: {err:.2e}"

    def test_delta_variant_guard(self):
        # elbo_loss reads the tvae term off model.delta, so a tvae model
        # without one must not exist.
        model, _ = small("stvae")
        with pytest.raises(ModelError, match="delta present iff variant is tvae"):
            replace(model, variant="tvae")


class TestSignatures:
    def test_identical_for_every_row(self):
        model, matrix = small("stvaem", sig_dim=4)
        assert model.signatures is not None
        # vae_forward tiles the same signature onto each row by construction;
        # verify the vector itself is row-independent (it has no row axis).
        assert model.signatures.ndim == 1

    def test_renaming_one_column_changes_only_its_slice(self):
        table = toy_table()
        tf = ColumnTransformer.fit(table, modes=2, seed=0)
        sig_a = stvaem_signatures(tf, 8)
        renamed = Table(
            "toy2",
            [ColumnMeta("xx", ColumnKind.numerical())] + list(table.columns[1:]),
            table.rows,
        )
        tf2 = ColumnTransformer.fit(renamed, modes=2, seed=0)
        sig_b = stvaem_signatures(tf2, 8)
        assert not np.allclose(sig_a[:8], sig_b[:8])
        assert np.allclose(sig_a[8:], sig_b[8:])

    def test_sig_dim_zero_reduces_to_stvae(self):
        table = toy_table()
        m0, matrix = small("stvaem", table=table, sig_dim=0)
        m1, _ = small("stvae", table=table)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        opt_a, opt_b = m0.optimizer(), m1.optimizer()
        la = vae_train_batch(m0, matrix[:32], rng_a, opt_a)
        lb = vae_train_batch(m1, matrix[:32], rng_b, opt_b)
        assert la == pytest.approx(lb, rel=1e-6)


class TestSampling:
    def test_row_count_and_valid_labels(self):
        model, _ = small()
        table = vae_sample(model, 37, np.random.default_rng(0))
        assert table.n_rows == 37
        assert all(row[1] in ("u", "v") for row in table.rows)

    def test_training_moves_sample_mean_toward_data(self):
        # Single numeric column at N(5, 1): after a few hundred batches the
        # sample mean should land in [4.5, 5.5].
        rng = np.random.default_rng(3)
        x = rng.normal(5, 1, 400)
        cols = [ColumnMeta("x", ColumnKind.numerical()), ColumnMeta("g", ColumnKind.categorical(), ("k",))]
        table = Table("n", cols, [[float(v), "k"] for v in x])
        tf = ColumnTransformer.fit(table, modes=1, seed=0)
        cfg = run_config("stvae", "--model.latent=8", "--model.batch=100", model={"hidden": (32, 32)}).model
        model = build_vae(tf, "stvae", cfg, seed=0)
        matrix = encode_table(table, tf, np.random.default_rng(1))
        opt = model.optimizer()
        train_rng = np.random.default_rng(2)
        for epoch in range(75):
            order = train_rng.permutation(matrix.shape[0])
            for start in range(0, len(order), 100):
                batch = matrix[order[start : start + 100]]
                vae_train_batch(model, batch, train_rng, opt)
        sampled = vae_sample(model, 2000, np.random.default_rng(9))
        mean = np.mean([row[0] for row in sampled.rows])
        assert 4.5 <= mean <= 5.5

    def test_delta_clamped_after_steps(self):
        model, matrix = small("tvae")
        model.delta.data[:] = -1.0  # pathological start
        opt = model.optimizer()
        vae_train_batch(model, matrix[:16], np.random.default_rng(0), opt)
        assert np.all(model.delta.data >= 1e-3)
