"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Criteria 6-9 are desk-scale training runs with calibrated
floors; everything else is exact or tolerance-pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from tabforge.data import ColumnKind, ColumnMeta, Table
from tabforge.cleaning import clean_table, cleaning_config
from tabforge.config import load_config
from tabforge.great.bpe import BOS, EOS, MIN_VOCAB, train_bpe
from tabforge.great.model import (
    build_great,
    great_generate,
    great_train_step,
    pad_batch,
)
from tabforge.leaderboard import mann_whitney_u
from tabforge.metrics import table_report
from tabforge.models.ctgan import (
    build_row_index,
    critic_loss_graph,
    ctgan_sample,
    generator_loss_graph,
    gradient_penalty,
)
from tabforge.models.vae import build_vae, elbo_loss, vae_forward
from tabforge.nn.layers import Dense, Net
from tabforge.textrow import serialize_row_text
from tabforge.training import (
    finetune,
    pretrain,
    sample_from_checkpoint,
)
from tabforge.transform import ColumnTransformer, encode_table, fit_gmm, _encode_numeric_batch

import oracle_metrics as oracle
from conftest import make_toy_corpus, run_config
from gradcheck import clear_grads, finite_diff, max_rel_error
from test_metrics import random_toy_pair
from test_nn import LAYER_CASES, _scalarize, case_output
from test_transform import round_trip_columns


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion} {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1: metric oracle equivalence -------------------------------------------------


def test_criterion_1_metric_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        real, syn, kinds = random_toy_pair(rng)
        rep = table_report(real, syn)
        real_cols = {m.name: real.column_values(i) for i, m in enumerate(real.columns)}
        syn_cols = {m.name: syn.column_values(i) for i, m in enumerate(syn.columns)}
        s_shape, s_trend, s_overall = oracle.oracle_table_report(real_cols, syn_cols, kinds)
        worst = max(worst, abs(rep.s_shape - s_shape), abs(rep.s_overall - s_overall))
        if s_trend is not None:
            worst = max(worst, abs(rep.s_trend - s_trend))
    elapsed = time.time() - t0
    report(
        "criterion 1 (metric oracle equivalence, 50 tables)",
        worst <= 1e-9 and elapsed < 60,
        f"worst |diff|={worst:.2e}, {elapsed:.1f}s",
    )


# -- 2: exact Mann-Whitney statistics -----------------------------------------------


def test_criterion_2_exact_mann_whitney():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
    exact_disjoint = (u == 0.0 and abs(p - 0.1) < 1e-12)

    worst = 0.0
    rng = np.random.default_rng(5)
    for n in range(1, 10):
        for m in range(1, 10):
            if n + m > 10:
                continue
            for _ in range(3):  # tie-heavy draws over a small support
                a = rng.integers(0, 3, n).tolist()
                b = rng.integers(0, 3, m).tolist()
                u_got, p_got = mann_whitney_u(a, b)
                u_ref, p_ref = oracle.oracle_mann_whitney_exact(a, b)
                worst = max(worst, abs(u_got - u_ref), abs(p_got - p_ref))
    report(
        "criterion 2 (exact Mann-Whitney, n+m<=10 incl. ties)",
        exact_disjoint and worst <= 1e-12,
        f"worst |diff|={worst:.2e}, disjoint p exact={exact_disjoint}",
    )


# -- 3: transform round trip ----------------------------------------------------------


def test_criterion_3_transform_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(0)
    columns = round_trip_columns(rng)
    worst = 0.0
    checked = 0
    for name, values in columns.items():
        params = fit_gmm(values, K=10, seed=3)
        draw = rng.choice(values, 10_000)
        alpha, beta = _encode_numeric_batch(params, draw, rng)
        assert np.all(beta.sum(axis=1) == 1.0) and np.all((beta == 0.0) | (beta == 1.0))
        _, mu, sd = params.active_triples()
        ks = beta.argmax(axis=1)
        decoded = alpha * 4.0 * sd[ks] + mu[ks]
        unclipped = np.abs(alpha) < 1.0
        err = np.abs(decoded[unclipped] - draw[unclipped]) / np.maximum(1.0, np.abs(draw[unclipped]))
        worst = max(worst, float(err.max()))
        checked += int(unclipped.sum())
    elapsed = time.time() - t0
    report(
        "criterion 3 (transform round trip, 10k values/column)",
        worst <= 1e-5 and elapsed < 30,
        f"worst rel err={worst:.2e} over {checked} values, {elapsed:.1f}s",
    )


# -- 4: gradient fidelity ---------------------------------------------------------------


def _ctgan_fixture(dtype=np.float64):
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 60)
    labels = [("a", "b", "c")[int(i)] for i in rng.integers(0, 3, 60)]
    cols = [
        ColumnMeta("x", ColumnKind.numerical()),
        ColumnMeta("g", ColumnKind.categorical(), ("a", "b", "c")),
    ]
    table = Table("toy", cols, [[float(x[i]), labels[i]] for i in range(60)])
    tf = ColumnTransformer.fit(table, modes=2, seed=0)
    from tabforge.models.ctgan import build_ctgan

    matrix = encode_table(table, tf, np.random.default_rng(3))
    cfg = run_config(
        "ctgan", "--model.z_dim=8", "--model.pac=2", "--model.batch=16", ctgan={"hidden": (16, 16)}
    ).ctgan
    model = build_ctgan(tf, matrix, cfg, 1, dtype)
    return model, matrix


def test_criterion_4_gradient_fidelity():
    t0 = time.time()
    failures = []

    # Every layer type and every model head kind in isolation.
    for name, (layers, _head) in sorted(LAYER_CASES.items()):
        rng = np.random.default_rng(11)
        net = Net(layers, rng, dtype=np.float64)
        x = rng.normal(size=(6, 5))

        def loss_value():
            return float(_scalarize(case_output(name, net, x), np.random.default_rng(5)).data)

        loss = _scalarize(case_output(name, net, x), np.random.default_rng(5))
        clear_grads(net)
        loss.backward()
        numeric = finite_diff(loss_value, net.parameters())
        for pname, p in net.parameters():
            err = max_rel_error(p.grad if p.grad is not None else np.zeros_like(p.data), numeric[pname])
            if err > 1e-3:
                failures.append(f"layer {name}/{pname}: {err:.1e}")

    # CTGAN critic loss (incl. penalty) and generator loss.
    model, matrix = _ctgan_fixture()
    index = build_row_index(model, matrix)

    def critic_value():
        w, p = critic_loss_graph(model, matrix, np.random.default_rng(7), index)
        return float((w + p).data)

    w, p = critic_loss_graph(model, matrix, np.random.default_rng(7), index)
    clear_grads(model.critic, model.generator)
    (w + p).backward()
    numeric = finite_diff(critic_value, model.critic.parameters())
    for pname, par in model.critic.parameters():
        err = max_rel_error(par.grad if par.grad is not None else np.zeros_like(par.data), numeric[pname])
        if err > 1e-3:
            failures.append(f"ctgan critic/{pname}: {err:.1e}")

    def gen_value():
        g, _ = generator_loss_graph(model, matrix.shape[0], np.random.default_rng(4))
        return float(g.data)

    g, _ = generator_loss_graph(model, matrix.shape[0], np.random.default_rng(4))
    clear_grads(model.critic, model.generator)
    g.backward()
    numeric = finite_diff(gen_value, model.generator.parameters())
    for pname, par in model.generator.parameters():
        err = max_rel_error(par.grad if par.grad is not None else np.zeros_like(par.data), numeric[pname])
        if err > 1e-3:
            failures.append(f"ctgan generator/{pname}: {err:.1e}")

    # All three ELBO variants.
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 40)
    labels = [("u", "v")[int(i)] for i in rng.integers(0, 2, 40)]
    cols = [
        ColumnMeta("x", ColumnKind.numerical()),
        ColumnMeta("g", ColumnKind.categorical(), ("u", "v")),
    ]
    table = Table("toy", cols, [[float(x[i]), labels[i]] for i in range(40)])
    tf = ColumnTransformer.fit(table, modes=2, seed=0)
    enc = encode_table(table, tf, np.random.default_rng(1)).astype(np.float64)
    # Init seeds chosen so no ReLU pre-activation sits within h of a kink
    # (finite differences are undefined there; convergence in h verified).
    for variant, init_seed in (("tvae", 2), ("stvae", 2), ("stvaem", 3)):
        cfg = run_config(
            variant, "--model.latent=5", "--model.sig_dim=3", "--model.batch=16", vae={"hidden": (12, 12)}
        ).vae
        vmodel = build_vae(tf, cfg, seed=init_seed, dtype=np.float64)
        batch = enc[:6]

        def value():
            mu, sigma, heads, logits, _ = vae_forward(vmodel, batch, np.random.default_rng(11))
            return float(elbo_loss(vmodel, heads, logits, batch, mu, sigma).data)

        mu, sigma, heads, logits, _ = vae_forward(vmodel, batch, np.random.default_rng(11))
        loss = elbo_loss(vmodel, heads, logits, batch, mu, sigma)
        for _, par in vmodel.parameters():
            par.grad = None
        loss.backward()
        numeric = finite_diff(value, vmodel.parameters())
        for pname, par in vmodel.parameters():
            err = max_rel_error(par.grad if par.grad is not None else np.zeros_like(par.data), numeric[pname])
            if err > 1e-3:
                failures.append(f"{variant}/{pname}: {err:.1e}")

    elapsed = time.time() - t0
    report(
        "criterion 4 (gradient fidelity: layers, CTGAN incl. penalty, ELBO x3)",
        not failures and elapsed < 120,
        f"{len(failures)} failures {failures[:3]}, {elapsed:.1f}s",
    )


# -- 5: degenerate gradient-penalty cases ----------------------------------------------


def test_criterion_5_degenerate_gradient_penalty():
    rng = np.random.default_rng(0)
    unit = Net([Dense(12, 1)], rng, dtype=np.float64)
    w = rng.normal(size=(12, 1))
    unit.params["0.W"].data = w / np.linalg.norm(w)
    unit.params["0.b"].data = np.zeros(1)
    pen_unit = float(
        gradient_penalty(unit, rng.normal(size=(6, 12)), rng.normal(size=(6, 12)), np.zeros((6, 0)), 10.0, rng).data
    )

    const = Net([Dense(8, 1)], rng, dtype=np.float64)
    const.params["0.W"].data = np.zeros((8, 1))
    const.params["0.b"].data = np.array([2.5])
    pen_const = float(
        gradient_penalty(const, rng.normal(size=(5, 8)), rng.normal(size=(5, 8)), np.zeros((5, 0)), 10.0, rng).data
    )
    report(
        "criterion 5 (degenerate gradient penalty)",
        pen_unit <= 1e-6 and abs(pen_const - 10.0) <= 1e-6,
        f"unit-critic={pen_unit:.2e}, constant-critic={pen_const:.8f}",
    )


# -- 6 & 8: desk-scale generation quality and conditioning -------------------------------


def bench_table(n=1000, seed=11):
    """Two mixture numerics, two categoricals, moderate cross dependence."""
    rng = np.random.default_rng(seed)
    cat1 = rng.choice(["a", "b", "c"], n, p=[0.5, 0.3, 0.2])
    px = np.where(cat1 == "a", 0.65, np.where(cat1 == "b", 0.5, 0.4))
    cat2 = np.where(rng.random(n) < px, "x", "y")
    n1 = np.where(rng.random(n) < 0.5, rng.normal(-3, 1, n), rng.normal(3, 1, n))
    shift = np.where(cat1 == "a", -1.0, np.where(cat1 == "b", 0.0, 1.0))
    n2 = rng.normal(5, 1.5, n) + shift + 0.3 * n1
    cols = [
        ColumnMeta("n1", ColumnKind.numerical()),
        ColumnMeta("n2", ColumnKind.numerical()),
        ColumnMeta("c1", ColumnKind.categorical(), ("a", "b", "c")),
        ColumnMeta("c2", ColumnKind.categorical(), ("x", "y")),
    ]
    rows = [[float(n1[i]), float(n2[i]), str(cat1[i]), str(cat2[i])] for i in range(n)]
    return Table("bench", cols, rows)


@pytest.fixture(scope="module")
def trained_ctgan():
    table = bench_table()
    cfg = run_config(
        "ctgan",
        "--seed=0",
        "--training.epochs=300",
        "--training.ckpt_every=100",
        "--transform.gmm_modes=10",
        "--model.net_size=small",
        "--model.z_dim=128",
        "--model.pac=10",
        "--model.batch=100",
    )
    t0 = time.time()
    ckpt, _ = finetune(None, table, cfg)
    return table, ckpt, time.time() - t0


def test_criterion_6_desk_scale_generation_quality(trained_ctgan):
    table = bench_table()
    t0 = time.time()
    cfg = run_config(
        "stvae",
        "--seed=0",
        "--training.epochs=300",
        "--training.patience=301",
        "--transform.gmm_modes=10",
        "--model.net_size=small",
        "--model.latent=64",
        "--model.batch=100",
        "--model.recon_weight=32.0",
    )
    ckpt, _ = finetune(None, table, cfg)
    syn = sample_from_checkpoint(ckpt, table.n_rows, seed=1)
    syn.name = table.name
    stvae_rep = table_report(table, syn)
    stvae_time = time.time() - t0

    ctgan_table, ctgan_ckpt, ctgan_time = trained_ctgan
    syn_gan = sample_from_checkpoint(ctgan_ckpt, ctgan_table.n_rows, seed=1)
    syn_gan.name = ctgan_table.name
    ctgan_rep = table_report(ctgan_table, syn_gan)

    report(
        "criterion 6 (desk-scale quality: STVAE overall >= 0.85, CTGAN shape >= 0.75)",
        stvae_rep.s_overall >= 0.85 and ctgan_rep.s_shape >= 0.75 and stvae_time < 300 and ctgan_time < 300,
        f"stvae overall={stvae_rep.s_overall:.3f} ({stvae_time:.0f}s), "
        f"ctgan shape={ctgan_rep.s_shape:.3f} ({ctgan_time:.0f}s)",
    )


def test_criterion_8_ctgan_conditioning(trained_ctgan):
    table, ckpt, _ = trained_ctgan
    from tabforge.training import rebuild_model

    model = rebuild_model(ckpt)
    worst = 1.0
    for k, cat in enumerate(("a", "b", "c")):
        forced = ctgan_sample(model, 400, np.random.default_rng(5), condition=(0, k))
        frac = float(np.mean([row[2] == cat for row in forced.rows]))
        worst = min(worst, frac)
    report(
        "criterion 8 (CTGAN forced conditioning >= 95%)",
        worst >= 0.95,
        f"min fraction over categories={worst:.3f}",
    )


# -- 7: transferability direction ------------------------------------------------------


def family_table(name, seed, n=300):
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.uniform(-1, 1), 1.0, n)
    y = 1.5 * x + rng.normal(0, 0.4, n) + rng.uniform(-0.5, 0.5)
    p = rng.dirichlet([8, 5, 3])
    c = rng.choice(["lo", "mid", "hi"], n, p=p)
    cols = [
        ColumnMeta("x", ColumnKind.numerical()),
        ColumnMeta("y", ColumnKind.numerical()),
        ColumnMeta("level", ColumnKind.categorical(), ("lo", "mid", "hi")),
    ]
    return Table(name, cols, [[float(x[i]), float(y[i]), str(c[i])] for i in range(n)])


def test_criterion_7_transferability_direction():
    t0 = time.time()

    def tconfig(seed):
        return run_config(
            "stvae",
            f"--seed={seed}",
            "--training.epochs=50",
            "--training.iterations=60",
            "--training.patience=51",  # equal 50-epoch budget: never early-stop
            "--transform.gmm_modes=1",
            "--model.latent=16",
            "--model.batch=100",
            vae={"hidden": (64, 64)},
        )

    corpus = [family_table(f"fam{i}", seed=100 + i) for i in range(5)]
    target = family_table("target", seed=999, n=150)
    ft_scores, sc_scores, val5_lower = [], [], 0
    for seed in range(5):
        pre, _ = pretrain(corpus, tconfig(seed))
        ft_ckpt, ft_log = finetune(pre, target, tconfig(seed))
        sc_ckpt, sc_log = finetune(None, target, tconfig(seed))

        def overall(ck, s=seed):
            syn = sample_from_checkpoint(ck, target.n_rows, seed=s)
            syn.name = target.name
            return table_report(target, syn).s_overall

        ft_scores.append(overall(ft_ckpt))
        sc_scores.append(overall(sc_ckpt))
        if ft_log.entries[4]["val_loss"] < sc_log.entries[4]["val_loss"]:
            val5_lower += 1
    elapsed = time.time() - t0
    ok = (
        float(np.median(ft_scores)) > float(np.median(sc_scores))
        and val5_lower >= 4
        and elapsed < 600
    )
    report(
        "criterion 7 (transferability: finetuned > scratch)",
        ok,
        f"median ft={np.median(ft_scores):.3f} vs sc={np.median(sc_scores):.3f}, "
        f"val5 lower {val5_lower}/5, {elapsed:.0f}s",
    )


# -- 9: GReaT pipeline ------------------------------------------------------------------


def test_criterion_9_great_pipeline():
    t0 = time.time()
    # Tokenizer exactness on arbitrary byte strings.
    vocab0 = train_bpe(["seed text for merges", "more text"], MIN_VOCAB + 16)
    rng = np.random.default_rng(0)
    tok_ok = True
    for n in (0, 1, 7, 33, 128):
        data = bytes(rng.integers(0, 256, n).tolist())
        ids = vocab0.encode_bytes(data)
        if vocab0.decode_bytes(ids) != data or vocab0.encode_bytes(vocab0.decode_bytes(ids)) != ids:
            tok_ok = False

    # Memorize a single-row corpus.
    sentence = "Age is 26 and Gender is M"
    vocab = train_bpe([sentence], MIN_VOCAB + 32)
    seq = [BOS] + vocab.encode(sentence) + [EOS]
    cfg = run_config(
        "great",
        "--model.great.d_model=32",
        "--model.great.n_heads=2",
        "--model.great.n_layers=2",
        "--model.great.ctx=64",
        "--model.great.vocab_size=512",
        "--model.great.lr=3e-3",
        "--model.great.batch=8",
    ).great
    model = build_great(cfg, vocab, seed=0)
    opt = model.optimizer()
    batch = pad_batch([seq] * 8, cfg.ctx)
    memorize_loss = None
    steps = 0
    for step in range(200):
        memorize_loss = great_train_step(model, batch, opt)
        steps = step + 1
        if memorize_loss < 0.1:
            break

    # Validity on a 2-column toy table after 2000 steps.
    rng = np.random.default_rng(3)
    n = 250
    age = rng.integers(18, 90, n)
    gender = np.where(rng.random(n) < 0.5, "M", "F")
    cols = [
        ColumnMeta("Age", ColumnKind.numerical()),
        ColumnMeta("Gender", ColumnKind.categorical(), ("M", "F")),
    ]
    table = Table("toy", cols, [[float(age[i]), str(gender[i])] for i in range(n)])
    sentences = [serialize_row_text(table.columns, r) for r in table.rows]
    vocab2 = train_bpe(sentences, MIN_VOCAB + 128)
    seqs = [[BOS] + vocab2.encode(s) + [EOS] for s in sentences]
    ctx = max(len(s) for s in seqs) + 8
    cfg2 = run_config(
        "great",
        "--model.great.d_model=64",
        "--model.great.n_heads=2",
        "--model.great.n_layers=2",
        f"--model.great.ctx={ctx}",
        "--model.great.vocab_size=4096",
        "--model.great.lr=1e-3",
        "--model.great.batch=16",
        "--model.great.max_retries=2",
    ).great
    model2 = build_great(cfg2, vocab2, seed=0)
    opt2 = model2.optimizer()
    perm = np.random.default_rng(1)
    step = 0
    while step < 2000:
        order = perm.permutation(len(seqs))
        for start in range(0, len(order), cfg2.batch):
            chunk = [seqs[i] for i in order[start : start + cfg2.batch]]
            great_train_step(model2, pad_batch(chunk, cfg2.ctx), opt2)
            step += 1
            if step >= 2000:
                break
    _, validity = great_generate(model2, list(table.columns), 100, np.random.default_rng(0))
    elapsed = time.time() - t0
    report(
        "criterion 9 (GReaT: tokenizer exact, memorize <0.1 in <=200 steps, validity >= 0.8)",
        tok_ok and memorize_loss < 0.1 and validity >= 0.8 and elapsed < 300,
        f"memorize loss={memorize_loss:.3f} @{steps} steps, validity={validity:.2f}, {elapsed:.0f}s",
    )


# -- 10: cleaning conformance ---------------------------------------------------------


def test_criterion_10_cleaning_conformance():
    rng = np.random.default_rng(0)
    n = 100
    cols = [
        ColumnMeta("user_id", ColumnKind.numerical()),  # identity -> drop
        ColumnMeta("created", ColumnKind.categorical(), tuple(f"2021-01-{d % 28 + 1:02d}" for d in range(28))),
        ColumnMeta("mostly_unique", ColumnKind.categorical(), tuple(f"u{i}" for i in range(95))),
        ColumnMeta("fifty_cats", ColumnKind.categorical(), tuple(f"c{i}" for i in range(50))),
        ColumnMeta("sparse_nulls", ColumnKind.numerical()),  # 60% null -> drop
        ColumnMeta("price", ColumnKind.numerical()),  # kept, some nulls imputed
        ColumnMeta("color", ColumnKind.categorical(), ("red", "blue")),  # kept
    ]
    rows = []
    for i in range(n):
        rows.append(
            [
                float(i + 1),
                f"2021-01-{i % 28 + 1:02d}",
                f"u{i}" if i < 95 else "u0",
                f"c{i % 50}",
                None if i < 60 else float(i % 5),
                None if i % 10 == 0 else float(10 + i % 7),
                "red" if i % 3 else "blue",
            ]
        )
    table = Table("fixture", cols, rows)
    ccfg = cleaning_config(load_config())
    cleaned, rep = clean_table(table, ccfg)
    decisions = {name: entry.get("reason", entry["action"]) for name, entry in rep.columns.items()}
    expected = {
        "user_id": "identity",
        "created": "timestamp",
        "mostly_unique": "sparse_categories",  # 95 distinct / 100 rows > 90%
        "fifty_cats": "sparse_categories",  # avg frequency 2% < 3%
        "sparse_nulls": "too_many_nulls",  # 60% > 50%
        "price": "imputed",
        "color": "kept",
    }
    ok = cleaned is not None and decisions == expected and cleaned.n_cols == 2

    # A 10-column table losing all 10 columns is discarded (100% > 90%).
    id_cols = [ColumnMeta(f"c{i}_id", ColumnKind.numerical()) for i in range(10)]
    id_rows = [[float(r * 10 + i) for i in range(10)] for r in range(20)]
    discarded, rep2 = clean_table(Table("ids", id_cols, id_rows), ccfg)
    ok = ok and discarded is None and rep2.verdict == "discarded"
    report("criterion 10 (cleaning conformance)", ok, f"decisions={decisions}")


# -- 11: end-to-end determinism ----------------------------------------------------------


def test_criterion_11_benchmark_determinism(tmp_path, cli_run):
    import hashlib

    t0 = time.time()
    corpus = make_toy_corpus(tmp_path / "corpus")

    def run_once(tag):
        work = tmp_path / tag
        cleaned = work / "cleaned"
        manifest = work / "split.json"
        pre = work / "pre.ckpt"
        bench = work / "bench"
        tiny = [
            "--model.latent=8",
            "--model.batch=16",
            "--model.z_dim=8",
            "--model.pac=2",
            "--transform.gmm_modes=1",
            "--training.epochs=3",
            "--training.iterations=2",
            "--seed=42",
        ]
        steps = [
            ["clean", str(corpus), str(cleaned)] + tiny,
            ["split", str(cleaned), "--out", str(manifest), "--split.ratios=[0.5,0.25,0.25]"] + tiny,
            ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--out", str(pre)] + tiny,
            ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--pretrained", f"stvae={pre}",
             "--part", "val", "--out-dir", str(bench)] + tiny,
        ]
        for args in steps:
            cli_run(args)
        leaderboard = (bench / "leaderboard.csv").read_bytes()
        sums = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((bench / "checkpoints").glob("*.ckpt"))
        }
        return leaderboard, sums

    board_a, sums_a = run_once("run_a")
    board_b, sums_b = run_once("run_b")
    elapsed = time.time() - t0
    report(
        "criterion 11 (benchmark byte-determinism)",
        board_a == board_b and sums_a == sums_b and len(sums_a) > 0,
        f"{len(sums_a)} checkpoints compared, {elapsed:.0f}s",
    )
