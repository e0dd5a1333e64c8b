import hashlib
import json
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from tabforge.checkpoint import (
    MAGIC,
    CheckpointError,
    ModelCheckpoint,
    load_checkpoint,
    load_checkpoint_bytes,
    save_checkpoint,
    serialize_checkpoint,
)
from tabforge.cli import main
from tabforge.data import ColumnKind, ColumnMeta, Table
from tabforge.great.bpe import MIN_VOCAB
from tabforge.metrics import MetricError
import tabforge.training as tr
from tabforge.training import (
    TrainingError,
    finetune,
    pretrain,
    sample_from_checkpoint,
    transfer_state,
)

from conftest import run_config


def rewrite_header(blob: bytes, edit) -> bytes:
    """A serialized checkpoint with its JSON header passed through `edit`
    and the checksum redone."""
    start = len(MAGIC) + 8
    end = start + int.from_bytes(blob[len(MAGIC) : start], "little")
    header = json.loads(blob[start:end])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = MAGIC + len(text).to_bytes(8, "little") + text + blob[end:-32]
    return body + hashlib.sha256(body).digest()


def make_table(name, n=60, seed=0, mean=0.0, cats=("a", "b")):
    rng = np.random.default_rng(seed)
    x = rng.normal(mean, 1.0, n)
    y = rng.normal(-mean, 2.0, n)
    labels = [cats[int(i)] for i in rng.integers(0, len(cats), n)]
    cols = [
        ColumnMeta("u", ColumnKind.numerical()),
        ColumnMeta("w", ColumnKind.numerical()),
        ColumnMeta("g", ColumnKind.categorical(), tuple(cats)),
    ]
    rows = [[float(x[i]), float(y[i]), labels[i]] for i in range(n)]
    return Table(name, cols, rows)


def quick_config(kind="stvae", epochs=3, iterations=2, **training):
    """A tiny `kind` run; `training` sets `training.*` keys."""
    return run_config(
        kind,
        "--seed=7",
        f"--training.epochs={epochs}",
        f"--training.iterations={iterations}",
        *(f"--training.{key}={json.dumps(value)}" for key, value in training.items()),
        "--transform.gmm_modes=1",
        "--model.z_dim=8",
        "--model.pac=2",
        "--model.latent=8",
        "--model.batch=32",
        "--model.great.d_model=16",
        "--model.great.n_heads=2",
        "--model.great.n_layers=1",
        "--model.great.ctx=96",
        "--model.great.vocab_size=300",
        "--model.great.batch=8",
        ctgan={"batch": 16, "hidden": (16, 16)},
        vae={"hidden": (16, 16)},
    )


@dataclass
class _NoConfig:
    pass


class _ScriptedModel:
    """One weight, which the scripted driver sets to the epoch number."""

    config = _NoConfig()

    def __init__(self):
        self.w = SimpleNamespace(data=np.zeros(1, np.float32))

    def tensors(self):
        return {"w": self.w}

    def segments(self):
        return {}


class _ScriptedDriver:
    """A driver whose epochs do nothing but stamp the epoch into the model,
    and whose validation loss at epoch e is `val_losses[e - 1]`."""

    def __init__(self, early_stops, val_losses=()):
        self.early_stops = early_stops
        self.val_losses = val_losses

    def prep(self, table, config, aux):
        return {"rows": np.arange(table.n_rows)}

    def start(self, prep, rows, config, seed):
        return _ScriptedModel(), {"epoch": 0}

    def train_epoch(self, model, session, rng):
        session["epoch"] += 1
        model.w.data = np.full(1, session["epoch"], np.float32)
        return 0.0

    def val_loss(self, model, session, val_rows, rng):
        return self.val_losses[int(model.w.data[0]) - 1]

    def aux(self, model):
        return {}


class TestRunningBest:
    """finetune's selection rule, run through finetune with scripted losses."""

    def early_stop(self, monkeypatch, val_losses, **training):
        monkeypatch.setitem(tr._DRIVERS, "stvae", _ScriptedDriver(True, val_losses))
        return finetune(None, make_table("scripted"), quick_config(epochs=len(val_losses), **training))

    def test_stops_after_patience_epochs_without_improvement(self, monkeypatch):
        ckpt, log = self.early_stop(monkeypatch, [1.0, 0.9, 0.95, 0.96, 0.97], patience=2, min_delta=1e-4)
        assert [e["epoch"] for e in log.entries] == [1, 2, 3, 4]
        assert log.stop_reason == "early_stop"
        assert log.best_epoch == 2 and ckpt.provenance["epoch"] == 2
        assert ckpt.tensors["w"].tolist() == [2.0]  # the best epoch's weights

    def test_improvement_below_min_delta_does_not_reset(self, monkeypatch):
        ckpt, log = self.early_stop(monkeypatch, [1.0, 0.95, 0.92, 0.5], patience=2, min_delta=0.1)
        assert [e["epoch"] for e in log.entries] == [1, 2, 3]
        assert log.stop_reason == "early_stop"
        assert log.best_epoch == 1 and ckpt.tensors["w"].tolist() == [1.0]

    def test_runs_every_epoch_while_improving(self, monkeypatch):
        ckpt, log = self.early_stop(monkeypatch, [1.0, 0.5, 0.8, 0.4], patience=2, min_delta=1e-4)
        assert log.stop_reason == "epochs"
        assert log.best_epoch == 4 and ckpt.tensors["w"].tolist() == [4.0]

    def test_ctgan_keeps_the_earlier_of_tied_snapshots(self, monkeypatch):
        scores = {2: 0.5, 4: 0.7, 6: 0.7}
        monkeypatch.setitem(tr._DRIVERS, "ctgan", _ScriptedDriver(False))
        monkeypatch.setattr(tr, "_snapshot_score", lambda *args: scores[args[-1]])  # args end with the epoch
        copies = []
        copy_state = tr.copy_state
        monkeypatch.setattr(tr, "copy_state", lambda model: copies.append(1) or copy_state(model))
        cfg = quick_config("ctgan", epochs=6, ckpt_every=2, patience=1, min_delta=0.5)
        ckpt, log = finetune(None, make_table("scripted"), cfg)
        assert log.checkpoints == [{"epoch": e, "overall": s} for e, s in scores.items()]
        assert log.stop_reason == "epochs"  # patience and min_delta do not apply to snapshots
        assert log.best_epoch == 4 and ckpt.provenance["epoch"] == 4
        assert ckpt.tensors["w"].tolist() == [4.0]
        assert len(copies) == 2  # one copy per new best, none for the tie


class TestCheckpointIO:
    def make(self):
        rng = np.random.default_rng(0)
        return ModelCheckpoint(
            kind="stvae",
            config={"model": {"latent": 8}},
            tensors={"enc.0.W": rng.normal(size=(4, 3)).astype(np.float32), "delta": np.ones(2, np.float32)},
            segments={"enc.0.W": [["row", 4]]},
            aux={"note": "x"},
            provenance={"seed": 1},
        )

    def test_round_trip_bitwise(self, tmp_path):
        ckpt = self.make()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        again = load_checkpoint(path)
        assert again.kind == ckpt.kind
        for k, v in ckpt.tensors.items():
            assert np.array_equal(again.tensors[k], v)
        assert again.segments == {"enc.0.W": [("row", 4)]}

    def test_flipped_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self.make(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_payload_detected(self, tmp_path):
        ckpt = self.make()
        blob = serialize_checkpoint(ckpt)
        # Chop tensor bytes out of the payload but keep a valid checksum.
        import hashlib as h

        body = blob[:-32]
        cut = body[:-8]
        path = tmp_path / "m.ckpt"
        path.write_bytes(cut + h.sha256(cut).digest())
        with pytest.raises(CheckpointError, match="truncated|fit"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        blob = serialize_checkpoint(self.make())
        # Same-length version bump keeps the header parseable; checksum redone.
        body = blob[:-32].replace(b'"format_version":1', b'"format_version":9')
        path = tmp_path / "m.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


class TestScratchTraining:
    def test_same_seed_identical_logs_and_checkpoints(self):
        table = make_table("t0")
        a_ckpt, a_log = finetune(None, table, quick_config())
        b_ckpt, b_log = finetune(None, table, quick_config())
        assert a_log.entries == b_log.entries
        assert serialize_checkpoint(a_ckpt) == serialize_checkpoint(b_ckpt)

    def test_checkpoint_sampleable(self):
        table = make_table("t1")
        ckpt, _ = finetune(None, table, quick_config())
        syn = sample_from_checkpoint(ckpt, 25, seed=3)
        assert syn.n_rows == 25
        assert [c.name for c in syn.columns] == ["u", "w", "g"]

    def test_stvae_drives_ce_down_on_constant_category(self):
        rng = np.random.default_rng(0)
        cols = [
            ColumnMeta("x", ColumnKind.numerical()),
            ColumnMeta("g", ColumnKind.categorical(), ("k",)),
        ]
        rows = [[float(v), "k"] for v in rng.normal(0, 1, 80)]
        table = Table("const", cols, rows)
        ckpt, log = finetune(None, table, quick_config(epochs=50))
        assert log.entries[-1]["train_loss"] < log.entries[0]["train_loss"]
        syn = sample_from_checkpoint(ckpt, 50, seed=0)
        assert all(row[1] == "k" for row in syn.rows)

    def test_ctgan_scratch_snapshots_and_samples(self):
        table = make_table("t2")
        cfg = quick_config("ctgan", epochs=4, ckpt_every=2)
        ckpt, log = finetune(None, table, cfg)
        assert [c["epoch"] for c in log.checkpoints] == [2, 4]
        syn = sample_from_checkpoint(ckpt, 10, seed=1)
        assert syn.n_rows == 10

    def test_ctgan_survives_rare_category_landing_in_val_slice(self):
        # One singleton category: whichever slice it falls into, condition
        # sampling must never request a real row that is not in the train set.
        rng = np.random.default_rng(0)
        cols = [
            ColumnMeta("x", ColumnKind.numerical()),
            ColumnMeta("g", ColumnKind.categorical(), ("common", "rare")),
        ]
        rows = [[float(v), "common"] for v in rng.normal(0, 1, 39)] + [[0.5, "rare"]]
        table = Table("rare", cols, rows)
        for seed in range(6):
            cfg = quick_config("ctgan", epochs=2)
            cfg.seed = seed
            ckpt, _ = finetune(None, table, cfg)
            assert ckpt.tensors

    def test_ctgan_condition_pmfs_do_not_depend_on_the_epoch_count(self):
        # The PMFs are those of the rows trained on from the start, so a run
        # that trains no epoch stores the same ones as a run that trains one.
        table = make_table("pm", n=45, cats=("a", "b", "c"))
        pmfs = [
            finetune(None, table, quick_config("ctgan", epochs=epochs))[0].aux["log_pmfs"]
            for epochs in (0, 1)
        ]
        assert pmfs[0] == pmfs[1]

    def test_great_scratch_runs_and_samples(self):
        table = make_table("t3", n=30)
        cfg = quick_config("great", epochs=2)
        ckpt, log = finetune(None, table, cfg)
        assert len(log.entries) <= 2
        syn = sample_from_checkpoint(ckpt, 3, seed=0)
        assert [c.name for c in syn.columns] == ["u", "w", "g"]

    def test_great_vocab_budget_is_the_model_vocab_size(self):
        # BPE trains to GreatConfig.vocab_size, so a vocabulary smaller than
        # the 2048 default builds (a separate budget once outgrew it).
        cfg = quick_config("great", epochs=1)
        cfg.great = replace(cfg.great, vocab_size=270)
        ckpt, _ = finetune(None, make_table("t3", n=30), cfg)
        assert len(ckpt.aux["vocab"]["merges"]) <= 270 - MIN_VOCAB
        assert sample_from_checkpoint(ckpt, 3, seed=0).n_cols == 3

    def test_checkpoint_with_a_great_vocab_header_loads_and_samples(self, tmp_path):
        # Older checkpoints carry header keys this version dropped: GReaT's
        # config.train.great_vocab, the list of head tensors, the settings
        # that became constants, and row segments for critic.0.W.  Loading,
        # sampling and fine-tuning from one match the current header's.
        def great_header(header):
            header["config"]["train"]["great_vocab"] = 2048
            header["config"]["model"]["betas"] = [0.9, 0.999]

        def ctgan_header(header):
            header["head_names"] = ["critic.0.W", "critic.0.b", "gen.2.W", "gen.2.b"]
            dropped = {"betas": [0.5, 0.9], "dropout": 0.5, "weight_decay": 0.0}
            header["config"]["model"].update(dropped)
            header["config"]["train"]["ctgan"].update(dropped)
            shapes = {t["name"]: t["shape"] for t in header["tensors"]}
            rows = header["config"]["model"]["pac"] * shapes["gen.2.W"][1]
            header["segments"]["critic.0.W"] = [["rows", rows], ["conds", shapes["critic.0.W"][0] - rows]]

        target = make_table("t4", n=30, cats=("x", "y", "z"))  # other widths than the source
        for kind, edit in (("great", great_header), ("ctgan", ctgan_header)):
            cfg = quick_config(kind, epochs=1)
            ckpt, _ = finetune(None, make_table("t3", n=30), cfg)
            path = tmp_path / f"{kind}.ckpt"
            path.write_bytes(rewrite_header(serialize_checkpoint(ckpt), edit))
            old = load_checkpoint(path)
            syn = sample_from_checkpoint(old, 3, seed=0)
            assert [c.name for c in syn.columns] == ["u", "w", "g"]
            assert syn.rows == sample_from_checkpoint(ckpt, 3, seed=0).rows
            from_old, _ = finetune(old, target, cfg)
            from_new, _ = finetune(ckpt, target, cfg)
            assert from_old.tensors.keys() == from_new.tensors.keys()
            for name, arr in from_new.tensors.items():
                assert np.array_equal(from_old.tensors[name], arr), (kind, name)

    @pytest.mark.parametrize("kind, field", [
        ("stvae", "recon_weight"), ("ctgan", "lambda_gp"), ("great", "max_retries"),
    ])
    def test_checkpoint_lacking_a_model_config_field_names_it(self, kind, field, tmp_path, monkeypatch, capsys):
        ckpt, _ = finetune(None, make_table("t3", n=30), quick_config(kind, epochs=1))
        path = tmp_path / f"{kind}.ckpt"
        path.write_bytes(rewrite_header(serialize_checkpoint(ckpt), lambda h: h["config"]["model"].pop(field)))
        with pytest.raises(CheckpointError, match=f"^checkpoint model config lacks {field}$"):
            sample_from_checkpoint(load_checkpoint(path), 3, seed=0)
        args = ["tabforge", "sample", "--checkpoint", str(path), "--rows", "2", "--out", str(tmp_path / "s.csv")]
        monkeypatch.setattr("sys.argv", args)
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: checkpoint model config lacks {field}\n"


def test_a_vae_run_trains_the_variant_its_kind_names():
    cfg = quick_config("tvae")
    assert cfg.vae.variant == "tvae"
    with pytest.raises(TrainingError, match="a tvae run needs vae.variant 'tvae', got 'stvae'"):
        replace(cfg, vae=replace(cfg.vae, variant="stvae"))


@pytest.mark.parametrize("kind", tr.KINDS)
def test_a_rebuilt_model_carries_its_checkpoint_aux(kind):
    table = make_table("carry")
    ckpt, _ = finetune(None, table, quick_config(kind, epochs=1))
    ckpt = load_checkpoint_bytes(serialize_checkpoint(ckpt))
    model = tr.rebuild_model(ckpt)
    assert tr._DRIVERS[kind].aux(model) == ckpt.aux
    if kind == "great":
        assert model.schema == table.columns


class TestFinetune:
    def test_zero_epochs_returns_checkpoint_body(self):
        corpus = [make_table(f"p{i}", seed=i) for i in range(3)]
        cfg = quick_config(iterations=1)
        pre, _ = pretrain(corpus, cfg)
        target = make_table("target", seed=9)
        cfg0 = quick_config(epochs=0)
        ckpt, log = finetune(pre, target, cfg0)
        # Every tensor the target's widths leave unchanged must match the
        # pretrained body bitwise.
        shared = [k for k in ckpt.tensors if k in pre.tensors and ckpt.tensors[k].shape == pre.tensors[k].shape]
        assert shared, "expected shared body tensors"
        for k in shared:
            assert np.array_equal(ckpt.tensors[k], pre.tensors[k]), k

    def test_kind_mismatch_rejected(self):
        corpus = [make_table(f"p{i}", seed=i) for i in range(2)]
        pre, _ = pretrain(corpus, quick_config(iterations=1))
        with pytest.raises(CheckpointError):
            finetune(pre, make_table("t"), quick_config("ctgan"))

    def test_early_stopping_records_best_epoch(self):
        table = make_table("ft", n=80)
        cfg = quick_config(epochs=40, patience=3)
        ckpt, log = finetune(None, table, cfg)
        assert log.best_epoch is not None
        vals = [e["val_loss"] for e in log.entries if e["val_loss"] is not None]
        assert min(vals) == pytest.approx(vals[log.best_epoch - 1], abs=1e-12)

    def test_vae_without_validation_rows_keeps_final_weights(self):
        table = make_table("noval", n=40)
        ckpt, log = finetune(None, table, quick_config(epochs=3, val_fraction=0.0))
        assert all(e["val_loss"] is None for e in log.entries)
        assert log.checkpoints == []  # early-stopping methods never score snapshots
        assert log.best_epoch == 3 and ckpt.provenance["epoch"] == 3

    def test_ctgan_without_validation_rows_keeps_final_weights(self):
        table = make_table("noval", n=40)
        ckpt, log = finetune(None, table, quick_config("ctgan", epochs=6, val_fraction=0.0, ckpt_every=2))
        assert log.checkpoints == []  # no rows to score a snapshot on
        assert log.best_epoch == 6 and ckpt.provenance["epoch"] == 6


class TestSnapshotScore:
    class _EchoDriver:
        def sample(self, model, n, rng):
            return make_table("syn", n=n, seed=1)

    def _score(self):
        table = make_table("snap", n=20)
        return tr._snapshot_score(self._EchoDriver(), None, table, np.arange(5), quick_config("ctgan"), 1)

    def test_unscoreable_snapshot_ranks_last(self, monkeypatch):
        def unscoreable(real, syn):
            raise MetricError("not scoreable")

        monkeypatch.setattr(tr, "table_report", unscoreable)
        assert self._score() == 0.0

    def test_non_metric_error_propagates(self, monkeypatch):
        def broken(real, syn):
            raise ValueError("bug in the scorer")

        monkeypatch.setattr(tr, "table_report", broken)
        with pytest.raises(ValueError, match="bug in the scorer"):
            self._score()


class TestPretrain:
    def test_each_dataset_once_per_iteration_and_body_changes(self):
        corpus = [make_table(f"c{i}", seed=i, mean=float(i)) for i in range(3)]
        cfg = quick_config(iterations=2)
        ckpt, log = pretrain(corpus, cfg)
        assert len(log.entries) == 2
        assert ckpt.provenance["corpus_hash"]

    def test_body_hash_changes_after_each_pass(self):
        corpus = [make_table(f"h{i}", seed=i) for i in range(2)]
        cfg = quick_config(iterations=1)

        hashes = []
        original = tr._VaeDriver.train_epoch

        def spy(self, model, session, rng):
            loss = original(self, model, session, rng)
            state = tr.copy_state(model)
            digest = hashlib.sha256(
                b"".join(state[k].tobytes() for k in sorted(state) if not k.endswith("running_mean"))
            ).hexdigest()
            hashes.append(digest)
            return loss

        tr._VaeDriver.train_epoch = spy
        try:
            pretrain(corpus, cfg)
        finally:
            tr._VaeDriver.train_epoch = original
        assert len(hashes) == len(corpus)
        assert len(set(hashes)) == len(hashes), "body unchanged after a dataset pass"

    def test_single_dataset_degenerates_to_multi_epoch(self):
        corpus = [make_table("solo")]
        cfg = quick_config(iterations=3)
        ckpt, log = pretrain(corpus, cfg)
        assert len(log.entries) == 3

    def test_each_dataset_trained_exactly_once_per_iteration(self):
        import tabforge.training as tr

        original = tr._VaeDriver.train_epoch
        # A repeated table name still leaves each table its own dataset.
        for names in (("u0", "u1", "u2"), ("u0", "u0", "u1")):
            corpus = [make_table(name, seed=i) for i, name in enumerate(names)]
            cfg = quick_config(iterations=2)
            passes = []

            def spy(self, model, session, rng):
                passes.append(id(session["rows"]))
                return original(self, model, session, rng)

            tr._VaeDriver.train_epoch = spy
            try:
                pretrain(corpus, cfg)
            finally:
                tr._VaeDriver.train_epoch = original
            assert len(passes) == 6
            for it in range(2):
                chunk = passes[it * 3 : (it + 1) * 3]
                assert len(set(chunk)) == 3  # no repeats within an iteration

    def test_empty_corpus_errors(self):
        with pytest.raises(TrainingError):
            pretrain([], quick_config())

    def test_great_pretrain_shares_vocab(self):
        corpus = [make_table(f"g{i}", n=20, seed=i) for i in range(2)]
        cfg = quick_config("great", iterations=1)
        ckpt, _ = pretrain(corpus, cfg)
        assert "vocab" in ckpt.aux
        target = make_table("gt", n=20, seed=5)
        ft_ckpt, _ = finetune(ckpt, target, quick_config("great", epochs=1))
        assert ft_ckpt.aux["vocab"] == ckpt.aux["vocab"]


class TestTransferState:
    def test_segment_rows_copied_for_matching_segments(self):
        table_a = make_table("a", cats=("x", "y"))
        table_b = make_table("b", cats=("x", "y", "z"))  # different cond width
        cfg = quick_config("ctgan")
        from tabforge.models.ctgan import build_ctgan
        from tabforge.transform import ColumnTransformer, encode_table

        tf_a = ColumnTransformer.fit(table_a, modes=1, seed=0)
        tf_b = ColumnTransformer.fit(table_b, modes=1, seed=0)
        m_a = build_ctgan(tf_a, encode_table(table_a, tf_a, np.random.default_rng(0)), cfg.ctgan, seed=1)
        m_b = build_ctgan(tf_b, encode_table(table_b, tf_b, np.random.default_rng(0)), cfg.ctgan, seed=2)
        state_a = tr.copy_state(m_a)
        loaded = transfer_state(m_b, state_a, m_a.segments())
        z = cfg.ctgan.z_dim
        # The z-rows of the first generator weight must now match model a.
        assert "gen.0.0.W" in loaded
        assert np.array_equal(m_b.generator.params["0.0.W"].data[:z], state_a["gen.0.0.W"][:z])
        # Batch-norm body params and running stats transfer whole.
        assert np.array_equal(m_b.generator.params["0.1.gamma"].data, state_a["gen.0.1.gamma"])
        assert "gen.0.1.running_var" in loaded
        # Differently-sized heads re-dimension: table b has an extra category.
        assert "gen.2.W" not in loaded
        assert "critic.0.W" not in loaded

    def test_identical_schema_transfers_the_whole_model(self):
        table = make_table("same")
        cfg = quick_config()
        from tabforge.models.vae import build_vae
        from tabforge.transform import ColumnTransformer

        tf = ColumnTransformer.fit(table, modes=1, seed=0)
        m_a = build_vae(tf, cfg.vae, seed=1)
        m_b = build_vae(tf, cfg.vae, seed=2)
        loaded = transfer_state(m_b, tr.copy_state(m_a), m_a.segments())
        # Same widths everywhere: body and heads both load.
        assert "enc.2.W" in loaded and "dec.0.W" in loaded
        assert "enc.0.W" in loaded and "dec.4.W" in loaded
        assert np.array_equal(m_b.encoder.params["0.W"].data, m_a.encoder.params["0.W"].data)

    def test_differently_sized_vae_heads_stay_fresh(self):
        cfg = quick_config()
        from tabforge.models.vae import build_vae
        from tabforge.transform import ColumnTransformer

        tf_a = ColumnTransformer.fit(make_table("a", cats=("x", "y")), modes=1, seed=0)
        tf_b = ColumnTransformer.fit(make_table("b", cats=("x", "y", "z")), modes=1, seed=0)
        m_a = build_vae(tf_a, cfg.vae, seed=1)
        m_b = build_vae(tf_b, cfg.vae, seed=2)
        before = m_b.encoder.params["0.W"].data.copy()
        loaded = transfer_state(m_b, tr.copy_state(m_a), m_a.segments())
        assert "enc.2.W" in loaded and "dec.0.W" in loaded
        assert "enc.0.W" not in loaded and "dec.4.W" not in loaded
        assert np.array_equal(m_b.encoder.params["0.W"].data, before)
