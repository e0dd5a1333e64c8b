import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabforge.checkpoint import save_checkpoint
from tabforge.cli import main
from tabforge.data import ColumnKind, ColumnMeta, Table
from tabforge.great.bpe import BOS, BYTE_BASE, EOS, MIN_VOCAB, PAD, BpeError, train_bpe
import tabforge.great.model as great_model
import tabforge.nn.tensor as T
from tabforge.great.model import (
    GreatError,
    GreatModel,
    KVCache,
    build_great,
    great_generate,
    great_train_step,
    pad_batch,
    sequence_nll,
)
from tabforge.textrow import ParseFailure, serialize_row_text
from tabforge.training import TrainingError, finetune, pretrain

from conftest import run_config


class TestBpe:
    def test_single_dominant_pair(self):
        vocab = train_bpe(["aaaa"], MIN_VOCAB + 1)
        a = ord("a") + BYTE_BASE
        assert vocab.merges == [(a, a)]

    def test_hand_simulated_merge_table(self):
        # "abab" + "ab": (a,b) occurs 3 times -> merged; the new pair (X,X)
        # occurs once, which never merges, so training stops at one merge.
        vocab = train_bpe(["abab", "ab"], MIN_VOCAB + 64)
        a, b = ord("a") + BYTE_BASE, ord("b") + BYTE_BASE
        assert vocab.merges == [(a, b)]

    def test_tie_breaks_lexicographically(self):
        # "ab" and "ba" both appear twice: merge the smaller pair first.
        vocab = train_bpe(["abab", "baba"], MIN_VOCAB + 1)
        a, b = ord("a") + BYTE_BASE, ord("b") + BYTE_BASE
        assert vocab.merges[0] == min((a, b), (b, a))

    def test_round_trip_text(self):
        vocab = train_bpe(["hello world", "hello there"], MIN_VOCAB + 16)
        for s in ("hello world", "brand new text", "日本語 bytes"):
            assert vocab.decode(vocab.encode(s)) == s

    def test_encode_is_canonical(self):
        vocab = train_bpe(["the cat sat on the mat"] * 3, MIN_VOCAB + 32)
        ids = vocab.encode("the cat")
        assert vocab.encode_bytes(vocab.decode_bytes(ids)) == ids

    def test_vocab_size_too_small_errors(self):
        with pytest.raises(BpeError):
            train_bpe(["abc"], 100)

    def test_specials_layout(self):
        assert (PAD, BOS, EOS) == (0, 1, 2)
        vocab = train_bpe(["xyz"], MIN_VOCAB)
        assert vocab.size == MIN_VOCAB
        # decode skips specials rather than inventing bytes
        assert vocab.decode([BOS, ord("x") + BYTE_BASE, EOS, PAD]) == "x"

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(min_size=0, max_size=64))
    def test_round_trip_arbitrary_bytes(self, data):
        vocab = train_bpe(["seed corpus text", "more text"], MIN_VOCAB + 8)
        ids = vocab.encode_bytes(data)
        assert vocab.decode_bytes(ids) == data
        assert vocab.encode_bytes(vocab.decode_bytes(ids)) == ids


SCHEMA = [
    ColumnMeta("Age", ColumnKind.numerical()),
    ColumnMeta("Gender", ColumnKind.categorical(), ("M", "F")),
]


def tiny_model(sentences, d=32, layers=2, heads=2, ctx=64, lr=1e-3, seed=0):
    vocab = train_bpe(sentences, MIN_VOCAB + 64)
    cfg = run_config(
        "great",
        f"--model.great.d_model={d}",
        f"--model.great.n_heads={heads}",
        f"--model.great.n_layers={layers}",
        f"--model.great.ctx={ctx}",
        "--model.great.vocab_size=4096",
        f"--model.great.lr={lr}",
        "--model.great.batch=8",
    ).model
    model = build_great(cfg, vocab, SCHEMA, seed)
    return model, vocab


class TestTransformer:
    def test_initial_loss_near_log_vocab(self):
        sentences = ["alpha is 1 and beta is x"] * 4
        model, vocab = tiny_model(sentences)
        batch = pad_batch([[BOS] + vocab.encode(s) + [EOS] for s in sentences], model.config.ctx)
        loss = sequence_nll(model, batch)
        assert abs(loss - np.log(vocab.size)) < 0.1 * np.log(vocab.size)

    def test_memorizes_single_sentence_within_200_steps(self):
        sentence = "Age is 26 and Gender is M"
        model, vocab = tiny_model([sentence], lr=3e-3)
        seq = [BOS] + vocab.encode(sentence) + [EOS]
        batch = pad_batch([seq] * 8, model.config.ctx)
        opt = model.optimizer()
        loss = None
        for step in range(200):
            loss = great_train_step(model, batch, opt)
            if loss < 0.1:
                break
        assert loss < 0.1, f"loss after 200 steps: {loss}"

    def test_causal_mask_blocks_future_tokens(self):
        model, vocab = tiny_model(["abcdefg"] * 2)
        ids = np.array([[BOS] + vocab.encode("abcdef")])
        import tabforge.nn.tensor as T

        with T.no_grad():
            base = model.forward(ids).data
        perturbed = ids.copy()
        perturbed[0, -1] = vocab.encode("z")[0]
        with T.no_grad():
            changed = model.forward(perturbed).data
        t = ids.shape[1]
        assert np.array_equal(base[0, : t - 1], changed[0, : t - 1])
        assert not np.array_equal(base[0, t - 1], changed[0, t - 1])

    def test_loss_decreases_over_first_50_steps(self):
        sentences = [f"k is {i} and c is v{i % 3}" for i in range(16)]
        model, vocab = tiny_model(sentences, lr=3e-4)
        seqs = [[BOS] + vocab.encode(s) + [EOS] for s in sentences]
        batch = pad_batch(seqs, model.config.ctx)
        opt = model.optimizer()
        first = great_train_step(model, batch, opt)
        last = None
        for _ in range(49):
            last = great_train_step(model, batch, opt)
        assert last < first

    def test_validation_nll_is_the_training_loss(self):
        """One loss serves both: the validation NLL of a batch equals, bit
        for bit, the loss a training step on it returns (seed 1 differed
        while validation had a numpy formula of its own)."""
        sentences = [serialize_row_text(SCHEMA, r) for r in TestCachedDecode.ROWS]
        model, vocab = tiny_model(sentences, d=16, layers=1, ctx=48, seed=1)
        batch = pad_batch([[BOS] + vocab.encode(s) + [EOS] for s in sentences], model.config.ctx)
        nll = sequence_nll(model, batch)
        assert great_train_step(model, batch, model.optimizer()) == nll

    def test_sequence_exceeding_context_errors(self):
        model, vocab = tiny_model(["ab"], ctx=8)
        with pytest.raises(GreatError):
            pad_batch([[BOS] + vocab.encode("x" * 50) + [EOS]], model.config.ctx)


class TestGeneration:
    SCHEMA = SCHEMA

    def memorized_model(self):
        sentence = serialize_row_text(self.SCHEMA, [26.0, "M"])
        model, vocab = tiny_model([sentence], lr=3e-3)
        seq = [BOS] + vocab.encode(sentence) + [EOS]
        batch = pad_batch([seq] * 8, model.config.ctx)
        opt = model.optimizer()
        for _ in range(300):
            loss = great_train_step(model, batch, opt)
            if loss < 0.01:
                break
        return model

    def test_zero_temperature_reproduces_memorized_row(self):
        model = self.memorized_model()
        model.config.temperature = 0.0
        table, validity = great_generate(model, 5, np.random.default_rng(0))
        assert validity == 1.0
        assert table.n_rows == 5
        for row in table.rows:
            assert row == [26.0, "M"]

    def test_validity_rate_counts_attempts(self):
        # An untrained model emits garbage; validity = parsed / attempted.
        sentences = ["Age is 26 and Gender is M"]
        model, _ = tiny_model(sentences, seed=3)
        model.config.temperature, model.config.max_retries = 0.7, 1
        table, validity = great_generate(model, 4, np.random.default_rng(0))
        assert 0.0 <= validity <= 1.0
        assert table.n_rows <= 4


class BlockRng:
    """A Generator stand-in that records the size of each `random` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


class TestCachedDecode:
    SCHEMA = TestGeneration.SCHEMA
    ROWS = [[26.0, "M"], [31.5, "F"], [45.0, "M"], [52.25, "F"], [38.0, "F"]]

    def partly_trained_model(self):
        """Trained just enough that some rows parse and some retry."""
        sentences = [serialize_row_text(self.SCHEMA, r) for r in self.ROWS]
        model, vocab = tiny_model(sentences, lr=3e-3, ctx=32)
        batch = pad_batch([[BOS] + vocab.encode(s) + [EOS] for s in sentences], model.config.ctx)
        opt = model.optimizer()
        for _ in range(40):
            great_train_step(model, batch, opt)
        return model

    # Recorded with the full-prefix decode that the cached one replaced
    # (x86-64, numpy 2.4 with OpenBLAS); the 0.7 digest again when decoding
    # became lockstep waves, which draw the uniforms in per-wave blocks.  The
    # digest covers the rows, the validity and the next draw, so it also
    # pins how many draws were made.
    @pytest.mark.parametrize("temperature, digest", [
        (0.7, "8fc57451e1b7258c13da91c01f27105b2c3ad0b92d3c06030530d9a8dd7152e8"),
        (0.0, "0d58f2f119c5792fee6372917a55eae8996e42b86821eac098962ba13ad2013d"),
    ])
    def test_rows_match_the_full_prefix_decode(self, temperature, digest):
        model = self.partly_trained_model()
        model.config.temperature, model.config.max_retries = temperature, 2
        rng = np.random.default_rng(5)
        table, validity = great_generate(model, 8, rng)
        doc = json.dumps([table.rows, validity, rng.random()])
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    def test_cached_logits_match_the_taped_forward_at_every_position(self):
        model, vocab = tiny_model(["alpha is 1 and beta is x"], ctx=24, seed=1)
        ids = np.random.default_rng(0).integers(0, vocab.size, (1, model.config.ctx))
        with T.no_grad():
            full = model.forward(ids).data[0]
        cache = KVCache(model.config)
        for pos in range(model.config.ctx):
            step = model.forward(ids[:, pos : pos + 1], cache)
            assert step.shape == (1, 1, vocab.size)
            np.testing.assert_allclose(step[0, 0], full[pos], rtol=0, atol=1e-5)
        assert len(cache) == model.config.ctx

    def test_cached_forward_past_context_errors(self):
        model, _ = tiny_model(["ab"], ctx=8)
        cache = KVCache(model.config)
        for _ in range(8):
            model.forward(np.asarray([[BOS]]), cache)
        with pytest.raises(GreatError, match="exceeds context"):
            model.forward(np.asarray([[BOS]]), cache)

    @pytest.fixture
    def steps(self, monkeypatch):
        """(ids shape, cache position) of every cached forward."""
        seen = []
        forward = GreatModel.forward

        def spy(self, ids, cache=None):
            if cache is not None:
                seen.append((np.shape(ids), len(cache)))
            return forward(self, ids, cache)

        monkeypatch.setattr(GreatModel, "forward", spy)
        return seen

    @pytest.mark.parametrize("temperature", [0.7, 0.0])
    def test_one_forward_per_position_one_draw_block_per_wave(self, temperature, steps, monkeypatch):
        """A wave feeds its rows together: one `(active, 1)` cached forward
        per position from 0 (the count perfbench reports as
        great.decode_steps), and one (rows, ctx) block of uniforms unless the
        temperature is zero.  The next wave holds the rows that failed."""
        model = self.partly_trained_model()
        model.config.temperature, model.config.max_retries = temperature, 2
        failures = []
        parse = great_model.parse_row_text

        def counting_parse(schema, text):
            out = parse(schema, text)
            failures.append(isinstance(out, ParseFailure))
            return out

        monkeypatch.setattr(great_model, "parse_row_text", counting_parse)
        rng = BlockRng(5)
        great_generate(model, 8, rng)

        waves = [i for i, (_, pos) in enumerate(steps) if pos == 0] + [len(steps)]
        sizes = [steps[lo][0][0] for lo in waves[:-1]]
        for lo, hi in zip(waves, waves[1:]):
            shapes = [shape for shape, _ in steps[lo:hi]]
            assert [pos for _, pos in steps[lo:hi]] == list(range(hi - lo))
            assert all(shape[1] == 1 and 0 < shape[0] <= prev[0] for prev, shape in zip(shapes, shapes[1:]))
        expected, start = [8], 0
        for size in sizes[:-1]:
            expected.append(sum(failures[start : start + size]))
            start += size
        assert sizes == expected and len(failures) == sum(sizes)
        assert rng.sizes == ([(size, model.config.ctx) for size in sizes] if temperature else [])
        if temperature:
            assert len(sizes) > 1  # some rows failed and were retried

    def test_a_long_wave_decodes_in_chunks_from_one_draw_block(self, steps, monkeypatch):
        model = self.partly_trained_model()
        model.config.temperature, model.config.max_retries = 0.7, 0
        monkeypatch.setattr(great_model, "DECODE_ROWS", 3)
        rng = BlockRng(5)
        great_generate(model, 8, rng)
        assert [shape[0] for shape, pos in steps if pos == 0] == [3, 3, 2]
        assert rng.sizes == [(8, model.config.ctx)]

    def test_cached_logits_match_the_taped_forward_while_rows_retire(self):
        model, vocab = tiny_model(["alpha is 1 and beta is x"], ctx=24, seed=1)
        ctx = model.config.ctx
        ids = np.random.default_rng(0).integers(0, vocab.size, (5, ctx))
        with T.no_grad():
            full = model.forward(ids).data
        retire = {3: [1], 9: [0, 4], 17: [3]}  # position -> rows that leave after it
        cache = KVCache(model.config, len(ids))
        active = np.arange(len(ids))
        for pos in range(ctx):
            step = model.forward(ids[active, pos : pos + 1], cache)
            assert step.shape == (len(active), 1, vocab.size)
            np.testing.assert_allclose(step[:, 0], full[active, pos], rtol=0, atol=1e-5)
            if pos in retire:
                keep = np.flatnonzero(~np.isin(active, retire[pos]))
                cache.keep(keep)
                active = active[keep]
        assert active.tolist() == [2]
        assert len(cache) == ctx

    @pytest.mark.parametrize("max_retries, waves, rows, validity", [
        # Parse k fails when k is in {1, 3, 6, 7}: the first wave parses rows
        # 0-4 (parses 0-4), the second rows 1 and 3 (5, 6), the third row 3 (7).
        (2, [5, 2, 1], [0.0, 5.0, 2.0, 4.0], 4 / 8),
        (0, [5], [0.0, 2.0, 4.0], 3 / 5),
    ])
    def test_failed_rows_retry_in_later_waves_and_return_in_row_order(
        self, max_retries, waves, rows, validity, steps, monkeypatch
    ):
        model = self.partly_trained_model()
        model.config.temperature, model.config.max_retries = 0.7, max_retries
        parses = []

        def parser(schema, text):
            k = len(parses)
            parses.append(text)
            return ParseFailure("chosen") if k in (1, 3, 6, 7) else [float(k), "M"]

        monkeypatch.setattr(great_model, "parse_row_text", parser)
        table, got = great_generate(model, 5, np.random.default_rng(0))
        assert [shape[0] for shape, pos in steps if pos == 0] == waves
        assert table.rows == [[k, "M"] for k in rows]
        assert got == validity

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("case, named", [
        ("embedding", r"overflow encountered in multiply at nn/tensor\.py:\d+ "
                      r"\(_normalize\) in the cached forward at position 1"),
        ("gelu", r"overflow encountered in multiply at nn/tensor\.py:\d+ \(gelu\) in the cached forward at position 1"),
    ])
    def test_overflow_in_one_row_stops_the_step(self, case, named):
        """Row 0 feeds BOS twice and stays finite on its own; row 1 feeds BOS,
        then a token that overflows."""
        model, vocab = tiny_model(["alpha is 1 and beta is x"], d=16, layers=1, ctx=24, seed=1)
        p = {name: t.data for name, t in model.params.items()}
        bad = vocab.encode("a")[0]
        if case == "embedding":
            p["tok_emb"][bad] *= np.float32(1e22)
        else:
            # With no positional embedding and a constant BOS embedding, BOS
            # rows normalise to zero, so their MLP input is zero.
            p["pos_emb"][:] = 0.0
            p["tok_emb"][BOS] = 0.5
            p["b0.mlp.w1"] *= np.float32(1e14)
        ids = np.array([[BOS, BOS], [BOS, bad]])
        alone = KVCache(model.config, 1)
        for pos in range(2):
            assert np.isfinite(model.forward(ids[:1, pos : pos + 1], alone)).all()
        cache = KVCache(model.config, 2)
        model.forward(ids[:, :1], cache)
        with pytest.raises(FloatingPointError, match=named):
            model.forward(ids[:, 1:], cache)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale, named", [
        # Both stop at GELU's cube; at 1e14 it is the only op that overflows.
        (1e30, r"overflow encountered in multiply at nn/tensor\.py:\d+ \(gelu\) in the cached forward at position 0"),
        (1e14, r"overflow encountered in multiply at nn/tensor\.py:\d+ \(gelu\) in the cached forward at position 0"),
    ])
    def test_overflow_in_a_step_raises(self, scale, named):
        model, _ = tiny_model(["alpha is 1 and beta is x"], d=16, layers=1, ctx=24, seed=1)
        model.params["b0.mlp.w1"].data = model.params["b0.mlp.w1"].data * np.float32(scale)
        with pytest.raises(FloatingPointError, match=named):
            model.forward(np.asarray([[BOS]]), KVCache(model.config))


def test_perfbench_counts_one_decode_step_per_cached_forward(tmp_path, monkeypatch):
    """perfbench's tracer, run as a benchmark stage on a tiny `sample`,
    records the generate span and counts as decode steps exactly the cached
    forwards an in-process spy counts for the same checkpoint, rows and seed."""
    table = Table("people", list(SCHEMA), [list(r) for r in TestCachedDecode.ROWS] * 2)
    cfg = run_config("great", "--training.epochs=1", "--model.great.d_model=16", "--model.great.n_heads=2",
                     "--model.great.n_layers=1", "--model.great.ctx=48", "--model.great.vocab_size=300")
    ckpt_path = tmp_path / "g.ckpt"
    save_checkpoint(finetune(None, table, cfg)[0], ckpt_path)
    args = ["sample", "--checkpoint", str(ckpt_path), "--rows", "6", "--out", str(tmp_path / "s.csv")]

    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    stats, trace = tmp_path / "stats.json", tmp_path / "trace.json"
    subprocess.run([sys.executable, str(root / "perfbench" / "stage.py"), str(time.monotonic()), str(stats),
                    str(trace), "--", *args], env=env, check=True, capture_output=True)
    doc = json.loads(trace.read_text())

    forwards = []
    forward = GreatModel.forward

    def spy(self, ids, cache=None):
        if cache is not None:
            forwards.append(len(cache))
        return forward(self, ids, cache)

    monkeypatch.setattr(GreatModel, "forward", spy)
    monkeypatch.setattr("sys.argv", ["tabforge", *args])
    main()
    assert any(name == "great.generate" for name, *_ in doc["spans"])
    assert forwards and doc["counts"]["great.decode_steps"] == len(forwards)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestTrainingOverflow:
    """MLP pre-activations near 1e13: GELU's cube overflows while tanh
    saturates, so every op's output stays finite, and the step still stops."""

    SCHEMA = TestGeneration.SCHEMA
    ROWS = TestCachedDecode.ROWS

    def test_gelu_cube_overflow_stops_the_step_before_the_update(self):
        sentences = [serialize_row_text(self.SCHEMA, r) for r in self.ROWS]
        model, vocab = tiny_model(sentences, d=16, layers=1, ctx=48, seed=1)
        model.params["b0.mlp.w1"].data = model.params["b0.mlp.w1"].data * np.float32(1e14)
        before = {name: t.data.copy() for name, t in model.params.items()}
        batch = pad_batch([[BOS] + vocab.encode(s) + [EOS] for s in sentences], model.config.ctx)
        named = r"overflow encountered in multiply at nn/tensor\.py:\d+ \(gelu\) in the great training step"
        with pytest.raises(FloatingPointError, match=named):
            great_train_step(model, batch, model.optimizer())
        assert all(np.array_equal(before[name], t.data) for name, t in model.params.items())

    def test_finetune_names_method_table_and_epoch(self):
        table = Table("people", list(self.SCHEMA), [list(r) for r in self.ROWS] * 4)
        cfg = run_config(
            "great",
            "--training.iterations=1",
            "--training.epochs=2",
            "--model.great.d_model=16",
            "--model.great.n_heads=2",
            "--model.great.n_layers=1",
            "--model.great.ctx=96",
            "--model.great.vocab_size=300",
            "--model.great.batch=8",
        )
        body, _ = pretrain([table], cfg)
        body.tensors["b0.mlp.w1"] = body.tensors["b0.mlp.w1"] * np.float32(1e14)
        with pytest.raises(TrainingError, match=(
            "great training diverged on table 'people' at epoch 1: "
            r"overflow encountered in multiply at nn/tensor\.py:\d+ \(gelu\) in the great training step"
        )):
            finetune(body, table, cfg)
