import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabforge.data import ColumnKind, ColumnMeta
from tabforge.great.bpe import BOS, BYTE_BASE, EOS, MIN_VOCAB, PAD, BpeError, train_bpe
from tabforge.great.model import (
    GreatConfig,
    GreatError,
    build_great,
    great_generate,
    great_train_step,
    pad_batch,
    sequence_nll,
)
from tabforge.textrow import serialize_row_text


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


def tiny_model(sentences, d=32, layers=2, heads=2, ctx=64, lr=1e-3, seed=0):
    vocab = train_bpe(sentences, MIN_VOCAB + 64)
    cfg = GreatConfig(
        d_model=d, n_heads=heads, n_layers=layers, ctx=ctx, vocab_size=4096, lr=lr, batch=8
    )
    model = build_great(cfg, vocab, seed)
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

    def test_sequence_exceeding_context_errors(self):
        model, vocab = tiny_model(["ab"], ctx=8)
        with pytest.raises(GreatError):
            pad_batch([[BOS] + vocab.encode("x" * 50) + [EOS]], model.config.ctx)


class TestGeneration:
    SCHEMA = [
        ColumnMeta("Age", ColumnKind.numerical()),
        ColumnMeta("Gender", ColumnKind.categorical(), ("M", "F")),
    ]

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
        table, validity = great_generate(model, self.SCHEMA, 5, np.random.default_rng(0))
        assert validity == 1.0
        assert table.n_rows == 5
        for row in table.rows:
            assert row == [26.0, "M"]

    def test_validity_rate_counts_attempts(self):
        # An untrained model emits garbage; validity = parsed / attempted.
        sentences = ["Age is 26 and Gender is M"]
        model, _ = tiny_model(sentences, seed=3)
        model.config.temperature, model.config.max_retries = 0.7, 1
        table, validity = great_generate(model, self.SCHEMA, 4, np.random.default_rng(0))
        assert 0.0 <= validity <= 1.0
        assert table.n_rows <= 4
