import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabforge
from tabforge import transform
from tabforge.data import ColumnKind, ColumnMeta, DataError, Table
from tabforge.transform import (
    ColumnTransformer,
    GmmParams,
    TransformError,
    _encode_numeric_batch,
    _responsibilities,
    decode_matrix,
    encode_table,
    fit_gmm,
)


def single_mode(mean=0.0, std=1.0):
    return GmmParams(np.array([1.0]), np.array([mean]), np.array([std]), np.array([True]))


def rho_of(params, c):
    return _responsibilities(params, np.array([c], dtype=np.float64))[0]


def encode_value(params, c, rng):
    alpha, beta = _encode_numeric_batch(params, np.array([c], dtype=np.float64), rng)
    return float(alpha[0]), beta[0]


def numeric_layout(params):
    """A one-column transformer over `params`, for decode_matrix."""
    return ColumnTransformer((ColumnMeta("x", ColumnKind.numerical()),), {0: params})


def decode_value(params, alpha, beta):
    matrix = np.array([[alpha, *beta]], dtype=np.float64)
    return decode_matrix(matrix, numeric_layout(params)).rows[0][0]


def categorical_layout(order):
    schema = (ColumnMeta("g", ColumnKind.categorical(), tuple(order)),)
    return ColumnTransformer(schema, {})


class TestFitGmm:
    def test_constant_column_degenerates_to_floor(self):
        params = fit_gmm([5.0, 5.0, 5.0], K=4, seed=0)
        assert params.n_active == 1
        assert params.means[0] == pytest.approx(5.0)
        assert params.stds[0] == pytest.approx(1e-6)

    def test_two_well_separated_modes_recovered(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(0, 1, 250), rng.normal(10, 1, 250)])
        params = fit_gmm(x, K=4, seed=3)
        assert params.n_active == 2
        recovered = sorted(params.means[params.active])
        assert recovered[0] == pytest.approx(0.0, abs=0.3)
        assert recovered[1] == pytest.approx(10.0, abs=0.3)

    def test_k1_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.0, 400)
        params = fit_gmm(x, K=1, seed=0)
        assert params.means[0] == pytest.approx(float(x.mean()), abs=1e-9)
        assert params.stds[0] == pytest.approx(float(x.std()), abs=1e-9)

    def test_empty_input_errors(self):
        with pytest.raises(TransformError):
            fit_gmm([], K=2, seed=0)

    def test_active_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(c, 0.5, 120) for c in (0.0, 4.0, 9.0)])
        params = fit_gmm(x, K=10, seed=2)
        assert params.weights[params.active].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(params.weights[~params.active] == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=80),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_fit_invariants_on_arbitrary_data(self, data, k, seed):
        params = fit_gmm(np.array(data), K=k, seed=seed)
        floor = max(1e-4 * float(np.std(data)), 1e-6)
        assert params.weights[params.active].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(params.stds >= floor * (1 - 1e-12))
        assert params.n_active >= 1


    def test_em_check_survives_optimize_flag(self):
        # A NaN makes the first log-likelihood NaN, which the check rejects;
        # under -O an assert would let NaN parameters through.
        code = (
            "from tabforge.transform import TransformError, fit_gmm\n"
            "try:\n"
            "    fit_gmm([0.0, 1.0, float('nan')], K=3, seed=0)\n"
            "except TransformError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tabforge.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert "k=1, iteration 0" in out.stdout


def round_trip_columns(rng):
    """Acceptance criterion 3's four columns, drawn from `rng` in order."""
    return {
        "bimodal": np.concatenate([rng.normal(-5, 1, 1000), rng.normal(5, 1, 1000)]),
        "lognormal": rng.lognormal(0, 0.6, 1500),
        "wide": rng.normal(100, 25, 1500),
        "trimodal": np.concatenate(
            [rng.normal(-10, 0.5, 700), rng.normal(0, 1, 700), rng.normal(12, 2, 700)]
        ),
    }


def bimodal_column(seed=7):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0, 1, 250), rng.normal(10, 1, 250)])


class TestGmmSweepAndMemo:
    @pytest.fixture
    def em_calls(self, monkeypatch):
        """Empty the memo and record the k of every EM run."""
        monkeypatch.setattr(transform, "_GMM_MEMO", {})
        calls = []
        em_fit = transform._em_fit

        def counting(x, k, *rest):
            calls.append(k)
            return em_fit(x, k, *rest)

        monkeypatch.setattr(transform, "_em_fit", counting)
        return calls

    def test_same_column_fits_once(self, em_calls):
        x = np.random.default_rng(1).normal(3.0, 2.0, 400)
        first = fit_gmm(x, K=1, seed=0)
        second = fit_gmm(x.copy(), K=1, seed=0)
        assert em_calls == [1]
        assert np.array_equal(first.means, second.means) and np.array_equal(first.stds, second.stds)

    def test_different_k_seed_or_values_miss(self, em_calls):
        x = np.random.default_rng(1).normal(3.0, 2.0, 400)
        fit_gmm(x, K=1, seed=0)
        fit_gmm(x, K=2, seed=0)
        fit_gmm(x, K=1, seed=1)
        y = x.copy()
        y[0] += 1.0
        fit_gmm(y, K=1, seed=0)
        assert len(transform._GMM_MEMO) == 4
        assert em_calls == [1, 1, 2, 1, 1]

    def test_cached_arrays_are_read_only(self, em_calls):
        params = fit_gmm(bimodal_column(), K=4, seed=3)
        for a in (params.weights, params.means, params.stds, params.active):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            params.means[0] = 0.0

    def test_two_mode_column_stops_at_first_miss(self, em_calls):
        params = fit_gmm(bimodal_column(), K=10, seed=3)
        assert params.weights.size == 2
        assert em_calls == [1, 2, 3]

    def test_fit_matches_full_sweep_golden(self):
        # sha256 of the fitted schema and fits at K=10 (float64 on x86-64; a
        # libm that rounds exp/log differently needs a new value).  Its EM
        # runs converge in few steps, so it does not guard the EM stop;
        # test_slow_converging_fit_golden does.
        tf = ColumnTransformer.fit(mixed_table(), modes=10, seed=0)
        doc = json.dumps(tf.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(doc).hexdigest() == (
            "14eb85eef9c86fc8008aa6e49ffa731b529cace74e9cfe764b45cf3b997f6cd9"
        )

    def test_round_trip_columns_select_their_mode_counts(self):
        columns = round_trip_columns(np.random.default_rng(0))
        ks = {name: fit_gmm(values, K=10, seed=3).weights.size for name, values in columns.items()}
        assert ks == {"bimodal": 2, "lognormal": 4, "wide": 1, "trimodal": 3}

    def test_slow_converging_fit_golden(self):
        # The lognormal column's EM runs take many small steps, so a change
        # to the EM stop moves this fit (float64 on x86-64).
        values = round_trip_columns(np.random.default_rng(0))["lognormal"]
        params = fit_gmm(values, K=10, seed=3)
        digest = hashlib.sha256()
        for a in (params.weights, params.means, params.stds, params.active):
            digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "282adb3bed6e1e928240f5940ad4d020f2f79e286a6910a08725b50efd69cb19"
        )


class TestEmStop:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stop_does_not_depend_on_row_count(self, k):
        # Ten copies of a column have the same per-row log-likelihood at
        # every iteration, so EM must stop at the same iteration.
        x = np.random.default_rng(4).lognormal(0, 0.6, 300)
        floor = transform._std_floor(x)
        once = transform._em_fit(x, k, 11, floor, np.unique(x))
        tiled = transform._em_fit(np.tile(x, 10), k, 11, floor, np.unique(x))
        assert np.allclose(tiled[1], once[1], rtol=0, atol=1e-9)


class TestResponsibilities:
    def test_single_mode_is_certain(self):
        assert np.allclose(rho_of(single_mode(), 3.2), [1.0])

    def test_symmetric_midpoint(self):
        params = GmmParams(
            np.array([0.5, 0.5]), np.array([-2.0, 2.0]), np.array([1.0, 1.0]), np.array([True, True])
        )
        rho = rho_of(params, 0.0)
        assert np.allclose(rho, [0.5, 0.5], atol=1e-9)

    def test_matches_hand_formula(self):
        params = GmmParams(
            np.array([0.3, 0.7]), np.array([0.0, 10.0]), np.array([1.0, 1.0]), np.array([True, True])
        )
        c = 1.0
        d1 = 0.3 * math.exp(-0.5 * (c - 0.0) ** 2) / math.sqrt(2 * math.pi)
        d2 = 0.7 * math.exp(-0.5 * (c - 10.0) ** 2) / math.sqrt(2 * math.pi)
        expected = np.array([d1, d2]) / (d1 + d2)
        assert np.allclose(rho_of(params, c), expected, atol=1e-9)

    def test_far_value_falls_back_to_nearest_mean(self):
        params = GmmParams(
            np.array([0.5, 0.5]), np.array([0.0, 1.0]), np.array([1e-6, 1e-6]), np.array([True, True])
        )
        rho = rho_of(params, 1e6)
        assert np.allclose(rho, [0.0, 1.0])


class TestEncodeDecodeNumeric:
    def test_mean_maps_to_zero(self):
        alpha, beta = encode_value(single_mode(), 0.0, np.random.default_rng(0))
        assert alpha == 0.0 and np.array_equal(beta, [1.0])

    def test_two_sigma_maps_to_half(self):
        alpha, _ = encode_value(single_mode(), 2.0, np.random.default_rng(0))
        assert alpha == pytest.approx(0.5)

    def test_clipping(self):
        alpha, _ = encode_value(single_mode(), 100.0, np.random.default_rng(0))
        assert alpha == 1.0

    def test_decode_hand_case(self):
        assert decode_value(single_mode(10.0, 2.0), 0.5, [1.0]) == pytest.approx(14.0)

    def test_decode_alpha_zero_returns_mode_mean(self):
        assert decode_value(single_mode(7.5, 3.0), 0.0, [1.0]) == pytest.approx(7.5)

    def test_round_trip_unclipped(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(0, 1, 300), rng.normal(50, 5, 300)])
        params = fit_gmm(x, K=4, seed=1)
        values = rng.choice(x, 50)
        alpha, beta = _encode_numeric_batch(params, values, np.random.default_rng(2))
        matrix = np.column_stack([alpha, beta])
        back = [row[0] for row in decode_matrix(matrix, numeric_layout(params)).rows]
        for a, c, d in zip(alpha, values, back):
            if abs(a) < 1.0:  # unclipped
                assert d == pytest.approx(float(c), rel=1e-9)

    def test_rejects_bad_beta(self):
        # A numeric block whose mode indicator is missing.
        with pytest.raises(TransformError):
            decode_matrix(np.array([[0.1]]), numeric_layout(single_mode()))
        # Non-finite values never reach the encoder: a Table refuses them.
        cols = [ColumnMeta("x", ColumnKind.numerical())]
        with pytest.raises(DataError):
            Table("t", cols, [[float("nan")]])


class TestCategorical:
    def test_one_hot_position(self):
        table = Table("t", list(categorical_layout(("M", "F")).schema), [["F"]])
        matrix = encode_table(table, categorical_layout(("M", "F")), np.random.default_rng(0))
        assert np.array_equal(matrix, [[0.0, 1.0]])

    def test_decode_argmax(self):
        decoded = decode_matrix(np.array([[0.2, 0.9, 0.1]]), categorical_layout(("a", "b", "c")))
        assert decoded.rows[0][0] == "b"

    def test_round_trip_all_labels(self):
        order = ("x", "y", "z")
        tf = categorical_layout(order)
        table = Table("t", list(tf.schema), [[label] for label in order])
        back = decode_matrix(encode_table(table, tf, np.random.default_rng(0)), tf)
        assert [row[0] for row in back.rows] == list(order)

    def test_unknown_label_errors(self):
        cols = [ColumnMeta("g", ColumnKind.categorical(), ("a",))]
        with pytest.raises(DataError):
            Table("t", cols, [["b"]])
        empty = Table("t", [ColumnMeta("g", ColumnKind.categorical(), ())], [[None]])
        with pytest.raises(TransformError, match="table 't': categorical column 'g' has no categories"):
            ColumnTransformer.fit(empty, modes=1, seed=0)


def mixed_table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x1 = np.where(rng.random(n) < 0.5, rng.normal(0, 1, n), rng.normal(20, 2, n))
    x2 = rng.normal(-5, 0.5, n)
    cats = rng.choice(["r", "g", "b"], n).tolist()
    cols = [
        ColumnMeta("x1", ColumnKind.numerical()),
        ColumnMeta("x2", ColumnKind.numerical()),
        ColumnMeta("col", ColumnKind.categorical(), ("r", "g", "b")),
    ]
    rows = [[float(x1[i]), float(x2[i]), cats[i]] for i in range(n)]
    return Table("mix", cols, rows)


class TestTableEncoding:
    def test_width_bookkeeping(self):
        # Known active-mode counts fix the layout the transformer derives.
        cols = (
            ColumnMeta("a", ColumnKind.numerical()),
            ColumnMeta("b", ColumnKind.numerical()),
            ColumnMeta("c", ColumnKind.categorical(), ("w", "x", "y", "z")),
        )
        g3 = GmmParams(np.full(3, 1 / 3), np.array([0.0, 5.0, 9.0]), np.ones(3), np.ones(3, bool))
        g2 = GmmParams(np.array([0.5, 0.5]), np.array([0.0, 5.0]), np.ones(2), np.ones(2, bool))
        tf = ColumnTransformer(cols, {0: g3, 1: g2})
        assert [(s.start, s.width) for s in tf.spans] == [(0, 4), (4, 3), (7, 4)]
        assert tf.total_width == 11
        assert tf.alphas == [0, 4]
        assert tf.blocks == [(1, 4), (5, 7), (7, 11)]
        assert (tf.cond_start, tf.cond_blocks) == (7, [(7, 11)])

    @pytest.mark.parametrize("fitted", [[0], [0, 1, 2], [1, 2]], ids=["misses-one", "fits-a-categorical", "shifted"])
    def test_fits_must_cover_exactly_the_numerical_columns(self, fitted):
        cols = (
            ColumnMeta("a", ColumnKind.numerical()),
            ColumnMeta("b", ColumnKind.numerical()),
            ColumnMeta("c", ColumnKind.categorical(), ("w", "x")),
        )
        fits = {i: single_mode() for i in fitted}
        with pytest.raises(TransformError, match=r"not the numerical columns \[0, 1\]"):
            ColumnTransformer(cols, fits)

    def test_fit_layout_numeric_then_categorical(self):
        table = mixed_table()
        tf = ColumnTransformer.fit(table, modes=4, seed=0)
        kinds = [s.kind for s in tf.spans]
        assert kinds == ["numeric", "numeric", "categorical"]
        starts = [s.start for s in tf.spans]
        assert starts == sorted(starts)
        assert tf.total_width == sum(s.width for s in tf.spans)

    def test_encode_blocks_are_one_hot_and_alpha_bounded(self):
        table = mixed_table()
        tf = ColumnTransformer.fit(table, modes=4, seed=0)
        matrix = encode_table(table, tf, np.random.default_rng(1))
        for span in tf.spans:
            block = matrix[:, span.start : span.start + span.width]
            onehot = block[:, 1:] if span.kind == "numeric" else block
            assert np.all(onehot.sum(axis=1) == 1.0)
            assert np.all((onehot == 0.0) | (onehot == 1.0))
            if span.kind == "numeric":
                assert np.all(np.abs(block[:, 0]) <= 1.0)

    def test_decode_inverts_encode(self):
        table = mixed_table()
        tf = ColumnTransformer.fit(table, modes=4, seed=0)
        back = decode_matrix(encode_table(table, tf, np.random.default_rng(1)), tf)
        for r in range(table.n_rows):
            for i, col in enumerate(table.columns):
                if col.kind.is_categorical:
                    assert back.rows[r][i] == table.rows[r][i]
                else:
                    orig = table.rows[r][i]
                    # float32 storage costs ~1e-7 relative; spec budget is 1e-5
                    assert back.rows[r][i] == pytest.approx(orig, abs=1e-5 * max(1.0, abs(orig)))

    def test_empty_table_encodes_to_zero_rows(self):
        table = mixed_table()
        empty = Table("e", table.columns, [])
        tf = ColumnTransformer.fit(table, modes=2, seed=0)
        tf2 = ColumnTransformer(tuple(empty.columns), tf.gmms)
        matrix = encode_table(empty, tf2, np.random.default_rng(0))
        assert matrix.shape == (0, tf.total_width)
        assert matrix.dtype == np.float32

    def test_failed_column_fit_names_table_and_column(self):
        table = mixed_table()
        table.rows[3][1] = float("nan")  # past Table's own check
        with pytest.raises(TransformError, match="table 'mix', column 'x2': EM log-likelihood fell"):
            ColumnTransformer.fit(table, modes=2, seed=0)
        blank = Table("blank", [ColumnMeta("v", ColumnKind.numerical())], [[None], [None]])
        with pytest.raises(TransformError, match="table 'blank', column 'v': cannot fit a GMM on an empty"):
            ColumnTransformer.fit(blank, modes=2, seed=0)

    def test_schema_mismatch_errors(self):
        table = mixed_table()
        other = mixed_table(seed=9)
        other.columns[0] = ColumnMeta("renamed", ColumnKind.numerical())
        tf = ColumnTransformer.fit(table, modes=2, seed=0)
        with pytest.raises(TransformError):
            encode_table(other, tf, np.random.default_rng(0))
