import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabforge
from tabforge.data import ColumnKind, ColumnMeta, Table
from tabforge.metrics import (
    Leaderboard,
    MetricError,
    TableReport,
    bin_numeric,
    build_leaderboard,
    column_histogram,
    ks_shape,
    mann_whitney_u,
    pearson,
    table_report,
    trend_categorical,
    trend_numeric,
    tvd_shape,
)

import oracle_metrics as oracle


class TestKsShape:
    def test_identical_samples_score_one(self):
        x = [1.0, 2.0, 5.5, -3.0]
        assert ks_shape(x, x) == 1.0

    def test_disjoint_supports_score_zero(self):
        assert ks_shape([0.0] * 5, [1.0] * 5) == 0.0

    def test_hand_case(self):
        assert ks_shape([1, 2, 3, 4], [1, 2, 3, 10]) == pytest.approx(0.75)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        r, s = rng.normal(size=40), rng.normal(0.5, 1.2, size=55)
        before = ks_shape(r, s)
        after = ks_shape(np.exp(r), np.exp(s))  # strictly monotone map
        assert before == pytest.approx(after, abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(MetricError):
            ks_shape([], [1.0])


class TestTvdShape:
    def test_identical_distributions(self):
        assert tvd_shape(["a", "b", "a"], ["a", "a", "b"]) == pytest.approx(2 / 3 + 1 / 3)

    def test_hand_case(self):
        real = ["A"] * 50 + ["B"] * 50
        syn = ["A"] * 75 + ["B"] * 25
        assert tvd_shape(real, syn) == pytest.approx(0.75)

    def test_disjoint_categories_score_zero(self):
        assert tvd_shape(["a", "a"], ["b", "b"]) == 0.0

    def test_symmetry(self):
        a = ["x"] * 3 + ["y"] * 7
        b = ["x"] * 6 + ["z"] * 4
        assert tvd_shape(a, b) == pytest.approx(tvd_shape(b, a))


class TestTrends:
    def test_pearson_affine(self):
        x = [0.0, 1.0, 2.0, 3.5]
        y = [2 * v + 1 for v in x]
        assert pearson(x, y) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_hand_case(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_pearson_zero_variance_defined_as_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    def test_trend_numeric_cases(self):
        x = [1, 2, 3, 4]
        assert trend_numeric((x, x), (x, x)) == 1.0
        assert trend_numeric((x, x), (x, [-v for v in x])) == 0.0
        rho_half = ([1, 2, 3], [1, 3, 2])
        rho_zero_syn = ([1, 2, 3], [2, 2, 2])
        got = trend_numeric(rho_half, rho_zero_syn)
        assert got == pytest.approx(1.0 - abs(0.0 - 0.5) / 2.0)

    def test_trend_categorical_diagonal_vs_uniform(self):
        real = (["a", "a", "b", "b"], ["x", "y", "x", "y"])  # uniform 2x2
        syn = (["a", "a", "b", "b"], ["x", "x", "y", "y"])  # diagonal
        assert trend_categorical(real, syn) == pytest.approx(0.5)

    def test_trend_categorical_identical_and_disjoint(self):
        pair = (["a", "b"], ["x", "y"])
        assert trend_categorical(pair, pair) == 1.0
        other = (["c", "c"], ["z", "z"])
        assert trend_categorical(pair, other) == 0.0


class TestBinNumeric:
    def test_uniform_fills_bins_evenly(self):
        rng = np.random.default_rng(3)
        real = rng.random(1000)
        labels, _ = bin_numeric(real, real)
        fracs = [labels.count(k) / len(labels) for k in range(10)]
        assert all(abs(f - 0.1) < 0.02 for f in fracs)

    def test_out_of_range_syn_clamps_to_end_bins(self):
        real = list(np.linspace(0, 1, 101))
        _, syn_labels = bin_numeric(real, [-5.0, 5.0])
        assert syn_labels[0] == 0
        assert syn_labels[1] == max(syn_labels)

    def test_constant_real_collapses_to_single_bin(self):
        labels, syn = bin_numeric([2.0] * 50, [1.0, 2.0, 3.0])
        assert set(labels) == {0}


def table_from_columns(name, cols):
    metas = []
    for cname, kind, values in cols:
        if kind == "num":
            metas.append(ColumnMeta(cname, ColumnKind.numerical()))
        else:
            seen = []
            for v in values:
                if v not in seen:
                    seen.append(v)
            metas.append(ColumnMeta(cname, ColumnKind.categorical(), tuple(seen)))
    n = len(cols[0][2])
    rows = [[cols[c][2][r] for c in range(len(cols))] for r in range(n)]
    return Table(name, metas, rows)


def random_toy_pair(rng, n_cols=None, n_rows=None):
    n_cols = n_cols or rng.integers(1, 7)
    n_rows = n_rows or rng.integers(10, 201)
    spec = []
    for c in range(n_cols):
        if rng.random() < 0.5:
            spec.append((f"n{c}", "num"))
        else:
            spec.append((f"c{c}", "cat"))

    def build(tag):
        cols = []
        for cname, kind in spec:
            if kind == "num":
                values = [float(v) for v in rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), n_rows)]
            else:
                k = int(rng.integers(2, 6))
                values = [f"v{int(i)}" for i in rng.integers(0, k, n_rows)]
            cols.append((cname, kind, values))
        return cols

    real_cols, syn_cols = build("r"), build("s")
    # Force shared category vocabulary so schema kinds match.
    real = table_from_columns("toy", real_cols)
    metas = []
    for i, m in enumerate(real.columns):
        if m.kind.is_categorical:
            union = list(m.categories)
            for v in syn_cols[i][2]:
                if v not in union:
                    union.append(v)
            metas.append(ColumnMeta(m.name, m.kind, tuple(union)))
        else:
            metas.append(m)
    real = Table("toy", metas, real.rows)
    syn_rows = [[syn_cols[c][2][r] for c in range(n_cols)] for r in range(n_rows)]
    syn = Table("toy", metas, syn_rows)
    return real, syn, {m.name: ("num" if m.kind.is_numerical else "cat") for m in metas}


class TestTableReport:
    def test_self_comparison_is_perfect(self):
        rng = np.random.default_rng(0)
        real, _, _ = random_toy_pair(rng, n_cols=4, n_rows=60)
        rep = table_report(real, real)
        assert rep.s_shape == pytest.approx(1.0)
        assert rep.s_trend == pytest.approx(1.0)
        assert rep.s_overall == pytest.approx(1.0)

    def test_shuffled_column_keeps_marginals_breaks_joint(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        y = x + rng.normal(0, 0.1, 200)
        real = table_from_columns("t", [("x", "num", x.tolist()), ("y", "num", y.tolist())])
        y_shuf = y.copy()
        rng.shuffle(y_shuf)
        syn = table_from_columns("t", [("x", "num", x.tolist()), ("y", "num", y_shuf.tolist())])
        rep = table_report(real, syn)
        assert rep.s_shape == pytest.approx(1.0)
        assert rep.s_trend < 0.95

    def test_single_column_flagged(self):
        real = table_from_columns("t", [("x", "num", [1.0, 2.0, 3.0])])
        rep = table_report(real, real)
        assert rep.single_column and rep.s_overall == rep.s_shape

    def test_schema_mismatch_errors(self):
        a = table_from_columns("t", [("x", "num", [1.0, 2.0])])
        b = table_from_columns("t", [("y", "num", [1.0, 2.0])])
        with pytest.raises(MetricError):
            table_report(a, b)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        real, syn, kinds = random_toy_pair(rng)
        rep = table_report(real, syn)
        real_cols = {m.name: real.column_values(i) for i, m in enumerate(real.columns)}
        syn_cols = {m.name: syn.column_values(i) for i, m in enumerate(syn.columns)}
        s_shape, s_trend, s_overall = oracle.oracle_table_report(real_cols, syn_cols, kinds)
        assert rep.s_shape == pytest.approx(s_shape, abs=1e-9)
        if s_trend is not None:
            assert rep.s_trend == pytest.approx(s_trend, abs=1e-9)
        assert rep.s_overall == pytest.approx(s_overall, abs=1e-9)

    def test_report_bytes_independent_of_hash_seed(self):
        # Category supports are sets of strings, whose iteration order
        # follows the per-process string hash seed.
        code = (
            "import json\n"
            "import numpy as np\n"
            "from tabforge.data import ColumnKind, ColumnMeta, Table\n"
            "from tabforge.metrics import table_report\n"
            "rng = np.random.default_rng(0)\n"
            "labels = tuple('abcdefg')\n"
            "cols = [ColumnMeta('a', ColumnKind.categorical(), labels),\n"
            "        ColumnMeta('b', ColumnKind.categorical(), labels),\n"
            "        ColumnMeta('x', ColumnKind.numerical())]\n"
            "def make(n, p):\n"
            "    a, b = rng.choice(labels, n, p=p).tolist(), rng.choice(labels, n).tolist()\n"
            "    x = rng.normal(0, 1, n).tolist()\n"
            "    return Table('t', cols, [[a[i], b[i], x[i]] for i in range(n)])\n"
            "real, syn = make(97, None), make(61, [0.4, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05])\n"
            "print(json.dumps(table_report(real, syn).to_dict(), indent=2, sort_keys=True))\n"
        )
        src = str(Path(tabforge.__file__).parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                check=True,
            ).stdout
            for hash_seed in ("0", "1")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


class TestMannWhitney:
    def test_disjoint_case_exact(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)  # 2 / C(6,3)

    def test_identical_multisets_p_one(self):
        _, p = mann_whitney_u([1, 2, 3], [1, 2, 3])
        assert p == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_matches_enumeration_oracle_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        a = rng.integers(0, 4, n).tolist()  # small support forces ties
        b = rng.integers(0, 4, m).tolist()
        u, p = mann_whitney_u(a, b)
        u_oracle, p_oracle = oracle.oracle_mann_whitney_exact(a, b)
        assert u == pytest.approx(u_oracle, abs=1e-12)
        assert p == pytest.approx(p_oracle, abs=1e-12)

    def test_normal_approx_close_to_exact_at_8v8(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=8).tolist()
            b = rng.normal(0.5, 1.0, size=8).tolist()
            _, p_exact = mann_whitney_u(a, b, method="exact")
            _, p_norm = mann_whitney_u(a, b, method="normal")
            assert abs(p_exact - p_norm) < 0.01

    def test_empty_errors(self):
        with pytest.raises(MetricError):
            mann_whitney_u([], [1.0])


class TestLeaderboard:
    def make_report(self, table, s):
        return TableReport(table, {"x": s}, {}, s, 0.0, s, 10, True)

    def test_single_table_has_zero_std(self):
        reports = {
            ("random", "stvae", "finetuned"): [self.make_report("a", 0.9)],
            ("random", "stvae", "scratch"): [self.make_report("a", 0.7)],
        }
        board = build_leaderboard(reports)
        assert len(board.rows) == 2
        ft = next(r for r in board.rows if r.regime == "finetuned")
        assert ft.shape_std == 0.0
        assert ft.p_value is not None

    def test_identical_score_sets_give_p_one(self):
        reports = {
            ("random", "stvae", "finetuned"): [self.make_report(t, 0.8) for t in "abc"],
            ("random", "stvae", "scratch"): [self.make_report(t, 0.8) for t in "abc"],
        }
        board = build_leaderboard(reports)
        ft = next(r for r in board.rows if r.regime == "finetuned")
        assert ft.p_value == pytest.approx(1.0)

    def test_mismatched_coverage_errors(self):
        reports = {
            ("random", "stvae", "finetuned"): [self.make_report("a", 0.8)],
            ("random", "stvae", "scratch"): [self.make_report("b", 0.8)],
        }
        with pytest.raises(MetricError):
            build_leaderboard(reports)

    def test_csv_schema_stable(self):
        reports = {("random", "stvae", "scratch"): [self.make_report("a", 0.5)]}
        csv_text = build_leaderboard(reports).to_csv()
        header = csv_text.splitlines()[0]
        assert header == Leaderboard.CSV_HEADER
        assert len(csv_text.splitlines()[1].split(",")) == len(header.split(","))


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=30),
    b=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=30),
)
def test_metric_bounds_and_symmetry_properties(a, b):
    score = ks_shape(a, b)
    assert 0.0 <= score <= 1.0
    assert ks_shape(a, a) == 1.0
    labels_a = [f"v{int(abs(v)) % 5}" for v in a]
    labels_b = [f"v{int(abs(v)) % 5}" for v in b]
    t = tvd_shape(labels_a, labels_b)
    assert 0.0 <= t <= 1.0 + 1e-12
    assert tvd_shape(labels_a, labels_b) == pytest.approx(tvd_shape(labels_b, labels_a))


def test_column_histogram_export():
    h = column_histogram([1.0, 2.0, 3.0], [2.0, 2.5])
    assert len(h["edges"]) == 21
    assert sum(h["real_counts"]) == 3
    assert sum(h["syn_counts"]) == 2
