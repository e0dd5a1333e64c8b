"""Synthetic-vs-real quality metrics and the benchmark leaderboard.

Column Shapes: 1 - KS statistic for numeric columns, 1 - total variation
distance for categorical ones.  Column Trends: per unordered column pair,
Pearson-correlation difference for numeric/numeric, normalized contingency
TVD for categorical/categorical, and decile binning of the real values for
mixed pairs.  The Overall score averages the two.  Regime comparisons use a
Mann-Whitney U test with exact enumeration at small sample sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from tabforge.data import DataError, Table


class MetricError(DataError):
    pass


# -- column shapes ---------------------------------------------------------


def ks_shape(real, syn) -> float:
    """1 - sup_x |F_syn(x) - F_real(x)|, sup over all pooled sample points."""
    r = np.sort(np.asarray(real, dtype=np.float64))
    s = np.sort(np.asarray(syn, dtype=np.float64))
    if r.size == 0 or s.size == 0:
        raise MetricError("ks_shape needs non-empty samples")
    pooled = np.concatenate([r, s])
    f_real = np.searchsorted(r, pooled, side="right") / r.size
    f_syn = np.searchsorted(s, pooled, side="right") / s.size
    return 1.0 - float(np.max(np.abs(f_syn - f_real)))


def tvd_shape(real, syn) -> float:
    """1 - (1/2) sum over the union of categories of |R_syn - R_real|."""
    real, syn = list(real), list(syn)
    if not real or not syn:
        raise MetricError("tvd_shape needs non-empty samples")

    def ratios(values):
        counts: dict = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return {k: c / len(values) for k, c in counts.items()}

    r, s = ratios(real), ratios(syn)
    support = set(r) | set(s)
    # fsum is exact, so the set's hash-seeded order cannot reach the result.
    return 1.0 - 0.5 * math.fsum(abs(s.get(w, 0.0) - r.get(w, 0.0)) for w in support)


# -- column trends ---------------------------------------------------------


def pearson(x, y) -> float:
    """Sample Pearson correlation; zero-variance inputs define rho = 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise MetricError("pearson needs equal-length inputs")
    if x.size < 2:
        raise MetricError("pearson needs at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0.0:
        return 0.0
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


def trend_numeric(real_pair, syn_pair) -> float:
    """1 - |rho_syn - rho_real| / 2."""
    rho_real = pearson(*real_pair)
    rho_syn = pearson(*syn_pair)
    return 1.0 - abs(rho_syn - rho_real) / 2.0


def trend_categorical(real_pair, syn_pair) -> float:
    """1 - (1/2) sum over joint category supports of |R_syn - R_real|."""
    for a, b in (real_pair, syn_pair):
        if len(a) != len(b) or not a:
            raise MetricError("trend_categorical needs non-empty aligned pairs")
    return tvd_shape(zip(*real_pair), zip(*syn_pair))


def quantile_linear(sorted_values, q: float) -> float:
    """Linear-interpolation quantile at position (n-1)*q over sorted values.

    Spelled out (not numpy's) so the independent metric oracle can reproduce
    the edges bit-for-bit.
    """
    n = len(sorted_values)
    pos = (n - 1) * q
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(sorted_values[lo])
    frac = pos - lo
    return float(sorted_values[lo]) + frac * (float(sorted_values[hi]) - float(sorted_values[lo]))


TREND_BINS = 10  # deciles of the real values for mixed column pairs
HISTOGRAM_BINS = 20


def bin_numeric(real, syn):
    """Map both samples through decile edges of the REAL values.

    Duplicate edges collapse; out-of-range synthetic values clamp into the
    end bins.  Returns (real_labels, syn_labels) as small ints.
    """
    r = np.asarray(real, dtype=np.float64)
    s = np.asarray(syn, dtype=np.float64)
    if r.size == 0:
        raise MetricError("bin_numeric needs non-empty real values")
    r_sorted = np.sort(r)
    edges_list = []
    if r_sorted[0] != r_sorted[-1]:  # constant column: one bin, no edges
        for i in range(1, TREND_BINS):
            e = quantile_linear(r_sorted, i / TREND_BINS)
            if not edges_list or e != edges_list[-1]:
                edges_list.append(e)
    edges = np.asarray(edges_list, dtype=np.float64)
    # A value equal to an edge lands in the upper bin (count of edges <= v).
    real_labels = np.searchsorted(edges, r, side="right")
    syn_labels = np.searchsorted(edges, s, side="right")
    return real_labels.tolist(), syn_labels.tolist()


# -- per-table report --------------------------------------------------------


@dataclass
class TableReport:
    table: str
    shape_scores: dict[str, float]
    trend_scores: dict[str, float]
    s_shape: float
    s_trend: float
    s_overall: float
    syn_rows: int
    single_column: bool = False

    def __post_init__(self):
        for v in (self.s_shape, self.s_trend, self.s_overall):
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise MetricError(f"score {v} outside [0, 1]")
        expected = self.s_shape if self.single_column else (self.s_shape + self.s_trend) / 2.0
        if abs(self.s_overall - expected) > 1e-12:
            raise MetricError("overall score must average shape and trend")

    def to_dict(self) -> dict:
        return asdict(self)


def _column_pair_score(real: Table, syn: Table, i: int, j: int) -> float:
    ri, rj = real.column_values(i), real.column_values(j)
    si, sj = syn.column_values(i), syn.column_values(j)
    num_i = real.columns[i].kind.is_numerical
    num_j = real.columns[j].kind.is_numerical
    if num_i and num_j:
        return trend_numeric((ri, rj), (si, sj))
    if not num_i and not num_j:
        return trend_categorical((ri, rj), (si, sj))
    # Mixed: bin the numeric side on the real deciles, then contingency TVD.
    if num_i:
        rb, sb = bin_numeric(ri, si)
        return trend_categorical((rb, rj), (sb, sj))
    rb, sb = bin_numeric(rj, sj)
    return trend_categorical((ri, rb), (si, sb))


def table_report(real: Table, syn: Table) -> TableReport:
    """Shape and trend scores for a synthetic table against its real source;
    a null cell in either table is a MetricError naming the table and column."""
    if [c.name for c in real.columns] != [c.name for c in syn.columns]:
        raise MetricError("real and synthetic tables must share a schema")
    if [c.kind.variant for c in real.columns] != [c.kind.variant for c in syn.columns]:
        raise MetricError("real and synthetic tables must share column kinds")
    if real.n_rows == 0 or syn.n_rows == 0:
        raise MetricError("tables must be non-empty")

    shape_scores: dict[str, float] = {}
    for i, col in enumerate(real.columns):
        r, s = real.column_values(i), syn.column_values(i)
        for table, values in ((real, r), (syn, s)):
            if None in values:
                raise MetricError(f"table {table.name!r} has a null cell in column {col.name!r}")
        if col.kind.is_numerical:
            shape_scores[col.name] = ks_shape(r, s)
        else:
            shape_scores[col.name] = tvd_shape(r, s)
    s_shape = sum(shape_scores.values()) / len(shape_scores)

    trend_scores: dict[str, float] = {}
    n = real.n_cols
    for i, j in itertools.combinations(range(n), 2):
        key = f"{real.columns[i].name}|{real.columns[j].name}"
        trend_scores[key] = _column_pair_score(real, syn, i, j)

    if not trend_scores:  # single column: trend undefined, flag it
        return TableReport(real.name, shape_scores, {}, s_shape, 0.0, s_shape, syn.n_rows, True)
    s_trend = sum(trend_scores.values()) / len(trend_scores)
    overall = (s_shape + s_trend) / 2.0
    return TableReport(real.name, shape_scores, trend_scores, s_shape, s_trend, overall, syn.n_rows)


# -- Mann-Whitney U -----------------------------------------------------------


def _midranks(pooled: list[float]) -> list[float]:
    order = sorted(range(len(pooled)), key=pooled.__getitem__)
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _u_statistic(ranks_a: list[float], n_a: int, n_b: int) -> float:
    return sum(ranks_a) - n_a * (n_a + 1) / 2.0


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


EXACT_LIMIT = 16


def mann_whitney_u(a, b, method: str = "auto") -> tuple[float, float]:
    """Two-sided Mann-Whitney U with midrank ties.

    Exact p by enumerating all C(n+m, n) group assignments when n+m <=
    16 (valid under ties); otherwise a normal approximation with
    tie-corrected variance and continuity correction.  Returns (U_a, p).
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if not a or not b:
        raise MetricError("mann_whitney_u needs non-empty samples")
    if method not in ("auto", "exact", "normal"):
        raise MetricError(f"unknown method {method!r}")
    n, m = len(a), len(b)
    pooled = a + b
    ranks = _midranks(pooled)
    u_obs = _u_statistic(ranks[:n], n, m)

    use_exact = method == "exact" or (method == "auto" and n + m <= EXACT_LIMIT)
    if use_exact:
        center = n * m / 2.0
        dev = abs(u_obs - center)
        total = 0
        hits = 0
        for combo in itertools.combinations(range(n + m), n):
            u = sum(ranks[i] for i in combo) - n * (n + 1) / 2.0
            total += 1
            if abs(u - center) >= dev - 1e-12:
                hits += 1
        return u_obs, hits / total

    # Normal approximation with tie-corrected variance and continuity
    # correction; without ties an Edgeworth kurtosis term sharpens the tail
    # (U is platykurtic, plain normal overshoots by ~0.011 at n=m=8).
    big_n = n + m
    counts: dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t**3 - t for t in counts.values())
    var = n * m / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if var <= 0:
        return u_obs, 1.0  # all values identical
    mean_u = n * m / 2.0
    # Continuity correction pulls the statistic half a step toward the mean.
    z = max((abs(u_obs - mean_u) - 0.5) / math.sqrt(var), 0.0)
    sf = _norm_sf(z)
    if tie_term == 0:
        kurt = -(6.0 / 5.0) * (n * n + m * m + n * m + n + m) / (n * m * (big_n + 1))
        phi = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
        sf = max(0.0, sf + phi * (z**3 - 3.0 * z) * kurt / 24.0)
    return u_obs, min(1.0, 2.0 * sf)


# -- leaderboard ---------------------------------------------------------------


@dataclass
class LeaderboardRow:
    split: str
    method: str
    regime: str
    shape_mean: float
    shape_std: float
    trend_mean: float
    trend_std: float
    overall_mean: float
    overall_std: float
    p_value: float | None


@dataclass
class Leaderboard:
    rows: list[LeaderboardRow] = field(default_factory=list)

    CSV_HEADER = (
        "split,method,regime,shape_mean,shape_std,trend_mean,trend_std,"
        "overall_mean,overall_std,p_value"
    )

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            p = "" if r.p_value is None else f"{r.p_value:.6g}"
            lines.append(
                f"{r.split},{r.method},{r.regime},"
                f"{r.shape_mean:.6f},{r.shape_std:.6f},{r.trend_mean:.6f},{r.trend_std:.6f},"
                f"{r.overall_mean:.6f},{r.overall_std:.6f},{p}"
            )
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Human-readable table: metric (std in brackets) per method/regime."""
        lines = [f"{'split':<14}{'method':<10}{'regime':<12}{'Shape':<14}{'Trends':<14}{'Overall':<14}{'p-value'}"]
        for r in self.rows:
            p = "" if r.p_value is None else f"{r.p_value:.2g}"
            lines.append(
                f"{r.split:<14}{r.method:<10}{r.regime:<12}"
                f"{r.shape_mean:.2f} ({r.shape_std:.2f})  "
                f"{r.trend_mean:.2f} ({r.trend_std:.2f})  "
                f"{r.overall_mean:.2f} ({r.overall_std:.2f})  {p}"
            )
        return "\n".join(lines) + "\n"


def build_leaderboard(reports: dict[tuple[str, str, str], list[TableReport]]) -> Leaderboard:
    """Aggregate per-table reports keyed by (split, method, regime).

    Every (method, regime) under a split must cover the same table set; the
    p-value compares finetuned-vs-scratch Overall distributions per method.
    """
    by_split_method: dict[tuple[str, str], dict[str, list[TableReport]]] = {}
    for (split, method, regime), reps in reports.items():
        by_split_method.setdefault((split, method), {})[regime] = reps

    board = Leaderboard()
    for (split, method), regimes in sorted(by_split_method.items()):
        tables = None
        for regime, reps in sorted(regimes.items()):
            names = sorted(r.table for r in reps)
            if tables is None:
                tables = names
            elif names != tables:
                raise MetricError(
                    f"regimes cover different tables for {split}/{method}: {names} vs {tables}"
                )
        p_value = None
        if "finetuned" in regimes and "scratch" in regimes:
            ft = [r.s_overall for r in regimes["finetuned"]]
            sc = [r.s_overall for r in regimes["scratch"]]
            _, p_value = mann_whitney_u(ft, sc)
        for regime, reps in sorted(regimes.items()):
            shapes = np.array([r.s_shape for r in reps])
            trends = np.array([r.s_trend for r in reps])
            overalls = np.array([r.s_overall for r in reps])
            board.rows.append(
                LeaderboardRow(
                    split,
                    method,
                    regime,
                    float(shapes.mean()),
                    float(shapes.std()),
                    float(trends.mean()),
                    float(trends.std()),
                    float(overalls.mean()),
                    float(overalls.std()),
                    p_value if regime == "finetuned" else None,
                )
            )
    return board


def column_histogram(real, syn) -> dict:
    """Shared-edge histogram export for side-by-side column plots."""
    r = np.asarray(real, dtype=np.float64)
    s = np.asarray(syn, dtype=np.float64)
    lo = min(r.min(), s.min()) if s.size else r.min()
    hi = max(r.max(), s.max()) if s.size else r.max()
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    r_counts, _ = np.histogram(r, edges)
    s_counts, _ = np.histogram(s, edges)
    return {
        "edges": edges.tolist(),
        "real_counts": r_counts.tolist(),
        "syn_counts": s_counts.tolist(),
    }
