"""Synthetic-vs-real quality metrics.

Column Shapes: 1 - KS statistic for numeric columns, 1 - total variation
distance for categorical ones.  Column Trends: per unordered column pair,
Pearson-correlation difference for numeric/numeric, normalized contingency
TVD for categorical/categorical, and decile binning of the real values for
mixed pairs.  The Overall score averages the two.  The report record
(`TableReport`), the Mann-Whitney U test and the leaderboard live in
`tabforge.leaderboard`, which imports no numpy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from tabforge.data import Table
from tabforge.leaderboard import (  # the scoring surface stays importable from here
    Leaderboard,
    MetricError,
    TableReport,
    build_leaderboard,
    mann_whitney_u,
)


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
