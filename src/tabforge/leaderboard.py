"""Per-table score reports, the Mann-Whitney U test and the benchmark
leaderboard that aggregates reports per (split, method, regime).

This module imports no numpy, so `tabforge report` renders a leaderboard
without loading it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

from tabforge.data import DataError


class MetricError(DataError):
    pass


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


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and population standard deviation (ddof 0)."""
    mean = math.fsum(values) / len(values)
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


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
            board.rows.append(
                LeaderboardRow(
                    split,
                    method,
                    regime,
                    *_mean_std([r.s_shape for r in reps]),
                    *_mean_std([r.s_trend for r in reps]),
                    *_mean_std([r.s_overall for r in reps]),
                    p_value if regime == "finetuned" else None,
                )
            )
    return board
