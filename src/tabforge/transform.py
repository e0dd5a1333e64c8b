"""Mode-specific normalization and row encoding.

Numeric columns are fitted with a Gaussian mixture (EM, k-means++ init,
low-weight modes pruned).  A value c becomes (alpha, beta): a mode is
sampled proportionally to the per-mode densities, alpha = (c - mean) /
(4 * std) of that mode clipped to [-1, 1], beta the one-hot mode indicator.
Categorical columns are one-hot encoded.  An encoded row is the
concatenation of all numeric (alpha, beta) blocks followed by all
categorical one-hot blocks, in schema order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from tabforge.data import ColumnMeta, DataError, Table
from tabforge.rng import kmeans_pp, substream

EM_MAX_ITER = 300
EM_TOL = 1e-5  # EM stops once the log-likelihood gains less than this per row
WEIGHT_PRUNE = 0.005

_LOG_2PI = math.log(2.0 * math.pi)


class TransformError(DataError):
    pass


# fit_gmm results keyed by (sha256 of the float64 values, K, seed); the
# arrays are read-only so no caller can alter what later callers receive.
_GMM_MEMO: dict[tuple[str, int, int], tuple[np.ndarray, ...]] = {}


@dataclass
class GmmParams:
    weights: np.ndarray  # post-pruning: inactive modes carry weight 0
    means: np.ndarray
    stds: np.ndarray
    active: np.ndarray  # bool mask

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        self.active = np.asarray(self.active, dtype=bool)
        if not self.active.any():
            raise TransformError("at least one mode must be active")
        if abs(self.weights[self.active].sum() - 1.0) > 1e-9:
            raise TransformError("active mode weights must sum to 1")
        if np.any(self.stds <= 0):
            raise TransformError("mode stds must be positive")

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def active_triples(self):
        return self.weights[self.active], self.means[self.active], self.stds[self.active]


def _std_floor(values: np.ndarray) -> float:
    return max(1e-4 * float(values.std()), 1e-6)


def _em_fit(x: np.ndarray, k: int, seed: int, floor: float, distinct: np.ndarray):
    """One EM run at a fixed component count, k-means++ seeded over
    `distinct` (np.unique(x)).  It stops once an iteration gains less than
    EM_TOL * len(x) in log-likelihood, so the stop does not depend on the row
    count.  A log-likelihood that falls (or is not a number) raises
    TransformError.  Returns (weights, means, stds, loglik)."""
    means = kmeans_pp(distinct[:, None], k, np.random.default_rng(seed))[:, 0]
    weights = np.full(k, 1.0 / k)
    stds = np.full(k, max(float(x.std()), floor))

    ll = -np.inf
    prev_ll = -np.inf
    for it in range(EM_MAX_ITER):
        log_comp = (
            np.log(weights)[None, :]
            - 0.5 * _LOG_2PI
            - np.log(stds)[None, :]
            - 0.5 * ((x[:, None] - means[None, :]) / stds[None, :]) ** 2
        )
        row_max = log_comp.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.exp(log_comp - row_max).sum(axis=1))
        ll = float(log_norm.sum())
        if not ll >= prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise TransformError(f"EM log-likelihood fell from {prev_ll} to {ll} at k={k}, iteration {it}")
        if ll - prev_ll < EM_TOL * x.size:
            break
        prev_ll = ll
        resp = np.exp(log_comp - log_norm[:, None])
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / x.size
        means = (resp * x[:, None]).sum(axis=0) / nk
        var = (resp * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / nk
        stds = np.maximum(np.sqrt(var), floor)

    return weights, means, stds, ll


def fit_gmm(values, K: int, seed: int) -> GmmParams:
    """Fit a mixture with at most K modes.

    EM alone keeps redundant components alive (two components sharing one
    true cluster both retain large weights), so the mode count is selected
    by BIC across EM runs at k = 1, 2, ...; ties go to the smaller k.  The
    sweep stops at K, or at the first k whose BIC does not improve on the
    best.  Each k's EM run is seeded with seed + k, so the fit at the
    selected k does not depend on where the sweep stops.  Each EM run stops
    once an iteration gains less than EM_TOL (1e-5) in log-likelihood per
    row.  Modes with weight < 0.005 are then deactivated and the rest
    renormalized.

    The result depends only on the values, K and seed, so it is memoised
    for the life of the process; the returned arrays are read-only.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise TransformError("cannot fit a GMM on an empty column")
    if K < 1:
        raise TransformError("mode count must be >= 1")
    key = (hashlib.sha256(x.tobytes()).hexdigest(), K, seed)
    if key not in _GMM_MEMO:
        arrays = _fit_gmm_arrays(x, K, seed)
        for a in arrays:
            a.flags.writeable = False
        _GMM_MEMO[key] = arrays
    return GmmParams(*_GMM_MEMO[key])


def _fit_gmm_arrays(x: np.ndarray, K: int, seed: int) -> tuple[np.ndarray, ...]:
    floor = _std_floor(x)
    distinct = np.unique(x)
    if distinct.size < 2:
        return np.array([1.0]), np.array([x.mean()]), np.array([floor]), np.array([True])

    k_max = min(K, distinct.size)
    best = None
    best_bic = np.inf
    for k in range(1, k_max + 1):
        weights, means, stds, ll = _em_fit(x, k, seed + k, floor, distinct)
        bic = -2.0 * ll + (3 * k - 1) * np.log(x.size)
        if not bic < best_bic - 1e-9:
            break
        best_bic = bic
        best = (weights, means, stds)

    weights, means, stds = best
    active = weights >= WEIGHT_PRUNE
    if not active.any():
        active = weights == weights.max()
    weights = np.where(active, weights, 0.0)
    weights[active] /= weights[active].sum()
    return weights, means, stds, active


def _responsibilities(params: GmmParams, values: np.ndarray) -> np.ndarray:
    """Per value, rho_k over the active modes: weight_k * N(c; mean_k, std_k), normalized."""
    w, mu, sd = params.active_triples()
    log_rho = (
        np.log(w)[None, :]
        - np.log(sd)[None, :]
        - 0.5 * ((values[:, None] - mu[None, :]) / sd[None, :]) ** 2
    )
    row_max = log_rho.max(axis=1, keepdims=True)
    bad = ~np.isfinite(row_max[:, 0])
    if bad.any():
        # Densities underflowed even in log space: fall back to a one-hot at
        # the nearest mean.
        nearest = np.abs(values[:, None] - mu[None, :]).argmin(axis=1)
        rho = np.exp(np.where(np.isfinite(log_rho), log_rho - np.nan_to_num(row_max), -np.inf))
        rho[bad] = 0.0
        rho[bad, nearest[bad]] = 1.0
        rho /= rho.sum(axis=1, keepdims=True)
        return rho
    rho = np.exp(log_rho - row_max)
    rho /= rho.sum(axis=1, keepdims=True)
    return rho


def _sample_modes(rho: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF categorical sampling, one uniform per row."""
    cum = np.cumsum(rho, axis=1)
    u = rng.random(rho.shape[0])
    return (u[:, None] > cum).sum(axis=1).clip(0, rho.shape[1] - 1)


def _encode_numeric_batch(params: GmmParams, values: np.ndarray, rng: np.random.Generator):
    """Values -> (alpha per value, one-hot beta rows over the active modes)."""
    rho = _responsibilities(params, values)
    ks = _sample_modes(rho, rng)
    _, mu, sd = params.active_triples()
    alpha = np.clip((values - mu[ks]) / (4.0 * sd[ks]), -1.0, 1.0)
    beta = np.zeros((values.size, params.n_active), dtype=np.float64)
    beta[np.arange(values.size), ks] = 1.0
    return alpha, beta


@dataclass
class ColumnSpan:
    column: int  # index into the source schema
    kind: str  # "numeric" | "categorical"
    start: int
    width: int


@dataclass
class ColumnTransformer:
    """Fitted per-column transforms plus the encoded-row span layout
    (numeric columns first, then categorical, each in schema order).  The
    models read the layout only through `alphas`, `blocks` and `cond_start`."""

    schema: tuple[ColumnMeta, ...]
    gmms: dict[int, GmmParams]
    spans: tuple[ColumnSpan, ...]
    total_width: int

    @classmethod
    def fit(cls, table: Table, modes: int, seed: int) -> "ColumnTransformer":
        gmms: dict[int, GmmParams] = {}
        spans: list[ColumnSpan] = []
        start = 0
        for i in table.numeric_indices():
            values = [v for v in table.column_values(i) if v is not None]
            rng = substream(seed, "gmm", table.name, i)
            try:
                params = fit_gmm(np.asarray(values, dtype=np.float64), modes, int(rng.integers(2**63)))
            except TransformError as exc:
                raise TransformError(f"table {table.name!r}, column {table.columns[i].name!r}: {exc}") from exc
            gmms[i] = params
            width = 1 + params.n_active
            spans.append(ColumnSpan(i, "numeric", start, width))
            start += width
        for i in table.categorical_indices():
            width = len(table.columns[i].categories)
            if width == 0:
                raise TransformError(
                    f"table {table.name!r}: categorical column {table.columns[i].name!r} has no categories"
                )
            spans.append(ColumnSpan(i, "categorical", start, width))
            start += width
        return cls(tuple(table.columns), gmms, tuple(spans), start)

    @property
    def alphas(self) -> list[int]:
        """The alpha column of each numeric span."""
        return [s.start for s in self.spans if s.kind == "numeric"]

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """Each span's (start, stop) one-hot: the mode indicators, then the categoricals."""
        return [(s.start + (s.kind == "numeric"), s.start + s.width) for s in self.spans]

    @property
    def cond_start(self) -> int:
        """Where the categorical blocks, CTGAN's conditional vector, begin."""
        return next((s.start for s in self.spans if s.kind == "categorical"), self.total_width)

    def to_dict(self) -> dict:
        """JSON-safe dump; float64 values survive json round trips exactly."""
        return {
            "schema": [
                {
                    "name": c.name,
                    "kind": c.kind.variant,
                    "reason": c.kind.reason,
                    "categories": list(c.categories),
                }
                for c in self.schema
            ],
            "gmms": {
                str(i): {
                    "weights": g.weights.tolist(),
                    "means": g.means.tolist(),
                    "stds": g.stds.tolist(),
                    "active": g.active.tolist(),
                }
                for i, g in self.gmms.items()
            },
            "spans": [[s.column, s.kind, s.start, s.width] for s in self.spans],
            "total_width": self.total_width,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ColumnTransformer":
        from tabforge.data import ColumnKind, ColumnMeta

        schema = tuple(
            ColumnMeta(
                c["name"],
                ColumnKind(c["kind"], c.get("reason", "")),
                tuple(c["categories"]),
                0.0,
            )
            for c in doc["schema"]
        )
        gmms = {
            int(i): GmmParams(
                np.array(g["weights"]),
                np.array(g["means"]),
                np.array(g["stds"]),
                np.array(g["active"], dtype=bool),
            )
            for i, g in doc["gmms"].items()
        }
        spans = tuple(ColumnSpan(c, k, s, w) for c, k, s, w in doc["spans"])
        return cls(schema, gmms, spans, doc["total_width"])


def encode_table(table: Table, transformer: ColumnTransformer, rng: np.random.Generator) -> np.ndarray:
    """Encode all rows into a float32 (n_rows, total_width) matrix; nulls
    are a caller bug (clean first)."""
    if tuple(table.columns) != transformer.schema:
        raise TransformError("transformer was fitted on a different schema")
    n = table.n_rows
    out = np.zeros((n, transformer.total_width), dtype=np.float32)
    for span in transformer.spans:
        col = table.column_values(span.column)
        if any(v is None for v in col):
            raise TransformError(
                f"table {table.name!r}: null cell in column {transformer.schema[span.column].name!r}"
            )
        if span.kind == "numeric":
            values = np.asarray(col, dtype=np.float64)
            alpha, beta = _encode_numeric_batch(transformer.gmms[span.column], values, rng)
            out[:, span.start] = alpha.astype(np.float32)
            out[:, span.start + 1 : span.start + span.width] = beta.astype(np.float32)
        else:
            order = transformer.schema[span.column].categories
            index = {cat: j for j, cat in enumerate(order)}
            for r, v in enumerate(col):
                out[r, span.start + index[v]] = 1.0
    return out


def decode_matrix(matrix: np.ndarray, transformer: ColumnTransformer) -> Table:
    """Invert an encoded matrix (hard one-hot blocks) back into a Table."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != transformer.total_width:
        raise TransformError("matrix width does not match the transformer layout")
    n = matrix.shape[0]
    cells: dict[int, list] = {}
    for span in transformer.spans:
        block = matrix[:, span.start : span.start + span.width]
        if span.kind == "numeric":
            params = transformer.gmms[span.column]
            _, mu, sd = params.active_triples()
            ks = block[:, 1:].argmax(axis=1)
            alpha = block[:, 0].astype(np.float64)
            cells[span.column] = list(alpha * 4.0 * sd[ks] + mu[ks])
        else:
            order = transformer.schema[span.column].categories
            ks = block.argmax(axis=1)
            cells[span.column] = [order[k] for k in ks]
    schema = [
        ColumnMeta(c.name, c.kind, c.categories, 0.0) for c in transformer.schema
    ]
    rows = [[cells[i][r] for i in range(len(schema))] for r in range(n)]
    return Table(name="decoded", columns=schema, rows=rows)


def decode_batches(transformer: ColumnTransformer, n: int, batch: int, draw) -> Table:
    """`n` rows drawn in chunks of at most `batch`, decoded as one table named
    "synthetic"; `draw(count)` returns a chunk as an encoded (count, width)
    matrix."""
    chunks = [draw(min(batch, n - start)) for start in range(0, n, batch)]
    matrix = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, transformer.total_width), dtype=np.float32)
    table = decode_matrix(matrix, transformer)
    table.name = "synthetic"
    return table
