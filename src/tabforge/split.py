"""Corpus splitting: seeded random splits and domain splits over clustered
table-name embeddings, plus the hashing fallback embedding."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from tabforge.data import DataError
from tabforge.rng import kmeans_pp


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float]
    seed: int
    mode: str  # "random" | "domain"
    k: int  # cluster count, domain mode only

    def __post_init__(self):
        if len(self.ratios) != 3:
            raise DataError(f"split ratios must be 3 values (train, val, test), got {list(self.ratios)}")
        if any(r <= 0 for r in self.ratios):
            raise DataError(f"every split ratio must be > 0, got {list(self.ratios)}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise DataError(f"split ratios must sum to 1, got {sum(self.ratios)}")
        if self.mode not in ("random", "domain"):
            raise DataError(f"unknown split mode {self.mode!r}")
        if self.mode == "domain" and self.k < 1:
            raise DataError(f"domain mode needs split k >= 1, got {self.k}")


def split_spec(cfg: dict) -> SplitSpec:
    s = cfg["split"]
    return SplitSpec(
        ratios=tuple(s["ratios"]),
        seed=cfg["seed"],
        mode=s["mode"],
        k=s["k"],
    )


@dataclass
class DatasetSplit:
    train: list[str]
    val: list[str]
    test: list[str]
    provenance: SplitSpec
    cluster_assignments: dict[str, int] | None = None

    def __post_init__(self):
        parts = [set(self.train), set(self.val), set(self.test)]
        if sum(len(p) for p in parts) != len(set().union(*parts)):
            raise DataError("split parts must be pairwise disjoint")
        if self.cluster_assignments is not None:
            seen: dict[int, str] = {}
            for part_name, names in (("train", self.train), ("val", self.val), ("test", self.test)):
                for n in names:
                    if n not in self.cluster_assignments:
                        raise DataError(f"table {n!r} has no cluster")
                    cid = self.cluster_assignments[n]
                    if seen.setdefault(cid, part_name) != part_name:
                        raise DataError(f"cluster {cid} straddles parts")

    def to_json(self) -> str:
        doc = {
            "spec": {
                "ratios": list(self.provenance.ratios),
                "seed": self.provenance.seed,
                "mode": self.provenance.mode,
                "k": self.provenance.k,
            },
            "train": list(self.train),
            "val": list(self.val),
            "test": list(self.test),
            "clusters": self.cluster_assignments or {},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes, source) -> "DatasetSplit":
        """The manifest `to_json` wrote.  Text that is not JSON (bytes that
        do not decode included), lacks a key, holds a value of the wrong type
        or breaks a split invariant is a DataError naming `source`."""
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise DataError("not a JSON object")
            spec = SplitSpec(
                ratios=tuple(doc["spec"]["ratios"]),
                seed=doc["spec"]["seed"],
                mode=doc["spec"]["mode"],
                k=doc["spec"].get("k", 0),
            )
            clusters = {k: int(v) for k, v in doc.get("clusters", {}).items()} or None
            return cls(doc["train"], doc["val"], doc["test"], spec, clusters)
        except (DataError, ValueError, KeyError, TypeError, AttributeError) as exc:
            detail = f"no key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise DataError(f"{source}: not a split manifest: {detail}") from None


def _cut_sizes(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    n_train = int(np.floor(n * ratios[0]))
    n_val = int(np.floor(n * ratios[1]))
    return n_train, n_val, n - n_train - n_val


def random_split(names: list[str], spec: SplitSpec) -> DatasetSplit:
    """Seeded shuffle of the table names, then cut at cumulative ratio
    boundaries (floor for train and val, remainder to test)."""
    if spec.mode != "random":
        raise ValueError("random_split requires a Random spec")
    if len(names) < 3:
        raise DataError("need at least 3 tables to split")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(names))
    shuffled = [names[i] for i in order]
    n_train, n_val, n_test = _cut_sizes(len(names), spec.ratios)
    if min(n_train, n_val, n_test) == 0:
        raise DataError("split produced an empty part; adjust ratios or corpus size")
    return DatasetSplit(
        train=shuffled[:n_train],
        val=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
        provenance=spec,
    )


KMEANS_MAX_ITER = 100


def kmeans(vectors, k: int, seed: int) -> list[int]:
    """Lloyd's iterations from seeded k-means++ initialization.

    Returns per-vector cluster ids.  Within-cluster sum of squares is
    non-increasing across iterations (a rise, or the NaN a non-finite vector
    gives, raises DataError); empty clusters are re-seeded at the point
    farthest from its current center.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("kmeans needs a non-empty 2-D array of vectors")
    if x.shape[1] == 0:
        raise DataError("kmeans needs vectors with at least one dimension")
    n = x.shape[0]
    if k > n or k < 1:
        raise DataError(f"k={k} out of range for {n} vectors")

    centers = kmeans_pp(x, k, np.random.default_rng(seed))

    assign = np.full(n, -1, dtype=int)
    prev_wcss = np.inf
    for it in range(KMEANS_MAX_ITER):
        dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        wcss = dists[np.arange(n), new_assign].sum()
        if not wcss <= prev_wcss + 1e-9 * max(1.0, abs(prev_wcss)):
            raise DataError(
                f"k-means within-cluster sum of squares rose or is not a number: "
                f"{prev_wcss} -> {wcss} at iteration {it}"
            )
        prev_wcss = wcss
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = x[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                # Deterministic re-seed: the point farthest from its center.
                far = dists[np.arange(n), assign].argmax()
                centers[j] = x[far]
    return assign.tolist()


def name_embedding(name: str, dim: int) -> np.ndarray:
    """Deterministic character-3-gram feature hashing, L2-normalized.

    Stands in when no external embedding file is supplied; hashing keeps the
    pipeline free of model downloads.
    """
    if not name:
        raise DataError("cannot embed an empty name")
    if dim < 8:
        raise DataError("embedding dim must be >= 8")
    padded = f"^{name.lower()}$"
    vec = np.zeros(dim, dtype=np.float64)
    for i in range(len(padded) - 2):
        gram = padded[i : i + 3]
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest, "little") % dim
        vec[bucket] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm


def domain_split(names: list[str], embeddings: dict[str, np.ndarray], spec: SplitSpec) -> DatasetSplit:
    """Cluster the embeddings of the table names, then assign whole clusters
    to parts.

    Clusters are shuffled (seeded), processed largest-first, each going to
    the part with the largest remaining deficit against its ratio target, so
    no cluster ever straddles parts.
    """
    if spec.mode != "domain":
        raise ValueError("domain_split requires a Domain spec")
    missing = [n for n in names if n not in embeddings]
    if missing:
        raise DataError(f"missing embeddings for tables: {missing[:5]}")
    if spec.k > len(names):
        raise DataError("cannot have more clusters than tables")
    matrix = [np.asarray(embeddings[n], dtype=np.float64) for n in names]
    assign = kmeans(matrix, spec.k, spec.seed)

    clusters: dict[int, list[str]] = {}
    for n, cid in zip(names, assign):
        clusters.setdefault(cid, []).append(n)
    rng = np.random.default_rng(spec.seed)
    cluster_ids = list(clusters)
    rng.shuffle(cluster_ids)
    cluster_ids.sort(key=lambda c: -len(clusters[c]))  # stable: keeps shuffled order within sizes

    parts: dict[str, list[str]] = {"train": [], "val": [], "test": []}
    targets = dict(zip(("train", "val", "test"), spec.ratios))
    for cid in cluster_ids:
        deficits = {p: targets[p] * len(names) - len(parts[p]) for p in parts}
        best = max(parts, key=lambda p: (deficits[p], p == "train", p == "val"))
        parts[best].extend(clusters[cid])
    if min(len(v) for v in parts.values()) == 0:
        raise DataError("domain split left a part empty; adjust k or ratios")
    return DatasetSplit(
        train=parts["train"],
        val=parts["val"],
        test=parts["test"],
        provenance=spec,
        cluster_assignments={n: int(c) for n, c in zip(names, assign)},
    )


def load_embedding_file(path) -> dict[str, np.ndarray]:
    """Read `name<TAB>v1,v2,...` lines into an embedding map.  Every vector
    must be finite and as long as the first."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    out: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            name, values = line.split("\t", 1)
            vec = np.array([float(v) for v in values.split(",")], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed embedding line") from exc
        if not np.all(np.isfinite(vec)):
            raise DataError(f"{path}:{lineno}: non-finite embedding value")
        if out and len(vec) != width:
            raise DataError(f"{path}:{lineno}: embedding has {len(vec)} values, earlier lines have {width}")
        width = len(vec)
        out[name] = vec
    return out
