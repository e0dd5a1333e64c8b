"""Named, reproducible random substreams.

Every stochastic operation in the pipeline draws from a substream derived
from (root seed, dotted name).  The derivation hashes the name with sha256,
so streams are stable across platforms and Python processes (unlike the
built-in salted ``hash``).  It also holds the k-means++ seeding that the
GMM fit and the domain split's k-means share.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(root_seed: int, *names: object) -> np.random.Generator:
    """Return a Generator for the substream identified by ``names``.

    Same (root_seed, names) always yields the same stream; distinct names
    yield statistically independent streams.
    """
    label = ".".join(str(n) for n in names)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    seq = np.random.SeedSequence(entropy=int(root_seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=words)
    return np.random.default_rng(seq)


def kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: k rows of the (n, d) `points` as a (k, d) array.
    The first is uniform; each next one is drawn with probability
    proportional to its squared distance from the nearest row drawn so far,
    or uniformly once every distance is zero."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
        else:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers
