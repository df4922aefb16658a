"""The centroid layer both index backends share: k-means, lists and probing.

Spherical k-means: seeding is k-means++ driven by a fixed RNG seed,
assignment is by maximum dot product (lowest centroid index on exact ties),
and centroid updates are renormalized means. Everything is deterministic for
a fixed seed, which is what makes byte-identical index rebuilds possible.

The update sums each cluster's vectors one dimension at a time:
`np.bincount(labels, weights=column)` over a float32 (dim, N) transpose made
once per training run. bincount casts each weight to float64 and adds it into
its label's bin in row order, starting from 0.0. That is the same sequence of
float64 additions `np.add.at(sums, labels, vectors.astype(np.float64))` makes
for every (cluster, dimension) cell, so the sums, and with them the centroids
and every index built on them, are bit-identical to that row-wise update,
without its float64 copy of all vectors or its per-row scatter.

Centroid lists: IVF files corpus row ids and PLAID files doc ordinals under
each centroid, both as one `Csr` built by `Csr.grouped`. Both backends order
a query row's centroids with `probe`: one (query rows x centroids) product
and one stable argsort of the negated dots, so ties go to the lower centroid
id and the top-n prefix of a row's order is shared by every larger n. That
shared prefix is what keeps candidate sets nested in nprobe and ncells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TokenMatrix
from .errors import DimensionMismatch, TooFewVectors


def assign(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Argmax-dot centroid per vector; ties go to the lowest centroid index."""
    sims = vectors @ centroids.T
    return np.argmax(sims, axis=1).astype(np.int32)


def _seed_plus_plus(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = vectors.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    # Squared Euclidean distance to the nearest chosen centroid; on the unit
    # sphere this is 2 - 2 * dot.
    best_dot = vectors @ vectors[chosen[0]]
    for i in range(1, k):
        d2 = np.maximum(0.0, 2.0 - 2.0 * best_dot).astype(np.float64)
        total = d2.sum()
        if total <= 0.0:
            chosen[i] = rng.integers(n)
        else:
            chosen[i] = rng.choice(n, p=d2 / total)
        best_dot = np.maximum(best_dot, vectors @ vectors[chosen[i]])
    return vectors[chosen].copy()


def _cluster_sums(columns: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Float64 (k, dim) sums of the vectors under each label, in row order.

    `columns` is the (dim, N) transpose of the vectors.
    """
    sums = np.empty((k, columns.shape[0]), dtype=np.float64)
    for d, column in enumerate(columns):
        sums[:, d] = np.bincount(labels, weights=column, minlength=k)
    return sums


def _renormalized_means(columns: np.ndarray, labels: np.ndarray, k: int, prev: np.ndarray):
    sums = _cluster_sums(columns, labels, k)
    counts = np.bincount(labels, minlength=k)
    norms = np.linalg.norm(sums, axis=1)
    dead = (counts == 0) | (norms < 1e-12)
    centroids = prev.astype(np.float64).copy()
    alive = ~dead
    centroids[alive] = sums[alive] / norms[alive, None]
    return centroids.astype(np.float32), dead


def _reseed_dead(
    vectors: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    dead: np.ndarray,
) -> np.ndarray:
    """Move each dead centroid onto the vector currently farthest from its own."""
    if not dead.any():
        return centroids
    dots = np.einsum("ij,ij->i", vectors, centroids[labels])
    order = np.argsort(dots, kind="stable")  # farthest first = smallest dot
    ids = np.flatnonzero(dead)
    # train_kmeans needs N >= k, so there are never more dead centroids than rows.
    centroids[ids] = vectors[order[:len(ids)]]
    return centroids


def train_kmeans(
    vectors: np.ndarray, k: int, iters: int = 20, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Train k unit-norm centroids; stops early once assignments are stable.

    Returns (centroids, labels), where labels equals assign(vectors, centroids):
    the loop ends on labels computed from the final centroids, because each
    update is followed by an assignment, and with iters 0 the labels are the
    seeds' own. Raises TooFewVectors when there are fewer vectors than clusters.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[0] < k:
        raise TooFewVectors(f"need at least k={k} vectors, got {vectors.shape[0]}")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = _seed_plus_plus(vectors, k, rng)
    labels = assign(vectors, centroids)
    columns = np.ascontiguousarray(vectors.T)
    for _ in range(max(0, iters)):
        centroids, dead = _renormalized_means(columns, labels, k, centroids)
        centroids = _reseed_dead(vectors, labels, centroids, dead)
        new_labels = assign(vectors, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels


@dataclass(frozen=True)
class Csr:
    """Variable-length int32 rows held as one flat array plus int64 offsets.

    Row i is flat[offsets[i]:offsets[i + 1]], returned as a view.
    """

    flat: np.ndarray  # (nnz,) int32
    offsets: np.ndarray  # (rows + 1,) int64

    @classmethod
    def grouped(cls, keys: np.ndarray, values: np.ndarray, rows: int) -> "Csr":
        """Row r holds the values whose key is r, in their given order.

        Keys must lie in [0, rows).
        """
        offsets = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=rows), out=offsets[1:])
        return cls(values[np.argsort(keys, kind="stable")].astype(np.int32), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, row: int) -> np.ndarray:
        row = range(len(self))[row]
        return self.flat[self.offsets[row]:self.offsets[row + 1]]

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The given rows concatenated, and where each one starts in the result."""
        positions, starts = segments(self.offsets, rows)
        return self.flat[positions], starts


def segments(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the given runs of `offsets`, concatenated, and where each run starts.

    Run r covers positions offsets[r]:offsets[r + 1].
    """
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    out_starts = np.cumsum(lengths) - lengths
    return np.repeat(starts - out_starts, lengths) + np.arange(int(lengths.sum())), out_starts


def token_docs(offsets: np.ndarray) -> np.ndarray:
    """The doc ordinal of every flat row, for doc boundaries `offsets`."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


def check_ids(name: str, ids: np.ndarray, shape: tuple, bound: int) -> None:
    """Raise ValueError unless `ids` has `shape` and every entry lies in [0, bound)."""
    if ids.shape != shape or (ids.size and not 0 <= int(ids.min()) <= int(ids.max()) < bound):
        raise ValueError(f"{name} must have shape {shape} with entries in [0, {bound})")


def probe(centroids: np.ndarray, query: TokenMatrix, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every query row's centroid dots, and its top-n centroid ids best first.

    n below 1 raises ValueError; n above the centroid count is clamped to it.
    Ties go to the lower centroid id.
    """
    if query.dim != centroids.shape[1]:
        raise DimensionMismatch(f"query dim {query.dim} != index dim {centroids.shape[1]}")
    if n < 1:
        raise ValueError(f"nprobe and ncells must be >= 1, got {n}")
    dots = query.data @ centroids.T
    n = min(n, len(centroids))
    return dots, np.argsort(-dots, axis=1, kind="stable")[:, :n]
