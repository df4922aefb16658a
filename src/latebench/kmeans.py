"""The centroid layer both index backends share: k-means, lists and probing.

Spherical k-means: seeding is k-means++ driven by a fixed RNG seed,
assignment is by maximum dot product (lowest centroid index on exact ties),
and centroid updates are renormalized means. Everything is deterministic for
a fixed seed, which is what makes byte-identical index rebuilds possible.

`assign` and every k-means++ seeding pass take their dots by one product
schedule over the N rows (`_in_products`): products of BLOCK_ROWS rows
starting at multiples of BLOCK_ROWS, the last starting at the multiple of 64
at or below N - BLOCK_ROWS and running to the end (N <= BLOCK_ROWS rows make
one product). A row two products cover is written only from the later one. No
product is short, as OpenBLAS hands a product of a few rows to other kernels
(gemv, its small-matrix path) that round differently. `assign` never holds
the whole (N, k) product: its reused buffer is 4 MiB at k = 256 where the
product is 38.9 MiB on the bench corpus, 32 MiB at k = 2,048 against 311 MiB.
Above 4*BLOCK_ROWS rows, with numpy's BLAS running each product on one
thread (`_blas_threads`), `core.in_halves` gives the later half of the
products, whole, to its worker (on two CPUs); each half of `assign` has its
own buffer. Serial and split then make the same BLAS calls into disjoint
rows, so they agree bit for bit at every dim, with no check. A BLAS on more
threads already spreads each product over the CPUs, and a second caller only
competes with it: at the BLAS's default two threads on two CPUs, assign on
the bench corpus took ~30 ms split against ~23 ms serial, and ~21 ms split
against ~41 ms serial at one BLAS thread.

Measured with numpy 2.4's OpenBLAS 0.3.31 on an AVX-512 x86-64 CPU, the
products keep every dot of the one (N, k) product, so the labels, and with
them the centroids, are those of np.argmax over it. k-means++ seeding
(Arthur & Vassilvitskii, SODA 2007) makes one pass over all N rows per seed
but the last, `np.maximum(best_dot, vectors @ x)` by the same products
(`_nearest_dots`), so the seeds are defined by those products. On a bench
corpus (39,870 rows, k = 256, one BLAS thread, a shared host) seeding took
~0.19-0.25 s on two CPUs and ~0.26-0.27 s on one. Each draw is
`Generator.choice`'s own arithmetic without its checks of p (`_draw`); the
checks were ~0.13 ms of each ~1.5 ms pass.

The update sums each cluster's vectors one dimension at a time:
`np.bincount(labels, weights=column)` over a float32 (dim, N) transpose made
once per training run (`_columns`). bincount casts each weight to float64 and
adds it into its label's bin in row order, starting from 0.0. That is the same
sequence of float64 additions `np.add.at(sums, labels,
vectors.astype(np.float64))` makes for every (cluster, dimension) cell, so the
sums, and with them the centroids and every index built on them, are
bit-identical to that row-wise update, without its float64 copy of all vectors
or its per-row scatter. Above 4*BLOCK_ROWS rows, `core.in_halves` gives the
later half of the dimensions to its worker: each column is summed on its own,
by the same bincount on either thread. On the bench corpus an update took
~9-11 ms split against ~12-14 ms serial. The split gains less than half:
bincount first casts each float32 column to float64, and over float64 columns
the same split measured ~6 ms against ~10 ms.

Centroid lists: IVF files corpus row ids and PLAID files doc ordinals under
each centroid, both as one `Csr` built by `Csr.grouped`. Both backends order
a query row's centroids with `probe`: one (query rows x centroids) product
and one stable argsort of the negated dots, so ties go to the lower centroid
id and the top-n prefix of a row's order is shared by every larger n. That
shared prefix is what keeps candidate sets nested in nprobe and ncells.

Both backends also derive, from the vectors they rescore and never saved, each
doc's sorted unique centroid ids and its residual radii (`residual_radii`),
and both pick the candidates they rescore with one call, `shortlist`: it gives
each its centroid score, ranks them by it with `core.best` (ties by doc id,
the n best kept: PLAID's ndocs, every candidate for IVF) and gives each after
the k-th its residual-radius ceiling (below). The centroid score is
`approx_scores`, MaxSim with every doc row replaced by its centroid. Each doc's
ids are one `Csr`, so the score is a layered max: the dot matrix is transposed
once to (centroids, query rows), and layer j takes, for every doc at once, the
row of its j-th centroid id, clamped to its last one, and maxes it into one
(docs, query rows) array; as many layers run as the widest doc has ids. One
float64 sum along each doc's row follows. Its scores are bit for bit those of
the per-doc expression `np.sum(dots[:, unique_codes[o]].max(axis=1),
dtype=np.float64)`: the gather and the max are exact, repeating a doc's last
id changes none of its maxima, and summing a contiguous float64 row runs
numpy's pairwise summation in the same order as the 1-d sum does.

The ceilings let `core.top_k` skip the candidates they prove to lie outside
the top k: threshold-style early termination (Fagin, Lotem & Naor, PODS 2001)
over the centroid interaction. Write each row of doc d as v = c + r, its
centroid plus its residual. Then q.v <= q.c + ||q||*||r||, so with Q the sum
of the query's row norms, d scores at most its ceiling approx(d) +
max_residual[d]*Q + slack, approx(d) being its centroid score and
max_residual[d] its largest residual norm. `top_k` scores the first k
candidates, and the least of their exact scores is the floor; it scores a
later one only when its ceiling is not below the floor. At least k docs score
at or above the floor, so a skipped doc scores strictly below the k-th best,
whatever the tie rule, and the list is the one taken over every candidate,
bit for bit. When no ceiling lies below the k-th centroid score, `shortlist`
gives none and `top_k` scores every candidate in one pass. On the bench
corpus at k = 100 and filler 0.3, PLAID rescores ~117 of its 256 stage-3
survivors and IVF ~117 of its ~358 candidates per query; at filler 0.0 (~117
of either) every search is one pass.

The slack covers rounding on the ceiling's side. A float32 dot of dim terms
errs by at most gamma_dim*||q||*||v||, gamma_n = n*u/(1 - n*u) with u = 2**-24
(Higham, Accuracy and Stability of Numerical Algorithms, 3.1), and every ||c||
and ||v|| is at most the index's `reach` = 2*max||c|| + max(max_residual); so
gamma_dim*Q*reach covers a query's centroid dots and the skipped doc's exact
dots together. The float64 sums of nq row maxima and the ceiling's own float64
arithmetic err by far less than (nq + dim)*2**-50*Q*reach, and float32
underflow by at most nq*dim*2**-149; the slack is the sum of the three. The
residual norms are rounded up (`residual_radii`). A float32 dot cannot
overflow while Q*reach <= 2**127; past that, or with a NaN query or stored
row, the slack is infinite. A NaN among the first k's centroid or exact
scores makes the check or the floor NaN. Nothing is skipped in either case.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .core import BLOCK_ROWS, TokenMatrix, best
from .errors import DimensionMismatch, TooFewVectors


def assign(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Argmax-dot centroid per vector; ties go to the lowest centroid index.

    The dots are taken by the products of `_in_products` into one reused buffer
    per half, and each product's argmax while it is still in cache: the labels
    of np.argmax(vectors @ centroids.T, axis=1). The products run under
    np.errstate(invalid="ignore"): at k = 2 and 3, OpenBLAS's kernel for the
    last product's rows past BLOCK_ROWS sets the invalid flag on a row with
    an infinite component, where the one product does not, and no dot changes.
    Raises DimensionMismatch when the dims differ.
    """
    if vectors.shape[1] != centroids.shape[1]:
        raise DimensionMismatch(f"vector dim {vectors.shape[1]} != centroid dim {centroids.shape[1]}")
    labels = np.empty(len(vectors), dtype=np.int32)

    def run(products: list[tuple[int, int, int]]) -> None:
        rows = max(end - lo for lo, end, _ in products)
        dots = np.empty((rows, len(centroids)), dtype=np.result_type(vectors, centroids))
        with np.errstate(invalid="ignore"):  # errstate is per thread: each half sets it
            for lo, end, hi in products:
                block = dots[:end - lo]
                np.matmul(vectors[lo:end], centroids.T, out=block)
                labels[lo:hi] = block[:hi - lo].argmax(axis=1)

    _in_products(len(vectors), run)
    return labels


def _in_products(n: int, run) -> None:
    """`run(products)` over the one product schedule over n rows, each product
    (lo, end, hi) a product of rows lo:end that writes rows lo:hi. Every product
    but the last has BLOCK_ROWS rows and starts at a multiple of BLOCK_ROWS; the
    last starts at the multiple of 64 at or below n - BLOCK_ROWS (64 rows are
    256*dim bytes, so no row moves its address alignment) and takes the rest.
    Above 4*BLOCK_ROWS rows, with numpy's BLAS running each product on one
    thread, `core.in_halves` runs the later half of the products on its worker;
    otherwise all of them run here, in order."""
    last = max(0, n - BLOCK_ROWS) // 64 * 64
    starts = [*range(0, last, BLOCK_ROWS), last]
    products = list(zip(starts, [lo + BLOCK_ROWS for lo in starts[:-1]] + [n], starts[1:] + [n]))
    if n > 4 * BLOCK_ROWS and _blas_threads() == 1:
        half = len(products) // 2
        core.in_halves(lambda: run(products[:half]), lambda: run(products[half:]))
    else:
        run(products)


@functools.cache
def _openblas_threads_getter():
    """The thread-count getter of the OpenBLAS numpy links, or None where it
    links another BLAS or the getter cannot be found."""
    try:
        linked = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(linked, name, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter
    return None


def _blas_threads() -> int | None:
    """How many threads numpy's OpenBLAS runs a product on now, or None where
    that cannot be asked."""
    getter = _openblas_threads_getter()
    return None if getter is None else int(getter())


def _draw(d2: np.ndarray, rng: np.random.Generator) -> int:
    """Draw a row with probability proportional to `d2`, or uniformly when it sums to 0.

    The arithmetic of `rng.choice(len(d2), p=d2 / d2.sum())`, without choice's
    checks of p: the same index from the same one `rng.random()`. `d2` must be
    float64 and non-negative; it is overwritten. A NaN or infinite sum raises
    ValueError, as choice does.
    """
    total = d2.sum()
    if total <= 0.0:
        return int(rng.integers(len(d2)))
    if not np.isfinite(total):
        raise ValueError(f"k-means++ distances sum to {total}: a vector is not finite")
    d2 /= total
    cdf = np.cumsum(d2, out=d2)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _nearest_dots(vectors: np.ndarray, x: np.ndarray, best_dot: np.ndarray) -> None:
    """One k-means++ pass: best_dot = max(best_dot, vectors @ x) row by row, by
    the products of `_in_products`."""
    def run(products: list[tuple[int, int, int]]) -> None:
        for lo, end, hi in products:
            np.maximum(best_dot[lo:hi], (vectors[lo:end] @ x)[:hi - lo], out=best_dot[lo:hi])

    _in_products(len(vectors), run)


def _seed_plus_plus(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(len(vectors))
    # Squared Euclidean distance to the nearest chosen centroid; on the unit
    # sphere this is 2 - 2 * dot.
    best_dot = np.full(len(vectors), -np.inf, dtype=vectors.dtype)
    for i in range(1, k):
        _nearest_dots(vectors, vectors[chosen[i - 1]], best_dot)
        chosen[i] = _draw(np.maximum(0.0, 2.0 - 2.0 * best_dot).astype(np.float64), rng)
    return vectors[chosen].copy()


def _cluster_sums(columns: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Float64 (k, dim) sums of the vectors under each label, in row order.

    `columns` is the (dim, N) transpose of the vectors. Labels of another
    dtype than intp are cast again by each of the dim bincounts. Above
    4*BLOCK_ROWS rows, `core.in_halves` sums the later half of the dimensions
    on its worker; each column is summed on its own, so every sum keeps its bits.
    """
    dim = columns.shape[0]
    sums = np.empty((k, dim), dtype=np.float64)

    def run(lo: int, hi: int) -> None:
        for d in range(lo, hi):
            sums[:, d] = np.bincount(labels, weights=columns[d], minlength=k)

    if columns.shape[1] > 4 * BLOCK_ROWS:
        core.in_halves(lambda: run(0, dim // 2), lambda: run(dim // 2, dim))
    else:
        run(0, dim)
    return sums


def _columns(vectors: np.ndarray) -> np.ndarray:
    """The (dim, N) transpose of `vectors` as a C-contiguous copy, 256 rows at a
    time: ~7 ms on the bench corpus, where np.ascontiguousarray(vectors.T),
    whose strided reads miss the cache, takes ~37 ms."""
    columns = np.empty(vectors.shape[::-1], dtype=vectors.dtype)
    for lo in range(0, len(vectors), 256):
        columns[:, lo:lo + 256] = vectors[lo:lo + 256].T
    return columns


def _renormalized_means(columns: np.ndarray, labels: np.ndarray, k: int, prev: np.ndarray):
    labels = labels.astype(np.intp)  # once, for every bincount below
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
    dots = np.empty(len(vectors), dtype=np.result_type(vectors, centroids))
    for lo in range(0, len(vectors), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        dots[rows] = np.einsum("ij,ij->i", vectors[rows], centroids[labels[rows]])
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
    columns = _columns(vectors)
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

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """The given rows concatenated."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        shifts = starts - (np.cumsum(lengths) - lengths)  # less where each starts in the result
        return self.flat[np.repeat(shifts, lengths) + np.arange(int(lengths.sum()))]


def token_docs(offsets: np.ndarray) -> np.ndarray:
    """The doc ordinal of every flat row, for doc boundaries `offsets`."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


def check_ids(name: str, ids: np.ndarray, shape: tuple, bound: int, dtype=None) -> None:
    """Raise ValueError unless `ids` has `shape` (and `dtype`, given one) and entries in [0, bound)."""
    if dtype is not None and ids.dtype != dtype:
        raise ValueError(f"{name} must be {np.dtype(dtype)}, not {ids.dtype}")
    if ids.shape != shape or (ids.size and not 0 <= int(ids.min()) <= int(ids.max()) < bound):
        raise ValueError(f"{name} must have shape {shape} with entries in [0, {bound})")


def check_centroids(centroids: np.ndarray, count: int, dim: int) -> None:
    """Raise ValueError unless `centroids` is a (count, dim) float32 matrix of
    finite values: the dtype both index files store."""
    if (centroids.dtype != np.float32 or centroids.shape != (count, dim)
            or not np.isfinite(centroids).all()):
        raise ValueError(f"centroids must be a ({count}, {dim}) float32 matrix of finite values")


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


class Radii(NamedTuple):
    """What the residual-radius bound reads of an index; derived, never saved."""

    unique_codes: Csr  # per doc, sorted unique centroid ids
    max_residual: np.ndarray  # (doc_count,) float32, each doc's largest residual norm
    reach: float  # 2*max||c|| + max(max_residual), NaN when a residual norm is


def residual_radii(
    vectors: np.ndarray, centroids: np.ndarray, codes: np.ndarray, row_offsets: np.ndarray,
) -> Radii:
    """The unique codes and residual radii of the rows of `vectors` on centroids[codes].

    unique_codes[d] holds doc d's distinct codes, ascending, from one
    np.unique over the (doc, code) pairs, which sorts them by doc and then
    code. Codes must lie in [0, len(centroids)). A row's residual norm is
    ||vectors[row] - centroids[codes[row]]||, taken in float32 BLOCK_ROWS rows at a time. The
    float32 difference, squares, sum and square root leave it at most
    (dim/2 + 2)*2**-24 of itself plus sqrt(dim)*2**-75 (gradual underflow)
    below the exact norm, so it is widened by twice both and rounded up to the
    next float32: never below the exact norm. max_residual is the largest over
    each doc's rows; a NaN row makes it NaN, and `reach` with it.
    """
    count = len(centroids)
    pairs = np.unique(token_docs(row_offsets) * count + codes)
    pair_docs, pair_codes = np.divmod(pairs, count)
    unique_codes = Csr.grouped(pair_docs, pair_codes, len(row_offsets) - 1)
    dim = vectors.shape[1]
    norms = np.empty(len(vectors))
    for lo in range(0, len(vectors), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        residuals = vectors[rows] - centroids[codes[rows]]
        norms[rows] = np.sqrt(np.einsum("ij,ij->i", residuals, residuals))
    widened = norms * (1 + (dim + 4) * 2.0**-24) + dim**0.5 * 2.0**-74
    norms = np.nextafter(widened.astype(np.float32), np.float32(np.inf))
    max_residual = np.maximum.reduceat(norms, row_offsets[:-1])
    squares = np.einsum("ij,ij->i", centroids, centroids, dtype=np.float64)
    return Radii(unique_codes, max_residual,
                 float(2 * np.sqrt(squares.max()) + max_residual.max()))


def approx_scores(index, dots: np.ndarray, ordinals: np.ndarray) -> np.ndarray:
    """Float64 centroid-MaxSim of each doc ordinal, from the (query rows,
    centroids) `dots` and the index's `unique_codes`; the layered max of the
    module docstring, bit for bit the per-doc sum."""
    codes = index.unique_codes
    lo = codes.offsets[ordinals]
    last = codes.offsets[ordinals + 1] - 1
    rows = np.ascontiguousarray(dots.T)
    best = rows.take(codes.flat[lo], axis=0)
    for j in range(1, int((last - lo).max(initial=0)) + 1):
        np.maximum(best, rows.take(codes.flat[np.minimum(lo + j, last)], axis=0), out=best)
    return best.astype(np.float64).sum(axis=1)


def _query_norms(query: TokenMatrix) -> np.ndarray:
    """Each query row's Euclidean norm, in float64."""
    rows = query.data.astype(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _slack(index, rows: int, total: float) -> float:
    """How far rounding can move a score or a bound of a query with `rows` rows
    whose norms sum to `total`; infinite where a float32 dot could overflow or
    a norm is NaN. See the module docstring."""
    dim, reach = index.centroids.shape[1], index.reach
    if not total * reach <= 2.0**127:
        return np.inf
    gamma = dim * 2.0**-24 / (1 - dim * 2.0**-24)
    return (gamma + (rows + dim) * 2.0**-50) * total * reach + rows * dim * 2.0**-149


def shortlist(index, query: TokenMatrix, dots: np.ndarray, candidates: np.ndarray,
              id_rank: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The candidate ordinals to rescore for the exact top k, best centroid
    score first, and the ceilings of those after the k-th, for `core.top_k`:
    the n best by `approx_scores` (`core.best`, ties by `id_rank`), each
    later one with its ceiling, slack included; see the module docstring.
    The ceilings are None when none lies below the k-th centroid score.
    `index` holds the `Radii` fields and its `centroids`. With k below 1, or
    no more candidates than k, nothing is ranked: the candidates come back
    as given, with no ceilings."""
    if not 0 < k < len(candidates):
        return candidates, None
    approx = approx_scores(index, dots, candidates)
    order = best(approx, id_rank[candidates], n)
    ordered, approx = candidates[order], approx[order]
    total = _query_norms(query).sum()
    ceilings = (approx[k:] + index.max_residual[ordered[k:]] * total
                + _slack(index, query.rows, total))
    return ordered, ceilings if (ceilings < approx[k - 1]).any() else None
