"""Domain types for multi-vector representations and the exact scoring kernel.

A text is a TokenMatrix: one unit-norm row per token (or pooled slot), so a
dot product is a cosine. Relevance is the late-interaction score: for every
query row take the best dot product against any document row, then sum. The
brute-force search here is the oracle every approximate backend is judged
against, so scoring goes through one canonical kernel (`maxsim_score`) and
ties are always broken by ascending doc id.

Every search ends in `top_k`, which scores every document it ranks (the
whole corpus for `exact_search`; for IVF its candidates and for PLAID its
stage-3 survivors, less those its `ceilings` rule out) through one
stacked-product body, `_stacked_maxsim`, and ranks them by `best`, ties by
ascending doc id (`Corpus.id_rank`). `best` is every order and cut of the
package, `kmeans.shortlist`'s and IVF's per-token budget's (unordered) too.
There is no approximate pass: every returned score and every ordering has
`maxsim_score`'s bits.

The body takes the documents' rows grouped by row count, as one (g, L, dim)
block per row count L, and multiplies the query by all g documents of a
block at once: `q @ block.transpose(0, 2, 1)`, a stacked product with its own
fresh (g, nq, L) result. numpy's matmul loop makes, for each slice, the BLAS
call the kernel's 2-d `q @ d.T` makes: the same routine (gemm, or gemv or dot
when the query or the doc has one row), operand order, transposes and leading
dimensions, the output's included. So every dot product has the kernel's
bits. Each result is copied, transposed, into one (widest, docs, nq) float32
array filled with -inf, and one max over its first axis gives every row
maximum: a max is exact in any order and -inf changes none, NaN propagates
either way, and the sign of a zero maximum cannot reach a float64 sum, which
starts from +0. The float64 sum along each contiguous row of nq maxima runs
numpy's pairwise summation in the order of the kernel's 1-d sum.

One builder, `_row_blocks`, makes the blocks: the docs in stable row-count
order, their rows concatenated once, one view per row count. The whole
corpus's are made once, on first use, as `Corpus.row_blocks` (a copy of its
rows, never saved); a subset's by `top_k`, the one subset scorer, which
reads each doc through `store.doc_matrix(o)`.
`maxsim_score` stays the reference definition: `score_all`, the full sweep,
calls it once per document, and the tests compare against it.

A sweep of at least SPLIT_ROWS rows is split in two when the process may run
on two CPUs: `sweep_worker`'s one thread scores the docs after about half the
rows and the calling thread the docs before. No bit moves. Cutting a
(g, L, dim) block between two docs leaves every slice's BLAS call as it was;
each thread writes only its own docs' range of the (widest, docs, nq) array,
and a doc's max and float64 sum read nothing of any other doc. The row count
alone decides, for the whole corpus and a subset alike: a subset of IVF's
candidates or PLAID's survivors (~100-120 docs, ~2.4k rows) stays on the
calling thread, as below SPLIT_ROWS handing the GIL back and forth costs more
than half the work. `kmeans.assign` splits its blocks the same way.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyMatrix,
    NonFinite,
    NotNormalized,
    UnknownDoc,
)

# How far a row's norm may be from 1, per storage dtype: narrowing a unit row
# to float16 moves its norm by up to ~1e-3 (in memory everything is float32).
NORM_TOLERANCE = {"float32": 1e-4, "float16": 2e-3}

# Rows per blockwise pass over every stored vector (`Corpus.validate`, k-means
# assignment and reseeding and the residual radii in `kmeans`, the residual
# codec in `plaid`): large enough for whole-array speed, small enough that the
# temporaries stay a few MiB (assign's dots: 4 MiB at 256 centroids, 32 MiB
# at 2,048).
BLOCK_ROWS = 4096

# The fewest rows a MaxSim sweep splits across two threads. Measured on
# bench-shaped docs (8-32 rows of dim 128, 11-row queries, two CPUs), split
# over serial time per sweep: 2.1x at ~1.2k rows, 1.27x at ~2.4k, 1.07-1.09x
# at ~3.6k-4.8k, 0.90-0.95x at ~5.6k-7.3k (within the noise), 0.79-0.90x at
# ~8k, 0.58-0.64x at the whole ~40k-row corpus; the same at one BLAS thread
# and at the default.
SPLIT_ROWS = 8192

_UNSET = object()
_pool = _UNSET
_pool_lock = threading.Lock()


def sweep_worker() -> ThreadPoolExecutor | None:
    """The one worker thread that takes half of a full sweep, made on first use.

    None, and no thread, when the process may run on one CPU only: its CPU
    affinity, or the CPU count where affinity is unknown. A forked child
    makes its own (`_forget_pool`).
    """
    global _pool
    if _pool is _UNSET:
        with _pool_lock:
            if _pool is _UNSET:
                cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count() or 1)
                _pool = ThreadPoolExecutor(1, thread_name_prefix="latebench") if cpus > 1 else None
    return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's worker thread does not exist there."""
    global _pool, _pool_lock
    _pool, _pool_lock = _UNSET, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def in_halves(pool: ThreadPoolExecutor, first, second) -> None:
    """Call `second()` on the pool's thread and `first()` on this one; return
    once both are done, raising the first one's error, else the second's.
    Once the interpreter is shutting down (after the main thread returned, in
    a thread that outlives it or an atexit handler) the pool takes no work,
    and both run here, one after the other: the same bits."""
    try:
        future = pool.submit(second)
    except RuntimeError:  # cannot schedule new futures after (interpreter) shutdown
        first()
        second()
        return
    try:
        first()
    finally:
        wait((future,))
    future.result()


class TokenMatrix:
    """Per-text embedding matrix, float32, one row per token or pooled slot.

    The underlying array is made read-only at construction; all downstream
    structures share it without copying.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if arr.ndim != 2:
            raise EmptyMatrix(f"expected a 2-d matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def truncated(self, length: int) -> "TokenMatrix":
        """First min(length, rows) rows; shares storage."""
        if length >= self.rows:
            return self
        return TokenMatrix(self.data[:length])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"TokenMatrix(rows={self.rows}, dim={self.dim})"


def validate_matrix(m: TokenMatrix, norm_tol: float = NORM_TOLERANCE["float32"]) -> None:
    """Check the TokenMatrix contract; raises, never mutates.

    Raises:
        EmptyMatrix: zero rows or zero dim.
        NonFinite: first NaN/Inf entry, by (row, col).
        NotNormalized: first row whose Euclidean norm is off by > norm_tol.
    """
    if m.rows == 0 or m.dim == 0:
        raise EmptyMatrix(f"degenerate shape {m.data.shape}")
    first = _first_bad_row(m.data, norm_tol)
    if first is None:
        return
    finite = np.isfinite(m.data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFinite(int(row), int(col))
    raise NotNormalized(*first)


def _first_bad_row(rows: np.ndarray, norm_tol: float) -> tuple[int, float] | None:
    """The first of the (n, dim) `rows` that `validate_matrix` refuses, and its
    norm; None when it takes them all.

    A row is refused when its float64 Euclidean norm is NaN or off 1 by more
    than norm_tol. The norm has `np.linalg.norm`'s bits (the same squares,
    summed by the same reduction), and it is finite exactly when the row is,
    as no float32 square overflows float64: so a non-finite row is refused too.
    """
    squares = rows.astype(np.float64)
    squares *= squares
    norms = np.sqrt(np.add.reduce(squares, axis=1))
    bad = ~(np.abs(norms - 1.0) <= norm_tol)
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, float(norms[row])


def unit_rows(m: np.ndarray) -> np.ndarray:
    """Each row of the (n, dim) float array `m` divided by its Euclidean norm.

    One BLAS dot per row, (n, 1, dim) @ (n, dim, 1): the same dot
    np.linalg.norm takes of a single vector, so each row is divided by
    exactly the norm it would get on its own.
    """
    return m / np.sqrt(m[:, None, :] @ m[:, :, None]).reshape(-1, 1)


@dataclass(frozen=True)
class Corpus:
    """Ordered doc ids over one flat token array, checked when it is made.

    `vectors` is a read-only, C-contiguous float32 array of shape
    (total_vectors, dim) holding every document's rows in doc_ids order; doc i
    owns rows offsets[i]:offsets[i + 1]. `docs` maps each id to a TokenMatrix
    view of its rows (at least one), so every consumer reads the same memory.
    `dtype` is the storage precision a bundle writes and sets `validate`'s norm
    tolerance; C >= 1 means every doc has exactly C rows. Counts and `pooling`
    are derived, and `check_structure` runs on every construction.
    """

    doc_ids: tuple[str, ...]
    vectors: np.ndarray = field(repr=False, compare=False)
    offsets: np.ndarray = field(repr=False, compare=False)  # (len(doc_ids) + 1,) int64
    dtype: str = "float32"
    C: int = 0
    docs: Mapping[str, TokenMatrix] = field(init=False)

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        self.check_structure()
        bounds = self.offsets.tolist()
        views = (TokenMatrix(vectors[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
        object.__setattr__(self, "docs", dict(zip(self.doc_ids, views)))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def total_vectors(self) -> int:
        return len(self.vectors)

    @property
    def pooling(self) -> str:
        return "fixed" if self.C >= 1 else "none"

    @classmethod
    def build(
        cls,
        docs: Mapping[str, TokenMatrix],
        dtype: str = "float32",
        C: int = 0,
    ) -> "Corpus":
        """Concatenate the docs, in mapping order, into one flat array."""
        doc_ids = tuple(docs.keys())
        if not doc_ids:
            raise EmptyCorpus("corpus has no documents")
        dims = {m.dim for m in docs.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"documents disagree on dim: {sorted(dims)}")
        offsets = np.zeros(len(doc_ids) + 1, dtype=np.int64)
        np.cumsum([docs[d].rows for d in doc_ids], out=offsets[1:])
        vectors = np.concatenate([docs[d].data for d in doc_ids])
        return cls(doc_ids, vectors, offsets, dtype, C)

    def check_structure(self) -> None:
        """Structural invariants (ids, offsets, dtype, C); matrix contents via validate()."""
        if not self.doc_ids:
            raise EmptyCorpus("corpus has no documents")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("doc ids are not unique")
        for doc_id in self.doc_ids:
            if not doc_id or doc_id.split() != [doc_id] or not doc_id.isascii():
                raise ValueError(f"doc id {doc_id!r} is empty, contains whitespace or is not ASCII")
        if self.dtype not in NORM_TOLERANCE:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if self.C < 0:
            raise ValueError(f"C must be >= 0, got C={self.C}")
        if (self.offsets.shape != (len(self.doc_ids) + 1,) or self.offsets[0] != 0
                or self.vectors.ndim != 2 or self.offsets[-1] != len(self.vectors)):
            raise ValueError("row offsets do not split the (rows, dim) vectors into one run per doc")
        rows = np.diff(self.offsets)
        wrong = rows != self.C if self.C else rows < 1
        if wrong.any():
            ordinal = int(np.argmax(wrong))
            expected = f"C={self.C}" if self.C else "at least 1"
            raise ValueError(f"doc {self.doc_ids[ordinal]!r} has {rows[ordinal]} rows, "
                             f"expected {expected}")

    def validate(self) -> None:
        """Per-document contents at this dtype's norm tolerance; the structure is checked.

        Raises what `validate_matrix` raises for the first bad doc in doc
        order, its id prefixed. The flat rows are screened BLOCK_ROWS at a
        time by `validate_matrix`'s own row test, `_first_bad_row`. The first
        row it refuses names the doc, which `validate_matrix` then reports,
        non-finite entries first.
        """
        tol = NORM_TOLERANCE[self.dtype]
        for lo in range(0, len(self.vectors), BLOCK_ROWS):
            first = _first_bad_row(self.vectors[lo:lo + BLOCK_ROWS], tol)
            if first is not None:
                row = lo + first[0]
                doc_id = self.doc_ids[int(np.searchsorted(self.offsets, row, "right")) - 1]
                try:
                    validate_matrix(self.docs[doc_id], norm_tol=tol)
                except (EmptyMatrix, NonFinite, NotNormalized) as exc:
                    exc.args = (f"doc {doc_id!r}: {exc}",)
                    raise

    def doc_matrix(self, ordinal: int) -> TokenMatrix:
        """Doc `ordinal`'s rows; an ordinal outside [0, len(self)) raises UnknownDoc."""
        if not 0 <= ordinal < len(self.doc_ids):
            raise UnknownDoc(f"doc ordinal {ordinal} outside [0, {len(self.doc_ids)})")
        return self.docs[self.doc_ids[ordinal]]

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each doc's rank when the doc ids are sorted as Python strings, (len,) int64."""
        by_id = sorted(range(len(self)), key=self.doc_ids.__getitem__)
        rank = np.empty(len(self), dtype=np.int64)
        rank[by_id] = np.arange(len(self))
        return rank

    @cached_property
    def row_blocks(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """`_row_blocks` of every doc: a copy of every row, made on the first
        whole-corpus search and never saved."""
        return _row_blocks([m.data for m in self.docs.values()])

    def __len__(self) -> int:
        return len(self.doc_ids)


def _rank_key(pair: tuple[str, float]) -> tuple[bool, float, str]:
    """Descending score, NaN last, ties by ascending doc id: `top_k`'s order by `best`."""
    doc_id, score = pair
    nan = math.isnan(score)
    return nan, 0.0 if nan else -score, doc_id


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


@dataclass(frozen=True)
class RankedList:
    """Per-query top-k: scores non-increasing with NaN last, ties by ascending doc id."""

    query_id: str
    hits: tuple[ScoredDoc, ...]

    @classmethod
    def from_scores(cls, query_id: str, scored: Iterable[tuple[str, float]], k: int) -> "RankedList":
        pairs = list(scored)
        ids = [doc_id for doc_id, _ in pairs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate doc id in results for query {query_id!r}")
        pairs.sort(key=_rank_key)
        return cls(query_id=query_id, hits=tuple(ScoredDoc(d, float(s)) for d, s in pairs[:k]))

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(hit.doc_id for hit in self.hits)

    def __len__(self) -> int:
        return len(self.hits)


def maxsim_score(query: TokenMatrix, doc: TokenMatrix) -> float:
    """Late-interaction score: sum over query rows of the best doc-row dot.

    The reference definition of every score in the package: `top_k`, the one
    scoring path of the searches, reproduces its bits with stacked products,
    and `score_all` calls it once per document.
    Accumulation is float64 in query-row order.
    """
    q, d = query.data, doc.data
    if q.shape[1] != d.shape[1]:
        raise DimensionMismatch(f"query dim {q.shape[1]} != doc dim {d.shape[1]}")
    # The ufunc reductions `ndarray.max` and `np.sum(..., dtype=np.float64)`
    # dispatch to, called directly: the same bits, without the wrappers.
    return float(np.add.reduce(np.maximum.reduce(q @ d.T, axis=1), dtype=np.float64))


def _cut_in_half(blocks: list[np.ndarray]) -> tuple[int, list, list] | None:
    """Where to split a sweep of the (g, L, dim) blocks: the first doc of the
    second half, and the blocks as two runs of about half their rows each, cut
    between two docs of the block that holds the half. None below SPLIT_ROWS
    rows, or when the first run would hold every doc."""
    rows = sum(block.shape[0] * block.shape[1] for block in blocks)
    if rows < SPLIT_ROWS:
        return None
    half, mid = rows / 2, 0
    for i, block in enumerate(blocks):
        size, length = block.shape[:2]
        if half <= size * length:  # the first docs of this block that hold the rest of the half
            cut = math.ceil(half / length)
            if cut == size and i == len(blocks) - 1:
                return None
            return mid + cut, [*blocks[:i], block[:cut]], [block[cut:], *blocks[i + 1:]]
        half -= size * length
        mid += size


def _stacked_maxsim(q: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """maxsim_score of every doc of the (g, L, dim) blocks, L ascending, in block order.

    One stacked product per block, one max and one float64 row sum; see the
    module docstring for why each score has the kernel's bits.
    `sweep_worker`'s thread, if there is one, sweeps the second run of
    `_cut_in_half`, when there is one.
    """
    docs = sum(map(len, blocks))
    # dots[j, i, r]: query row r against row j of the i-th doc.
    dots = np.empty((blocks[-1].shape[1], docs, len(q)), dtype=np.float32)
    scores = np.empty(docs)

    def sweep(lo: int, run: list[np.ndarray]) -> None:
        """Score the docs of `run`, the first of them doc lo, writing only their
        range of `dots` and `scores`."""
        hi = lo + sum(map(len, run))
        dots[:, lo:hi] = -np.inf
        start = lo
        for block in run:
            size, length = block.shape[:2]
            dots[:length, start:start + size] = (q @ block.transpose(0, 2, 1)).transpose(2, 0, 1)
            start += size
        scores[lo:hi] = np.maximum.reduce(dots[:, lo:hi], axis=0).astype(np.float64).sum(axis=1)

    halves = _cut_in_half(blocks)
    pool = None if halves is None else sweep_worker()
    if pool is None:
        sweep(0, blocks)
    else:
        mid, first, second = halves
        in_halves(pool, lambda: sweep(0, first), lambda: sweep(mid, second))
    return scores


def _row_blocks(docs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The positions of the (rows, dim) `docs` in stable row-count order, and
    their rows, concatenated once in that order, as one C-contiguous
    (g, L, dim) view per distinct row count L, ascending."""
    counts = np.fromiter(map(len, docs), np.int64, len(docs))
    order = np.argsort(counts, kind="stable")
    rows = np.concatenate([docs[i] for i in order.tolist()])
    lengths, sizes = np.unique(counts, return_counts=True)
    blocks, start = [], 0
    for length, size in zip(lengths.tolist(), sizes.tolist()):
        blocks.append(rows[start:start + size * length].reshape(size, length, rows.shape[1]))
        start += size * length
    return order, blocks


def best(scores: np.ndarray, ties: np.ndarray, n: int, ordered: bool = True) -> np.ndarray:
    """Positions of the n best `scores`, best first: descending score, NaN
    last, equal scores by ascending `ties`. Every order and cut of the package.
    With `ordered=False` the same positions come back in no promised order,
    for a caller that only asks which they are.

    It is one `np.lexsort` of the negated scores, which puts NaN last. When
    there are more than n scores, an `np.partition` at the n-th smallest
    negated score first keeps only the positions not above it, so the sort
    runs over about n of them. Each of the n best is at or below that cut
    value, so none is dropped. A partition, like the sort, puts NaN last, so
    the cut value is NaN only when fewer than n scores are numbers, and then
    it keeps every position.

    Unordered, it first keeps only the numbers at or below the cut value.
    When there are exactly n, no score ties across the cut, so they are the
    n best and come back ascending, with no sort. Otherwise the sort picks
    among them as above, or among every position under a NaN cut, where
    none is kept.
    """
    negated = -scores
    if len(negated) <= n:
        return np.lexsort((ties, negated)) if ordered else np.arange(len(negated))
    cut = np.partition(negated, n - 1)[n - 1]
    if not ordered:
        keep = np.flatnonzero(negated <= cut)  # no NaN, so none under a NaN cut
        if len(keep) == n:
            return keep
    if ordered or np.isnan(cut):
        keep = np.flatnonzero(~(negated > cut))
    return keep[np.lexsort((ties[keep], negated[keep]))[:n]]


def _check_dim(corpus: Corpus, query: TokenMatrix) -> None:
    if query.dim != corpus.dim:
        raise DimensionMismatch(f"query dim {query.dim} != corpus dim {corpus.dim}")


def score_all(corpus: Corpus, query: TokenMatrix) -> list[tuple[str, float]]:
    """maxsim_score against every document, in corpus order: one kernel call per doc."""
    _check_dim(corpus, query)
    return [(doc_id, maxsim_score(query, corpus.docs[doc_id])) for doc_id in corpus.doc_ids]


def top_k(
    corpus: Corpus,
    query: TokenMatrix,
    k: int,
    ordinals: np.ndarray | None = None,
    query_id: str = "",
    store=None,
    ceilings: np.ndarray | None = None,
) -> RankedList:
    """Exact top k of the given distinct doc ordinals (every doc when None): the
    one subset scorer. Each doc is scored by `_stacked_maxsim`: the whole
    corpus from its `row_blocks`, a subset from `_row_blocks` over each doc
    read once through `store.doc_matrix(o)` (`store` defaults to `corpus`; a
    PlaidIndex passes itself). A non-integer or out-of-range ordinal raises
    UnknownDoc; an empty subset gives an empty list. Hits are ranked by
    `best`, ties by ascending doc id. Given `ceilings`, bounds on the scores
    of the ordinals after the k-th (`kmeans.shortlist`'s), the first k are
    scored first, and a later one only when its ceiling is not below the
    floor, their least score; a NaN floor or ceiling skips nothing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_dim(corpus, query)
    if ordinals is None:
        passes = [None]
    elif not len(ordinals):
        return RankedList(query_id, ())
    elif ordinals.dtype.kind not in "iu":
        raise UnknownDoc(f"doc ordinals must be integers, got dtype {ordinals.dtype}")
    else:
        passes = [ordinals] if ceilings is None else [ordinals[:k], ordinals[k:]]
    read = (corpus if store is None else store).doc_matrix
    scored, scores = [], []
    for part in passes:
        if scores:  # the later ordinals whose ceiling is not below the floor
            part = part[~(ceilings < scores[0].min())]
            if not len(part):
                break
        order, blocks = corpus.row_blocks if part is None else _row_blocks(
            [read(o).data for o in part.tolist()])
        scored.append(order if part is None else part[order])
        scores.append(_stacked_maxsim(query.data, blocks))
    ordinals, scores = np.concatenate(scored), np.concatenate(scores)
    top = best(scores, corpus.id_rank[ordinals], k)
    ids = [corpus.doc_ids[o] for o in ordinals[top].tolist()]
    return RankedList(query_id, tuple(map(ScoredDoc, ids, scores[top].tolist())))


def exact_search(corpus: Corpus, query: TokenMatrix, k: int, query_id: str = "") -> RankedList:
    """Exact top k over the whole corpus: every doc scored by one stacked product per row count."""
    return top_k(corpus, query, k, query_id=query_id)


def pool_fixed(doc: TokenMatrix, C: int,
               norm_tol: float = max(NORM_TOLERANCE.values())) -> TokenMatrix:
    """Deterministic fixed-length pooling proxy: always exactly C unit rows.

    This simulates a fixed-slot document representation without any learned
    model: rows are split into C contiguous chunks as evenly as possible (the
    first rows % C chunks get one extra row), each chunk is averaged and
    renormalized. Documents shorter than C are extended by cycling their rows
    before pooling. Single-row chunks pass through bit-exactly. The matrix is
    checked at `norm_tol`: by default the loosest dtype's, as it has none.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    validate_matrix(doc, norm_tol=norm_tol)
    data = doc.data
    if doc.rows < C:
        reps = -(-C // doc.rows)
        data = np.tile(data, (reps, 1))[:C]
    n = data.shape[0]
    base, extra = divmod(n, C)
    out = np.empty((C, doc.dim), dtype=np.float32)
    start = 0
    for chunk_index in range(C):
        size = base + (1 if chunk_index < extra else 0)
        chunk = data[start:start + size]
        start += size
        if size == 1:
            out[chunk_index] = chunk[0]
            continue
        mean = chunk.astype(np.float64).mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            # Cancelling chunk; fall back to its first row to keep unit norm.
            out[chunk_index] = chunk[0]
        else:
            out[chunk_index] = (mean / norm).astype(np.float32)
    return TokenMatrix(out)


def pool_corpus(corpus: Corpus, C: int) -> Corpus:
    """pool_fixed on every document, checked there at the corpus's own dtype tolerance."""
    pooled = {}
    for doc_id, doc in corpus.docs.items():
        try:
            pooled[doc_id] = pool_fixed(doc, C, NORM_TOLERANCE[corpus.dtype])
        except (EmptyMatrix, NonFinite, NotNormalized) as exc:
            exc.args = (f"doc {doc_id!r}: {exc}",)
            raise
    return Corpus.build(pooled, dtype=corpus.dtype, C=C)

