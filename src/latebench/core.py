"""Domain types for multi-vector representations and the exact scoring kernel.

A text is a TokenMatrix: one unit-norm row per token (or pooled slot), so a
dot product is a cosine. Relevance is the late-interaction score: for every
query row take the best dot product against any document row, then sum. The
brute-force search here is the oracle every approximate backend is judged
against, so scoring goes through one canonical kernel (`maxsim_score`) and
ties are always broken by ascending doc id.

`top_k` ranks a set of documents (the whole corpus for `exact_search`, the
candidates for IVF, the stage-3 survivors for PLAID) by one batched product
over their rows (`batched_scores`), then scores canonically, through
`score_docs`, only the band of documents that could still reach the set's top
k. The band is exact, by a bound:

  * Any float32 summation order, FMA included, computes a dot product of
    length n within gamma_n * sum|x_i y_i| of its true value, where
    gamma_n = n*u / (1 - n*u) and u = 2**-24 (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 3.1). By Cauchy-Schwarz, sum|x_i y_i| is at
    most |q_r| * R for query row q_r and any doc row, where R bounds every row
    norm of the corpus (`Corpus.max_row_norm`; norms are not assumed to be 1).
  * A max is 1-Lipschitz, so each query row's best dot differs between the
    batched and the canonical kernel by at most 2 * gamma_dim * |q_r| * R.
  * Both kernels sum the nq row maxima in float64, each sum within
    gamma_nq(float64) * sum_r |best_r|, and |best_r| <= (1 + gamma_dim) *
    |q_r| * R. Float32 underflow adds at most 2**-150 per product. So for
    every doc d,
    |batched(d) - canonical(d)| <= eps =
    2 * (gamma_dim + gamma_nq(float64) * (1 + gamma_dim)) * R * sum_r |q_r|
    + nq * dim * 2**-148.
    The safety factor in R also covers the float64 rounding of eps and of
    the threshold below.
  * Let t be the k-th largest batched score in the set. A doc with
    batched(d) < t - 2*eps has canonical(d) < t - eps, while each of the >= k
    docs with a batched score >= t has a canonical score >= t - eps. So d is
    strictly beaten k times and cannot reach the set's canonical top k;
    because the inequality is strict, ties by doc id are untouched. R bounds
    every row of the corpus, so eps holds for any subset of its documents.

Every returned score and every ordering therefore has `maxsim_score`'s bits.

`score_docs` computes those bits without a kernel call per document. It
orders the documents by row count (stably), copies their rows into one array,
and multiplies the query by all g documents of each row count L at once:
`q @ block.transpose(0, 2, 1)`, a stacked product with its own fresh
(g, nq, L) result. numpy's matmul loop makes, for each slice, the BLAS call
the kernel's 2-d `q @ d.T` makes: the same routine (gemm, or gemv or dot when
the query or the doc has one row), operand order, transposes and leading
dimensions, the output's included. So every dot product has the kernel's
bits. Each result is copied, transposed, into one (widest, docs, nq) float32
array filled with -inf, and one max over its first axis gives every row
maximum: a max is exact in any order and -inf changes none, NaN propagates
either way, and the sign of a zero maximum cannot reach a float64 sum, which
starts from +0. The float64 sum along each contiguous row of nq maxima runs
numpy's pairwise summation in the order of the kernel's 1-d sum.
`maxsim_score` stays the reference definition: `score_all`, the full sweep,
calls it once per document, and the tests compare against it.

The batched pass gathers the set's rows (the whole corpus is read in place)
and pays for itself only when the band leaves out much of the set. The band
holds about k documents, plus those tied with the k-th within 2*eps, so
`top_k` runs the pass only when the set holds at least 2*k documents, a
property of the input alone. On the 2,000-document bench corpus at k = 100
that bands exact search, and IVF's ~358 candidates and PLAID's 256 survivors
at filler 0.3; the ~117 documents IVF and PLAID keep at filler 0.0 all go to
`score_docs`. Every document of the set also goes to `score_docs` when no
bound holds (a NaN or Inf anywhere, or a product that could overflow
float32).
"""

from __future__ import annotations

import math
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

# Unit roundoffs of float32 and float64, and the float32 overflow threshold.
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
_F32_MAX = float(np.finfo(np.float32).max)


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n: the relative error bound of an n-term dot product."""
    return n * u / (1 - n * u)


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
    finite = np.isfinite(m.data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFinite(int(row), int(col))
    norms = np.linalg.norm(m.data.astype(np.float64), axis=1)
    off = np.abs(norms - 1.0) > norm_tol
    if off.any():
        row = int(np.argmax(off))
        raise NotNormalized(row, float(norms[row]))


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
        """Per-document contents at this dtype's norm tolerance; the structure is checked."""
        for doc_id in self.doc_ids:
            try:
                validate_matrix(self.docs[doc_id], norm_tol=NORM_TOLERANCE[self.dtype])
            except (EmptyMatrix, NonFinite, NotNormalized) as exc:
                exc.args = (f"doc {doc_id!r}: {exc}",)
                raise

    def doc_matrix(self, ordinal: int) -> TokenMatrix:
        return self.docs[self.doc_ids[ordinal]]

    @cached_property
    def max_row_norm(self) -> float:
        """An upper bound on every row's Euclidean norm (NaN or Inf if a row is not finite).

        The squares are summed in float32, so the store is never copied; the
        (1 + 2*dim*u) factor covers that sum's rounding and the square root's.
        """
        squares = np.einsum("ij,ij->i", self.vectors, self.vectors)
        return math.sqrt(float(squares.max())) * (1 + 2 * self.dim * _U32)

    def __len__(self) -> int:
        return len(self.doc_ids)


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


@dataclass(frozen=True)
class RankedList:
    """Per-query top-k: scores non-increasing, ties by ascending doc id."""

    query_id: str
    hits: tuple[ScoredDoc, ...]

    @classmethod
    def from_scores(cls, query_id: str, scored: Iterable[tuple[str, float]], k: int) -> "RankedList":
        pairs = list(scored)
        ids = [doc_id for doc_id, _ in pairs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate doc id in results for query {query_id!r}")
        pairs.sort(key=lambda item: (-item[1], item[0]))
        return cls(query_id=query_id, hits=tuple(ScoredDoc(d, float(s)) for d, s in pairs[:k]))

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(hit.doc_id for hit in self.hits)

    def __len__(self) -> int:
        return len(self.hits)


def maxsim_score(query: TokenMatrix, doc: TokenMatrix) -> float:
    """Late-interaction score: sum over query rows of the best doc-row dot.

    The reference definition of every score in the package: `score_docs`, the
    one scoring path of the searches, reproduces its bits with stacked
    products, and `score_all` calls it once per document.
    Accumulation is float64 in query-row order.
    """
    q, d = query.data, doc.data
    if q.shape[1] != d.shape[1]:
        raise DimensionMismatch(f"query dim {q.shape[1]} != doc dim {d.shape[1]}")
    # The ufunc reductions `ndarray.max` and `np.sum(..., dtype=np.float64)`
    # dispatch to, called directly: the same bits, without the wrappers.
    return float(np.add.reduce(np.maximum.reduce(q @ d.T, axis=1), dtype=np.float64))


def score_docs(store, query: TokenMatrix, ordinals: Iterable[int]) -> list[tuple[str, float]]:
    """(doc id, maxsim_score) for each doc ordinal, in the given order, single-threaded.

    `store` has `doc_ids` and `doc_matrix(ordinal)`: a Corpus or a PlaidIndex.
    The docs are ordered by row count and scored with one stacked product per
    row count; each score has maxsim_score's bits (see the module docstring).
    """
    ordinals = list(ordinals)
    docs = [store.doc_matrix(o).data for o in ordinals]
    if not docs:
        return []
    q = query.data
    if docs[0].shape[1] != q.shape[1]:
        raise DimensionMismatch(f"query dim {q.shape[1]} != doc dim {docs[0].shape[1]}")
    counts = np.fromiter(map(len, docs), np.int64, len(docs))
    order = np.argsort(counts, kind="stable")
    rows = np.concatenate([docs[i] for i in order.tolist()])
    # dots[j, i, r]: query row r against row j of the i-th doc in row-count order.
    dots = np.full((int(counts.max()), len(docs), len(q)), -np.inf, dtype=np.float32)
    lengths, sizes = np.unique(counts, return_counts=True)
    lo = start = 0
    for length, size in zip(lengths.tolist(), sizes.tolist()):
        block = rows[start:start + size * length].reshape(size, length, q.shape[1])
        dots[:length, lo:lo + size] = (q @ block.transpose(0, 2, 1)).transpose(2, 0, 1)
        lo, start = lo + size, start + size * length
    scores = np.empty(len(docs))
    scores[order] = np.maximum.reduce(dots, axis=0).astype(np.float64).sum(axis=1)
    return list(zip([store.doc_ids[o] for o in ordinals], scores.tolist()))


def _check_dim(corpus: Corpus, query: TokenMatrix) -> None:
    if query.dim != corpus.dim:
        raise DimensionMismatch(f"query dim {query.dim} != corpus dim {corpus.dim}")


def score_all(corpus: Corpus, query: TokenMatrix) -> list[tuple[str, float]]:
    """maxsim_score against every document, in corpus order: one kernel call per doc."""
    _check_dim(corpus, query)
    return [(doc_id, maxsim_score(query, corpus.docs[doc_id])) for doc_id in corpus.doc_ids]


def segments(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the given runs of `offsets`, concatenated, and where each run starts.

    Run r covers positions offsets[r]:offsets[r + 1].
    """
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    out_starts = np.cumsum(lengths) - lengths
    return np.repeat(starts - out_starts, lengths) + np.arange(int(lengths.sum())), out_starts


def batched_scores(
    corpus: Corpus, query: TokenMatrix, ordinals: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Approximate MaxSim of docs from one product, and the bound eps on its error.

    Scores the given doc ordinals, in their order, from their gathered rows, or
    every doc in corpus order, in place, when `ordinals` is None. Each score is
    within eps of the doc's maxsim_score (see the module docstring). eps is Inf
    when no bound holds: a NaN or Inf in either input, or a dot product that
    could overflow float32.
    """
    vectors, starts = corpus.vectors, corpus.offsets[:-1]
    if ordinals is not None:
        positions, starts = segments(corpus.offsets, ordinals)
        vectors = vectors[positions]
    sims = vectors @ query.data.T  # (rows, nq) float32
    best = np.maximum.reduceat(sims, starts, axis=0)
    scores = best.sum(axis=1, dtype=np.float64)
    nq, dim = query.data.shape
    reach = corpus.max_row_norm * np.linalg.norm(query.data.astype(np.float64), axis=1)
    if not reach.max(initial=0.0) < _F32_MAX / 2:  # NaN fails too
        return scores, math.inf
    dot_err = _gamma(dim, _U32)
    sum_err = _gamma(nq, _U64) * (1 + dot_err)
    return scores, 2 * (dot_err + sum_err) * float(reach.sum()) + nq * dim * 2.0 ** -148


def top_k(
    corpus: Corpus,
    query: TokenMatrix,
    k: int,
    ordinals: np.ndarray | None = None,
    query_id: str = "",
    store=None,
) -> RankedList:
    """Exact top k of the given distinct doc ordinals (every doc when None).

    Ranks them by `batched_scores`, then scores canonically, through
    `score_docs(store, ...)`, only the band within 2*eps of the k-th batched
    score. `store` defaults to `corpus`; a PlaidIndex passes itself, so its
    rows are read through its `doc_matrix`. Every ordinal is scored
    canonically when there are fewer than 2*k of them or when eps is not
    finite. An ordinal outside [0, len(corpus)) raises UnknownDoc.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_dim(corpus, query)
    band = np.arange(len(corpus)) if ordinals is None else ordinals
    if band.min(initial=0) < 0 or band.max(initial=0) >= len(corpus):
        raise UnknownDoc(f"doc ordinals must lie in [0, {len(corpus)})")
    if len(band) >= 2 * k:
        approx, eps = batched_scores(corpus, query, ordinals)
        if math.isfinite(eps):
            kth = np.partition(approx, -k)[-k]
            band = band[approx >= kth - 2 * eps]
    scored = score_docs(corpus if store is None else store, query, band.tolist())
    return RankedList.from_scores(query_id, scored, k)


def exact_search(corpus: Corpus, query: TokenMatrix, k: int, query_id: str = "") -> RankedList:
    """Exact top k over the whole corpus: rank by one batched product, rescore the band."""
    return top_k(corpus, query, k, query_id=query_id)


def pool_fixed(doc: TokenMatrix, C: int) -> TokenMatrix:
    """Deterministic fixed-length pooling proxy: always exactly C unit rows.

    This simulates a fixed-slot document representation without any learned
    model: rows are split into C contiguous chunks as evenly as possible (the
    first rows % C chunks get one extra row), each chunk is averaged and
    renormalized. Documents shorter than C are extended by cycling their rows
    before pooling. Single-row chunks pass through bit-exactly. A matrix has
    no dtype, so its norms are checked at the loosest dtype's tolerance.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    validate_matrix(doc, norm_tol=max(NORM_TOLERANCE.values()))
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
    """pool_fixed on every document, checked first at the corpus's own dtype tolerance."""
    corpus.validate()
    pooled = {doc_id: pool_fixed(corpus.docs[doc_id], C) for doc_id in corpus.doc_ids}
    return Corpus.build(pooled, dtype=corpus.dtype, C=C)

