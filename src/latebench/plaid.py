"""Staged centroid backend with optional residual compression.

Retrieval runs as a funnel:
  stage 1  every query row keeps its top-ncells centroids by dot product,
           then any probed centroid scoring below the threshold is dropped
           (the threshold is an absolute cosine cutoff, applied after the
           top-ncells selection);
  stage 2  the surviving centroids' inverted lists are unioned into a
           candidate document set;
  stage 3  candidates get an approximate score: MaxSim with every document
           vector replaced by its assigned centroid; only the top ndocs
           survive, ties broken by ascending doc id (through the store's
           `Corpus.id_rank`, each doc id's rank in string order);
  stage 4  survivors get their exact top k, from true vectors or, when
           residual compression is on, from decoded vectors.

Stage 4 is `core.top_k`, as for exact search and IVF: the rows of every
survivor the bound below does not rule out are read once, through
`doc_matrix`, from `store`, and scored by one stacked product per row count,
each score with `maxsim_score`'s bits. `store` is the
source corpus without residuals, else a `Corpus` over one array every vector
is decoded into once, at build or load, by `decode_residuals`, so
`doc_matrix` never decodes or allocates. The codec is ColBERTv2's, with
corpus-wide buckets (`residual_quantiles`); `encode_residuals` and
`decode_residuals` run CODEC_BLOCK_ROWS rows at a time and give each row the
bits it would get on its own. The index holds the levels packed
(`pack_levels`), as the saved file does, so no level can lie outside 2**bits.

Before stage 4, the survivors a residual-radius bound proves to lie outside
the top k are dropped: threshold-style early termination (Fagin, Lotem & Naor,
PODS 2001) over the centroid interaction. Write each row of doc d in `store`
as v = c + r, its centroid plus its residual. Then q.v <= q.c + ||q||*||r||,
so with Q the sum of the query's row norms, d scores at most its ceiling
approx(d) + max_residual[d]*Q, approx(d) being its stage-3 score and
max_residual[d] its largest residual norm. And q.v >= q.c - ||q||*||r|| for
d's row with the smallest residual on c, so d scores at least its lower sum:
over query rows, the max over d's centroids c of q.c - ||q||*min_residual
[(d, c)]. The first k survivors by approximate score are always scored; the
floor is the least of their lower sums, and a later survivor is dropped only
when its ceiling lies below the floor. At least k docs score at or above the
floor, so a dropped doc scores below the k-th best, and the list is the one
stage 4 gives over every survivor, bit for bit. A lower sum is at most its
doc's approximate score, so no ceiling can lie below the floor unless one lies
below the k-th approximate score; the floor is computed only then. On the
bench corpus at k = 100, stage 4 reads ~117 of 256 survivors per query at
filler 0.3, and at filler 0.0 (~117 survivors) the check alone runs.

Both bounds are widened by one rounding slack. A float32 dot of dim terms errs
by at most gamma_dim*||q||*||v||, gamma_n = n*u/(1 - n*u) with u = 2**-24
(Higham, Accuracy and Stability of Numerical Algorithms, 3.1), and every ||c||
and ||v|| is at most `PlaidIndex.reach` = 2*max||c|| + max(max_residual); so
gamma_dim*Q*reach covers a query's stage-3 and stage-4 dots together. The
float64 sums of nq row maxima and the bounds' own float64 arithmetic err by
far less than (nq + dim)*2**-50*Q*reach, and float32 underflow by at most
nq*dim*2**-149; the slack is the sum of the three. The residual norms are
rounded up (`residual_radii`). A float32 dot cannot overflow while Q*reach <=
2**127; past that the slack is infinite and nothing is dropped. NaN in a query
row, a stored row or a stage-3 score among the first k makes the check, the
floor or the slack NaN, and nothing is dropped either. The two residual arrays
are derived from `store` at build and load and never saved.

A `PlaidIndex` checks its own arrays, and a given corpus against its doc ids
and row counts: a mismatch raises ValueError or CorpusMismatch when the index
is made, never an IndexError at search time. One made without its corpus
needs residuals to rescore from and the corpus's digest (`corpus_sha256`).

ndocs smaller than k is an error, never a silent clamp, and so are a
search-time ncells below 1 and a threshold outside [-1, 1]. An ncells larger
than the centroid count means "probe everything" and is clamped.

Stages 1-3 work on whole arrays. The (query rows x centroids) dot matrix is
computed once per search. Each document's sorted unique centroid ids are
stored as one CSR (`kmeans.Csr`: a flat int32 array plus int64 offsets), so stage 3
is a layered max: the dot matrix is transposed once to (centroids, query
rows), and layer j takes, for every candidate at once, the row of its j-th
centroid id, clamped to its last one, and maxes it into one (candidates,
query rows) array; as many layers run as the widest candidate has ids. One
float64 sum along each candidate's row follows. Its scores are bit for bit
those of the per-doc expression
`np.sum(dots[:, unique_codes[o]].max(axis=1), dtype=np.float64)`: the gather
and the max are exact, repeating a doc's last id changes none of its maxima,
and summing a contiguous float64 row runs numpy's pairwise summation in the
same order as the 1-d sum does. Before the id-rank sort, a partition drops
every candidate that scores below the ndocs-th best, so the sort runs over
about ndocs of them however many candidates stage 2 unions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kmeans
from .core import Corpus, RankedList, TokenMatrix, top_k
from .kmeans import Csr
from .errors import CorpusMismatch, NDocsTooSmall, UnknownDoc, UnsupportedBits

# Rows per residual encode/decode step: large enough for whole-array speed,
# small enough that the float64 temporaries stay a few MiB.
CODEC_BLOCK_ROWS = 4096


def _check_bits(bits: int) -> None:
    if bits not in (1, 2):
        raise UnsupportedBits(f"residual bits must be 1 or 2, got {bits}")


def _bits_of(quantiles: np.ndarray) -> int:
    if len(quantiles) not in (3, 7):
        raise UnsupportedBits(f"{len(quantiles)} residual quantiles are neither 1- nor 2-bit")
    return {3: 1, 7: 2}[len(quantiles)]


def residual_quantiles(
    vectors: np.ndarray, centroids: np.ndarray, codes: np.ndarray, bits: int
) -> np.ndarray:
    """The (2**(bits+1) - 1,) float32 quantiles of every residual component.

    Of the m components of vectors - centroids[codes], sorted ascending, entry
    i - 1 is the one at floor(i * m / 2**(bits+1)): the odd positions are the
    2**bits - 1 bucket cutoffs, the even ones the 2**bits bucket weights. The
    sort runs in place in one float32 buffer.
    """
    components = np.empty(vectors.shape, dtype=np.float32)
    for lo in range(0, len(vectors), CODEC_BLOCK_ROWS):
        rows = slice(lo, lo + CODEC_BLOCK_ROWS)
        np.subtract(vectors[rows], centroids[codes[rows]], out=components[rows])
    components = components.reshape(-1)
    components.sort()
    parts = 2 << bits
    return components[np.arange(1, parts) * components.size // parts]


def encode_residuals(
    vectors: np.ndarray, centroids: np.ndarray, codes: np.ndarray, quantiles: np.ndarray
) -> np.ndarray:
    """Packed levels of every row's residual from centroids[codes[row]].

    A component's level is the count of cutoffs (quantiles[1::2]) at or below
    it. So the weights (quantiles[0::2]) re-encode to their own levels when
    the quantiles strictly increase; on a tie, a weight equal to the cutoff
    above it re-encodes higher (all-zero residuals encode to the top level).
    """
    bits, cutoffs = _bits_of(quantiles), quantiles[1::2]
    packed = np.empty((len(vectors), packed_width(vectors.shape[1], bits)), dtype=np.uint8)
    for lo in range(0, len(vectors), CODEC_BLOCK_ROWS):
        rows = slice(lo, lo + CODEC_BLOCK_ROWS)
        residuals = vectors[rows] - centroids[codes[rows]]
        levels = np.zeros(residuals.shape, dtype=np.uint8)
        for cutoff in cutoffs:
            levels += residuals >= cutoff
        packed[rows] = pack_levels(levels, bits)
    return packed


def decode_residuals(
    packed: np.ndarray, quantiles: np.ndarray, centroids: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """Every row rebuilt as its centroid plus its levels' weights, renormalized.

    `packed` holds each row's levels as `pack_levels` packs them; level j
    decodes to the weight quantiles[2 * j].
    """
    bits, weights = _bits_of(quantiles), quantiles[0::2].astype(np.float64)
    dim = centroids.shape[1]
    decoded = np.empty((len(packed), dim), dtype=np.float32)
    for lo in range(0, len(packed), CODEC_BLOCK_ROWS):
        rows = slice(lo, lo + CODEC_BLOCK_ROWS)
        vector = centroids[codes[rows]] + weights[unpack_levels(packed[rows], bits, dim)]
        # One BLAS dot per row, (1, dim) @ (dim, 1): the same dot np.linalg.norm
        # takes of a single vector, so a row decodes to the same bits either way.
        norm = np.sqrt(np.matmul(vector[:, None, :], vector[:, :, None])[:, 0])
        decoded[rows] = vector / norm
    return decoded


def packed_width(dim: int, bits: int) -> int:
    """Bytes per vector of packed levels: ceil(dim * bits / 8)."""
    return -(-dim * bits // 8)


def pack_levels(levels: np.ndarray, bits: int) -> np.ndarray:
    """Pack (n, dim) levels into (n, packed_width(dim, bits)) uint8 rows.

    Each level's bits go MSB-first, levels go MSB-first within each byte and
    the trailing pad bits are zero: np.packbits of the MSB-first bit stream.
    A level that `bits` cannot hold raises ValueError instead of truncating.
    """
    _check_bits(bits)
    rows, dim = levels.shape
    kmeans.check_ids("residual_levels", levels, levels.shape, 1 << bits)
    per_byte, width = 8 // bits, packed_width(dim, bits)
    fields = np.zeros((rows, width * per_byte), dtype=np.uint8)
    fields[:, :dim] = levels
    fields = fields.reshape(rows, width, per_byte)
    packed = fields[:, :, 0] << (8 - bits)
    for j in range(1, per_byte):
        packed |= fields[:, :, j] << (8 - bits * (j + 1))
    return packed


def unpack_levels(packed: np.ndarray, bits: int, dim: int) -> np.ndarray:
    """Inverse of pack_levels: (n, packed_width(dim, bits)) uint8 -> (n, dim) levels.

    One table lookup per byte: the table holds each byte value's 8 // bits
    levels as one 4- or 8-byte word, so the gather writes them all at once.
    A row width other than packed_width(dim, bits) raises ValueError.
    """
    _check_bits(bits)
    if packed.ndim != 2 or packed.shape[1] != packed_width(dim, bits):
        raise ValueError(f"residual_levels of shape {packed.shape} are not {bits}-bit levels "
                         f"of dim {dim} packed into {packed_width(dim, bits)} bytes per row")
    shifts = np.arange(8 - bits, -1, -bits, dtype=np.uint8)
    table = (np.arange(256, dtype=np.uint8)[:, None] >> shifts) & np.uint8((1 << bits) - 1)
    words = table.view(np.uint32 if bits == 2 else np.uint64)[:, 0]
    return np.ascontiguousarray(words[packed].view(np.uint8)[:, :dim])


@dataclass(frozen=True)
class StorageReport:
    """Bytes of one residual index: the raw vectors against the arrays it saves.

    compressed_bytes is what `save_plaid_index` writes of the codes, packed
    levels and quantiles; the centroids and the header come on top.
    """

    raw_float32_bytes: int
    raw_float16_bytes: int
    compressed_bytes: int

    @property
    def ratio(self) -> float:
        return self.raw_float16_bytes / self.compressed_bytes


def code_lists(
    codes: np.ndarray, row_offsets: np.ndarray, num_centroids: int
) -> tuple[Csr, Csr, np.ndarray]:
    """Inverted lists and per-doc unique codes, from the per-token codes.

    Returns (inverted, unique_codes, entries): inverted[c] holds the ordinals
    of the documents with a token on centroid c, ascending; unique_codes[d]
    holds document d's distinct centroid ids, ascending; entries[t] is the
    position in unique_codes.flat of token t's (doc, code) pair. All three
    come from one np.unique over the (doc, code) pairs, which sorts them by
    doc and then code. Codes must lie in [0, num_centroids).
    """
    doc_count = len(row_offsets) - 1
    pairs, entries = np.unique(kmeans.token_docs(row_offsets) * num_centroids + codes,
                               return_inverse=True)
    pair_docs, pair_codes = np.divmod(pairs, num_centroids)
    unique_codes = Csr.grouped(pair_docs, pair_codes, doc_count)
    inverted = Csr.grouped(pair_codes, pair_docs, num_centroids)
    return inverted, unique_codes, entries


def residual_radii(
    vectors: np.ndarray, centroids: np.ndarray, codes: np.ndarray, row_offsets: np.ndarray,
    entries: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each doc's largest residual norm, and the smallest per unique-code entry.

    A row's residual norm is ||vectors[row] - centroids[codes[row]]||, taken
    in float32 CODEC_BLOCK_ROWS rows at a time. The float32 difference,
    squares, sum and square root leave it at most (dim/2 + 2)*2**-24 of
    itself plus sqrt(dim)*2**-75 (gradual underflow) below the exact norm, so
    it is widened by twice both and rounded up to the next float32: never
    below the exact norm. Returns (max_residual, min_residual): the
    (doc_count,) largest over each doc's rows, and the smallest over the rows
    of each (doc, code) pair, aligned with `unique_codes.flat` through
    `entries` (see `code_lists`). A NaN row makes both NaN.
    """
    dim = vectors.shape[1]
    norms = np.empty(len(vectors))
    for lo in range(0, len(vectors), CODEC_BLOCK_ROWS):
        rows = slice(lo, lo + CODEC_BLOCK_ROWS)
        residuals = vectors[rows] - centroids[codes[rows]]
        norms[rows] = np.sqrt(np.einsum("ij,ij->i", residuals, residuals))
    widened = norms * (1 + (dim + 4) * 2.0**-24) + dim**0.5 * 2.0**-74
    norms = np.nextafter(widened.astype(np.float32), np.float32(np.inf))
    by_entry = Csr.grouped(entries, np.arange(len(vectors)), int(entries.max()) + 1)
    return (np.maximum.reduceat(norms, row_offsets[:-1]),
            np.minimum.reduceat(norms[by_entry.flat], by_entry.offsets[:-1]))


@dataclass(frozen=True)
class PlaidConfig:
    num_centroids: int = 256
    ncells: int = 4
    centroid_score_threshold: float = 0.4
    ndocs: int = 4096
    residual_bits: int = 0
    kmeans_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.num_centroids < 1:
            raise ValueError("num_centroids must be >= 1")
        if not 1 <= self.ncells <= self.num_centroids:
            raise ValueError("ncells must satisfy 1 <= ncells <= num_centroids")
        if not -1.0 <= self.centroid_score_threshold <= 1.0:
            raise ValueError("centroid_score_threshold must be in [-1, 1]")
        if self.ndocs < 1:
            raise ValueError("ndocs must be >= 1")
        if self.residual_bits not in (0, 1, 2):
            raise UnsupportedBits(f"residual_bits must be 0, 1 or 2, got {self.residual_bits}")


@dataclass(frozen=True)
class PlaidIndex:
    config: PlaidConfig
    centroids: np.ndarray  # (num_centroids, dim) float32 unit rows
    codes: np.ndarray  # (total_vectors,) int32, centroid per flat token
    row_offsets: np.ndarray  # (doc_count + 1,) int64, doc boundaries
    doc_ids: tuple[str, ...]
    residual_levels: np.ndarray | None  # (total_vectors, packed_width(dim, bits)) uint8, packed
    residual_quantiles: np.ndarray | None  # (2**(bits+1) - 1,) float32, see residual_quantiles
    corpus: Corpus | None
    # The corpus digest, read from its file; required without `corpus`, so a re-save names it.
    corpus_sha256: str | None = None
    inverted: Csr = field(init=False)  # per centroid, doc ordinals ascending
    unique_codes: Csr = field(init=False)  # per doc, sorted unique centroid ids
    store: Corpus = field(init=False, repr=False)  # the vectors stage 4 rescores
    # Residual norms of `store` from the centroids, see residual_radii: per doc
    # the largest, and per unique_codes.flat entry the smallest (float32).
    max_residual: np.ndarray = field(init=False, repr=False, compare=False)
    min_residual: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num_centroids, bits = self.config.num_centroids, self.config.residual_bits
        if self.corpus is None:
            if not bits or self.corpus_sha256 is None:
                raise CorpusMismatch("a plaid index without its corpus needs residuals to "
                                     "rescore from and its corpus_sha256")
        elif self.doc_ids != self.corpus.doc_ids or not np.array_equal(
                self.row_offsets, self.corpus.offsets):
            raise CorpusMismatch("index doc ids or row counts disagree with its corpus")
        rows = (int(self.row_offsets[-1]),)
        kmeans.check_ids("codes", self.codes, rows, num_centroids)
        if bits:
            levels, width = self.residual_levels, packed_width(self.dim, bits)
            if levels.dtype != np.uint8 or levels.shape != (*rows, width):
                raise ValueError(f"residual_levels must be uint8 of shape {(*rows, width)}")
            quantiles, count = self.residual_quantiles, (2 << bits) - 1
            if (quantiles.dtype != np.float32 or quantiles.shape != (count,)
                    or not np.isfinite(quantiles).all() or (np.diff(quantiles) < 0).any()):
                raise ValueError(f"residual_quantiles must be {count} sorted finite float32s")
        inverted, unique_codes, entries = code_lists(self.codes, self.row_offsets, num_centroids)
        object.__setattr__(self, "inverted", inverted)
        object.__setattr__(self, "unique_codes", unique_codes)
        store = self.corpus
        if bits:
            decoded = decode_residuals(self.residual_levels, self.residual_quantiles,
                                       self.centroids, self.codes)
            store = Corpus(self.doc_ids, decoded, self.row_offsets)
        object.__setattr__(self, "store", store)
        radii = residual_radii(store.vectors, self.centroids, self.codes, self.row_offsets,
                               entries)
        object.__setattr__(self, "max_residual", radii[0])
        object.__setattr__(self, "min_residual", radii[1])

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    @property
    def storage(self) -> StorageReport | None:
        if not self.config.residual_bits:
            return None
        rows, dim = len(self.codes), self.dim
        saved = self.codes.nbytes + self.residual_levels.nbytes + self.residual_quantiles.nbytes
        return StorageReport(rows * dim * 4, rows * dim * 2, saved)

    @cached_property
    def reach(self) -> float:
        """A bound on ||c|| + ||v|| for any centroid c and stored row v:
        2 * max ||c|| + max(max_residual), NaN when a residual norm is. Not saved."""
        squares = np.einsum("ij,ij->i", self.centroids, self.centroids, dtype=np.float64)
        return float(2 * np.sqrt(squares.max()) + self.max_residual.max())

    def doc_matrix(self, ordinal: int) -> TokenMatrix:
        """True vectors when residuals are off, decoded vectors otherwise."""
        if not 0 <= ordinal < self.doc_count:
            raise UnknownDoc(f"doc ordinal {ordinal} outside [0, {self.doc_count})")
        return self.store.doc_matrix(ordinal)


def build_plaid(
    corpus: Corpus, config: PlaidConfig, centroids: np.ndarray | None = None
) -> PlaidIndex:
    """Train (or adopt) centroids, assign every vector, build the inverted map.

    Passing precomputed centroids skips training; that is how two corpora can
    be compared under one centroid space.
    """
    vectors = corpus.vectors
    if centroids is None:
        centroids, codes = kmeans.train_kmeans(
            vectors, config.num_centroids, iters=config.kmeans_iters, seed=config.seed
        )
    elif centroids.shape[0] != config.num_centroids:
        raise ValueError("supplied centroids disagree with config.num_centroids")
    else:
        codes = kmeans.assign(vectors, centroids)
    levels = quantiles = None
    if config.residual_bits > 0:
        quantiles = residual_quantiles(vectors, centroids, codes, config.residual_bits)
        levels = encode_residuals(vectors, centroids, codes, quantiles)
    return PlaidIndex(
        config=config,
        centroids=centroids,
        codes=codes,
        row_offsets=corpus.offsets,
        doc_ids=corpus.doc_ids,
        residual_levels=levels,
        residual_quantiles=quantiles,
        corpus=corpus,
    )


class CandidateTrace(NamedTuple):
    """Stage 1-2 outcome, exposed so pruning behavior is inspectable."""

    candidates: tuple[int, ...]  # doc ordinals, ascending
    probed_per_row: tuple[int, ...]
    surviving_per_row: tuple[int, ...]


def _probe(
    index: PlaidIndex, query: TokenMatrix, ncells: int | None, threshold: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stages 1 and 2.

    Returns (centroid dots, candidate doc ordinals ascending, per-row
    survivor mask over the row's top-ncells centroids).
    """
    ncells = index.config.ncells if ncells is None else ncells
    threshold = (
        index.config.centroid_score_threshold if threshold is None else threshold
    )
    if not -1.0 <= threshold <= 1.0:
        raise ValueError("centroid_score_threshold must be in [-1, 1]")
    dots, top = kmeans.probe(index.centroids, query, ncells)
    keep = np.take_along_axis(dots, top, axis=1) >= threshold
    members = np.zeros(index.doc_count, dtype=bool)
    members[index.inverted.gather(np.unique(top[keep]))[0]] = True
    return dots, np.flatnonzero(members), keep


def plaid_candidates(
    index: PlaidIndex,
    query: TokenMatrix,
    ncells: int | None = None,
    threshold: float | None = None,
) -> CandidateTrace:
    """Stages 1 and 2: probe, prune by threshold, union inverted lists."""
    _, candidates, keep = _probe(index, query, ncells, threshold)
    return CandidateTrace(
        candidates=tuple(candidates.tolist()),
        probed_per_row=(keep.shape[1],) * keep.shape[0],
        surviving_per_row=tuple(keep.sum(axis=1).tolist()),
    )


def approx_scores(index: PlaidIndex, dots: np.ndarray, ordinals: np.ndarray) -> np.ndarray:
    """Stage 3 for many docs: float64 centroid-MaxSim per ordinal.

    Layer j maxes every candidate's j-th centroid row of `dots`' transpose,
    clamped to its last id, into one (candidates, query rows) array, summed
    along its rows in float64; see the module docstring for why this is
    bit-identical to summing each doc on its own.
    """
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


def _slack(index: PlaidIndex, rows: int, total: float) -> float:
    """How far rounding can move a score or a bound of a query with `rows` rows
    whose norms sum to `total`; infinite where a float32 dot could overflow or
    a norm is NaN. See the module docstring."""
    dim, reach = index.dim, index.reach
    if not total * reach <= 2.0**127:
        return np.inf
    gamma = dim * 2.0**-24 / (1 - dim * 2.0**-24)
    return (gamma + (rows + dim) * 2.0**-50) * total * reach + rows * dim * 2.0**-149


def _lower_sums(
    index: PlaidIndex, dots: np.ndarray, norms: np.ndarray, ordinals: np.ndarray
) -> np.ndarray:
    """Per ordinal, sum over query rows r of max over its centroids c of
    dots[r, c] - norms[r] * min_residual[(doc, c)], in float64: one gather and
    one reduceat over the docs' unique-code entries."""
    positions, starts = kmeans.segments(index.unique_codes.offsets, ordinals)
    terms = dots[:, index.unique_codes.flat[positions]] - np.multiply.outer(
        norms, index.min_residual[positions])
    return np.maximum.reduceat(terms, starts, axis=1).sum(axis=0)


def _bounded(
    index: PlaidIndex, query: TokenMatrix, dots: np.ndarray, survivors: np.ndarray,
    approx: np.ndarray, k: int,
) -> np.ndarray:
    """The survivors, best approximate score first, less those after the k-th
    whose ceiling lies below the floor; see the module docstring. A k below 1
    keeps them all, for `top_k` to refuse."""
    if not 0 < k < len(survivors):
        return survivors
    norms = _query_norms(query)
    total = norms.sum()
    ceilings = approx[k:] + index.max_residual[survivors[k:]] * total
    if not (ceilings < approx[k - 1]).any():
        return survivors
    slack = _slack(index, len(norms), total)
    floor = _lower_sums(index, dots, norms, survivors[:k]).min() - slack
    return np.concatenate((survivors[:k], survivors[k:][~(ceilings + slack < floor)]))


def plaid_search(
    index: PlaidIndex,
    query: TokenMatrix,
    k: int,
    ncells: int | None = None,
    threshold: float | None = None,
    ndocs: int | None = None,
    query_id: str = "",
) -> RankedList:
    """PLAID stages 1-4: the exact top k of the stage-3 survivors, over `index.store`,
    skipping the survivors the residual-radius bound rules out (module docstring)."""
    ndocs = index.config.ndocs if ndocs is None else ndocs
    if ndocs < k:
        raise NDocsTooSmall(f"ndocs={ndocs} is smaller than k={k}")
    dots, candidates, _ = _probe(index, query, ncells, threshold)
    negated = -approx_scores(index, dots, candidates)
    if len(candidates) > ndocs:
        # Every doc of the top ndocs scores at least the ndocs-th best score, so
        # this cut drops none of them. It runs on negated scores because a
        # partition, like the sort below, puts NaN last: the ndocs-th entry is
        # NaN only when fewer than ndocs scores are numbers, and then it keeps all.
        cut = np.partition(negated, ndocs - 1)[ndocs - 1]
        keep = ~(negated > cut)
        candidates, negated = candidates[keep], negated[keep]
    # Descending approximate score, ties by ascending doc id.
    order = np.lexsort((index.store.id_rank[candidates], negated))[:ndocs]
    survivors = _bounded(index, query, dots, candidates[order], -negated[order], k)
    return top_k(index.store, query, k, survivors, query_id, store=index)
