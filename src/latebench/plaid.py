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
           survive, ties broken by ascending doc id;
  stage 4  survivors get their exact top k, from true vectors or, when
           residual compression is on, from decoded vectors.

Stage 4 is `core.top_k`, as for exact search and IVF: the rows of every
survivor its residual-radius ceiling does not rule out are read once, through
`doc_matrix`, from `store`, and scored by one stacked product per row count,
each score with `maxsim_score`'s bits. `store` is the
source corpus without residuals, else a `Corpus` over one array every vector
is decoded into once, at build or load, by `decode_residuals`, so
`doc_matrix` never decodes or allocates. The codec is ColBERTv2's, with
corpus-wide buckets (`residual_quantiles`); `encode_residuals` and
`decode_residuals` run `core.BLOCK_ROWS` rows at a time and give each row
the bits it would get on its own. The index holds the levels packed
(`pack_levels`), as the saved file does, so no level can lie outside 2**bits.

Stage 3 and the ceilings stage 4 reads are one call, `kmeans.shortlist`,
the one IVF makes on its candidates: the centroid scores ranked by
`core.best` (ties through the store's `Corpus.id_rank`, each doc id's rank in
string order), cut at ndocs, then each later survivor's ceiling. The `kmeans`
module docstring gives both, and why no list changes by a bit. The ceilings
read the index's `kmeans.Radii` of `store` against the centroids, derived at
build and load and never saved. On the bench corpus at k = 100, stage 4
reads ~117 of 256 survivors per query at filler 0.3, and at filler 0.0 (~117
survivors) in one pass.

A `PlaidIndex` checks its own arrays, and a given corpus against its doc ids
and row counts: a mismatch raises ValueError or CorpusMismatch when the index
is made, never an IndexError at search time. One made without its corpus
needs residuals to rescore from and the corpus's digest (`corpus_sha256`).

ndocs smaller than k is an error, never a silent clamp, and so are a
search-time ncells below 1 and a threshold outside [-1, 1]. An ncells larger
than the centroid count means "probe everything" and is clamped.

Stages 1-3 work on whole arrays. The (query rows x centroids) dot matrix is
computed once per search, and each document's sorted unique centroid ids are
stored as one CSR (`kmeans.Csr`). `core.best`'s partition keeps the sort to
about ndocs candidates however many stage 2 unions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kmeans
from .core import BLOCK_ROWS, Corpus, RankedList, TokenMatrix, top_k, unit_rows
from .kmeans import Csr
from .errors import CorpusMismatch, NDocsTooSmall, UnsupportedBits


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
    for lo in range(0, len(vectors), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
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
    for lo in range(0, len(vectors), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        residuals = vectors[rows] - centroids[codes[rows]]
        levels = np.zeros(residuals.shape, dtype=np.uint8)
        for cutoff in cutoffs:
            levels += residuals >= cutoff
        packed[rows] = pack_levels(levels, bits)
    return packed


def decode_residuals(
    packed: np.ndarray, quantiles: np.ndarray, centroids: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """Every row rebuilt as its centroid plus its levels' weights, renormalized
    by `core.unit_rows`, so a row decodes to the same bits alone or in a block.

    `packed` holds each row's levels as `pack_levels` packs them; level j
    decodes to the weight quantiles[2 * j].
    """
    bits, weights = _bits_of(quantiles), quantiles[0::2].astype(np.float64)
    dim = centroids.shape[1]
    decoded = np.empty((len(packed), dim), dtype=np.float32)
    for lo in range(0, len(packed), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        decoded[rows] = unit_rows(
            centroids[codes[rows]] + weights[unpack_levels(packed[rows], bits, dim)])
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
    store: Corpus = field(init=False, repr=False)  # the vectors stage 4 rescores
    # The kmeans.Radii of `store` on the centroids: unique codes and residual norms.
    unique_codes: Csr = field(init=False)  # per doc, sorted unique centroid ids
    max_residual: np.ndarray = field(init=False, repr=False, compare=False)
    reach: float = field(init=False, repr=False, compare=False)

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
        # Without a corpus the residuals are decoded in the centroids' own dim.
        dim = self.centroids.shape[-1] if self.corpus is None else self.corpus.dim
        kmeans.check_centroids(self.centroids, num_centroids, dim)
        kmeans.check_ids("codes", self.codes, rows, num_centroids)
        if bits:
            levels, width = self.residual_levels, packed_width(self.dim, bits)
            if levels.dtype != np.uint8 or levels.shape != (*rows, width):
                raise ValueError(f"residual_levels must be uint8 of shape {(*rows, width)}")
            quantiles, count = self.residual_quantiles, (2 << bits) - 1
            if (quantiles.dtype != np.float32 or quantiles.shape != (count,)
                    or not np.isfinite(quantiles).all() or (np.diff(quantiles) < 0).any()):
                raise ValueError(f"residual_quantiles must be {count} sorted finite float32s")
        store = self.corpus
        if bits:
            decoded = decode_residuals(self.residual_levels, self.residual_quantiles,
                                       self.centroids, self.codes)
            store = Corpus(self.doc_ids, decoded, self.row_offsets)
        object.__setattr__(self, "store", store)
        radii = kmeans.residual_radii(store.vectors, self.centroids, self.codes,
                                      self.row_offsets)
        for name, value in zip(kmeans.Radii._fields, radii):
            object.__setattr__(self, name, value)
        unique = radii.unique_codes
        object.__setattr__(self, "inverted", Csr.grouped(
            unique.flat, kmeans.token_docs(unique.offsets), num_centroids))

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

    def doc_matrix(self, ordinal: int) -> TokenMatrix:
        """True vectors when residuals are off, decoded vectors otherwise; the
        store's `Corpus.doc_matrix` refuses an ordinal outside [0, doc_count)."""
        return self.store.doc_matrix(ordinal)


def build_plaid(
    corpus: Corpus, config: PlaidConfig, centroids: np.ndarray | None = None
) -> PlaidIndex:
    """Train (or adopt) centroids, assign every vector, build the inverted map.

    Passing precomputed centroids skips training; that is how two corpora can
    be compared under one centroid space. They are taken as C-contiguous
    float32, the dtype the index file stores, before any vector is assigned,
    so the codes belong to the centroids the index keeps; centroids of
    another dim than the corpus raise DimensionMismatch.
    """
    vectors = corpus.vectors
    if centroids is None:
        centroids, codes = kmeans.train_kmeans(
            vectors, config.num_centroids, iters=config.kmeans_iters, seed=config.seed
        )
    elif centroids.shape[0] != config.num_centroids:
        raise ValueError("supplied centroids disagree with config.num_centroids")
    else:
        centroids = np.ascontiguousarray(centroids, dtype=np.float32)
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
    members[index.inverted.gather(np.unique(top[keep]))] = True
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


def plaid_search(
    index: PlaidIndex,
    query: TokenMatrix,
    k: int,
    ncells: int | None = None,
    threshold: float | None = None,
    ndocs: int | None = None,
    query_id: str = "",
) -> RankedList:
    """PLAID stages 1-4: the exact top k, over `index.store`, of the stage-3
    survivors (`kmeans.shortlist`), skipping those their ceilings rule out."""
    ndocs = index.config.ndocs if ndocs is None else ndocs
    if ndocs < k:
        raise NDocsTooSmall(f"ndocs={ndocs} is smaller than k={k}")
    dots, candidates, _ = _probe(index, query, ncells, threshold)
    survivors, ceilings = kmeans.shortlist(index, query, dots, candidates, index.store.id_rank,
                                           ndocs, k)
    return top_k(index.store, query, k, survivors, query_id, store=index, ceilings=ceilings)
