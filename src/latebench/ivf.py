"""Inverted-file approximate backend for multi-vector search.

Token vectors are clustered into nlist centroids; every query row probes its
nprobe nearest lists and gathers candidate tokens, the gathered tokens' source
documents form the candidate set, and candidates are rescored with the exact
kernel. Only candidate generation approximates: every returned score equals
maxsim_score exactly.

Gather order is (probed-list rank, then token dot within the boundary list),
so the candidate set at a smaller nprobe is always a subset of the candidate
set at a larger one; that monotonicity is load-bearing for the recall
properties asserted in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kmeans
from .core import Corpus, RankedList, TokenMatrix, score_docs
from .errors import DimensionMismatch


@dataclass(frozen=True)
class IvfConfig:
    nlist: int = 64
    nprobe: int = 8
    per_token_candidates: int = 256
    kmeans_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.nlist < 1:
            raise ValueError("nlist must be >= 1")
        if not 1 <= self.nprobe <= self.nlist:
            raise ValueError("nprobe must satisfy 1 <= nprobe <= nlist")
        if self.per_token_candidates < 1:
            raise ValueError("per_token_candidates must be >= 1")


@dataclass(frozen=True)
class IvfIndex:
    """Inverted lists over the rows of `corpus.vectors`, which it reads in place."""

    config: IvfConfig
    centroids: np.ndarray  # (nlist, dim) float32 unit rows
    assignments: np.ndarray  # (total_vectors,) int32 in [0, nlist), centroid per corpus row
    corpus: Corpus
    token_docs: np.ndarray = field(init=False)  # (total_vectors,) int32 doc ordinal
    lists: tuple[np.ndarray, ...] = field(init=False)  # per centroid, corpus row ids ascending

    def __post_init__(self):
        counts = np.diff(self.corpus.offsets)
        docs = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        # A stable sort keeps each list's row ids ascending.
        order = np.argsort(self.assignments, kind="stable").astype(np.int32)
        ends = np.cumsum(np.bincount(self.assignments, minlength=self.config.nlist))
        object.__setattr__(self, "token_docs", docs)
        object.__setattr__(self, "lists", tuple(np.split(order, ends[:-1])))

    def list_entries(self, centroid: int) -> list[tuple[int, int]]:
        """(doc ordinal, row ordinal) pairs stored under one centroid."""
        toks = self.lists[centroid]
        docs = self.token_docs[toks]
        return list(zip(docs.tolist(), (toks - self.corpus.offsets[docs]).tolist()))


def build_ivf(corpus: Corpus, config: IvfConfig) -> IvfIndex:
    """Cluster all token vectors and file each one under its argmax centroid."""
    vectors = corpus.vectors
    centroids = kmeans.train_kmeans(
        vectors, config.nlist, iters=config.kmeans_iters, seed=config.seed
    )
    assignments = kmeans.assign(vectors, centroids)
    return IvfIndex(config=config, centroids=centroids, assignments=assignments, corpus=corpus)


def _probe_order(index: IvfIndex, row: np.ndarray) -> np.ndarray:
    dots = index.centroids @ row
    # Descending dot, ascending centroid id on ties; the top-a prefix of this
    # order is shared by every nprobe >= a, which the subset property needs.
    return np.lexsort((np.arange(len(dots)), -dots))


def ivf_candidates(
    index: IvfIndex,
    query: TokenMatrix,
    nprobe: int | None = None,
    per_token_candidates: int | None = None,
) -> tuple[int, ...]:
    """Candidate doc ordinals for a query, sorted ascending.

    Per query row: walk the nprobe nearest lists in order; fully consumed
    lists contribute every token, and the list where the per-token budget
    runs out contributes its top tokens by (dot, flat id).
    """
    if query.dim != index.centroids.shape[1]:
        raise DimensionMismatch(
            f"query dim {query.dim} != index dim {index.centroids.shape[1]}"
        )
    nprobe = index.config.nprobe if nprobe is None else nprobe
    cap = (
        index.config.per_token_candidates
        if per_token_candidates is None
        else per_token_candidates
    )
    nprobe = min(max(1, nprobe), index.config.nlist)
    candidates: set[int] = set()
    for row in query.data:
        order = _probe_order(index, row)
        remaining = cap
        for centroid in order[:nprobe]:
            toks = index.lists[centroid]
            if len(toks) == 0:
                continue
            if len(toks) <= remaining:
                taken = toks
                remaining -= len(toks)
            else:
                dots = index.corpus.vectors[toks] @ row
                pick = np.lexsort((toks, -dots))[:remaining]
                taken = toks[pick]
                remaining = 0
            candidates.update(index.token_docs[taken].tolist())
            if remaining == 0:
                break
    return tuple(sorted(candidates))


def ivf_search(
    index: IvfIndex,
    query: TokenMatrix,
    k: int,
    nprobe: int | None = None,
    per_token_candidates: int | None = None,
    query_id: str = "",
) -> RankedList:
    """Probe, gather, then rescore every candidate with the exact kernel."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordinals = ivf_candidates(index, query, nprobe, per_token_candidates)
    return RankedList.from_scores(query_id, score_docs(index.corpus, query, ordinals), k)
