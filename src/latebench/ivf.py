"""Inverted-file approximate backend for multi-vector search.

Token vectors are clustered into nlist centroids; every query row probes its
nprobe nearest lists and gathers candidate tokens, and the gathered tokens'
source documents form the candidate set. When there are more than k
candidates, `kmeans.shortlist` ranks them by centroid score (over the dots
the probe already took) and gives each after the k-th its residual-radius
ceiling, as for PLAID's stage 4. `core.top_k` takes their exact top k,
scoring each by one stacked product per row count, and skips the later ones
whose ceiling lies below the least score of the first k. Only candidate
generation approximates: every returned score equals maxsim_score exactly,
and the list is the one `core.top_k` gives over every candidate, bit for
bit. The ceilings read the index's `kmeans.Radii` of `corpus.vectors` on its
centroids and assignments, derived at build and load and never saved.

Gather order is (probed-list rank, then token dot within the boundary list),
so the candidate set at a smaller nprobe is always a subset of the candidate
set at a larger one; that monotonicity is load-bearing for the recall
properties asserted in the tests. It holds because `kmeans.probe` orders a
row's centroids by a stable sort, so the first nprobe lists are a prefix of
the first nprobe + 1.

A list the per-token budget runs out inside is gathered once per query, by
one `np.take`, however many query rows it runs out in: the (row, list) pairs
are walked in list order. Each such row dots the same gathered rows in its
own matrix-vector product and keeps its top rows by `core.best`, ties by row
id, unordered: the rows only mark candidate docs, so no sort runs unless dots
tie across the cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kmeans
from .core import Corpus, RankedList, TokenMatrix, best, top_k


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
    token_docs: np.ndarray = field(init=False)  # (total_vectors,) int64 doc ordinal
    lists: kmeans.Csr = field(init=False)  # per centroid, corpus row ids ascending
    # The kmeans.Radii of `corpus.vectors` on the centroids: unique codes and residual norms.
    unique_codes: kmeans.Csr = field(init=False, repr=False, compare=False)
    max_residual: np.ndarray = field(init=False, repr=False, compare=False)
    reach: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = (self.corpus.total_vectors,)
        kmeans.check_centroids(self.centroids, self.config.nlist, self.corpus.dim)
        kmeans.check_ids("assignments", self.assignments, rows, self.config.nlist, np.int32)
        object.__setattr__(self, "token_docs", kmeans.token_docs(self.corpus.offsets))
        object.__setattr__(self, "lists", kmeans.Csr.grouped(
            self.assignments, np.arange(rows[0]), self.config.nlist))
        radii = kmeans.residual_radii(self.corpus.vectors, self.centroids, self.assignments,
                                      self.corpus.offsets)
        for name, value in zip(kmeans.Radii._fields, radii):
            object.__setattr__(self, name, value)


def build_ivf(corpus: Corpus, config: IvfConfig) -> IvfIndex:
    """Cluster all token vectors and file each one under its argmax centroid."""
    centroids, assignments = kmeans.train_kmeans(
        corpus.vectors, config.nlist, iters=config.kmeans_iters, seed=config.seed
    )
    return IvfIndex(config=config, centroids=centroids, assignments=assignments, corpus=corpus)


def _candidates(
    index: IvfIndex, query: TokenMatrix, nprobe: int | None, per_token_candidates: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """(the probe's centroid dots, candidate doc ordinals ascending)."""
    nprobe = index.config.nprobe if nprobe is None else nprobe
    cap = (
        index.config.per_token_candidates
        if per_token_candidates is None
        else per_token_candidates
    )
    if cap < 1:
        raise ValueError("per_token_candidates must be >= 1")
    dots, top = kmeans.probe(index.centroids, query, nprobe)
    lengths = np.diff(index.lists.offsets)[top]
    ends = np.cumsum(lengths, axis=1)
    starts = ends - lengths
    rows = [index.lists.gather(np.unique(top[ends <= cap]))]
    query_rows, ranks = np.nonzero((starts < cap) & (ends > cap))
    lists, budgets = top[query_rows, ranks], cap - starts[query_rows, ranks]
    walk = np.argsort(lists, kind="stable")
    gathered = -1
    for lst, r, budget in zip(lists[walk].tolist(), query_rows[walk].tolist(),
                              budgets[walk].tolist()):
        if lst != gathered:
            toks, gathered = index.lists[lst], lst
            block = np.take(index.corpus.vectors, toks, axis=0)
        rows.append(toks[best(block @ query.data[r], toks, budget, ordered=False)])
    members = np.zeros(len(index.corpus), dtype=bool)
    members[index.token_docs[np.concatenate(rows)]] = True
    return dots, np.flatnonzero(members)


def ivf_candidates(
    index: IvfIndex,
    query: TokenMatrix,
    nprobe: int | None = None,
    per_token_candidates: int | None = None,
) -> tuple[int, ...]:
    """Candidate doc ordinals for a query, sorted ascending.

    Per query row, along its nprobe nearest lists: every list whose end
    falls within the per-token budget contributes all of its tokens, and the
    one list the budget runs out inside contributes its top tokens by
    (dot, row id). An nprobe or budget below 1 raises ValueError, as IvfConfig does.
    """
    return tuple(_candidates(index, query, nprobe, per_token_candidates)[1].tolist())


def ivf_search(
    index: IvfIndex,
    query: TokenMatrix,
    k: int,
    nprobe: int | None = None,
    per_token_candidates: int | None = None,
    query_id: str = "",
) -> RankedList:
    """Probe, gather, rank the candidates and bound their scores
    (`kmeans.shortlist`), then take their exact top k with `core.top_k`."""
    dots, ordinals = _candidates(index, query, nprobe, per_token_candidates)
    ordinals, ceilings = kmeans.shortlist(index, query, dots, ordinals, index.corpus.id_rank,
                                          len(ordinals), k)
    return top_k(index.corpus, query, k, ordinals, query_id, ceilings=ceilings)
