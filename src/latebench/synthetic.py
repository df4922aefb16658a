"""Planted-relevance synthetic data: corpora, queries, and qrels.

The generator plants a known-item structure that desk-scale experiments can
lean on:

  * concepts are mutually orthonormal unit directions, plus one shared
    background direction;
  * every document owns a distinct combination of concepts and carries noisy
    tokens around them, ending with one exact background token;
  * every query opens with signal tokens (noisy copies of its target's
    concepts) followed by filler tokens drawn from one background
    distribution shared across all queries.

Because each document contains the identical background token, a filler token
scores the same against every document, so filler inflates all scores by the
same amount and can never reorder them. That is what makes the planted-target
guarantee hold at any filler fraction, and what makes rankings invariant once
a truncation length covers the signal prefix.

The guarantee is checked, not assumed: after sampling, every query's exact
top two is found with `exact_search`, and the whole dataset is regenerated
from a derived seed if any target is not first by at least the margin.
Generation is deterministic for a fixed spec.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .core import Corpus, TokenMatrix, exact_search, unit_rows
from .errors import SpecInfeasible
from .trec import Qrels

logger = logging.getLogger(__name__)

_RETRY_SEED_STRIDE = 9973
# Redraws after the first attempt before an unmet margin raises SpecInfeasible.
_RETRIES = 5


@dataclass(frozen=True)
class SyntheticSpec:
    doc_count: int = 100
    tokens_per_doc: tuple[int, int] = (8, 32)
    dim: int = 128
    num_concepts: int = 16
    queries: int = 20
    signal_tokens: int = 8
    filler_fraction: float = 0.0
    margin: float = 0.05
    seed: int = 0
    # Shape knobs beyond the minimum contract; defaults keep the planted
    # guarantee comfortable at dim 128.
    concepts_per_doc: int = 2
    doc_noise: float = 0.25
    query_noise: float = 0.1
    filler_noise: float = 0.35

    def __post_init__(self):
        if self.doc_count < 1 or self.queries < 1:
            raise ValueError("doc_count and queries must be >= 1")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        if self.signal_tokens < 1:
            raise ValueError("signal_tokens must be >= 1")
        if self.concepts_per_doc < 1:
            raise ValueError("concepts_per_doc must be >= 1")
        if not 0.0 <= self.filler_fraction < 1.0:
            raise ValueError("filler_fraction must be in [0, 1)")
        lo, hi = self.tokens_per_doc
        if lo > hi or lo < self.concepts_per_doc + 1:
            raise ValueError(
                "tokens_per_doc must be a (lo, hi) range with lo >= concepts_per_doc + 1"
            )
        if self.queries > self.doc_count:
            raise ValueError("queries must not exceed doc_count (one distinct target each)")

    @property
    def filler_tokens(self) -> int:
        ff = self.filler_fraction
        return int(round(self.signal_tokens * ff / (1.0 - ff)))


def _orthonormal_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    gaussian = rng.standard_normal((dim, count))
    q, r = np.linalg.qr(gaussian)
    q = q * np.sign(np.diag(r))
    return np.ascontiguousarray(q.T, dtype=np.float64)


def _perturbed(directions: np.ndarray, noise: float, rng: np.random.Generator,
               rows: int) -> np.ndarray:
    """`rows` unit float32 rows: each direction plus `noise` times a unit Gaussian.

    `directions` is one (dim,) direction or one per row. The one (rows, dim)
    draw consumes the stream that `rows` draws of one row each would.
    """
    g = unit_rows(rng.standard_normal((rows, directions.shape[-1])))
    return unit_rows(directions + noise * g).astype(np.float32)


def _attempt(spec: SyntheticSpec, seed: int):
    rng = np.random.default_rng(seed)
    if spec.num_concepts + 1 > spec.dim:
        raise SpecInfeasible(
            f"dim={spec.dim} cannot host {spec.num_concepts} concepts plus background"
        )
    combos = list(itertools.combinations(range(spec.num_concepts), spec.concepts_per_doc))
    if len(combos) < spec.doc_count:
        raise SpecInfeasible(
            f"{spec.num_concepts} concepts give {len(combos)} distinct "
            f"{spec.concepts_per_doc}-concept documents, need {spec.doc_count}"
        )
    directions = _orthonormal_directions(rng, spec.num_concepts + 1, spec.dim)
    concepts = directions[: spec.num_concepts]
    background = directions[spec.num_concepts].astype(np.float32)

    order = rng.permutation(len(combos))[: spec.doc_count]
    doc_concepts = [combos[i] for i in order]
    lo, hi = spec.tokens_per_doc
    docs: dict[str, TokenMatrix] = {}
    doc_ids = []
    for ordinal in range(spec.doc_count):
        doc_id = f"d{ordinal:05d}"
        doc_ids.append(doc_id)
        rows = int(rng.integers(lo, hi + 1))
        cycle = concepts[np.resize(doc_concepts[ordinal], rows - 1)]
        matrix = np.empty((rows, spec.dim), dtype=np.float32)
        matrix[:rows - 1] = _perturbed(cycle, spec.doc_noise, rng, rows - 1)
        matrix[rows - 1] = background  # shared exact anchor for filler tokens
        docs[doc_id] = TokenMatrix(matrix)

    targets = rng.choice(spec.doc_count, size=spec.queries, replace=False)
    n_filler = spec.filler_tokens
    queries: dict[str, TokenMatrix] = {}
    qrels_pairs = []
    for qi in range(spec.queries):
        qid = f"q{qi:04d}"
        target = int(targets[qi])
        cycle = concepts[np.resize(doc_concepts[target], spec.signal_tokens)]
        rows = np.concatenate([
            _perturbed(cycle, spec.query_noise, rng, spec.signal_tokens),
            _perturbed(background.astype(np.float64), spec.filler_noise, rng, n_filler),
        ])
        queries[qid] = TokenMatrix(rows)
        qrels_pairs.append((qid, doc_ids[target], 1))

    corpus = Corpus.build(docs)
    return corpus, queries, Qrels.from_pairs(qrels_pairs)


def _verify_planted(corpus: Corpus, queries, qrels: Qrels, margin: float) -> bool:
    # The exact top 2 carries the floats a full maxsim_score sweep would give.
    # It ranks on a twin over the same arrays, so the row-count copy the sweep
    # caches (Corpus.row_blocks) goes with the twin: only a corpus that is
    # searched later pays for it, and a caller holding several generated
    # corpora holds no copy of any.
    twin = Corpus(corpus.doc_ids, corpus.vectors, corpus.offsets)
    for qid, query in queries.items():
        target = next(iter(qrels.relevant(qid)))
        top = exact_search(twin, query, 2)
        gap = top.scores[0] - top.scores[1] if len(top) > 1 else np.inf
        if top.ids[0] != target or gap < margin:
            logger.info("planted margin violated for %s: target %s, top %s, gap %.4f",
                        qid, target, top.ids[0], gap)
            return False
    return True


def generate_synthetic(spec: SyntheticSpec):
    """Returns (corpus, queries, qrels) honoring the planted-target guarantee.

    Raises SpecInfeasible when the margin cannot be met within the bounded
    retry budget or the spec is structurally impossible.
    """
    for attempt in range(_RETRIES + 1):
        corpus, queries, qrels = _attempt(spec, spec.seed + attempt * _RETRY_SEED_STRIDE)
        if _verify_planted(corpus, queries, qrels, spec.margin):
            return corpus, queries, qrels
    raise SpecInfeasible(
        f"margin {spec.margin} unreachable after {_RETRIES + 1} attempts"
    )
