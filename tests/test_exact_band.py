"""Exact search's batched ranking and its error-bounded canonical band."""

import numpy as np
import pytest

from latebench import Corpus, SyntheticSpec, TokenMatrix, exact_search, generate_synthetic
from latebench import core
from latebench.core import RankedList, batched_scores, score_all
from latebench.errors import DimensionMismatch
from latebench.synthetic import _verify_planted

from conftest import random_unit_matrix


def _full_sweep(corpus, query, k, qid=""):
    return RankedList.from_scores(qid, score_all(corpus, query), k)


def _canonical(corpus, query):
    return np.array([score for _, score in score_all(corpus, query)])


def _scaled_corpus(rng, docs, dim, rows=(3, 9)):
    """Random docs whose rows are scaled by 0.5-3, so norms are not 1."""
    mats = {}
    for i in range(docs):
        m = random_unit_matrix(rng, int(rng.integers(rows[0], rows[1] + 1)), dim).data
        mats[f"d{i:04d}"] = TokenMatrix(m * rng.uniform(0.5, 3.0, size=(len(m), 1)))
    return Corpus.build(mats)


@pytest.mark.parametrize("dim", [4, 128, 300])
def test_batched_scores_stay_within_eps_of_the_canonical_kernel(dim):
    rng = np.random.default_rng(dim)
    corpus = _scaled_corpus(rng, 150, dim)
    for nq in (1, 7, 32, 300):
        query = TokenMatrix(random_unit_matrix(rng, nq, dim).data
                            * rng.uniform(0.5, 3.0, size=(nq, 1)))
        approx, eps = batched_scores(corpus, query)
        assert np.isfinite(eps) and eps > 0
        assert np.abs(approx - _canonical(corpus, query)).max() <= eps


def _tied_corpus():
    """Each of 100 random docs three times under distinct ids, so every
    third rank is an exact canonical tie; the ranks k and k + 1 tie for
    k in (1, 10, 100)."""
    rng = np.random.default_rng(21)
    mats = {}
    for i in range(100):
        m = random_unit_matrix(rng, int(rng.integers(3, 7)), 16)
        for copy in range(3):
            mats[f"d{i:03d}{'abc'[copy]}"] = m
    return Corpus.build(mats), random_unit_matrix(rng, 5, 16)


@pytest.mark.parametrize("k", [1, 10, 100])
def test_band_absorbs_an_adversarial_eps_error_and_is_needed(k, monkeypatch):
    corpus, query = _tied_corpus()
    _, eps = batched_scores(corpus, query)
    expected = _full_sweep(corpus, query, k, "q")
    inside = np.isin(np.array(corpus.doc_ids), expected.doc_ids())
    # Docs inside the canonical top k lose eps, every other doc gains eps.
    adversarial = _canonical(corpus, query) + np.where(inside, -eps, eps)

    monkeypatch.setattr(core, "batched_scores", lambda c, q: (adversarial, eps))
    assert exact_search(corpus, query, k, "q") == expected
    monkeypatch.setattr(core, "batched_scores", lambda c, q: (adversarial, 0.0))
    assert exact_search(corpus, query, k, "q") != expected


def test_k_covering_the_corpus_equals_the_full_sweep():
    rng = np.random.default_rng(22)
    corpus = _scaled_corpus(rng, 40, 8)
    query = random_unit_matrix(rng, 4, 8)
    for k in (len(corpus) - 1, len(corpus), len(corpus) + 5):
        assert exact_search(corpus, query, k) == _full_sweep(corpus, query, k)


def test_zero_row_doc_raises_as_the_full_sweep_does():
    rng = np.random.default_rng(23)
    vectors = random_unit_matrix(rng, 6, 8).data
    corpus = Corpus(("a", "b", "c", "d"), vectors, np.array([0, 2, 2, 4, 6], dtype=np.int64))
    query = random_unit_matrix(rng, 3, 8)
    with pytest.raises(Exception) as swept:
        score_all(corpus, query)
    for k in (1, 3, 4):
        with pytest.raises(type(swept.value)):
            exact_search(corpus, query, k)


def test_nan_row_gives_the_full_sweep_list():
    rng = np.random.default_rng(24)
    corpus = _scaled_corpus(rng, 30, 8)
    vectors = corpus.vectors.copy()
    vectors[5, 3] = np.nan
    broken = Corpus(corpus.doc_ids, vectors, corpus.offsets)
    query = random_unit_matrix(rng, 4, 8)
    assert not np.isfinite(batched_scores(broken, query)[1])

    def hexed(ranked):  # NaN != NaN, so compare exact bit patterns
        return [(hit.doc_id, hit.score.hex()) for hit in ranked.hits]

    for k in (1, 5, 29):
        assert hexed(exact_search(broken, query, k)) == hexed(_full_sweep(broken, query, k))


def test_dimension_mismatch_raises_before_any_product(monkeypatch):
    rng = np.random.default_rng(25)
    corpus = _scaled_corpus(rng, 10, 8)

    def no_product(*args):
        raise AssertionError("a product ran before the dimension check")

    monkeypatch.setattr(core, "batched_scores", no_product)
    monkeypatch.setattr(core, "maxsim_score", no_product)
    with pytest.raises(DimensionMismatch):
        exact_search(corpus, random_unit_matrix(rng, 3, 4), 2)


@pytest.fixture(scope="module")
def acceptance_data():
    spec = SyntheticSpec(
        doc_count=2000, tokens_per_doc=(8, 32), dim=128, num_concepts=68,
        queries=100, signal_tokens=8, filler_fraction=0.3, margin=0.05, seed=42,
    )
    return generate_synthetic(spec)


def _counting_kernel(monkeypatch):
    calls = [0]
    kernel = core.maxsim_score

    def counted(query, doc):
        calls[0] += 1
        return kernel(query, doc)

    monkeypatch.setattr(core, "maxsim_score", counted)
    return calls


def test_canonical_calls_per_query_stay_near_k(acceptance_data, monkeypatch):
    corpus, queries, qrels = acceptance_data
    calls = _counting_kernel(monkeypatch)
    for qid, query in queries.items():
        exact_search(corpus, query, 100, query_id=qid)
    assert calls[0] / len(queries) < 2 * 100

    calls[0] = 0
    assert _verify_planted(corpus, queries, qrels, 0.05)
    assert calls[0] / len(queries) < 50
