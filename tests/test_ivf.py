import dataclasses

import numpy as np
import pytest

from latebench import (
    Corpus,
    IvfConfig,
    IvfIndex,
    TokenMatrix,
    build_ivf,
    exact_search,
    ivf_candidates,
    ivf_search,
    maxsim_score,
)
from latebench.errors import DimensionMismatch, TooFewVectors

from conftest import basis_matrix, random_unit_matrix
from oracles import argmax_assignment, loop_ivf_candidates


def test_two_singleton_lists():
    corpus = Corpus.build({"A": basis_matrix([0], dim=4), "B": basis_matrix([1], dim=4)})
    index = build_ivf(corpus, IvfConfig(nlist=2, nprobe=1, seed=0))
    sizes = sorted(len(lst) for lst in index.lists)
    assert sizes == [1, 1]
    # (doc ordinal, row within the doc) of every row filed under each non-empty list
    entries = set()
    for rows in index.lists:
        docs = index.token_docs[rows]
        if len(rows):
            entries.add(tuple(zip(docs.tolist(), (rows - corpus.offsets[docs]).tolist())))
    assert entries == {((0, 0),), ((1, 0),)}


def test_rebuild_same_seed_identical():
    rng = np.random.default_rng(0)
    corpus = Corpus.build({f"d{i}": random_unit_matrix(rng, 6, 16) for i in range(30)})
    config = IvfConfig(nlist=8, nprobe=2, seed=5)
    a = build_ivf(corpus, config)
    b = build_ivf(corpus, config)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)


def test_list_assignment_matches_bruteforce_oracle(planted_small):
    corpus, _, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=1))
    expected = argmax_assignment(index.corpus.vectors[:200], index.centroids)
    assert index.assignments[:200].tolist() == expected
    # every token appears in exactly one list
    total = sum(len(lst) for lst in index.lists)
    assert total == corpus.total_vectors


def test_exhaustive_settings_equal_exact_search(planted_small):
    corpus, queries, _ = planted_small
    total = corpus.total_vectors
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=16, per_token_candidates=total, seed=1))
    for qid, query in list(queries.items())[:6]:
        assert ivf_search(index, query, 20, query_id=qid) == exact_search(
            corpus, query, 20, query_id=qid
        )


def test_scores_equal_exact_kernel(planted_small):
    corpus, queries, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=2, seed=1))
    query = next(iter(queries.values()))
    result = ivf_search(index, query, 10)
    for hit in result.hits:
        assert hit.score == maxsim_score(query, corpus.docs[hit.doc_id])


def test_nprobe_one_still_finds_planted_target(planted_small):
    corpus, queries, qrels = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=1, seed=1))
    hits = 0
    for qid, query in queries.items():
        result = ivf_search(index, query, 5, query_id=qid)
        if result.hits and result.hits[0].doc_id in qrels.relevant(qid):
            hits += 1
    # the planted signal shares its centroid with the target's tokens
    assert hits == len(queries)


def test_candidate_sets_nested_in_nprobe(planted_small):
    corpus, queries, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=1, seed=1))
    for query in list(queries.values())[:6]:
        previous = set()
        for nprobe in (1, 2, 4, 8, 16):
            current = set(ivf_candidates(index, query, nprobe=nprobe))
            assert previous <= current
            previous = current


def test_recall_non_decreasing_in_nprobe(planted_small):
    corpus, queries, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=1, seed=1))
    truth = {
        qid: set(exact_search(corpus, query, 20).doc_ids())
        for qid, query in queries.items()
    }
    last = -1.0
    for nprobe in (1, 4, 8, 16):
        recalls = []
        for qid, query in queries.items():
            got = set(ivf_search(index, query, 20, nprobe=nprobe).doc_ids())
            recalls.append(len(got & truth[qid]) / len(truth[qid]))
        mean = sum(recalls) / len(recalls)
        assert mean >= last - 1e-12
        last = mean
    assert last == pytest.approx(1.0)  # exhaustive probe reaches the oracle


def test_per_token_candidates_cap_respected(planted_small):
    corpus, queries, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=16, seed=1))
    query = next(iter(queries.values()))
    tight = set(ivf_candidates(index, query, per_token_candidates=1))
    assert len(tight) <= query.rows
    loose = set(ivf_candidates(index, query, per_token_candidates=10**6))
    assert tight <= loose


def test_dimension_mismatch_rejected(planted_small):
    corpus, _, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=8, nprobe=1, seed=0))
    with pytest.raises(DimensionMismatch):
        ivf_search(index, basis_matrix([0], dim=4), 5)


def test_too_few_vectors_rejected():
    corpus = Corpus.build({"A": basis_matrix([0], dim=4)})
    with pytest.raises(TooFewVectors):
        build_ivf(corpus, IvfConfig(nlist=2, nprobe=1))


def test_config_invariants():
    with pytest.raises(ValueError):
        IvfConfig(nlist=4, nprobe=5)
    with pytest.raises(ValueError):
        IvfConfig(nlist=4, nprobe=1, per_token_candidates=0)


@pytest.mark.parametrize("cap", [0, -3])
def test_search_time_budget_below_one_rejected(planted_small, cap):
    # Unchecked, no list fits a budget below 1, so every search came back empty.
    corpus, queries, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=1))
    query = next(iter(queries.values()))
    assert ivf_search(index, query, 5, per_token_candidates=1).hits
    searches = [
        lambda: ivf_candidates(index, query, per_token_candidates=cap),
        lambda: ivf_search(index, query, 5, per_token_candidates=cap),
    ]
    for search in searches:
        with pytest.raises(ValueError, match="per_token_candidates must be >= 1"):
            search()


def _budgets(index, query):
    """Per-token budgets: 1, one that ends a list exactly, one that ends mid-list, 10**6.

    The edge is the length of row 0's first non-empty probed list, so the
    budget runs out at that list's end and the next list adds nothing.
    """
    order = np.lexsort((np.arange(index.config.nlist), -(index.centroids @ query.data[0])))
    sizes = [n for n in np.bincount(index.assignments, minlength=index.config.nlist)[order] if n]
    edge, after = sizes[0], sizes[1]
    assert after >= 2  # so that edge + 1 ends inside the next list
    return (1, edge, edge + 1, 10**6)


def _hand_built_with_empty_list():
    """Four lists, list 2 empty, and a query whose first row probes list 2 first."""
    rng = np.random.default_rng(23)
    corpus = Corpus.build({f"d{i}": random_unit_matrix(rng, 4, 8) for i in range(12)})
    centroids = random_unit_matrix(rng, 4, 8).data
    live = np.array([0, 1, 3])
    assignments = live[np.argmax(corpus.vectors @ centroids[live].T, axis=1)].astype(np.int32)
    index = IvfIndex(IvfConfig(nlist=4, nprobe=2), centroids, assignments, corpus)
    query = TokenMatrix(np.vstack([centroids[2], random_unit_matrix(rng, 2, 8).data]))
    assert len(index.lists[2]) == 0 and np.argmax(centroids @ centroids[2]) == 2
    return index, {"q": query}


@pytest.mark.parametrize("source", ["planted_small", "empty_list"])
def test_candidates_equal_the_per_row_walk(planted_small, source):
    if source == "planted_small":
        corpus, queries, _ = planted_small
        index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=1))
    else:
        index, queries = _hand_built_with_empty_list()
    nlist = index.config.nlist
    for query in queries.values():
        for nprobe in (1, 2, nlist, nlist + 5):
            for cap in _budgets(index, query):
                want = loop_ivf_candidates(index.centroids, index.assignments,
                                           index.corpus.vectors, index.corpus.offsets,
                                           query.data, nprobe, cap)
                assert ivf_candidates(index, query, nprobe, cap) == want, (nprobe, cap)


def test_candidates_check_the_dimension_before_any_product(planted_small):
    corpus, _, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=1))
    # A product of mismatched shapes would raise numpy's ValueError instead.
    for nprobe, cap in [(None, None), (0, 1), (16, 10**6)]:
        with pytest.raises(DimensionMismatch):
            ivf_candidates(index, basis_matrix([0, 1], dim=4), nprobe, cap)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda a: a + 16, id="outside-nlist"),
    pytest.param(lambda a: a[:-1], id="one-short"),
    pytest.param(lambda a: a - 1, id="negative"),
])
def test_index_rejects_assignments_that_do_not_fit(planted_small, edit):
    # Unchecked, assignments outside nlist would file rows under lists no
    # probe reaches, and a short array would drop rows.
    corpus, _, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2))
    with pytest.raises(ValueError, match="assignments"):
        dataclasses.replace(index, assignments=edit(index.assignments))


@pytest.mark.parametrize("nprobe", [0, -3])
def test_search_time_nprobe_below_one_rejected(planted_small, nprobe):
    corpus, queries, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=1))
    query = next(iter(queries.values()))
    with pytest.raises(ValueError, match="nprobe"):
        ivf_search(index, query, 5, nprobe=nprobe)
    with pytest.raises(ValueError, match="nprobe"):
        ivf_candidates(index, query, nprobe=nprobe)
