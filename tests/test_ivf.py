import dataclasses

import numpy as np
import pytest

from latebench import (
    Corpus,
    IvfConfig,
    IvfIndex,
    RankedList,
    TokenMatrix,
    build_ivf,
    core,
    exact_search,
    ivf_candidates,
    ivf_search,
    maxsim_score,
)
from latebench.bundle import load_ivf_index, save_ivf_index
from latebench.errors import DimensionMismatch, TooFewVectors

from conftest import basis_matrix, random_unit_matrix
from oracles import argmax_assignment, loop_ivf_candidates, loop_residual_radii


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
    """Per-token budgets: 1, one that ends a list exactly, one that ends mid-list,
    half the largest list's length, 10**6.

    The edge is the length of row 0's first non-empty probed list, so the
    budget runs out at that list's end and the next list adds nothing. Half
    the largest list cuts inside it for a row that probes it first: on a
    planted corpus that is the filler anchor's list, whose rows all tie.
    """
    counts = np.bincount(index.assignments, minlength=index.config.nlist)
    order = np.lexsort((np.arange(index.config.nlist), -(index.centroids @ query.data[0])))
    sizes = [n for n in counts[order] if n]
    edge, after = sizes[0], sizes[1]
    assert after >= 2  # so that edge + 1 ends inside the next list
    return (1, edge, edge + 1, int(counts.max()) // 2, 10**6)


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


def _hexed(ranked):  # NaN != NaN, so compare exact bit patterns
    return [(hit.doc_id, hit.score.hex()) for hit in ranked.hits]


def _canonical(index, query, nprobe=None, cap=None):
    """Every candidate scored by the kernel and ranked by RankedList.from_scores."""
    corpus = index.corpus
    scored = [(corpus.doc_ids[o], maxsim_score(query, corpus.doc_matrix(o)))
              for o in ivf_candidates(index, query, nprobe, cap)]
    return _hexed(RankedList.from_scores("", scored, len(scored)))


def _handed(monkeypatch):
    """Patch core._row_blocks to record how many docs each top_k call scores."""
    original, counts = core._row_blocks, []
    monkeypatch.setattr(core, "_row_blocks",
                        lambda docs: counts.append(len(docs)) or original(docs))
    return counts


def test_bound_keeps_the_canonical_list_over_the_grid(planted_by_filler, monkeypatch):
    # Over (nprobe, per-token budget, k), on built and loaded indexes, the
    # list equals the full rescore of every candidate by float.hex(), and at
    # filler 0.3 the bound hands fewer docs to top_k than there are
    # candidates.
    handed = _handed(monkeypatch)
    for filler, (corpus, queries, _) in planted_by_filler.items():
        built = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=4))
        for index in (built, load_ivf_index(save_ivf_index(built), corpus)):
            candidates = scored = 0
            for query in queries.values():
                for nprobe in (1, 4, 16):
                    for cap in (8, 64, 10**6):
                        count = len(ivf_candidates(index, query, nprobe, cap))
                        want = _canonical(index, query, nprobe, cap)
                        for k in (1, 5, 10):
                            handed.clear()
                            got = ivf_search(index, query, k, nprobe, cap)
                            assert _hexed(got) == want[:k], (filler, nprobe, cap, k)
                            assert len(handed) == 1 and handed[0] <= count
                            candidates += count
                            scored += handed[0]
            if filler == 0.3:
                assert scored < candidates, index is built


def test_nan_query_or_store_row_skips_nothing(planted_by_filler, monkeypatch):
    # Both indexes share centroids and assignments, so the NaN row is all
    # that sets them apart.
    corpus, queries, _ = planted_by_filler[0.3]
    config = IvfConfig(nlist=16, nprobe=4, seed=4)
    index = build_ivf(corpus, config)
    query = next(iter(queries.values()))
    rows = query.data.copy()
    rows[2] = np.nan
    vectors = corpus.vectors.copy()
    vectors[corpus.offsets[7] + 1, 3] = np.nan
    broken = IvfIndex(config, index.centroids, index.assignments,
                      Corpus(corpus.doc_ids, vectors, corpus.offsets))
    assert np.isnan(broken.max_residual[7]) and np.isnan(broken.reach)
    entries = broken.unique_codes.offsets[7:9]
    assert np.isnan(broken.min_residual[entries[0]:entries[1]]).any()
    handed = _handed(monkeypatch)
    for case, searched, probe_query in (("clean", index, query),
                                        ("NaN query row", index, TokenMatrix(rows)),
                                        ("NaN store row", broken, query)):
        count = len(ivf_candidates(searched, probe_query))
        for k in (1, 5, 10):
            handed.clear()
            got = ivf_search(searched, probe_query, k)
            assert (handed[0] < count) == (case == "clean"), (case, k)
            assert _hexed(got) == _canonical(searched, probe_query)[:k], (case, k)


def test_radii_round_the_loop_norms_up(planted_by_filler):
    corpus, _, _ = planted_by_filler[0.3]
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=4))
    largest, smallest = loop_residual_radii(corpus.vectors, index.centroids, index.assignments,
                                            corpus.offsets)
    assert len(smallest) == len(index.unique_codes.flat)
    for ordinal in range(len(corpus)):
        lo, hi = corpus.offsets[ordinal], corpus.offsets[ordinal + 1]
        assert index.unique_codes[ordinal].tolist() == sorted(set(index.assignments[lo:hi]))
    for got, want in ((index.max_residual, largest), (index.min_residual, smallest)):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert (got >= want).all() and (got <= want * (1 + 1e-5) + 1e-20).all()


def test_loaded_index_derives_the_same_radii(planted_by_filler):
    # The radii are derived, never saved: a load derives them bit for bit,
    # and the file holds the centroids and assignments alone.
    corpus, _, _ = planted_by_filler[0.3]
    built = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=4))
    data = save_ivf_index(built)
    header = data[:data.index(b"\nend\n")].decode().splitlines()
    assert [line.split()[1] for line in header if line.startswith("array ")] == [
        "centroids", "assignments"]
    loaded = load_ivf_index(data, corpus)
    for name in ("max_residual", "min_residual"):
        assert getattr(loaded, name).tobytes() == getattr(built, name).tobytes()
        assert getattr(loaded, name).dtype == np.float32
    assert loaded.unique_codes.flat.tobytes() == built.unique_codes.flat.tobytes()
    assert loaded.unique_codes.offsets.tobytes() == built.unique_codes.offsets.tobytes()
    assert loaded.reach == built.reach
    assert save_ivf_index(loaded) == data
