"""core.top_k, the one scoring path of exact, IVF and PLAID search: bits, order, refusals."""

import math

import numpy as np
import pytest

from latebench import (
    Corpus, IvfConfig, IvfIndex, PlaidConfig, TokenMatrix, build_ivf, build_plaid, exact_search,
    ivf_search, plaid_search,
)
from latebench import core, kmeans
from latebench.bundle import load_ivf_index, load_plaid_index, save_ivf_index, save_plaid_index
from latebench.core import RankedList, maxsim_score, score_all, score_docs, top_k
from latebench.errors import DimensionMismatch, UnknownDoc
from latebench.plaid import unpack_levels

from conftest import random_unit_matrix
from oracles import full_rescore, loop_decode_rows, loop_ivf_candidates, reference_plaid_funnel


def _full_sweep(corpus, query, k, qid=""):
    return RankedList.from_scores(qid, score_all(corpus, query), k)


def _scaled_corpus(rng, docs, dim, rows=(3, 9)):
    """Random docs whose rows are scaled by 0.5-3, so norms are not 1."""
    mats = {}
    for i in range(docs):
        m = random_unit_matrix(rng, int(rng.integers(rows[0], rows[1] + 1)), dim).data
        mats[f"d{i:04d}"] = TokenMatrix(m * rng.uniform(0.5, 3.0, size=(len(m), 1)))
    return Corpus.build(mats)


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


def test_k_covering_the_corpus_equals_the_full_sweep():
    rng = np.random.default_rng(22)
    corpus = _scaled_corpus(rng, 40, 8)
    query = random_unit_matrix(rng, 4, 8)
    for k in (len(corpus) - 1, len(corpus), len(corpus) + 5):
        assert exact_search(corpus, query, k) == _full_sweep(corpus, query, k)


def _broken_corpus(rng, cells=((5, 3, np.nan),)):
    """A 30-doc scaled corpus with the given (row, column, value) entries set."""
    corpus = _scaled_corpus(rng, 30, 8)
    vectors = corpus.vectors.copy()
    for row, col, value in cells:
        vectors[row, col] = value
    return Corpus(corpus.doc_ids, vectors, corpus.offsets)


def _assert_nan_last(ranked):
    """Numbers first, non-increasing, then every NaN."""
    scores = [hit.score for hit in ranked.hits]
    nan = [math.isnan(score) for score in scores]
    assert nan == sorted(nan)
    numbers = scores[:len(scores) - sum(nan)]
    assert all(a >= b for a, b in zip(numbers, numbers[1:]))


def test_nan_row_gives_the_full_sweep_list():
    rng = np.random.default_rng(24)
    broken = _broken_corpus(rng)
    query = random_unit_matrix(rng, 4, 8)
    centroids = random_unit_matrix(rng, 8, 8).data
    searches = {"exact": lambda k: exact_search(broken, query, k, "q")}
    for backend in ("ivf", "plaid"):
        search = _exhaustive_search(backend, broken, centroids)
        searches[backend] = lambda k, search=search: search(query, k)
    for backend, search in searches.items():
        for k in (1, 5, 29, 30):
            ranked = search(k)
            _assert_nan_last(ranked)
            assert _hexed(ranked) == _hexed(_full_sweep(broken, query, k, "q")), backend
        # Row 5 belongs to d0001, the one doc whose score is NaN.
        assert ranked.hits[-1].doc_id == "d0001" and math.isnan(ranked.hits[-1].score)


def test_from_scores_puts_nan_last_and_breaks_ties_by_doc_id():
    nan = float("nan")
    pairs = [("d3", nan), ("d2", 1.0), ("d0", nan), ("d1", 2.0), ("d5", 1.0), ("d4", -0.0)]
    ranked = RankedList.from_scores("q", pairs, 6)
    assert ranked.doc_ids() == ("d1", "d2", "d5", "d4", "d0", "d3")


def test_dimension_mismatch_raises_before_any_product(monkeypatch):
    rng = np.random.default_rng(25)
    corpus = _scaled_corpus(rng, 10, 8)

    def no_product(*args):
        raise AssertionError("a gather or product ran before the dimension check")

    monkeypatch.setattr(Corpus, "row_blocks", property(no_product))
    for name in ("_stacked_maxsim", "score_docs", "maxsim_score"):
        monkeypatch.setattr(core, name, no_product)
    query = random_unit_matrix(rng, 3, 4)
    with pytest.raises(DimensionMismatch):
        exact_search(corpus, query, 2)
    with pytest.raises(DimensionMismatch):
        top_k(corpus, query, 2, np.arange(5))


def _hexed(ranked):
    return [(hit.doc_id, hit.score.hex()) for hit in ranked.hits]


def _hexed_pairs(pairs):
    return [(doc_id, score.hex()) for doc_id, score in pairs]


def _doc_matrices(corpus):
    return [corpus.docs[doc_id].data for doc_id in corpus.doc_ids]


def _exhaustive_search(backend, corpus, centroids):
    """A search over an index on the given 8 centroids whose candidates and
    survivors are every doc."""
    if backend == "ivf":
        config = IvfConfig(nlist=8, nprobe=8, per_token_candidates=corpus.total_vectors)
        index = IvfIndex(config, centroids, kmeans.assign(corpus.vectors, centroids), corpus)
        return lambda query, k: ivf_search(index, query, k, query_id="q")
    config = PlaidConfig(num_centroids=8, ncells=8, ndocs=len(corpus),
                         centroid_score_threshold=-1.0)
    index = build_plaid(corpus, config, centroids)
    return lambda query, k: plaid_search(index, query, k, query_id="q")


def _tied_queries():
    corpus, query = _tied_corpus()
    rng = np.random.default_rng(28)
    return corpus, [query] + [random_unit_matrix(rng, int(rng.integers(1, 9)), 16)
                              for _ in range(5)]


@pytest.fixture(scope="module", params=["planted", "tied"])
def rescore_data(request, planted_small):
    if request.param == "tied":
        return _tied_queries()
    corpus, queries, _ = planted_small
    return corpus, list(queries.values())


def test_ivf_equals_the_full_canonical_rescore(rescore_data):
    corpus, queries = rescore_data
    nlist, cap = 16, corpus.total_vectors // 8
    built = build_ivf(corpus, IvfConfig(nlist=nlist, nprobe=4, per_token_candidates=cap, seed=2))
    loaded = load_ivf_index(save_ivf_index(built), corpus)
    matrices = _doc_matrices(corpus)
    for query in queries:
        for nprobe in (1, 8, nlist):
            candidates = loop_ivf_candidates(built.centroids, built.assignments, corpus.vectors,
                                             corpus.offsets, query.data, nprobe, cap)
            for k in (1, 10, 30):
                want = _hexed_pairs(full_rescore(query.data, matrices, corpus.doc_ids,
                                                 candidates, k))
                for index in (built, loaded):
                    assert _hexed(ivf_search(index, query, k, nprobe=nprobe)) == want


@pytest.mark.parametrize("bits", [0, 1, 2])
def test_plaid_equals_the_full_per_survivor_rescore(rescore_data, bits):
    corpus, queries = rescore_data
    config = PlaidConfig(num_centroids=16, ncells=4, centroid_score_threshold=0.0,
                         residual_bits=bits, seed=2)
    built = build_plaid(corpus, config)
    data = save_plaid_index(built)
    indexes = [built, load_plaid_index(data, corpus)] + ([load_plaid_index(data)] if bits else [])
    matrices = _doc_matrices(corpus)
    if bits:
        levels = unpack_levels(built.residual_levels, bits, built.dim)
        decoded = loop_decode_rows(levels, built.residual_quantiles, built.centroids,
                                   built.codes)
        bounds = corpus.offsets.tolist()
        matrices = [decoded[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    for query in queries:
        for k in (1, 10, 100):
            for ndocs in (k, 256):
                want = _hexed_pairs(reference_plaid_funnel(
                    query.data, built.centroids, built.codes, built.row_offsets,
                    built.doc_ids, matrices, 4, 0.0, ndocs, k))
                for index in indexes:
                    assert _hexed(plaid_search(index, query, k, ndocs=ndocs)) == want


@pytest.mark.parametrize("backend", ["exact", "ivf", "plaid"])
def test_k_below_one_is_refused_by_top_k(planted_small, backend):
    corpus, queries, _ = planted_small
    search = {
        "exact": lambda q, k: exact_search(corpus, q, k),
        "ivf": lambda q, k: ivf_search(build_ivf(corpus, IvfConfig(nlist=16, seed=2)), q, k),
        "plaid": lambda q, k: plaid_search(
            build_plaid(corpus, PlaidConfig(num_centroids=32, ndocs=80, seed=2)), q, k),
    }[backend]
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        search(next(iter(queries.values())), 0)


@pytest.mark.parametrize("k, ordinals", [(5, [-1, 3]), (5, [3, 50]), (1, [49, 50]), (1, [-1, 3])])
def test_top_k_refuses_ordinals_outside_the_corpus(k, ordinals):
    rng = np.random.default_rng(29)
    corpus = _scaled_corpus(rng, 50, 8)
    query = random_unit_matrix(rng, 3, 8)
    with pytest.raises(UnknownDoc, match=r"\[0, 50\)"):
        top_k(corpus, query, k, np.array(ordinals))


def _full_lexsort_top_k(corpus, query, k, ordinals):
    """top_k's list by one lexsort over every scored doc, with no cut before it."""
    scores = score_docs(corpus, query, ordinals.tolist())
    best = np.lexsort((corpus.id_rank[ordinals], -scores))[:k]
    return list(zip([corpus.doc_ids[o] for o in ordinals[best].tolist()],
                    [score.hex() for score in scores[best].tolist()]))


def test_top_k_cut_keeps_the_full_lexsort_list():
    # 400 doc shapes, three copies each under distinct ids, so the ranks k
    # and k + 1 tie for k in (1, 100, 1000); every 50th shape scores NaN (24
    # docs), so k = len(corpus) - 10 puts a NaN at the partition's cut.
    rng = np.random.default_rng(33)
    mats = {}
    for i in range(400):
        m = random_unit_matrix(rng, int(rng.integers(1, 5)), 8).data.copy()
        if i % 50 == 7:
            m[0, 0] = np.nan
        for copy in range(3):
            mats[f"d{i:03d}{'abc'[copy]}"] = TokenMatrix(m)
    corpus = Corpus.build(mats)
    query = random_unit_matrix(rng, 3, 8)
    everything = corpus.row_blocks[0]
    subset = rng.permutation(len(corpus))[:1100]
    full = _full_lexsort_top_k(corpus, query, len(corpus), everything)
    for k in (1, 100, 1000):
        assert full[k - 1][1] == full[k][1]
    assert full[-1][1] == "nan" and full[len(corpus) - 24][1] == "nan"
    for k in (1, 100, 1000, len(corpus) - 10, len(corpus)):
        assert _hexed(exact_search(corpus, query, k)) == full[:k]
        assert _hexed(top_k(corpus, query, k, subset)) == _full_lexsort_top_k(
            corpus, query, k, subset)


def _assert_bit_equal(store, query, ordinals):
    """score_docs: one float64 array, maxsim_score's bits in the given order."""
    want = [maxsim_score(query, store.doc_matrix(o)).hex() for o in ordinals]
    scores = score_docs(store, query, ordinals)
    assert scores.dtype == np.float64 and scores.shape == (len(want),)
    assert [score.hex() for score in scores.tolist()] == want


def _assert_sweep_bit_equal(corpus, query):
    """exact_search over the whole corpus (its row blocks): score_all's bits and order."""
    want = RankedList.from_scores("", score_all(corpus, query), len(corpus))
    assert _hexed(exact_search(corpus, query, len(corpus))) == _hexed(want)


def test_score_docs_has_the_bits_of_maxsim_score():
    rng = np.random.default_rng(30)
    mixed = _scaled_corpus(rng, 30, 128, rows=(1, 64))
    everything = list(range(len(mixed)))
    # Query row counts across numpy's pairwise-summation blocks, 1-row queries
    # (a vector operand takes another BLAS routine) included.
    for nq in range(1, 301):
        query = random_unit_matrix(rng, nq, 128)
        _assert_bit_equal(mixed, query, everything)
        _assert_sweep_bit_equal(mixed, query)
    query = random_unit_matrix(rng, 11, 128)
    for ordinals in (everything[::-1], rng.permutation(len(mixed)).tolist(), [7, 7, 3], []):
        _assert_bit_equal(mixed, query, ordinals)

    one_row = _scaled_corpus(rng, 20, 128, rows=(1, 1))
    for nq in (1, 2, 9):
        query = random_unit_matrix(rng, nq, 128)
        _assert_bit_equal(one_row, query, range(20))
        _assert_sweep_bit_equal(one_row, query)


def test_score_docs_has_the_bits_of_maxsim_score_on_broken_and_other_stores(planted_small):
    rng = np.random.default_rng(31)
    # NaN, +-Inf, and rows of +-0 whose every dot is a signed zero.
    broken = _broken_corpus(rng, [(5, 3, np.nan), (40, 0, np.inf), (41, 2, -np.inf)]
                            + [(row, col, -0.0) for row in (60, 61) for col in range(8)]
                            + [(row, col, 0.0) for row in (62,) for col in range(8)])
    zeros = TokenMatrix(np.array([[-0.0] * 8, [0.0] * 8], dtype=np.float32))
    with np.errstate(invalid="ignore"):  # Inf times a zero query entry
        for query in [random_unit_matrix(rng, nq, 8) for nq in (1, 4, 13)] + [zeros]:
            _assert_bit_equal(broken, query, range(len(broken)))
            _assert_sweep_bit_equal(broken, query)

    # Every doc of the pooled corpus has C rows, so it is one stacked product.
    corpus, queries, _ = planted_small
    pooled = core.pool_corpus(corpus, 4)
    assert len(pooled.row_blocks[1]) == 1
    corpora = [pooled, Corpus(corpus.doc_ids, corpus.vectors.astype(np.float16), corpus.offsets,
                              dtype="float16")]
    stores = corpora + [build_plaid(corpus, PlaidConfig(num_centroids=16, residual_bits=bits,
                                                        seed=3)) for bits in (1, 2)]
    for query in list(queries.values())[:3]:
        for store in stores:
            _assert_bit_equal(store, query, rng.permutation(len(corpus)).tolist())
        for store in corpora:
            _assert_sweep_bit_equal(store, query)


def test_ties_follow_the_string_order_of_doc_ids():
    rng = np.random.default_rng(32)
    doc = random_unit_matrix(rng, 3, 8)
    ids = ["b", "c9", "a", "C", "c10", "B2"]
    corpus = Corpus.build({doc_id: doc for doc_id in ids})
    query = random_unit_matrix(rng, 2, 8)
    assert corpus.id_rank.tolist() == [sorted(ids).index(doc_id) for doc_id in ids]
    assert exact_search(corpus, query, 6).doc_ids() == tuple(sorted(ids))
    assert top_k(corpus, query, 4, np.array([4, 0, 1, 2])).doc_ids() == ("a", "b", "c10", "c9")
