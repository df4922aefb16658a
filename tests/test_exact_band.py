"""The batched ranking and its error-bounded canonical band, for exact, IVF and PLAID search."""

import numpy as np
import pytest

from latebench import (
    Corpus, IvfConfig, PlaidConfig, SyntheticSpec, TokenMatrix, build_ivf, build_plaid,
    exact_search, generate_synthetic, ivf_candidates, ivf_search, plaid_candidates,
    plaid_search,
)
from latebench import core
from latebench.bundle import load_ivf_index, load_plaid_index, save_ivf_index, save_plaid_index
from latebench.core import RankedList, batched_scores, maxsim_score, score_all, score_docs, top_k
from latebench.errors import DimensionMismatch, UnknownDoc
from latebench.plaid import unpack_levels
from latebench.synthetic import _verify_planted

from conftest import random_unit_matrix
from oracles import full_rescore, loop_decode_rows, loop_ivf_candidates, reference_plaid_funnel


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

    monkeypatch.setattr(core, "batched_scores", lambda c, q, o: (adversarial, eps))
    assert exact_search(corpus, query, k, "q") == expected
    monkeypatch.setattr(core, "batched_scores", lambda c, q, o: (adversarial, 0.0))
    assert exact_search(corpus, query, k, "q") != expected


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


def test_nan_row_gives_the_full_sweep_list():
    rng = np.random.default_rng(24)
    broken = _broken_corpus(rng)
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
    monkeypatch.setattr(core, "score_docs", no_product)
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


def _counting_score_docs(monkeypatch):
    """The number of documents each search hands to core.score_docs, one entry per call."""
    counts = []
    score = core.score_docs

    def counted(store, query, ordinals):
        ordinals = list(ordinals)
        counts.append(len(ordinals))
        return score(store, query, ordinals)

    monkeypatch.setattr(core, "score_docs", counted)
    return counts


def test_canonical_calls_per_query_stay_near_k(acceptance_data, monkeypatch):
    corpus, queries, qrels = acceptance_data
    counts = _counting_score_docs(monkeypatch)
    for qid, query in queries.items():
        exact_search(corpus, query, 100, query_id=qid)
    assert len(counts) == len(queries)
    assert 100 <= min(counts) and max(counts) < 2 * 100

    counts.clear()
    assert _verify_planted(corpus, queries, qrels, 0.05)
    assert len(counts) == len(queries)
    assert 2 <= min(counts) and max(counts) < 2 * 2


def _hexed(ranked):
    return [(hit.doc_id, hit.score.hex()) for hit in ranked.hits]


def _hexed_pairs(pairs):
    return [(doc_id, score.hex()) for doc_id, score in pairs]


def _doc_matrices(corpus):
    return [corpus.docs[doc_id].data for doc_id in corpus.doc_ids]


def _exhaustive_search(backend, corpus):
    """A search over an index whose candidates and survivors are every doc."""
    if backend == "ivf":
        index = build_ivf(corpus, IvfConfig(nlist=8, nprobe=8, seed=1,
                                            per_token_candidates=corpus.total_vectors))
        return lambda query, k: ivf_search(index, query, k, query_id="q")
    index = build_plaid(corpus, PlaidConfig(num_centroids=8, ncells=8, ndocs=len(corpus),
                                            centroid_score_threshold=-1.0, seed=1))
    return lambda query, k: plaid_search(index, query, k, query_id="q")


@pytest.mark.parametrize("backend", ["ivf", "plaid"])
@pytest.mark.parametrize("k", [1, 10, 100])
def test_backend_band_absorbs_an_adversarial_eps_error_and_is_needed(backend, k, monkeypatch):
    corpus, query = _tied_corpus()
    search = _exhaustive_search(backend, corpus)
    _, eps = batched_scores(corpus, query)
    expected = _full_sweep(corpus, query, k, "q")
    inside = np.isin(np.array(corpus.doc_ids), expected.doc_ids())
    adversarial = _canonical(corpus, query) + np.where(inside, -eps, eps)

    monkeypatch.setattr(core, "batched_scores", lambda c, q, o: (adversarial[o], eps))
    assert search(query, k) == expected
    monkeypatch.setattr(core, "batched_scores", lambda c, q, o: (adversarial[o], 0.0))
    assert search(query, k) != expected


def _no_batch(*args):
    raise AssertionError("the batched pass ran")


@pytest.mark.parametrize("backend", ["exact", "ivf", "plaid"])
def test_fewer_than_2k_ordinals_skip_the_batched_pass(planted_small, backend, monkeypatch):
    corpus, queries, _ = planted_small
    ivf_index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=1, seed=1))
    plaid_index = build_plaid(corpus, PlaidConfig(num_centroids=16, ncells=4,
                                                  centroid_score_threshold=0.0, seed=1))
    matrices = _doc_matrices(corpus)
    for query in queries.values():
        # search(k, ndocs); `skip` leaves it fewer than 2 * k ordinals to
        # rank and must match the full rescore, `batch` leaves it at least 2 * k.
        if backend == "plaid":
            k = 10
            search = lambda k, ndocs: plaid_search(plaid_index, query, k, ndocs=ndocs)
            want = reference_plaid_funnel(
                query.data, plaid_index.centroids, plaid_index.codes, plaid_index.row_offsets,
                corpus.doc_ids, matrices, 4, 0.0, k, k)
            skip, batch = (k, k), (k, len(corpus))
            assert len(plaid_candidates(plaid_index, query).candidates) >= 2 * k
        else:
            if backend == "exact":
                ordinals, search = range(len(corpus)), lambda k, _: exact_search(corpus, query, k)
            else:
                ordinals = ivf_candidates(ivf_index, query)
                search = lambda k, _: ivf_search(ivf_index, query, k)
            assert len(ordinals) >= 2
            k = len(ordinals) // 2 + 1
            want = full_rescore(query.data, matrices, corpus.doc_ids, ordinals, k)
            skip, batch = (k, k), (len(ordinals) // 2, k)
        with monkeypatch.context() as patch:
            patch.setattr(core, "batched_scores", _no_batch)
            assert _hexed(search(*skip)) == _hexed_pairs(want)
            with pytest.raises(AssertionError, match="batched pass"):
                search(*batch)


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
    banded = 0
    for query in queries:
        for nprobe in (1, 8, nlist):
            candidates = loop_ivf_candidates(built.centroids, built.assignments, corpus.vectors,
                                             corpus.offsets, query.data, nprobe, cap)
            for k in (1, 10, 30):
                want = _hexed_pairs(full_rescore(query.data, matrices, corpus.doc_ids,
                                                 candidates, k))
                for index in (built, loaded):
                    assert _hexed(ivf_search(index, query, k, nprobe=nprobe)) == want
                banded += len(candidates) >= 2 * k
    assert banded


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
    banded = 0
    for query in queries:
        for k in (1, 10, 100):
            for ndocs in (k, 256):
                want = _hexed_pairs(reference_plaid_funnel(
                    query.data, built.centroids, built.codes, built.row_offsets,
                    built.doc_ids, matrices, 4, 0.0, ndocs, k))
                for index in indexes:
                    assert _hexed(plaid_search(index, query, k, ndocs=ndocs)) == want
                banded += min(ndocs, len(plaid_candidates(built, query).candidates)) >= 2 * k
    assert banded


def test_backends_make_fewer_than_2k_canonical_calls_per_query(acceptance_data, monkeypatch):
    corpus, queries, _ = acceptance_data
    ivf_index = build_ivf(corpus, IvfConfig(nlist=128, nprobe=8, seed=7))
    plaid_index = build_plaid(corpus, PlaidConfig(num_centroids=256, ncells=4, ndocs=256,
                                                  centroid_score_threshold=0.4, seed=7))
    counts = _counting_score_docs(monkeypatch)
    for search in (lambda q: ivf_search(ivf_index, q, 100),
                   lambda q: plaid_search(plaid_index, q, 100)):
        counts.clear()
        for query in queries.values():
            assert len(search(query)) == 100
        assert len(counts) == len(queries)
        assert 100 <= min(counts) and max(counts) < 2 * 100


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
def test_top_k_refuses_ordinals_outside_the_corpus(k, ordinals, monkeypatch):
    # k = 5 leaves fewer than 2 * k ordinals, so they would go straight to
    # score_docs; k = 1 would take the batched pass, which must not run first.
    rng = np.random.default_rng(29)
    corpus = _scaled_corpus(rng, 50, 8)
    query = random_unit_matrix(rng, 3, 8)
    monkeypatch.setattr(core, "batched_scores", _no_batch)
    with pytest.raises(UnknownDoc, match=r"\[0, 50\)"):
        top_k(corpus, query, k, np.array(ordinals))


def _assert_bit_equal(store, query, ordinals):
    want = [(store.doc_ids[o], maxsim_score(query, store.doc_matrix(o))) for o in ordinals]
    assert _hexed_pairs(score_docs(store, query, ordinals)) == _hexed_pairs(want)


def test_score_docs_has_the_bits_of_maxsim_score():
    rng = np.random.default_rng(30)
    mixed = _scaled_corpus(rng, 30, 128, rows=(1, 64))
    everything = list(range(len(mixed)))
    # Query row counts across numpy's pairwise-summation blocks, 1-row queries
    # (a vector operand takes another BLAS routine) included.
    for nq in range(1, 301):
        _assert_bit_equal(mixed, random_unit_matrix(rng, nq, 128), everything)
    query = random_unit_matrix(rng, 11, 128)
    for ordinals in (everything[::-1], rng.permutation(len(mixed)).tolist(), [7, 7, 3], []):
        _assert_bit_equal(mixed, query, ordinals)

    one_row = _scaled_corpus(rng, 20, 128, rows=(1, 1))
    for nq in (1, 2, 9):
        _assert_bit_equal(one_row, random_unit_matrix(rng, nq, 128), range(20))


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

    # Every doc of the pooled corpus has C rows, so it is one stacked product.
    corpus, queries, _ = planted_small
    stores = [core.pool_corpus(corpus, 4),
              Corpus(corpus.doc_ids, corpus.vectors.astype(np.float16), corpus.offsets,
                     dtype="float16")]
    stores += [build_plaid(corpus, PlaidConfig(num_centroids=16, residual_bits=bits, seed=3))
               for bits in (1, 2)]
    for store in stores:
        for query in list(queries.values())[:3]:
            _assert_bit_equal(store, query, rng.permutation(len(corpus)).tolist())
