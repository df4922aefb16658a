import dataclasses

import numpy as np
import pytest

from latebench import core
from latebench import (
    Corpus,
    TokenMatrix,
    exact_search,
    maxsim_score,
    pool_corpus,
    pool_fixed,
    validate_matrix,
)
from latebench.errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyMatrix,
    NonFinite,
    NotNormalized,
)

from conftest import basis_matrix, random_unit_matrix
from oracles import chunk_mean_pool, sum_of_maxima, triple_loop_maxsim


def test_validate_accepts_unit_basis_vector():
    validate_matrix(basis_matrix([0], dim=4))


def test_validate_rejects_unnormalized_row():
    m = TokenMatrix(np.array([[1.0, 1.0, 0.0, 0.0]], dtype=np.float32))
    with pytest.raises(NotNormalized) as exc:
        validate_matrix(m)
    assert exc.value.row == 0
    assert exc.value.norm == pytest.approx(2 ** 0.5, abs=1e-6)


def test_validate_rejects_empty_matrix():
    m = TokenMatrix(np.zeros((0, 128), dtype=np.float32))
    with pytest.raises(EmptyMatrix):
        validate_matrix(m)


def test_validate_rejects_nan_with_position():
    data = np.eye(3, dtype=np.float32)
    data[1, 2] = np.nan
    with pytest.raises(NonFinite) as exc:
        validate_matrix(TokenMatrix(data))
    assert (exc.value.row, exc.value.col) == (1, 2)


def test_maxsim_identical_unit_vectors():
    e1 = basis_matrix([0], dim=4)
    assert maxsim_score(e1, e1) == pytest.approx(1.0)


def test_maxsim_orthogonal_rows_sum():
    q = basis_matrix([0, 1], dim=4)
    d = basis_matrix([0], dim=4)
    assert maxsim_score(q, d) == pytest.approx(1.0)


def test_maxsim_both_query_rows_matched():
    q = basis_matrix([0, 1], dim=4)
    d = basis_matrix([0, 1, 2], dim=4)
    assert maxsim_score(q, d) == pytest.approx(2.0)


def test_maxsim_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        maxsim_score(basis_matrix([0], dim=4), basis_matrix([0], dim=8))


def test_maxsim_agrees_with_triple_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        q = random_unit_matrix(rng, 5, 16)
        d = random_unit_matrix(rng, 8, 16)
        assert maxsim_score(q, d) == pytest.approx(
            triple_loop_maxsim(q.data, d.data), abs=1e-5
        )


def test_maxsim_is_bit_identical_to_the_sum_of_row_maxima():
    # The kernel calls the ufunc reductions np.sum and ndarray.max dispatch
    # to; every score must keep the bits the wrapped calls give, across
    # numpy's pairwise-summation block sizes.
    rng = np.random.default_rng(27)
    shapes = [(nq, int(rng.integers(1, 65))) for nq in range(1, 301)]
    shapes += [(int(rng.integers(1, 301)), rows) for rows in range(1, 65)]
    for nq, rows in shapes:
        query = TokenMatrix(random_unit_matrix(rng, nq, 128).data
                            * rng.uniform(0.5, 3.0, size=(nq, 1)))
        doc = random_unit_matrix(rng, rows, 128)
        assert maxsim_score(query, doc).hex() == sum_of_maxima(query.data, doc.data).hex()


def test_maxsim_bounded_by_query_rows():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = random_unit_matrix(rng, 7, 12)
        d = random_unit_matrix(rng, 9, 12)
        assert maxsim_score(q, d) <= 7 + 1e-6


def test_maxsim_equals_rows_iff_every_query_row_present():
    q = basis_matrix([0, 1, 2], dim=8)
    d = basis_matrix([2, 1, 0, 3], dim=8)
    assert maxsim_score(q, d) == pytest.approx(3.0)


def test_maxsim_monotone_in_doc_rows():
    rng = np.random.default_rng(2)
    q = random_unit_matrix(rng, 4, 16)
    d = random_unit_matrix(rng, 6, 16)
    extended = TokenMatrix(np.vstack([d.data, random_unit_matrix(rng, 3, 16).data]))
    assert maxsim_score(q, extended) >= maxsim_score(q, d) - 1e-7


def test_maxsim_appending_query_row_never_decreases_on_nonneg_dots():
    q = basis_matrix([0, 1], dim=8)
    longer = basis_matrix([0, 1, 2], dim=8)
    d = basis_matrix([0, 2], dim=8)
    assert maxsim_score(longer, d) >= maxsim_score(q, d)


def test_exact_search_scores_and_orders(basis_corpus):
    result = exact_search(basis_corpus, basis_matrix([0], dim=8), 2)
    assert [(h.doc_id, h.score) for h in result.hits] == [("A", 1.0), ("B", 0.0)]


def test_exact_search_ties_break_by_doc_id():
    docs = {
        "zeta": basis_matrix([0], dim=4),
        "alpha": basis_matrix([0], dim=4),
    }
    corpus = Corpus.build(docs)
    result = exact_search(corpus, basis_matrix([0], dim=4), 2)
    assert result.doc_ids() == ("alpha", "zeta")


def test_exact_search_invariant_under_permutation():
    rng = np.random.default_rng(3)
    mats = {f"d{i}": random_unit_matrix(rng, 5, 16) for i in range(20)}
    query = random_unit_matrix(rng, 4, 16)
    forward = exact_search(Corpus.build(mats), query, 10)
    shuffled = dict(reversed(list(mats.items())))
    backward = exact_search(Corpus.build(shuffled), query, 10)
    assert forward == backward


def _sorted_best(scores, ties, n):
    """core.best by Python's sorted: descending score, NaN last, ties ascending."""
    def key(i):
        nan = bool(np.isnan(scores[i]))
        return nan, 0.0 if nan else -float(scores[i]), ties[i]
    return sorted(range(len(scores)), key=key)[:n]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_best_matches_a_sorted_oracle(dtype):
    # Few distinct values, so equal scores (NaN, -0.0 and +0.0 among them)
    # straddle every cut and only the distinct ties order them. Unordered,
    # the same positions must come back, as a set.
    pool = np.array([np.nan, -0.0, 0.0, 1.0, -1.0, 0.5, 0.25], dtype=dtype)
    rng = np.random.default_rng(41)
    for size in [0, 1, 2, 3, 5, 8, 13, 30]:
        for _ in range(20):
            scores = pool[rng.integers(len(pool), size=size)]
            ties = rng.permutation(3 * size)[:size]
            for n in range(1, size + 3):
                want = _sorted_best(scores, ties, n)
                assert core.best(scores, ties, n).tolist() == want, (scores, ties, n)
                unordered = core.best(scores, ties, n, ordered=False).tolist()
                assert sorted(unordered) == sorted(want), (scores, ties, n)


def test_exact_search_rejects_empty_and_mismatched(basis_corpus):
    with pytest.raises(DimensionMismatch):
        exact_search(basis_corpus, basis_matrix([0], dim=4), 1)
    with pytest.raises(EmptyCorpus):
        Corpus.build({})


def _corpus_args(**changes):
    """Constructor arguments of a valid two-doc corpus (2 + 3 rows), with changes."""
    rng = np.random.default_rng(8)
    args = dict(
        doc_ids=("a", "b"),
        vectors=random_unit_matrix(rng, 5, 4).data,
        offsets=np.array([0, 2, 5], dtype=np.int64),
    )
    return {**args, **changes}


def test_corpus_counts_come_from_its_arrays():
    corpus = Corpus(**_corpus_args())
    assert (corpus.dim, corpus.total_vectors, len(corpus)) == (4, 5, 2)
    assert (corpus.dtype, corpus.pooling, corpus.C) == ("float32", "none", 0)
    assert [corpus.docs[d].rows for d in corpus.doc_ids] == [2, 3]


@pytest.mark.parametrize("changes, message", [
    pytest.param(dict(doc_ids=("a", "a")), "not unique", id="repeated-id"),
    pytest.param(dict(doc_ids=("a", "")), "is empty", id="empty-id"),
    pytest.param(dict(doc_ids=("a", "b c")), "whitespace", id="whitespace-id"),
    pytest.param(dict(offsets=np.array([0, 5], dtype=np.int64)), "offsets",
                 id="offsets-wrong-length"),
    pytest.param(dict(offsets=np.array([0, 2, 4], dtype=np.int64)), "offsets",
                 id="offsets-short-of-vectors"),
    pytest.param(dict(dtype="bfloat16"), "unknown dtype", id="unknown-dtype"),
    pytest.param(dict(C=-1), "C must be >= 0", id="negative-C"),
    pytest.param(dict(C=2), "doc 'b' has 3 rows, expected C=2", id="pooled-doc-rows-differ-from-C"),
    pytest.param(dict(doc_ids=("a", "b", "c"), offsets=np.array([0, 2, 2, 5], dtype=np.int64)),
                 "doc 'b' has 0 rows", id="zero-row-doc"),
])
def test_corpus_constructor_rejects_structural_faults(changes, message):
    with pytest.raises(ValueError, match=message):
        Corpus(**_corpus_args(**changes))


def test_pooling_is_read_from_C():
    args = _corpus_args(vectors=random_unit_matrix(np.random.default_rng(9), 4, 4).data,
                        offsets=np.array([0, 2, 4], dtype=np.int64))
    assert [Corpus(**args, C=C).pooling for C in (0, 2)] == ["none", "fixed"]


def test_replace_rechecks_the_structure():
    rng = np.random.default_rng(10)
    corpus = Corpus.build({f"d{i}": random_unit_matrix(rng, 3 + i, 8) for i in range(4)})
    pooled = pool_corpus(corpus, 3)
    assert dataclasses.replace(pooled, dtype="float16").dtype == "float16"
    with pytest.raises(ValueError, match="expected C=4"):
        dataclasses.replace(pooled, C=pooled.C + 1)


def test_build_rejects_non_ascii_doc_ids():
    with pytest.raises(ValueError, match="not ASCII"):
        Corpus.build({"d\u00e9": basis_matrix([0], dim=4)})


def test_pool_identity_when_rows_equal_C():
    rng = np.random.default_rng(4)
    doc = random_unit_matrix(rng, 32, 16)
    pooled = pool_fixed(doc, 32)
    assert np.array_equal(pooled.data, doc.data)


def test_pool_constant_rows_give_constant_slots():
    doc = TokenMatrix(np.tile(basis_matrix([0], dim=8).data, (5, 1)))
    for C in (1, 3, 8):
        pooled = pool_fixed(doc, C)
        assert pooled.rows == C
        assert np.array_equal(pooled.data, np.tile(doc.data[:1], (C, 1)))


def test_pool_matches_chunk_mean_oracle():
    rng = np.random.default_rng(5)
    doc = random_unit_matrix(rng, 64, 16)
    pooled = pool_fixed(doc, 32)
    expected = chunk_mean_pool(doc.data, 32)
    assert pooled.data == pytest.approx(expected, abs=1e-6)


def test_pool_uneven_chunks_match_oracle():
    rng = np.random.default_rng(6)
    doc = random_unit_matrix(rng, 23, 8)
    pooled = pool_fixed(doc, 7)
    expected = chunk_mean_pool(doc.data, 7)
    assert pooled.data == pytest.approx(expected, abs=1e-6)


def test_pool_cycles_short_docs():
    doc = basis_matrix([0, 1, 2], dim=8)
    pooled = pool_fixed(doc, 5)
    expected = chunk_mean_pool(doc.data, 5)
    assert pooled.rows == 5
    assert pooled.data == pytest.approx(expected, abs=1e-6)


def test_pool_output_always_valid_unit_rows():
    rng = np.random.default_rng(7)
    for rows in (1, 5, 31, 33, 70):
        doc = random_unit_matrix(rng, rows, 12)
        pooled = pool_fixed(doc, 32)
        assert pooled.rows == 32
        validate_matrix(pooled)


def test_score_all_calls_the_kernel_once_per_doc(basis_corpus, monkeypatch):
    # The bench counts these calls through the module attribute.
    calls = []
    kernel = core.maxsim_score
    monkeypatch.setattr(core, "maxsim_score", lambda q, d: calls.append(d) or kernel(q, d))
    scored = core.score_all(basis_corpus, basis_matrix([1], dim=8))
    assert scored == [("A", 0.0), ("B", 1.0)]
    assert calls == [basis_corpus.docs["A"], basis_corpus.docs["B"]]
