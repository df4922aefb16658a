import dataclasses
from functools import partial

import numpy as np
import pytest

from latebench import core
from latebench import (
    Corpus,
    TokenMatrix,
    exact_search,
    maxsim_score,
    pool_corpus,
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
from oracles import (
    chunk_mean_pool,
    loop_pool_fixed,
    per_doc_validate,
    sum_of_maxima,
    triple_loop_maxsim,
    two_pass_validate_matrix,
)


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


def _one_pass_cases():
    """(name, matrix) pairs: clean, NaN, +-Inf, off norm by a hair or far,
    huge and subnormal entries, zero rows, and an off-norm row before a
    non-finite one, where NonFinite must still win."""
    rng = np.random.default_rng(8)
    clean = random_unit_matrix(rng, 40, 16).data
    tol = core.NORM_TOLERANCE["float32"]

    def planted(*edits):
        data = clean.copy()
        for row, col, value in edits:
            if col is None:
                data[row] *= np.float32(value)
            else:
                data[row, col] = value
        return data

    return [
        ("clean", clean),
        ("nan", planted((17, 3, np.nan))),
        ("inf", planted((0, 15, np.inf))),
        ("minus-inf", planted((39, 0, -np.inf))),
        ("off-then-nan", planted((2, None, 1.5), (30, 1, np.nan))),
        ("nan-then-off", planted((30, 1, np.nan), (31, None, 0.5))),
        ("off-far", planted((5, None, 3.0), (6, None, 0.1))),
        ("off-by-a-hair", planted((9, None, 1 + 2 * tol), (10, None, 1 + tol / 2))),
        ("huge", planted((12, 4, np.finfo(np.float32).max))),
        ("subnormal", planted((13, None, 1e-42))),
        ("zero-row", planted((14, None, 0.0))),
        ("zero-dim", np.zeros((3, 0), dtype=np.float32)),
    ]


ONE_PASS_CASES = dict(_one_pass_cases())


@pytest.mark.parametrize("name", ONE_PASS_CASES)
@pytest.mark.parametrize("norm_tol", list(core.NORM_TOLERANCE.values()))
def test_one_pass_validate_matrix_equals_the_two_pass_check(name, norm_tol):
    m = TokenMatrix(ONE_PASS_CASES[name])
    assert _check_outcome(partial(validate_matrix, m, norm_tol)) == _check_outcome(
        partial(two_pass_validate_matrix, m, norm_tol))


def _check_outcome(check) -> tuple | None:
    """What `check()` raises: type, message, row, col and norm bits; None if nothing."""
    try:
        check()
    except (EmptyMatrix, NonFinite, NotNormalized) as exc:
        norm = getattr(exc, "norm", None)
        return (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None),
                None if norm is None else float(norm).hex())
    return None


def _validation_corpus():
    """~10k rows over 500 docs of 5-35 rows, dim 16: three BLOCK_ROWS blocks,
    with a doc on each side of every block boundary."""
    rng = np.random.default_rng(31)
    rows = rng.integers(5, 36, 500)
    offsets = np.concatenate([[0], np.cumsum(rows)])
    vectors = random_unit_matrix(rng, int(offsets[-1]), 16).data.copy()
    return tuple(f"d{i}" for i in range(len(rows))), vectors, offsets


def _doc_row(offsets, row):
    """(doc, row within it) of a flat row."""
    doc = int(np.searchsorted(offsets, row, "right")) - 1
    return doc, row - int(offsets[doc])


def test_blockwise_validate_matches_the_per_doc_loop():
    ids, clean, offsets = _validation_corpus()
    edge = core.BLOCK_ROWS
    straddler, _ = _doc_row(offsets, edge)
    assert offsets[straddler] < edge and 2 * edge < offsets[-1]
    # (flat row, col, value, or None to scale the row off norm), in no doc order:
    # NaN, Inf and off-norm rows in several docs. The straddling doc is off norm
    # in the first block and not finite in the second, and another doc is off
    # norm before its NaN row: within a doc NonFinite still comes first.
    last = int(offsets[-2])
    plants = [
        (last + 1, 3, np.nan),
        (2 * edge + 5, 0, None),
        (edge - 1, 7, None), (edge + 1, 2, np.inf),
        (int(offsets[40]), 1, None), (int(offsets[40]) + 2, 9, np.nan),
        (int(offsets[300]) + 4, 15, -np.inf),
        (int(offsets[7]) + 3, 0, None),
    ]
    assert _doc_row(offsets, edge - 1)[0] == _doc_row(offsets, edge + 1)[0] == straddler
    bad_docs = sorted({_doc_row(offsets, row)[0] for row, _, _ in plants})
    # Mend the first bad doc in doc order, one at a time, until none is left.
    outcomes = []
    for mended in range(len(bad_docs) + 1):
        vectors = clean.copy()
        for row, col, value in plants:
            if _doc_row(offsets, row)[0] not in bad_docs[mended:]:
                continue
            if value is None:
                vectors[row] *= np.float32(1.01)
            else:
                vectors[row, col] = value
        corpus = Corpus(ids, vectors, offsets)
        outcome = _check_outcome(corpus.validate)
        assert outcome == _check_outcome(partial(per_doc_validate, corpus, validate_matrix))
        outcomes.append(outcome)
    assert outcomes[-1] is None
    assert [o[1].partition(":")[0] for o in outcomes[:-1]] == [f"doc 'd{d}'" for d in bad_docs]
    assert [o[0].__name__ for o in outcomes[:-1]] == [
        "NotNormalized", "NonFinite", "NonFinite", "NonFinite", "NotNormalized", "NonFinite"]
    assert bad_docs[2] == straddler and outcomes[2][2] == _doc_row(offsets, edge + 1)[1]


def test_blockwise_validate_reads_the_dtype_tolerance():
    ids, vectors, offsets = _validation_corpus()
    vectors[2 * core.BLOCK_ROWS + 11] *= np.float32(1.001)  # off by 1e-3
    loose = Corpus(ids, vectors, offsets, dtype="float16")
    loose.validate()
    per_doc_validate(loose, validate_matrix)
    tight = Corpus(ids, vectors, offsets)
    outcome = _check_outcome(tight.validate)
    assert outcome[0] is NotNormalized
    assert outcome == _check_outcome(partial(per_doc_validate, tight, validate_matrix))


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


def _hexed(ranked):  # NaN != NaN, so compare exact bit patterns
    return [(hit.doc_id, hit.score.hex()) for hit in ranked.hits]


def test_top_k_reads_only_what_the_ceilings_leave(monkeypatch):
    # A later ordinal is read only when its ceiling is not below the least
    # score of the first k; with ceilings at or above every score the list is
    # the uncut one, bit for bit, and a NaN among the first k reads all. Doc i
    # has doc i % 12's rows, so equal scores straddle every floor.
    rng = np.random.default_rng(29)
    shapes = [random_unit_matrix(rng, 1 + i % 5, 16).data for i in range(12)]
    corpus = Corpus.build({f"d{i:02d}": TokenMatrix(shapes[i % 12]) for i in range(40)})
    query = random_unit_matrix(rng, 4, 16)
    scores = np.array([maxsim_score(query, corpus.doc_matrix(o)) for o in range(40)])
    reads, original = [], Corpus.doc_matrix
    monkeypatch.setattr(Corpus, "doc_matrix", lambda c, o: reads.append(o) or original(c, o))
    k, below, tied = 5, 0, 0
    orders = [rng.permutation(40) for _ in range(8)] + [np.argsort(-scores, kind="stable")]
    for ordinals in orders:
        uncut = _hexed(core.top_k(corpus, query, k, ordinals))
        later, floor = scores[ordinals[k:]], scores[ordinals[:k]].min()
        below, tied = below + (later < floor).sum(), tied + (later == floor).sum()
        for ceilings in (later, np.nextafter(later, np.inf), later + 1.0,
                         np.full(len(later), np.inf), np.where(later < floor, later, np.inf)):
            reads.clear()
            assert _hexed(core.top_k(corpus, query, k, ordinals, ceilings=ceilings)) == uncut
            assert sorted(reads) == sorted([*ordinals[:k], *ordinals[k:][ceilings >= floor]])
    # Sorted best first, every doc after the k-th but the floor's copies is skipped.
    assert below > 40 and tied > 8 and len(reads) < 10
    broken = corpus.vectors.copy()
    broken[corpus.offsets[ordinals[0]], 0] = np.nan
    nan_corpus = Corpus(corpus.doc_ids, broken, corpus.offsets)
    uncut = _hexed(core.top_k(nan_corpus, query, k, ordinals))
    reads.clear()
    got = core.top_k(nan_corpus, query, k, ordinals, ceilings=np.full(40 - k, -np.inf))
    assert _hexed(got) == uncut and sorted(reads) == list(range(40))


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


def _pool_one(doc, C):
    """One matrix pooled the way a library caller pools it."""
    return pool_corpus(Corpus.build({"d": doc}), C).docs["d"]


def test_pool_identity_when_rows_equal_C():
    rng = np.random.default_rng(4)
    doc = random_unit_matrix(rng, 32, 16)
    pooled = _pool_one(doc, 32)
    assert np.array_equal(pooled.data, doc.data)


def test_pool_constant_rows_give_constant_slots():
    doc = TokenMatrix(np.tile(basis_matrix([0], dim=8).data, (5, 1)))
    for C in (1, 3, 8):
        pooled = _pool_one(doc, C)
        assert pooled.rows == C
        assert np.array_equal(pooled.data, np.tile(doc.data[:1], (C, 1)))


def test_pool_matches_chunk_mean_oracle():
    rng = np.random.default_rng(5)
    doc = random_unit_matrix(rng, 64, 16)
    pooled = _pool_one(doc, 32)
    expected = chunk_mean_pool(doc.data, 32)
    assert pooled.data == pytest.approx(expected, abs=1e-6)


def test_pool_uneven_chunks_match_oracle():
    rng = np.random.default_rng(6)
    doc = random_unit_matrix(rng, 23, 8)
    pooled = _pool_one(doc, 7)
    expected = chunk_mean_pool(doc.data, 7)
    assert pooled.data == pytest.approx(expected, abs=1e-6)


def test_pool_cycles_short_docs():
    doc = basis_matrix([0, 1, 2], dim=8)
    pooled = _pool_one(doc, 5)
    expected = chunk_mean_pool(doc.data, 5)
    assert pooled.rows == 5
    assert pooled.data == pytest.approx(expected, abs=1e-6)


def test_pool_output_always_valid_unit_rows():
    rng = np.random.default_rng(7)
    for rows in (1, 5, 31, 33, 70):
        doc = random_unit_matrix(rng, rows, 12)
        pooled = _pool_one(doc, 32)
        assert pooled.rows == 32
        validate_matrix(pooled)


def test_pool_corpus_checks_each_document_once_at_its_own_tolerance(monkeypatch):
    # A row norm off by 1e-3 lies between float32's tolerance and float16's.
    assert core.NORM_TOLERANCE["float32"] < 1e-3 < core.NORM_TOLERANCE["float16"]
    rng = np.random.default_rng(12)
    docs = {f"d{i}": random_unit_matrix(rng, 3 + i % 7, 16) for i in range(50)}
    # A valid corpus is screened once as a whole, never one matrix at a time.
    calls = []
    monkeypatch.setattr(core, "validate_matrix", lambda *a, **kw: calls.append(a))
    assert len(pool_corpus(Corpus.build(docs), 4)) == 50 and calls == []
    monkeypatch.undo()
    off = docs["d3"].data.copy()
    off[1] *= np.float32(1 + 1e-3)
    docs["d3"] = TokenMatrix(off)
    corpus = Corpus.build(docs)
    with pytest.raises(NotNormalized, match="^doc 'd3': "):
        pool_corpus(corpus, 4)
    pooled = pool_corpus(dataclasses.replace(corpus, dtype="float16"), 4)
    assert pooled.dtype == "float16" and len(pooled) == 50
    assert np.array_equal(pooled.docs["d3"].data, loop_pool_fixed(off, 4))


@pytest.mark.parametrize("C", [1, 2, 3, 4, 7, 16])
def test_pool_corpus_is_the_per_document_loop_bit_for_bit(C):
    # Docs of 1 to 20 rows (shorter than, equal to and longer than C, in
    # even and uneven chunks) and one whose chunks cancel at C = 1 and 2.
    rng = np.random.default_rng(31)
    docs = {f"d{rows}": random_unit_matrix(rng, rows, 8) for rows in range(1, 21)}
    signs = np.array([[1], [-1], [1], [-1]], dtype=np.float32)
    docs["cancel"] = TokenMatrix(basis_matrix([0, 0, 1, 1]).data * signs)  # e0, -e0, e1, -e1
    pooled = pool_corpus(Corpus.build(docs), C)
    want = np.concatenate([loop_pool_fixed(doc.data, C) for doc in docs.values()])
    assert pooled.vectors.tobytes() == want.tobytes()
    assert pooled.offsets.tolist() == list(range(0, (len(docs) + 1) * C, C))
    assert pooled.doc_ids == tuple(docs) and pooled.C == C
    if C <= 2:  # every chunk of the cancelling doc sums to zero: its first rows survive
        assert pooled.docs["cancel"].data.tolist() == docs["cancel"].data[[0, 2][:C]].tolist()


def test_pool_corpus_refuses_C_below_one(basis_corpus):
    for C in (0, -1):
        with pytest.raises(ValueError, match="C must be >= 1"):
            pool_corpus(basis_corpus, C)


def test_score_all_calls_the_kernel_once_per_doc(basis_corpus, monkeypatch):
    # The bench counts these calls through the module attribute.
    calls = []
    kernel = core.maxsim_score
    monkeypatch.setattr(core, "maxsim_score", lambda q, d: calls.append(d) or kernel(q, d))
    scored = core.score_all(basis_corpus, basis_matrix([1], dim=8))
    assert scored == [("A", 0.0), ("B", 1.0)]
    assert calls == [basis_corpus.docs["A"], basis_corpus.docs["B"]]


def test_ranked_list_forms_are_equal_and_hash_alike():
    hits = (core.ScoredDoc("dA", 2.5), core.ScoredDoc("dB", -0.0))
    forms = [
        core.RankedList("q1", hits),
        core.RankedList(query_id="q1", hits=hits),
        core.RankedList("q1", [("dA", 2.5), ("dB", -0.0)]),
        core.RankedList.from_columns("q1", ("dA", "dB"), (2.5, -0.0)),
        core.RankedList.from_columns("q1", ["dA", "dB"], [2.5, -0.0]),
    ]
    for ranked in forms:
        assert ranked == forms[0] and hash(ranked) == hash(forms[0])
        assert ranked.ids == ("dA", "dB") and ranked.scores == (2.5, -0.0)
        assert ranked.doc_ids() == ("dA", "dB") and len(ranked) == 2
    assert forms[0] != core.RankedList("q2", hits)
    assert forms[0] != core.RankedList("q1", hits[:1])
    assert core.RankedList("q", ()) == core.RankedList.from_columns("q", (), ())


def test_ranked_list_hits_are_scored_docs_made_from_the_columns():
    ranked = core.RankedList.from_columns("q1", ("dA", "dB"), (2.5, 1.0))
    assert all(type(hit) is core.ScoredDoc for hit in ranked.hits)
    assert [(hit.doc_id, hit.score) for hit in ranked.hits] == [("dA", 2.5), ("dB", 1.0)]
    assert ranked.hits == (("dA", 2.5), ("dB", 1.0))


def test_ranked_list_is_frozen_picklable_and_keeps_its_repr():
    import pickle

    ranked = core.RankedList("q1", (core.ScoredDoc("dA", 2.5), core.ScoredDoc("dB", 1.0)))
    for field, value in [("query_id", "q2"), ("ids", ()), ("scores", ()), ("hits", ())]:
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
            setattr(ranked, field, value)
    for field in ("query_id", "ids", "scores"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ranked, field, getattr(ranked, field))
    back = pickle.loads(pickle.dumps(ranked))
    assert back == ranked and hash(back) == hash(ranked)
    assert repr(ranked) == ("RankedList(query_id='q1', hits=(ScoredDoc(doc_id='dA', score=2.5), "
                            "ScoredDoc(doc_id='dB', score=1.0)))")
    assert repr(core.RankedList("q", ())) == "RankedList(query_id='q', hits=())"


def test_ranked_list_columns_must_have_one_length():
    with pytest.raises(ValueError, match="2 doc ids but 1 scores"):
        core.RankedList.from_columns("q1", ("dA", "dB"), (1.0,))


def test_top_k_and_from_scores_fill_the_columns(basis_corpus):
    query = basis_matrix([0], dim=8)
    ranked = exact_search(basis_corpus, query, 2, query_id="q")
    assert ranked == core.RankedList("q", (core.ScoredDoc("A", 1.0), core.ScoredDoc("B", 0.0)))
    assert type(ranked.ids) is tuple and type(ranked.scores) is tuple
    assert all(type(score) is float for score in ranked.scores)
    scored = core.score_all(basis_corpus, query)
    assert core.RankedList.from_scores("q", scored, 2) == ranked
    assert core.RankedList.from_scores("q", [("B", np.float32(0.5)), ("A", 1)], 1).scores == (1.0,)
