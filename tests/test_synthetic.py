from functools import partial

import numpy as np
import pytest

from latebench import (
    SyntheticSpec,
    exact_search,
    generate_synthetic,
    maxsim_score,
    mrr_at_k,
)
from latebench.diagnostics import run_queries
from latebench.errors import SpecInfeasible
from latebench.core import unit_rows
from latebench.synthetic import _attempt, _verify_planted

from oracles import loop_attempt, loop_unit, loop_verify_planted


def test_planted_target_ranks_first_without_filler():
    spec = SyntheticSpec(doc_count=10, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                         queries=5, signal_tokens=4, filler_fraction=0.0, seed=1)
    corpus, queries, qrels = generate_synthetic(spec)
    run = run_queries(partial(exact_search, corpus), queries, 10)
    assert mrr_at_k(run, qrels, 10).aggregate == 1.0


def test_margin_guarantee_holds(planted_small):
    corpus, queries, qrels = planted_small
    for qid, query in queries.items():
        target = next(iter(qrels.relevant(qid)))
        target_score = maxsim_score(query, corpus.docs[target])
        best_other = max(
            maxsim_score(query, corpus.docs[d]) for d in corpus.doc_ids if d != target
        )
        assert target_score - best_other >= 0.05


def test_same_seed_identical_output():
    spec = SyntheticSpec(doc_count=12, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                         queries=4, signal_tokens=4, filler_fraction=0.3, seed=7)
    a_corpus, a_queries, a_qrels = generate_synthetic(spec)
    b_corpus, b_queries, b_qrels = generate_synthetic(spec)
    assert a_corpus.doc_ids == b_corpus.doc_ids
    for doc_id in a_corpus.doc_ids:
        assert np.array_equal(a_corpus.docs[doc_id].data, b_corpus.docs[doc_id].data)
    for qid in a_queries:
        assert np.array_equal(a_queries[qid].data, b_queries[qid].data)
    assert a_qrels.judgments == b_qrels.judgments


def test_filler_dilution_direction_across_seeds():
    # planted guarantee keeps the oracle at MRR 1.0 on both sides, so the
    # direction holds as a non-strict inequality on matched seeds
    for seed in range(5):
        base = SyntheticSpec(doc_count=12, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                             queries=4, signal_tokens=4, seed=seed)
        diluted = SyntheticSpec(doc_count=12, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                                queries=4, signal_tokens=4, filler_fraction=0.7, seed=seed)
        values = []
        for spec in (diluted, base):
            corpus, queries, qrels = generate_synthetic(spec)
            run = run_queries(partial(exact_search, corpus), queries, 10)
            values.append(mrr_at_k(run, qrels, 10).aggregate)
        assert values[0] <= values[1]


def test_filler_rows_present_at_requested_fraction():
    spec = SyntheticSpec(doc_count=12, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                         queries=4, signal_tokens=10, filler_fraction=0.7, seed=2)
    _, queries, _ = generate_synthetic(spec)
    for query in queries.values():
        assert query.rows == 10 + spec.filler_tokens
    assert spec.filler_tokens == round(10 * 0.7 / 0.3)


def test_output_passes_validation():
    spec = SyntheticSpec(doc_count=12, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                         queries=4, signal_tokens=4, filler_fraction=0.5, seed=3)
    corpus, queries, qrels = generate_synthetic(spec)
    corpus.validate()
    for query in queries.values():
        from latebench import validate_matrix

        validate_matrix(query)
    assert len(qrels) == 4
    for qid in qrels.query_ids():
        assert len(qrels.relevant(qid)) == 1


def test_exact_search_on_filler_corpus_still_finds_targets():
    spec = SyntheticSpec(doc_count=20, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                         queries=6, signal_tokens=4, filler_fraction=0.6, seed=4)
    corpus, queries, qrels = generate_synthetic(spec)
    for qid, query in queries.items():
        top = exact_search(corpus, query, 1, query_id=qid)
        assert top.hits[0].doc_id in qrels.relevant(qid)


def test_generated_corpus_has_not_built_its_row_blocks():
    # The planted check runs exact searches, which cache a row-count copy of
    # every row (Corpus.row_blocks, ~20 MB on the 2,000-doc bench corpus). It
    # ranks on a twin, so a caller holding several generated corpora holds no
    # copy until it searches one.
    spec = SyntheticSpec(doc_count=20, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                         queries=6, signal_tokens=4, filler_fraction=0.3, seed=3)
    corpus, queries, _ = generate_synthetic(spec)
    assert "row_blocks" not in vars(corpus)
    exact_search(corpus, next(iter(queries.values())), 1)
    assert "row_blocks" in vars(corpus)


def test_too_many_docs_for_concepts_is_infeasible():
    with pytest.raises(SpecInfeasible):
        generate_synthetic(SyntheticSpec(doc_count=100, tokens_per_doc=(4, 8), dim=32,
                                         num_concepts=5, queries=4, signal_tokens=4))


def test_too_many_concepts_for_dim_is_infeasible():
    with pytest.raises(SpecInfeasible):
        generate_synthetic(SyntheticSpec(doc_count=10, tokens_per_doc=(4, 8), dim=8,
                                         num_concepts=16, queries=4, signal_tokens=4))


def test_unreachable_margin_fails_loudly():
    spec = SyntheticSpec(doc_count=12, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                         queries=4, signal_tokens=1, margin=5.0, seed=5)
    with pytest.raises(SpecInfeasible):
        generate_synthetic(spec)


def test_spec_field_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(filler_fraction=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(margin=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(tokens_per_doc=(2, 1))
    with pytest.raises(ValueError):
        SyntheticSpec(doc_count=5, queries=6)
    with pytest.raises(ValueError):
        SyntheticSpec(doc_count=1, queries=1, concepts_per_doc=0)


def test_margin_check_decides_like_the_per_doc_loop(planted_small):
    unreachable = SyntheticSpec(doc_count=12, tokens_per_doc=(4, 8), dim=32, num_concepts=8,
                                queries=4, signal_tokens=1, margin=5.0, seed=5)
    unfilled = SyntheticSpec(doc_count=40, tokens_per_doc=(4, 12), dim=32, num_concepts=10,
                             queries=8, signal_tokens=4, seed=3)
    datasets = [_attempt(unreachable, unreachable.seed), _attempt(unfilled, unfilled.seed),
                planted_small]
    for corpus, queries, qrels in datasets:
        gaps = []
        for qid, query in queries.items():
            first, second = exact_search(corpus, query, 2).hits
            target_first = first.doc_id in qrels.relevant(qid)
            gaps.append(first.score - second.score if target_first else -np.inf)
        gap = min(gaps)
        expected = {5.0: False, 0.05: gap >= 0.05}
        if gap > 0:
            # The smallest real gap is the sharp boundary of the check.
            expected.update({gap: True, float(np.nextafter(gap, np.inf)): False})
        for margin, decision in expected.items():
            assert _verify_planted(corpus, queries, qrels, margin) is decision, margin
            assert loop_verify_planted(corpus, queries, qrels, margin) is decision, margin


@pytest.mark.parametrize("dim,num_concepts", [(16, 10), (128, 20)])
@pytest.mark.parametrize("tokens_per_doc", [(3, 11), (6, 6)], ids=["range", "fixed"])
@pytest.mark.parametrize("filler", [0.0, 0.3])
def test_attempt_is_byte_identical_to_the_per_token_loop(dim, num_concepts, tokens_per_doc,
                                                         filler):
    spec = SyntheticSpec(doc_count=40, tokens_per_doc=tokens_per_doc, dim=dim,
                         num_concepts=num_concepts, queries=10, signal_tokens=6,
                         filler_fraction=filler, seed=17)
    corpus, queries, qrels = _attempt(spec, 29)
    want_docs, want_queries, want_pairs = loop_attempt(spec, 29)
    assert corpus.doc_ids == tuple(want_docs)
    for doc_id, rows in want_docs.items():
        assert corpus.docs[doc_id].data.tobytes() == rows.tobytes(), doc_id
    assert list(queries) == list(want_queries)
    for qid, rows in want_queries.items():
        assert queries[qid].data.shape == rows.shape
        assert queries[qid].data.tobytes() == rows.tobytes(), qid
    assert [(qid, doc_id) for qid, doc_id in want_pairs
            if qrels.relevant(qid) == {doc_id}] == want_pairs


@pytest.mark.parametrize("dim", [16, 128])
def test_unit_rows_divide_by_the_single_vector_norm(dim):
    # The float32 corpus hides a last-bit change in a float64 norm almost
    # always, so the float64 rows are compared here; a reduction that sums
    # in another order than np.linalg.norm of one vector differs in ~20 %
    # of rows.
    rows = np.random.default_rng(dim).standard_normal((500, dim))
    want = np.stack([loop_unit(row) for row in rows])
    assert unit_rows(rows).tobytes() == want.tobytes()
