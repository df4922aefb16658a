from functools import partial

import numpy as np
import pytest

from latebench import (
    Corpus,
    PlaidConfig,
    SyntheticSpec,
    TokenMatrix,
    build_plaid,
    centroid_coverage,
    compare_runs,
    evaluate_run,
    exact_search,
    generate_synthetic,
    grid_search,
    plaid_search,
    pool_corpus,
    truncation_ablation,
)
from latebench.diagnostics import run_queries
from latebench.errors import EmptyLengths, NoSharedQueries
from latebench.metrics import DEFAULT_SPECS

from conftest import basis_matrix


def _coverage_fixture_index():
    same = TokenMatrix(np.tile(basis_matrix([0], dim=32).data, (32, 1)))
    spread = TokenMatrix(np.eye(32, dtype=np.float32))
    corpus = Corpus.build({"same": same, "spread": spread})
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=2, seed=0)
    return build_plaid(corpus, config)


def test_identical_rows_doc_has_unique_one_and_fraction_3125():
    index = _coverage_fixture_index()
    report = centroid_coverage(index)
    by_id = {doc_id: (rows, unique) for doc_id, rows, unique in report.per_doc}
    rows, unique = by_id["same"]
    assert unique == 1
    assert unique / rows == 0.03125


def test_distinct_cluster_doc_has_full_coverage():
    index = _coverage_fixture_index()
    report = centroid_coverage(index)
    by_id = {doc_id: (rows, unique) for doc_id, rows, unique in report.per_doc}
    rows, unique = by_id["spread"]
    assert unique == 32
    assert unique / rows == 1.0


def test_coverage_reads_every_doc_in_order_and_warns_of_nothing(caplog):
    index = _coverage_fixture_index()
    with caplog.at_level("DEBUG"):
        report = centroid_coverage(index)
    assert not caplog.records
    assert [doc_id for doc_id, _, _ in report.per_doc] == list(index.doc_ids)
    assert report == centroid_coverage(index)
    uniques = [unique for _, _, unique in report.per_doc]
    assert min(uniques) <= report.mean_unique <= max(uniques)


def test_pooled_coverage_strictly_below_unpooled():
    spec = SyntheticSpec(doc_count=150, tokens_per_doc=(64, 64), dim=128, num_concepts=24,
                         queries=5, signal_tokens=4, seed=21)
    corpus, _, _ = generate_synthetic(spec)
    config = PlaidConfig(num_centroids=128, ncells=4, ndocs=150, seed=2)
    unpooled = build_plaid(corpus, config)
    pooled = build_plaid(pool_corpus(corpus, 32), config, centroids=unpooled.centroids)
    cov_unpooled = centroid_coverage(unpooled)
    cov_pooled = centroid_coverage(pooled)
    assert cov_pooled.mean_unique < cov_unpooled.mean_unique


@pytest.fixture(scope="module")
def planted_with_filler():
    spec = SyntheticSpec(doc_count=40, tokens_per_doc=(4, 10), dim=64, num_concepts=12,
                         queries=8, signal_tokens=5, filler_fraction=0.6, seed=17)
    return generate_synthetic(spec)


def test_ablation_noop_when_length_covers_all_rows(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    search = partial(exact_search, corpus)
    longest = max(query.rows for query in queries.values())
    table = truncation_ablation(queries, search, [longest, longest + 50], 20, qrels)
    full_run = run_queries(search, queries, 20)
    reports = evaluate_run(full_run, qrels, DEFAULT_SPECS)
    row, padded = table.rows
    assert row.reports == reports
    assert padded.reports == reports


def test_ablation_single_token_boundary(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    table = truncation_ablation(queries, partial(exact_search, corpus), [1], 20, qrels)
    assert len(table.rows) == 1
    assert table.rows[0].setting == {"length": 1}


def test_ablation_plateau_beyond_signal_length(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    lengths = [5, 6, 8, 12, 100]  # signal length is 5; filler begins after it
    table = truncation_ablation(queries, partial(exact_search, corpus), lengths, 20, qrels)
    first = table.rows[0]
    for row in table.rows[1:]:
        for label, report in row.reports.items():
            assert report.aggregate == pytest.approx(first.reports[label].aggregate, abs=1e-6)


def test_ablation_rejects_bad_lengths(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    search = partial(exact_search, corpus)
    with pytest.raises(EmptyLengths):
        truncation_ablation(queries, search, [], 10, qrels)
    with pytest.raises(ValueError):
        truncation_ablation(queries, search, [10, 10], 10, qrels)
    with pytest.raises(ValueError):
        truncation_ablation(queries, search, [20, 10], 10, qrels)


def test_grid_emits_full_sorted_table(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=40, seed=1))
    result = grid_search(index, queries, qrels, [4, 8, 16, 32, 64], [0.3, 0.4, 0.5],
                         ndocs=40, k=20)
    assert len(result.rows) == 15
    keys = [(row.setting["threshold"], row.setting["ncells"]) for row in result.rows]
    assert keys == sorted(keys)
    assert all(row.setting["ndocs"] == 40 for row in result.rows)


def test_grid_rejects_repeated_settings(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=40, seed=1))
    with pytest.raises(ValueError, match="repeat"):
        grid_search(index, queries, qrels, [4, 4], [0.3], ndocs=40, k=20)
    with pytest.raises(ValueError, match="repeat"):
        grid_search(index, queries, qrels, [4], [0.4, 0.3, 0.4], ndocs=40, k=20)


def test_degenerate_single_cell_grid_equals_direct_search(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=40, seed=1))
    result = grid_search(index, queries, qrels, [8], [0.3], ndocs=40, k=20)
    search = partial(plaid_search, index, ncells=8, threshold=0.3, ndocs=40)
    run = run_queries(search, queries, 20)
    reports = evaluate_run(run, qrels, DEFAULT_SPECS)
    (row,) = result.rows
    assert row.setting == {"threshold": 0.3, "ncells": 8, "ndocs": 40}
    assert row.reports == reports


def test_grid_recall_non_decreasing_in_ncells(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=40, seed=1))
    result = grid_search(index, queries, qrels, [1, 2, 4, 8], [0.3], ndocs=40, k=20)
    recalls = [row.reports["Recall@1000"].aggregate for row in result.rows]
    assert recalls == sorted(recalls)


def test_compare_identical_runs(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    run = run_queries(partial(exact_search, corpus), queries, 10)
    report = compare_runs(run, run, qrels, 10)
    assert report.mean_overlap == 1.0
    assert all(delta == 0.0 for delta in report.metric_deltas.values())


def test_compare_disjoint_topk():
    from latebench.core import RankedList, ScoredDoc
    from latebench.trec import Qrels, RunFile

    run_a = RunFile.from_ranked_lists(
        [RankedList(query_id="q1", hits=(ScoredDoc("dA", 2.0), ScoredDoc("dB", 1.0)))], tag="a"
    )
    run_b = RunFile.from_ranked_lists(
        [RankedList(query_id="q1", hits=(ScoredDoc("dC", 2.0), ScoredDoc("dD", 1.0)))], tag="b"
    )
    qrels = Qrels.from_pairs([("q1", "dA", 1)])
    report = compare_runs(run_a, run_b, qrels, 2)
    assert report.per_query_overlap["q1"] == 0.0


def test_compare_deltas_match_individual_reports(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=40, seed=1))
    oracle_run = run_queries(partial(exact_search, corpus), queries, 20)
    plaid_run = run_queries(partial(plaid_search, index, threshold=0.5), queries, 20)
    report = compare_runs(oracle_run, plaid_run, qrels, 20)
    for spec in DEFAULT_SPECS:
        label = str(spec)
        expected = (
            evaluate_run(oracle_run, qrels, [spec])[label].aggregate
            - evaluate_run(plaid_run, qrels, [spec])[label].aggregate
        )
        assert report.metric_deltas[label] == pytest.approx(expected, abs=1e-12)


def test_compare_deltas_antisymmetric_under_swap(planted_with_filler):
    corpus, queries, qrels = planted_with_filler
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=40, seed=1))
    run_a = run_queries(partial(exact_search, corpus), queries, 20)
    run_b = run_queries(partial(plaid_search, index, threshold=0.5), queries, 20)
    forward = compare_runs(run_a, run_b, qrels, 20)
    backward = compare_runs(run_b, run_a, qrels, 20)
    for label, delta in forward.metric_deltas.items():
        assert backward.metric_deltas[label] == pytest.approx(-delta, abs=1e-12)
    assert forward.per_query_overlap == backward.per_query_overlap


@pytest.mark.parametrize("k", [0, -1])
def test_compare_rejects_k_below_one(planted_with_filler, k):
    corpus, queries, qrels = planted_with_filler
    run = run_queries(partial(exact_search, corpus), queries, 10)
    with pytest.raises(ValueError, match="k must be >= 1"):
        compare_runs(run, run, qrels, k)


def test_compare_requires_shared_queries():
    from latebench.core import RankedList, ScoredDoc
    from latebench.trec import Qrels, RunFile

    run_a = RunFile.from_ranked_lists(
        [RankedList(query_id="q1", hits=(ScoredDoc("dA", 1.0),))], tag="a"
    )
    run_b = RunFile.from_ranked_lists(
        [RankedList(query_id="q2", hits=(ScoredDoc("dA", 1.0),))], tag="b"
    )
    with pytest.raises(NoSharedQueries):
        compare_runs(run_a, run_b, Qrels.from_pairs([("q1", "dA", 1)]), 5)
