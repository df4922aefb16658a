import logging
import math

import pytest

from latebench import (
    MetricSpec,
    Qrels,
    RankedList,
    RunFile,
    evaluate_run,
    mrr_at_k,
    ndcg_at_k,
    recall_at_k,
)
from latebench.core import ScoredDoc
from latebench.errors import QueryMissingFromQrels

from reference_metrics import ref_evaluate


def _run(per_query, tag="test"):
    """per_query: {qid: [doc ids best first]} with synthetic descending scores."""
    lists = []
    for qid, docs in per_query.items():
        hits = tuple(ScoredDoc(d, float(len(docs) - i)) for i, d in enumerate(docs))
        lists.append(RankedList(query_id=qid, hits=hits))
    return RunFile.from_ranked_lists(lists, tag=tag)


def test_mrr_rank_one():
    run = _run({"q1": ["dA", "dB"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1)])
    assert mrr_at_k(run, qrels, 10).aggregate == 1.0


def test_mrr_relevant_beyond_cutoff_scores_zero():
    run = _run({"q1": [f"d{i}" for i in range(11)]})
    qrels = Qrels.from_pairs([("q1", "d10", 1)])
    assert mrr_at_k(run, qrels, 10).aggregate == 0.0


def test_mrr_three_query_fixture():
    run = _run({
        "q1": ["dA", "dX"],
        "q2": ["dX", "dY", "dZ", "dB"],
        "q3": ["dX", "dY"],
    })
    qrels = Qrels.from_pairs([("q1", "dA", 1), ("q2", "dB", 1), ("q3", "dC", 1)])
    report = mrr_at_k(run, qrels, 10)
    assert report.aggregate == pytest.approx((1 + 0.25 + 0) / 3)
    assert report.per_query == {"q1": 1.0, "q2": 0.25, "q3": 0.0}


def test_recall_single_relevant_at_cutoff():
    run = _run({"q1": [f"d{i}" for i in range(10)]})
    qrels = Qrels.from_pairs([("q1", "d9", 1)])
    assert recall_at_k(run, qrels, 10).aggregate == 1.0


def test_recall_half():
    run = _run({"q1": ["dA", "dX"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1), ("q1", "dB", 1)])
    assert recall_at_k(run, qrels, 10).aggregate == 0.5


def test_recall_known_item_fixture():
    # one relevant per query: recall == fraction of queries with the target found
    run = _run({
        "q1": ["t1"], "q2": ["x", "t2"], "q3": ["x"], "q4": ["t4"], "q5": ["x", "y"],
    })
    qrels = Qrels.from_pairs([(f"q{i}", f"t{i}", 1) for i in range(1, 6)])
    report = recall_at_k(run, qrels, 10)
    assert report.aggregate == pytest.approx(3 / 5)


def test_recall_skips_queries_without_positives():
    run = _run({"q1": ["dA"], "q2": ["dB"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1), ("q2", "dB", 0)])
    report = recall_at_k(run, qrels, 10)
    assert report.query_count == 1
    assert "q2" not in report.per_query


def test_ndcg_perfect_ordering():
    run = _run({"q1": ["dA", "dB", "dC"]})
    qrels = Qrels.from_pairs([("q1", "dA", 3), ("q1", "dB", 2), ("q1", "dC", 1)])
    assert ndcg_at_k(run, qrels, 10).aggregate == pytest.approx(1.0)


def test_ndcg_single_relevant_at_rank_two():
    run = _run({"q1": ["dX", "dA"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1)])
    assert ndcg_at_k(run, qrels, 10).aggregate == pytest.approx(1 / math.log2(3))


def test_ndcg_all_unjudged_is_zero():
    run = _run({"q1": ["dX", "dY"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1)])
    assert ndcg_at_k(run, qrels, 10).aggregate == 0.0


def test_ndcg_zero_when_idcg_zero():
    run = _run({"q1": ["dA"]})
    qrels = Qrels.from_pairs([("q1", "dA", 0)])
    assert ndcg_at_k(run, qrels, 10).aggregate == 0.0


def test_evaluate_run_composition():
    run = _run({"q1": ["dA", "dB"], "q2": ["dX", "dB"]})
    qrels = Qrels.from_pairs([("q1", "dA", 2), ("q2", "dB", 1)])
    specs = [MetricSpec("mrr", 10), MetricSpec("recall", 1000), MetricSpec("ndcg", 10)]
    combined = evaluate_run(run, qrels, specs)
    assert combined["MRR@10"].aggregate == mrr_at_k(run, qrels, 10).aggregate
    assert combined["Recall@1000"].aggregate == recall_at_k(run, qrels, 1000).aggregate
    assert combined["nDCG@10"].aggregate == ndcg_at_k(run, qrels, 10).aggregate


def test_empty_run_gives_zero_aggregates():
    run = RunFile(tag="empty", rankings={})
    qrels = Qrels.from_pairs([("q1", "dA", 1)])
    combined = evaluate_run(run, qrels)
    assert all(report.aggregate == 0.0 for report in combined.values())


def test_query_in_run_but_not_qrels_skipped_or_strict():
    run = _run({"q1": ["dA"], "mystery": ["dB"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1)])
    assert mrr_at_k(run, qrels, 10).aggregate == 1.0
    with pytest.raises(QueryMissingFromQrels):
        evaluate_run(run, qrels, (MetricSpec("mrr", 10),), strict=True)


def test_evaluate_run_warns_once_about_unjudged_queries(caplog):
    run = _run({"q1": ["dA"], "mystery": ["dB"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1)])
    with caplog.at_level(logging.WARNING, logger="latebench.metrics"):
        reports = evaluate_run(run, qrels)
    assert len(reports) == 3
    assert all(report.aggregate == 1.0 for report in reports.values())
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "no judgments" in warnings[0].getMessage()
    with pytest.raises(QueryMissingFromQrels):
        evaluate_run(run, qrels, strict=True)


def test_metrics_invariant_under_monotone_score_transform():
    base = _run({"q1": ["dA", "dB", "dC"]})
    rescaled = RunFile.from_ranked_lists(
        [RankedList(
            query_id="q1",
            hits=tuple(ScoredDoc(h.doc_id, h.score * 7.5 + 3) for h in base.ranking("q1").hits),
        )],
        tag="scaled",
    )
    qrels = Qrels.from_pairs([("q1", "dB", 2), ("q1", "dC", 1)])
    for spec in (MetricSpec("mrr", 10), MetricSpec("recall", 10), MetricSpec("ndcg", 10)):
        a = evaluate_run(base, qrels, [spec])[str(spec)].aggregate
        b = evaluate_run(rescaled, qrels, [spec])[str(spec)].aggregate
        assert a == b


def test_cutoff_monotonicity():
    run = _run({"q1": ["x1", "x2", "dA"], "q2": ["dB", "x3"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1), ("q2", "dB", 1)])
    for metric in (mrr_at_k, recall_at_k):
        values = [metric(run, qrels, k).aggregate for k in (1, 2, 3, 5)]
        assert values == sorted(values)


def test_per_query_values_independent():
    run = _run({"q1": ["dA"], "q2": ["dB"], "q3": ["x"]})
    qrels = Qrels.from_pairs([("q1", "dA", 1), ("q2", "dB", 1), ("q3", "dC", 1)])
    full = mrr_at_k(run, qrels, 10)
    smaller = Qrels.from_pairs([("q1", "dA", 1), ("q3", "dC", 1)])
    partial = mrr_at_k(run, smaller, 10)
    for qid in ("q1", "q3"):
        assert full.per_query[qid] == partial.per_query[qid]


def test_parity_with_reference_script_on_graded_fixture():
    per_query = {
        "q1": ["dA", "dB", "dX", "dY"],
        "q2": ["dX", "dY", "dZ", "dD"],
        "q3": ["dF", "dX", "dE", "dG"],
        "q4": [f"f{i}" for i in range(52)] + ["dI"],
        "q5": ["dJ", "dK"],
    }
    run = _run(per_query)
    qrels_pairs = [
        ("q1", "dA", 2), ("q1", "dB", 1), ("q1", "dC", 0),
        ("q2", "dD", 1),
        ("q3", "dE", 3), ("q3", "dF", 2), ("q3", "dG", 1),
        ("q4", "dH", 1), ("q4", "dI", 1),
        ("q5", "dJ", 0),
    ]
    qrels = Qrels.from_pairs(qrels_pairs)
    ref_qrels = {}
    for qid, doc, grade in qrels_pairs:
        ref_qrels.setdefault(qid, {})[doc] = grade
    for name, k in (("mrr", 10), ("recall", 50), ("recall", 1000), ("ndcg", 10)):
        ours = evaluate_run(run, qrels, [MetricSpec(name, k)])[str(MetricSpec(name, k))]
        ref_per_query, ref_mean = ref_evaluate(per_query, ref_qrels, name, k)
        assert ours.aggregate == pytest.approx(ref_mean, abs=1e-6)
        assert set(ours.per_query) == set(ref_per_query)
        for qid, value in ref_per_query.items():
            assert ours.per_query[qid] == pytest.approx(value, abs=1e-6)


def test_metric_spec_parsing():
    assert MetricSpec.parse("mrr@10") == MetricSpec("mrr", 10)
    assert MetricSpec.parse("Recall@50") == MetricSpec("recall", 50)
    assert str(MetricSpec.parse("ndcg@10")) == "nDCG@10"
    with pytest.raises(ValueError):
        MetricSpec.parse("mrr")
    with pytest.raises(ValueError):
        MetricSpec.parse("map@10")
