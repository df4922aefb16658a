"""Rank metrics over run files and qrels, trec_eval conventions.

Per-query values are computed for every query present in the qrels; a query
missing from the run simply scores zero (a retrieval failure, not an
evaluation error). Queries found in the run but absent from the qrels are
never read by the metrics; evaluate_run warns about them once, or rejects
them when strict=True. Unjudged retrieved documents count as non-relevant.
DCG uses the raw grade with a 1/log2(rank+1) discount; queries with no
positive judgments are skipped for recall and score zero for MRR and nDCG.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import QueryMissingFromQrels
from .trec import Qrels, RunFile

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MetricSpec:
    name: str
    k: int

    def __post_init__(self):
        if self.name not in _METRICS:
            raise ValueError(f"unknown metric {self.name!r}; expected one of {tuple(_METRICS)}")
        if self.k < 1:
            raise ValueError("cutoff k must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "MetricSpec":
        """Accepts e.g. 'mrr@10', 'Recall@1000', 'nDCG@10'."""
        name, _, cutoff = text.partition("@")
        if not cutoff:
            raise ValueError(f"metric spec {text!r} lacks a cutoff, expected name@k")
        try:
            k = int(cutoff)
        except ValueError:
            raise ValueError(f"metric spec {text!r} has a cutoff that is not an integer, "
                             "expected name@k") from None
        return cls(name=name.strip().lower(), k=k)

    def __str__(self) -> str:
        return f"{_METRICS[self.name][0]}@{self.k}"


@dataclass(frozen=True)
class MetricReport:
    spec: MetricSpec
    per_query: Mapping[str, float]
    aggregate: float
    query_count: int


def _report(spec: MetricSpec, per_query: dict[str, float]) -> MetricReport:
    aggregate = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricReport(
        spec=spec, per_query=per_query, aggregate=aggregate, query_count=len(per_query)
    )


def mrr_at_k(run: RunFile, qrels: Qrels, k: int) -> MetricReport:
    """Reciprocal rank of the first relevant doc within the top k, else 0."""
    per_query: dict[str, float] = {}
    for qid in qrels.query_ids():
        relevant = qrels.relevant(qid)
        value = 0.0
        for position, doc_id in enumerate(run.top_ids(qid, k), start=1):
            if doc_id in relevant:
                value = 1.0 / position
                break
        per_query[qid] = value
    return _report(MetricSpec("mrr", k), per_query)


def recall_at_k(run: RunFile, qrels: Qrels, k: int) -> MetricReport:
    """Fraction of a query's relevant docs retrieved in the top k."""
    per_query: dict[str, float] = {}
    for qid in qrels.query_ids():
        relevant = qrels.relevant(qid)
        if not relevant:
            logger.warning("query %s has no relevant docs; skipped for recall", qid)
            continue
        retrieved = set(run.top_ids(qid, k))
        per_query[qid] = len(relevant & retrieved) / len(relevant)
    return _report(MetricSpec("recall", k), per_query)


def ndcg_at_k(run: RunFile, qrels: Qrels, k: int) -> MetricReport:
    """DCG with raw-grade gains against the ideal ordering of judged docs."""
    per_query: dict[str, float] = {}
    for qid in qrels.query_ids():
        grades = qrels.grades(qid)
        dcg = 0.0
        for position, doc_id in enumerate(run.top_ids(qid, k), start=1):
            dcg += grades.get(doc_id, 0) / math.log2(position + 1)
        idcg = 0.0
        for position, grade in enumerate(sorted(grades.values(), reverse=True)[:k], start=1):
            idcg += grade / math.log2(position + 1)
        per_query[qid] = dcg / idcg if idcg > 0.0 else 0.0
    return _report(MetricSpec("ndcg", k), per_query)


# The one list of metrics: spec name -> (label, function). A report's label is
# `label@k`, and no other module spells one.
_METRICS = {"mrr": ("MRR", mrr_at_k), "recall": ("Recall", recall_at_k),
            "ndcg": ("nDCG", ndcg_at_k)}

DEFAULT_SPECS = (MetricSpec("mrr", 10), MetricSpec("recall", 1000), MetricSpec("ndcg", 10))


def evaluate_run(
    run: RunFile,
    qrels: Qrels,
    specs: Sequence[MetricSpec] = DEFAULT_SPECS,
    strict: bool = False,
) -> dict[str, MetricReport]:
    """Compute every requested metric; keys are the canonical spec labels.

    Run queries missing from the qrels are checked once, here, and the
    metrics get only the judged queries, the only ones they read.
    """
    if not specs:
        raise ValueError("at least one metric spec is required")
    if not run.rankings:
        logger.warning("run is empty; all aggregates will be 0")
    unknown = [qid for qid in run.query_ids() if qid not in qrels]
    if unknown and strict:
        raise QueryMissingFromQrels(f"run queries not judged: {unknown[:5]}")
    if unknown:
        logger.warning("skipping %d run queries with no judgments (e.g. %s)",
                       len(unknown), unknown[0])
    judged = RunFile(run.tag, {qid: r for qid, r in run.rankings.items() if qid in qrels})
    return {str(spec): _METRICS[spec.name][1](judged, qrels, spec.k) for spec in specs}


def report_rows(reports: Mapping[str, MetricReport]) -> list[list[str]]:
    """Per-query table: one row per query id, one column per metric."""
    labels = list(reports)
    query_ids = sorted({qid for report in reports.values() for qid in report.per_query})
    rows = [["query_id", *labels]]
    for qid in query_ids:
        row = [qid]
        for label in labels:
            value = reports[label].per_query.get(qid)
            row.append("-" if value is None else f"{value:.6f}")
        rows.append(row)
    rows.append(["all", *[f"{reports[label].aggregate:.6f}" for label in labels]])
    return rows


def format_table(rows: list[list[str]]) -> str:
    return "\n".join("\t".join(row) for row in rows) + "\n"


def format_aligned(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
