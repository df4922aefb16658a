"""Diagnostic drivers: centroid coverage, query truncation, parameter grids,
and backend agreement.

Each driver is a pure orchestration of read-only searches plus the metric
suite, and each report has a tabular form, `table()`, whose columns mirror
the corresponding experiment write-up. Coverage rows carry every document of
the index in ordinal order. The truncation ablation and the parameter grid
are both sweeps: one `SweepRow` per setting, holding the setting and the
`evaluate_run` reports of its run, and a table with the setting's columns
(length; threshold, ncells, ndocs) and then one column per metric label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import RankedList, TokenMatrix
from .errors import EmptyLengths, NoSharedQueries
from .metrics import DEFAULT_SPECS, MetricReport, evaluate_run
from .plaid import PlaidIndex, plaid_search
from .trec import Qrels, RunFile, check_query_id


def run_queries(
    search: Callable[..., RankedList], queries: Mapping[str, TokenMatrix], k: int,
    tag: str = "latebench",
) -> RunFile:
    """One ranked list per query from `search(matrix, k, query_id=qid)`: a
    backend's search function with its index bound by `functools.partial`.
    A query id no run line can hold is refused before any search."""
    for qid in queries:
        check_query_id(qid)
    lists = [search(matrix, k, query_id=qid) for qid, matrix in queries.items()]
    return RunFile.from_ranked_lists(lists, tag=tag)


@dataclass(frozen=True)
class CoverageReport:
    per_doc: tuple[tuple[str, int, int], ...]  # (doc id, rows, unique centroids)
    mean_unique: float
    median_unique: float
    mean_rows: float
    coverage_fraction: float

    def table(self) -> list[list[str]]:
        out = [["doc_id", "rows", "unique_centroids", "fraction"]]
        for doc_id, rows, unique in self.per_doc:
            out.append([doc_id, str(rows), str(unique), f"{unique / rows:.6f}"])
        out.append(["mean", f"{self.mean_rows:.4f}", f"{self.mean_unique:.4f}",
                    f"{self.coverage_fraction:.6f}"])
        out.append(["median", "-", f"{self.median_unique:.1f}", "-"])
        return out


def centroid_coverage(index: PlaidIndex) -> CoverageReport:
    """Unique-centroid footprint of every document, in ordinal order."""
    rows = np.diff(index.row_offsets)
    uniques = np.diff(index.unique_codes.offsets)
    mean_unique = float(np.mean(uniques))
    mean_rows = float(np.mean(rows))
    return CoverageReport(
        per_doc=tuple(zip(index.doc_ids, rows.tolist(), uniques.tolist())),
        mean_unique=mean_unique,
        median_unique=float(np.median(uniques)),
        mean_rows=mean_rows,
        coverage_fraction=mean_unique / mean_rows,
    )


@dataclass(frozen=True)
class SweepRow:
    """One setting of a sweep (column name -> value) and the metric reports of its run."""

    setting: Mapping[str, int | float]
    reports: Mapping[str, MetricReport]


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def table(self) -> list[list[str]]:
        """The setting columns, then one column per report label: ints print
        with `str`, floats with `:g` and aggregates with six decimals."""
        first = self.rows[0]
        out = [[*first.setting, *first.reports]]
        for row in self.rows:
            out.append([f"{value:g}" if isinstance(value, float) else str(value)
                        for value in row.setting.values()]
                       + [f"{report.aggregate:.6f}" for report in row.reports.values()])
        return out


def _sweep_row(setting: Mapping[str, int | float], search: Callable[..., RankedList],
               queries: Mapping[str, TokenMatrix], k: int, qrels: Qrels) -> SweepRow:
    run = run_queries(search, queries, k)
    return SweepRow(setting=setting, reports=evaluate_run(run, qrels, DEFAULT_SPECS))


def truncation_ablation(
    queries: Mapping[str, TokenMatrix],
    search: Callable[..., RankedList],
    lengths: Sequence[int],
    k: int,
    qrels: Qrels,
) -> SweepTable:
    """Evaluate the backend on row-prefix truncated queries, one row per length.

    Truncation operates on token-vector prefixes: external embeddings arrive
    pre-tokenized, so a word budget maps onto the first N rows.
    """
    if not lengths:
        raise EmptyLengths("at least one truncation length is required")
    if list(lengths) != sorted(set(lengths)):
        raise ValueError("lengths must be strictly increasing")
    if min(lengths) < 1:
        raise ValueError("lengths must be >= 1")
    return SweepTable(rows=tuple(
        _sweep_row({"length": length}, search,
                   {qid: matrix.truncated(length) for qid, matrix in queries.items()}, k, qrels)
        for length in lengths
    ))


def grid_search(
    index: PlaidIndex,
    queries: Mapping[str, TokenMatrix],
    qrels: Qrels,
    ncells_set: Sequence[int],
    threshold_set: Sequence[float],
    ndocs: int,
    k: int,
) -> SweepTable:
    """Evaluate every (ncells, threshold) pair at a fixed ndocs."""
    if not ncells_set or not threshold_set:
        raise ValueError("ncells_set and threshold_set must be non-empty")
    if len(set(ncells_set)) < len(ncells_set) or len(set(threshold_set)) < len(threshold_set):
        raise ValueError("ncells_set and threshold_set must not repeat a value")
    return SweepTable(rows=tuple(
        _sweep_row({"threshold": threshold, "ncells": ncells, "ndocs": ndocs},
                   partial(plaid_search, index, ncells=ncells, threshold=threshold, ndocs=ndocs),
                   queries, k, qrels)
        for threshold in sorted(threshold_set) for ncells in sorted(ncells_set)
    ))


@dataclass(frozen=True)
class AgreementReport:
    per_query_overlap: Mapping[str, float]
    mean_overlap: float
    metric_deltas: Mapping[str, float]  # label -> aggregate(A) - aggregate(B)

    def table(self) -> list[list[str]]:
        out = [["query_id", "jaccard_overlap"]]
        for qid in sorted(self.per_query_overlap):
            out.append([qid, f"{self.per_query_overlap[qid]:.6f}"])
        out.append(["mean", f"{self.mean_overlap:.6f}"])
        for label, delta in self.metric_deltas.items():
            out.append([f"delta[{label}]", f"{delta:.6f}"])
        return out


def compare_runs(run_a: RunFile, run_b: RunFile, qrels: Qrels, k: int) -> AgreementReport:
    """Top-k Jaccard overlap per shared query plus aggregate metric deltas."""
    if k < 1:
        raise ValueError("k must be >= 1")
    shared = sorted(set(run_a.query_ids()) & set(run_b.query_ids()))
    if not shared:
        raise NoSharedQueries("the two runs have no query ids in common")
    overlaps = {}
    for qid in shared:
        top_a = set(run_a.top_ids(qid, k))
        top_b = set(run_b.top_ids(qid, k))
        union = top_a | top_b
        overlaps[qid] = len(top_a & top_b) / len(union) if union else 1.0
    reports_a = evaluate_run(run_a, qrels, DEFAULT_SPECS)
    reports_b = evaluate_run(run_b, qrels, DEFAULT_SPECS)
    deltas = {
        label: reports_a[label].aggregate - reports_b[label].aggregate
        for label in reports_a
    }
    return AgreementReport(
        per_query_overlap=overlaps,
        mean_overlap=float(np.mean(list(overlaps.values()))),
        metric_deltas=deltas,
    )
