"""Shared pieces of the benchmark: sizes, metric tables, the calibration clock,
spans and output checks.

Importing this module needs `latebench` on the path; `run.py` puts the
checkout's `src/` there first.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from latebench import bundle, cli, core, diagnostics, ivf, kmeans, plaid, synthetic, trec
from latebench import metrics as lb_metrics

OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 2
NPROBE = 8
NCELLS = 4
THRESHOLD = 0.4
INDEX_SEED = 7


@dataclass(frozen=True)
class Size:
    docs: int
    concepts: int
    queries: int
    nlist: int
    centroids: int
    ndocs: int
    k: int  # search depth of the query loops and the recall cut-off
    cli_exact_k: int  # depth of the exact run file the CLI writes


SIZES = {
    # The acceptance-corpus shape.
    "full": Size(docs=2000, concepts=68, queries=100, nlist=128, centroids=256,
                 ndocs=256, k=100, cli_exact_k=1000),
    # For the smoke tests only.
    "tiny": Size(docs=150, concepts=20, queries=12, nlist=16, centroids=32,
                 ndocs=32, k=10, cli_exact_k=40),
}

END_TO_END = {
    "setup_s": "s",
    "exact_p50_ms": "ms",
    "exact_p90_ms": "ms",
    "ivf_p50_ms": "ms",
    "ivf_p90_ms": "ms",
    "plaid_p50_ms": "ms",
    "plaid_p90_ms": "ms",
    "ivf_oracle_recall100": "fraction",
    "plaid_oracle_recall100": "fraction",
    "read_pass_s": "s",
    "plaid_index_bytes": "bytes",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "synthetic.generate_s": "s",
    "kmeans.train_s": "s",
    "kmeans.assign_s": "s",
    "ivf.build_s": "s",
    "plaid.build_s": "s",
    "plaid.build_2bit_s": "s",
    "bundle.write_bundle_s": "s",
    "bundle.save_ivf_s": "s",
    "bundle.save_plaid_s": "s",
    "cli.generate_s": "s",
    "cli.build_ivf_s": "s",
    "cli.build_plaid_s": "s",
    "core.score_all_ms": "ms",
    "core.rank_ms": "ms",
    "core.maxsim_calls": "count",
    "ivf.candidates_ms": "ms",
    "ivf.rescore_ms": "ms",
    "ivf.candidates": "count",
    "ivf.rescore_yield": "fraction",
    "plaid.probe_ms": "ms",
    "plaid.centroids_probed": "count",
    "plaid.centroids_surviving": "count",
    "plaid.candidates": "count",
    "plaid.approx_ms": "ms",
    "plaid.rescore_ms": "ms",
    "plaid.rescored": "count",
    "plaid.rescore_yield": "fraction",
    "plaid.decode_ms": "ms",
    "bundle.read_bundle_s": "s",
    "bundle.corpus_digest_s": "s",
    "bundle.load_ivf_s": "s",
    "bundle.load_plaid_s": "s",
    "trec.write_run_s": "s",
    "trec.parse_run_s": "s",
    "trec.parse_qrels_s": "s",
    "trec.run_lines": "count",
    "metrics.evaluate_s": "s",
    "diagnostics.grid_cell_s": "s",
    "diagnostics.compare_runs_s": "s",
    "cli.search_exact_s": "s",
    "cli.search_ivf_s": "s",
    "cli.search_plaid_s": "s",
    "cli.evaluate_s": "s",
    "cli.diagnose_grid_s": "s",
    "cli.diagnose_agreement_s": "s",
    "trace.overhead_frac": "fraction",
    "machine.calibration_ms": "ms",
}


def _plaid_build_span(corpus, config, *args, **kwargs) -> str:
    return "plaid.build_2bit" if config.residual_bits else "plaid.build"


# Layer calls the traced run wraps in spans during set-up and CLI commands:
# (span name, [(namespace the caller looks the function up in, attribute)]).
# Spans nest, and each layer metric is the inclusive time of its calls, so
# kmeans.assign_s includes the assignments made inside kmeans.train_kmeans and
# bundle.write_bundle_s the serialisation inside bundle.corpus_digest.
HOOKS = [
    ("synthetic.generate", [(synthetic, "generate_synthetic"), (cli, "generate_synthetic")]),
    ("kmeans.train", [(kmeans, "train_kmeans")]),
    ("kmeans.assign", [(kmeans, "assign")]),
    ("ivf.build", [(ivf, "build_ivf"), (cli, "build_ivf")]),
    (_plaid_build_span, [(plaid, "build_plaid"), (cli, "build_plaid")]),
    ("plaid.doc_matrix", [(plaid.PlaidIndex, "doc_matrix")]),
    ("bundle.write_bundle", [(bundle, "write_bundle")]),
    ("bundle.read_bundle", [(bundle, "read_bundle")]),
    ("bundle.corpus_digest", [(bundle, "corpus_digest")]),
    ("bundle.save_ivf", [(bundle, "save_ivf_index")]),
    ("bundle.save_plaid", [(bundle, "save_plaid_index")]),
    ("bundle.load_ivf", [(bundle, "load_ivf_index")]),
    ("bundle.load_plaid", [(bundle, "load_plaid_index")]),
    ("trec.write_run", [(trec, "write_run"), (cli, "write_run")]),
    ("trec.parse_run", [(trec, "parse_run"), (cli, "parse_run")]),
    ("trec.parse_qrels", [(trec, "parse_qrels"), (cli, "parse_qrels")]),
    ("metrics.evaluate", [(lb_metrics, "evaluate_run"), (cli, "evaluate_run"),
                          (diagnostics, "evaluate_run")]),
    ("diagnostics.grid_search", [(diagnostics, "grid_search")]),
    ("diagnostics.compare_runs", [(diagnostics, "compare_runs")]),
]
HOOK_SPANS = ("synthetic.generate", "kmeans.train", "kmeans.assign", "ivf.build", "plaid.build",
              "plaid.build_2bit", "bundle.write_bundle", "bundle.read_bundle",
              "bundle.corpus_digest", "bundle.save_ivf", "bundle.save_plaid", "bundle.load_ivf",
              "bundle.load_plaid", "trec.write_run", "trec.parse_run", "trec.parse_qrels",
              "metrics.evaluate", "diagnostics.compare_runs")
CLI_SPANS = ("cli.generate", "cli.build_ivf", "cli.build_plaid", "cli.search_exact",
             "cli.search_ivf", "cli.search_plaid", "cli.evaluate", "cli.diagnose_grid",
             "cli.diagnose_agreement")


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over the traced set-up and CLI commands; 0 where unused."""
    totals = tracer.totals()
    metrics = {f"{name}_s": totals.get(name, 0.0) for name in HOOK_SPANS + CLI_SPANS}
    # The CLI grid has one cell.
    metrics["diagnostics.grid_cell_s"] = totals.get("diagnostics.grid_search", 0.0)
    metrics["plaid.decode_ms"] = totals.get("plaid.doc_matrix", 0.0) * 1e3
    return metrics


# A reference-speed machine runs the calibration kernel in this time.
CAL_REF_S = 1e-3


class Clock:
    """Wall times, and the same times scaled to a reference machine speed.

    The host's speed drifts by up to half from one second or minute to the
    next, because other tenants share its cores. A fixed kernel shaped like
    the MaxSim hot path (small float32 products and Python-level reductions)
    is timed next to the work, and each wall time is scaled by
    CAL_REF_S / (kernel time), so two runs on a slow and a fast stretch of
    the same machine agree. The kernel runs no program code.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._query = rng.standard_normal((11, 128)).astype(np.float32)
        self._docs = [rng.standard_normal((20, 128)).astype(np.float32) for _ in range(100)]
        self.calibrations: list[float] = []

    def calibrate(self) -> float:
        start = time.perf_counter()
        for doc in self._docs:
            float(np.sum((self._query @ doc.T).max(axis=1), dtype=np.float64))
        elapsed = time.perf_counter() - start
        self.calibrations.append(elapsed)
        return elapsed

    @staticmethod
    def scale(seconds: float, *calibrations: float) -> float:
        return seconds * CAL_REF_S * len(calibrations) / sum(calibrations)

    def timed(self, fn, *args, **kwargs):
        """(result, wall seconds, reference seconds), calibrating before and after."""
        before = self.calibrate()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        return result, wall, self.scale(wall, before, self.calibrate())


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            sys.stderr.write(f"bench: FAILED {what}: {'; '.join(problems)}\n")

    def crashed(self, what: str) -> None:
        """Count an operation that raised; call from inside the except block."""
        self.record(what, ["raised:\n" + traceback.format_exc()])


class Tracer:
    """Spans (name, start, end, parent, query id), kept in memory until `write`."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: str | None = None):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, qid]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def hooks(self, targets):
        """Record a span around every call to the given module attributes.

        `targets` holds (span name, [(namespace, attribute), ...]); a span name
        may be a callable that picks the name from the call's arguments.
        """
        saved = []
        for name, places in targets:
            for owner, attr in places:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def totals(self) -> dict[str, float]:
        sums: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            sums[name] = sums.get(name, 0.0) + (end - start)
        return sums

    def write(self, path: Path, provenance: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"provenance": provenance}) + "\n")
            for name, start, end, parent, qid in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "qid": qid}) + "\n")


@contextmanager
def call_counter(owner, attr: str):
    """Count calls to `owner.attr` while the block runs; yields a one-item list."""
    original = getattr(owner, attr)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)
    try:
        yield count
    finally:
        setattr(owner, attr, original)


def ranked_problems(ranked, qid, query, k, matrix_of) -> list[str]:
    """Checks every search result must pass.

    Scores must bit-equal `maxsim_score` against the vectors the backend
    rescored from (`matrix_of(doc_id)`), and hits must be ordered by
    (-score, doc id) with unique ids.
    """
    problems = []
    if ranked.query_id != qid:
        problems.append(f"query id {ranked.query_id!r} != {qid!r}")
    if len(ranked.hits) > k:
        problems.append(f"{len(ranked.hits)} hits for k={k}")
    keys = [(-hit.score, hit.doc_id) for hit in ranked.hits]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("hits not strictly ordered by (-score, doc id)")
    for hit in ranked.hits:
        if hit.score != core.maxsim_score(query, matrix_of(hit.doc_id)):
            problems.append(f"score of {hit.doc_id} is not the maxsim_score of its vectors")
            break
    return problems


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    return float(np.percentile(values, q))
