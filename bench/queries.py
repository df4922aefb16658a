"""Closed-loop query workloads, one client, exact / IVF / PLAID interleaved per query.

Each query runs all three backends back to back, in an order rotated from one
query to the next, so machine drift lands on every backend alike, and the
calibration kernel runs between queries to scale their times (harness.Clock).
Results are checked after their timing ends. In the traced run every search
runs twice: once through the public function (timed, for the tracing
overhead) and once split into its stages under spans; both must give the
same ranked list.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from latebench import bundle, core, ivf, plaid, synthetic
from latebench.core import RankedList

from harness import (
    HOOKS, INDEX_SEED, Clock, NCELLS, NPROBE, SETUP_REPEATS, THRESHOLD, Size, Tally, Tracer,
    call_counter, median, percentile, ranked_problems, span_metrics,
)

BACKENDS = ("exact", "ivf", "plaid")
FILLER = {"query-filler30": 0.3, "query-filler0": 0.0}


def spec(size: Size, filler: float, seed: int) -> synthetic.SyntheticSpec:
    return synthetic.SyntheticSpec(
        doc_count=size.docs, tokens_per_doc=(8, 32), dim=128, num_concepts=size.concepts,
        queries=size.queries, signal_tokens=8, filler_fraction=filler, margin=0.05, seed=seed,
    )


def ivf_config(size: Size) -> ivf.IvfConfig:
    return ivf.IvfConfig(nlist=size.nlist, nprobe=NPROBE, seed=INDEX_SEED)


def plaid_config(size: Size) -> plaid.PlaidConfig:
    return plaid.PlaidConfig(num_centroids=size.centroids, ncells=NCELLS,
                             centroid_score_threshold=THRESHOLD, ndocs=size.ndocs,
                             seed=INDEX_SEED)


@dataclass
class Data:
    """Everything a query loop reads: corpus, queries, qrels and both indexes."""

    corpus: core.Corpus
    queries: dict
    qrels: object
    ivf: ivf.IvfIndex
    plaid: plaid.PlaidIndex

    def matrix_of(self, backend: str):
        """The vectors a backend rescores from, by doc id."""
        if backend != "plaid":
            return self.corpus.docs.__getitem__
        ordinal = {doc_id: i for i, doc_id in enumerate(self.plaid.doc_ids)}
        return lambda doc_id: self.plaid.doc_matrix(ordinal[doc_id])


def build(size: Size, filler: float, seed: int, clock: Clock) -> tuple[Data, float, float]:
    """The set-up: generate, then build both indexes in memory.

    Returns the data with its wall and reference seconds.
    """
    (corpus, queries, qrels), *generated = clock.timed(
        synthetic.generate_synthetic, spec(size, filler, seed))
    ivf_index, *ivf_built = clock.timed(ivf.build_ivf, corpus, ivf_config(size))
    plaid_index, *plaid_built = clock.timed(plaid.build_plaid, corpus, plaid_config(size))
    wall, ref = (sum(t) for t in zip(generated, ivf_built, plaid_built))
    return Data(corpus, queries, qrels, ivf_index, plaid_index), wall, ref


def same_build(a: Data, b: Data) -> list[str]:
    """Set-up with the same seed must rebuild identical data."""
    problems = []
    if a.corpus.doc_ids != b.corpus.doc_ids or any(
            a.corpus.docs[d] != b.corpus.docs[d] for d in a.corpus.doc_ids):
        problems.append("corpus differs between set-ups")
    if not (np.array_equal(a.ivf.centroids, b.ivf.centroids)
            and np.array_equal(a.ivf.assignments, b.ivf.assignments)):
        problems.append("IVF index differs between set-ups")
    if not (np.array_equal(a.plaid.centroids, b.plaid.centroids)
            and np.array_equal(a.plaid.codes, b.plaid.codes)):
        problems.append("PLAID index differs between set-ups")
    return problems


def _search(data: Data, backend: str, query, qid: str, k: int) -> RankedList:
    if backend == "exact":
        return core.exact_search(data.corpus, query, k, query_id=qid)
    if backend == "ivf":
        return ivf.ivf_search(data.ivf, query, k, query_id=qid)
    return plaid.plaid_search(data.plaid, query, k, query_id=qid)


def _split_exact(data: Data, query, qid: str, k: int, tracer: Tracer):
    with call_counter(core, "maxsim_score") as calls:
        with tracer.span("core.score_all", qid):
            scored = core.score_all(data.corpus, query)
    with tracer.span("core.rank", qid):
        ranked = RankedList.from_scores(qid, scored, k)
    return ranked, None, {"core.maxsim_calls": calls[0]}


def _split_ivf(data: Data, query, qid: str, k: int, tracer: Tracer):
    corpus = data.ivf.corpus
    with tracer.span("ivf.candidates", qid):
        ordinals = ivf.ivf_candidates(data.ivf, query)
    with tracer.span("ivf.rescore", qid):
        scored = [(corpus.doc_ids[o], core.maxsim_score(query, corpus.docs[corpus.doc_ids[o]]))
                  for o in ordinals]
        ranked = RankedList.from_scores(qid, scored, k)
    return ranked, None, {
        "ivf.candidates": len(ordinals),
        "ivf.rescore_yield": len(ranked) / len(ordinals) if ordinals else 0.0,
    }


def _split_plaid(data: Data, query, qid: str, k: int, tracer: Tracer):
    index = data.plaid
    with tracer.span("plaid.probe", qid) as probe:
        trace = plaid.plaid_candidates(index, query)
    # Stage 3 with the arithmetic of plaid_search, outside any span: its time
    # is reported as the remainder of the public call (plaid.approx_ms).
    dots = query.data @ index.centroids.T
    approx = sorted(
        ((index.doc_ids[o], float(np.sum(dots[:, index.unique_codes[o]].max(axis=1),
                                         dtype=np.float64)), o) for o in trace.candidates),
        key=lambda item: (-item[1], item[0]),
    )
    survivors = approx[:index.config.ndocs]
    with tracer.span("plaid.rescore", qid) as rescore:
        scored = [(doc_id, core.maxsim_score(query, index.doc_matrix(o)))
                  for doc_id, _, o in survivors]
        ranked = RankedList.from_scores(qid, scored, k)
    staged = (probe[2] - probe[1]) + (rescore[2] - rescore[1])
    return ranked, staged, {
        "plaid.centroids_probed": sum(trace.probed_per_row),
        "plaid.centroids_surviving": sum(trace.surviving_per_row),
        "plaid.candidates": len(trace.candidates),
        "plaid.rescored": len(survivors),
        "plaid.rescore_yield": len(ranked) / len(survivors) if survivors else 0.0,
    }


SPLIT = {"exact": _split_exact, "ivf": _split_ivf, "plaid": _split_plaid}


class QueryLoop:
    """Runs queries for a window, keeps latency samples and checks every result."""

    def __init__(self, k: int, tally: Tally, tracer: Tracer | None, clock: Clock):
        self.k = k
        self.tally = tally
        self.tracer = tracer
        self.clock = clock
        self.position = 0
        self.samples = {b: [] for b in BACKENDS}  # public-call reference seconds
        self.wall = {b: [] for b in BACKENDS}  # the same calls, wall seconds
        self.split_wall = {b: [] for b in BACKENDS}  # traced split, wall seconds
        self.approx = []  # derived plaid stage-3 wall seconds
        self.verified: dict[tuple[str, str], RankedList] = {}
        self.counts: dict[str, dict] = {}

    def run_window(self, data: Data, seconds: float) -> None:
        """Run queries for `seconds`, and on until every query ran at least once.

        The calibration kernel runs between queries; a query's times are
        scaled by the mean of the calibrations on either side of it.
        """
        qids = list(data.queries)
        matrix_of = {b: data.matrix_of(b) for b in BACKENDS}
        deadline = time.perf_counter() + seconds
        before = self.clock.calibrate()
        while time.perf_counter() < deadline or self.position < len(qids):
            qid = qids[self.position % len(qids)]
            turn = self.position % len(BACKENDS)
            self.position += 1
            timed = [self._one(data, backend, qid, matrix_of[backend])
                     for backend in BACKENDS[turn:] + BACKENDS[:turn]]
            after = self.clock.calibrate()
            for backend, elapsed in filter(None, timed):
                self.samples[backend].append(self.clock.scale(elapsed, before, after))
            before = after

    def _one(self, data: Data, backend: str, qid: str, matrix_of) -> tuple[str, float] | None:
        """One checked search; returns (backend, wall seconds), or None if it raised."""
        query = data.queries[qid]
        what = f"{backend} search {qid}"
        try:
            start = time.perf_counter()
            ranked = _search(data, backend, query, qid, self.k)
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                start = time.perf_counter()
                split, staged, counts = SPLIT[backend](data, query, qid, self.k, self.tracer)
                self.split_wall[backend].append(time.perf_counter() - start)
        except Exception:
            self.tally.crashed(what)
            return None
        self.wall[backend].append(elapsed)
        problems = self._check(data, backend, qid, query, ranked, matrix_of)
        if self.tracer is not None:
            if split != ranked:
                problems.append("stage-split result differs from the public search")
            known = self.counts.setdefault(qid, {})
            if any(known.setdefault(name, value) != value for name, value in counts.items()):
                problems.append("funnel count differs from the first call")
            if staged is not None:
                self.approx.append(elapsed - staged)
        self.tally.record(what, problems)
        return backend, elapsed

    def _check(self, data, backend, qid, query, ranked, matrix_of) -> list[str]:
        known = self.verified.get((backend, qid))
        if known is not None:
            return [] if ranked == known else ["result differs from the first call"]
        problems = ranked_problems(ranked, qid, query, self.k, matrix_of)
        if backend == "exact" and not problems:
            top = ranked.hits[0].doc_id if ranked.hits else None
            if top not in data.qrels.relevant(qid):
                problems.append("planted target is not first (exact MRR@10 < 1)")
        if not problems:
            self.verified[(backend, qid)] = ranked
        return problems

    def recall(self, backend: str) -> float:
        """Mean share of the oracle's top-k that the backend's top-k holds."""
        shares = []
        for (name, qid), oracle in self.verified.items():
            other = self.verified.get((backend, qid))
            if name == "exact" and other is not None and oracle.hits:
                shares.append(len(set(oracle.doc_ids()) & set(other.doc_ids())) / len(oracle))
        return float(np.mean(shares)) if shares else 0.0

    def end_to_end(self, query_count: int) -> dict:
        metrics = {}
        for backend in BACKENDS:
            ms = [s * 1e3 for s in self.samples[backend]]
            metrics[f"{backend}_p50_ms"] = median(ms)
            metrics[f"{backend}_p90_ms"] = percentile(ms, 90)
        metrics["ivf_oracle_recall100"] = self.recall("ivf")
        metrics["plaid_oracle_recall100"] = self.recall("plaid")
        # One pass over the query set: query count x mean time per query.
        metrics["read_pass_s"] = query_count * sum(np.mean(self.samples[b]) for b in BACKENDS)
        return metrics

    def per_layer(self) -> dict:
        tracer = self.tracer
        metrics = {}
        for name in ("core.score_all", "core.rank", "ivf.candidates", "ivf.rescore",
                     "plaid.probe", "plaid.rescore"):
            # "ivf.candidates" is also a count; the span time gets the _ms name.
            metrics[f"{name}_ms"] = median([d * 1e3 for d in tracer.durations(name)])
        metrics["plaid.approx_ms"] = median([d * 1e3 for d in self.approx])
        names = {name for per_query in self.counts.values() for name in per_query}
        for name in names:
            metrics[name] = float(np.mean([c[name] for c in self.counts.values() if name in c]))
        plain = sum(median(self.wall[b]) for b in BACKENDS)
        split = sum(median(self.split_wall[b]) for b in BACKENDS)
        metrics["trace.overhead_frac"] = split / plain - 1.0
        return metrics

    def summary_lines(self) -> list[str]:
        lines = []
        for b in BACKENDS:
            wall = [s * 1e3 for s in self.wall[b]]
            lines.append(f"samples {b} {len(wall)} searches; wall-clock p50 {median(wall):.3f} ms, "
                         f"p90 {percentile(wall, 90):.3f} ms")
        if self.tracer is not None:
            lines.append("note plaid.approx_ms is derived: public plaid_search time "
                         "minus plaid.probe and plaid.rescore")
            lines.append("note ivf.rescore_yield is top-k hits / ivf.candidates rescored; "
                         "plaid.rescore_yield is top-k hits / plaid.rescored")
        return lines


def run(workload: str, size: Size, seed: int, seconds: float, tracer: Tracer | None,
        tally: Tally, clock: Clock) -> tuple[dict, list[str]]:
    """One query-loop run: the set-up, repeated, then the query window."""
    filler = FILLER[workload]
    repeats = 1 if tracer is not None else SETUP_REPEATS
    first, setups = None, []
    for _ in range(repeats):
        with tracer.hooks(HOOKS) if tracer is not None else nullcontext():
            data, wall, ref = build(size, filler, seed, clock)
        setups.append((ref, wall))
        tally.record("set-up", [] if first is None else same_build(first, data))
        if first is None:
            first = data
    del data
    loop = QueryLoop(size.k, tally, tracer, clock)
    loop.run_window(first, seconds)
    notes = loop.summary_lines()
    if tracer is not None:
        return {**span_metrics(tracer), **loop.per_layer()}, notes
    notes.append(f"set-up wall-clock median {median([w for _, w in setups]):.3f} s")
    metrics = loop.end_to_end(size.queries)
    metrics["setup_s"] = median([r for r, _ in setups])
    metrics["plaid_index_bytes"] = len(bundle.save_plaid_index(first.plaid))
    return metrics, notes
