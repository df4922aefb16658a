"""The README walkthrough run in-process through `latebench.cli.main`.

The write half generates the corpus and builds the IVF index and a 2-bit
PLAID index; it is the set-up, repeated so its median can be reported, and
every repeat must write byte-identical files. The read half searches with
every backend (the exact run is 1,000 deep, so parsing it is the O(k^2)
case), evaluates, and runs a one-cell grid and the agreement diagnostic.
Then a query loop runs on the corpus and indexes read back from the files, so
the per-query figures here describe the 2-bit decoded PLAID path.
"""

from __future__ import annotations

import hashlib
import io
import logging
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from latebench import bundle, cli, trec
from latebench.core import RankedList, ScoredDoc
from latebench.errors import LatebenchError

import queries as qloop
from harness import (
    HOOKS, INDEX_SEED, NCELLS, NPROBE, OUT_DIR, SETUP_REPEATS, THRESHOLD, Clock, Size, Tally,
    Tracer, median, ranked_problems, span_metrics,
)

FILLER = "0.3"
WRITTEN = ("corpus.lbb", "queries.lbb", "qrels.txt", "ivf.lbi", "plaid.lbi")


def write_half(size: Size, seed: int, d: Path) -> list:
    """(span name, argv, output files) for generate and both builds."""
    f = lambda name: str(d / name)  # noqa: E731
    return [
        ("cli.generate",
         ["generate", "--out-bundle", f("corpus.lbb"), "--out-queries", f("queries.lbb"),
          "--out-qrels", f("qrels.txt"), "--docs", str(size.docs), "--tokens-min", "8",
          "--tokens-max", "32", "--dim", "128", "--num-concepts", str(size.concepts),
          "--queries", str(size.queries), "--signal-tokens", "8", "--filler-fraction", FILLER,
          "--margin", "0.05", "--seed", str(seed)],
         ["corpus.lbb", "queries.lbb", "qrels.txt"]),
        ("cli.build_ivf",
         ["build", "--backend", "ivf", "--bundle", f("corpus.lbb"), "--out", f("ivf.lbi"),
          "--nlist", str(size.nlist), "--nprobe", str(NPROBE), "--seed", str(INDEX_SEED)],
         ["ivf.lbi"]),
        ("cli.build_plaid",
         ["build", "--backend", "plaid", "--bundle", f("corpus.lbb"), "--out", f("plaid.lbi"),
          "--num-centroids", str(size.centroids), "--ncells", str(NCELLS),
          "--threshold", str(THRESHOLD), "--ndocs", str(size.ndocs), "--residual-bits", "2",
          "--seed", str(INDEX_SEED)],
         ["plaid.lbi"]),
    ]


def read_half(size: Size, d: Path) -> list:
    """(span name, argv, output files) for the searches, evaluations and diagnostics."""
    f = lambda name: str(d / name)  # noqa: E731
    k = str(size.k)
    return [
        ("cli.search_exact",
         ["search", "--backend", "exact", "--bundle", f("corpus.lbb"), "--queries",
          f("queries.lbb"), "--k", str(size.cli_exact_k), "--out", f("exact.run")],
         ["exact.run"]),
        ("cli.search_ivf",
         ["search", "--backend", "ivf", "--index", f("ivf.lbi"), "--bundle", f("corpus.lbb"),
          "--queries", f("queries.lbb"), "--k", k, "--nprobe", str(NPROBE),
          "--out", f("ivf.run")],
         ["ivf.run"]),
        # A residual index is self-contained: no --bundle.
        ("cli.search_plaid",
         ["search", "--backend", "plaid", "--index", f("plaid.lbi"), "--queries",
          f("queries.lbb"), "--k", k, "--ncells", str(NCELLS), "--threshold", str(THRESHOLD),
          "--ndocs", str(size.ndocs), "--out", f("plaid.run")],
         ["plaid.run"]),
        ("cli.evaluate",
         ["evaluate", "--run", f("exact.run"), "--qrels", f("qrels.txt"),
          "--out", f("exact.eval")],
         ["exact.eval"]),
        ("cli.evaluate",
         ["evaluate", "--run", f("plaid.run"), "--qrels", f("qrels.txt"),
          "--out", f("plaid.eval")],
         ["plaid.eval"]),
        ("cli.diagnose_grid",
         ["diagnose", "--mode", "grid", "--index", f("plaid.lbi"), "--queries",
          f("queries.lbb"), "--qrels", f("qrels.txt"), "--ncells", str(NCELLS),
          "--threshold", str(THRESHOLD), "--ndocs", str(size.ndocs), "--k", k,
          "--out", f("grid.tsv")],
         ["grid.tsv"]),
        ("cli.diagnose_agreement",
         ["diagnose", "--mode", "agreement", "--run-a", f("exact.run"), "--run-b",
          f("plaid.run"), "--qrels", f("qrels.txt"), "--k", k, "--out", f("agreement.tsv")],
         ["agreement.tsv"]),
    ]


def run_cli(name: str, argv: list[str], outputs: list[str], d: Path, tally: Tally,
            tracer: Tracer | None, clock: Clock) -> tuple[float, float]:
    """Run one command; returns its wall and reference seconds. Checks follow."""
    captured = io.StringIO()
    before = clock.calibrate()
    start = time.perf_counter()
    try:
        with redirect_stdout(captured), redirect_stderr(captured), \
                (tracer.span(name) if tracer is not None else nullcontext()):
            code = cli.main(argv)
    except Exception:
        tally.crashed(name)
        code = None
    elapsed = time.perf_counter() - start
    times = elapsed, clock.scale(elapsed, before, clock.calibrate())
    if code is None:
        return times
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += [line for line in captured.getvalue().splitlines()
                 if line.startswith("LATEBENCH-ERROR")]
    for output in outputs:
        try:
            if cli.command_from_header(d / output) != argv:
                problems.append(f"{output}: header does not give back the command")
        except (LatebenchError, OSError) as exc:
            problems.append(f"{output}: {exc}")
    tally.record(f"{name} ({argv[0]} {argv[-1]})", problems)
    return times


def _digests(d: Path) -> dict[str, str]:
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in WRITTEN}


def _read_back(d: Path) -> qloop.Data:
    """Load what the write half wrote, through the library; untimed."""
    corpus = bundle.read_bundle((d / "corpus.lbb").read_bytes())
    query_corpus = bundle.read_bundle((d / "queries.lbb").read_bytes())
    queries = {qid: query_corpus.docs[qid] for qid in query_corpus.doc_ids}
    return qloop.Data(
        corpus, queries, trec.parse_qrels((d / "qrels.txt").read_text()),
        bundle.load_ivf_index((d / "ivf.lbi").read_bytes(), corpus),
        bundle.load_plaid_index((d / "plaid.lbi").read_bytes()),
    )


def _run_rows(path: Path) -> dict[str, list[tuple[str, int, float]]]:
    rows: dict[str, list] = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            qid, _, doc_id, rank, score, _ = line.split()
            rows.setdefault(qid, []).append((doc_id, int(rank), float(score)))
    return rows


def _table_value(path: Path, row: str, column: str) -> str | None:
    lines = [line.split("\t") for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    header = lines[0]
    for cells in lines[1:]:
        if cells[0] == row and column in header:
            return cells[header.index(column)]
    return None


def _mrr10(lists: dict[str, RankedList], qrels) -> float:
    total = 0.0
    for qid in qrels.query_ids():
        ids = lists[qid].doc_ids()[:10]
        ranks = [i for i, doc_id in enumerate(ids, start=1) if doc_id in qrels.relevant(qid)]
        total += 1.0 / ranks[0] if ranks else 0.0
    return total / len(qrels)


def check_outputs(d: Path, data: qloop.Data, loop: qloop.QueryLoop, size: Size,
                  tally: Tally) -> int:
    """Check what the read half wrote against the checked library results.

    Returns the number of run-file lines written.
    """
    lists = {b: {qid: loop.verified.get((b, qid)) for qid in data.queries}
             for b in qloop.BACKENDS}
    lines = 0
    for backend in qloop.BACKENDS:
        rows = _run_rows(d / f"{backend}.run")
        lines += sum(len(r) for r in rows.values())
        problems = []
        for qid, query in data.queries.items():
            got = rows.get(qid, [])
            expected = lists[backend][qid]
            if expected is None:
                problems.append(f"{qid}: no checked library result to compare with")
                continue
            if [rank for _, rank, _ in got] != list(range(1, len(got) + 1)):
                problems.append(f"{qid}: ranks are not 1..n")
            pairs = [(doc_id, score) for doc_id, _, score in got]
            if backend == "exact":
                # Deeper than the library loop: check the whole list directly.
                want = min(size.cli_exact_k, size.docs)
                ranked = RankedList(qid, tuple(ScoredDoc(*p) for p in pairs))
                problems += [f"{qid}: {p}" for p in ranked_problems(
                    ranked, qid, query, size.cli_exact_k, data.corpus.docs.__getitem__)]
                if len(pairs) != want:
                    problems.append(f"{qid}: {len(pairs)} lines, expected {want}")
                pairs = pairs[:size.k]
            if pairs != [tuple(hit) for hit in expected.hits]:
                problems.append(f"{qid}: differs from the library search on the same files")
        tally.record(f"{backend}.run contents", problems[:3])

    if None in lists["plaid"].values() or None in lists["exact"].values():
        return lines
    plaid_mrr = _mrr10(lists["plaid"], data.qrels)
    overlaps = []
    for qid in data.queries:
        a, b = set(lists["exact"][qid].doc_ids()), set(lists["plaid"][qid].doc_ids())
        overlaps.append(len(a & b) / len(a | b) if a | b else 1.0)
    # The tables print six decimals.
    expected_tables = [
        ("exact.eval", "all", "MRR@10", 1.0),
        ("plaid.eval", "all", "MRR@10", plaid_mrr),
        ("grid.tsv", f"{THRESHOLD:g}", "MRR@10", plaid_mrr),
        ("agreement.tsv", "mean", "jaccard_overlap", sum(overlaps) / len(overlaps)),
    ]
    for name, row, column, want in expected_tables:
        got = _table_value(d / name, row, column)
        ok = got is not None and abs(float(got) - want) < 1e-6
        tally.record(f"{name} contents",
                     [] if ok else [f"{row}/{column} is {got}, expected {want:.6f}"])
    return lines


def run(size: Size, seed: int, seconds: float, tracer: Tracer | None, tally: Tally,
        clock: Clock) -> tuple[dict, list[str]]:
    """One round trip: the write half, repeated, then the read half and the query window."""
    # Bind logging to the real stderr before the CLI captures it per command.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    repeats = 1 if tracer is not None else SETUP_REPEATS
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cli-") as tmp:
        d = Path(tmp)

        def half(commands) -> tuple[float, float]:
            with tracer.hooks(HOOKS) if tracer is not None else nullcontext():
                times = [run_cli(*c, d, tally, tracer, clock) for c in commands]
            return sum(w for w, _ in times), sum(r for _, r in times)

        setups, first = [], None
        for _ in range(repeats):
            setups.append(half(write_half(size, seed, d)))
            digests = _digests(d)
            if first is None:
                first = digests
            else:
                tally.record("rebuild", [f"{name} differs from the first write"
                                         for name in WRITTEN if digests[name] != first[name]])
        read_wall, read_ref = half(read_half(size, d))
        data = _read_back(d)
        loop = qloop.QueryLoop(size.k, tally, tracer, clock)
        loop.run_window(data, seconds)
        run_lines = check_outputs(d, data, loop, size, tally)
        index_bytes = (d / "plaid.lbi").stat().st_size
    notes = loop.summary_lines()
    if tracer is not None:
        return {**span_metrics(tracer), **loop.per_layer(), "trec.run_lines": run_lines}, notes
    notes.append(f"write half (set-up) wall-clock median {median([w for w, _ in setups]):.3f} s; "
                 f"read half wall-clock {read_wall:.3f} s")
    metrics = loop.end_to_end(size.queries)
    metrics["setup_s"] = median([r for _, r in setups])
    metrics["read_pass_s"] = read_ref
    metrics["plaid_index_bytes"] = index_bytes
    return metrics, notes
