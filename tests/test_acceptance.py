"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Fixtures are session-scoped because the bench corpus (2,000 docs,
100 queries) is shared by several criteria.
"""

import dataclasses
import shutil
import time
from functools import partial

import numpy as np
import pytest

from latebench import (
    Corpus,
    IvfConfig,
    MetricSpec,
    PlaidConfig,
    SyntheticSpec,
    TokenMatrix,
    build_ivf,
    build_plaid,
    centroid_coverage,
    evaluate_run,
    exact_search,
    generate_synthetic,
    grid_search,
    ivf_candidates,
    ivf_search,
    mrr_at_k,
    parse_run,
    plaid_candidates,
    plaid_search,
    pool_corpus,
    write_run,
)
from latebench.bundle import read_bundle, save_plaid_index, write_bundle
from latebench.cli import command_from_header, main as cli_main
from latebench.core import ScoredDoc
from latebench.diagnostics import run_queries, truncation_ablation
from latebench.trec import Qrels, RunFile

from conftest import basis_matrix
from reference_metrics import ref_evaluate


def _pass(criterion, message):
    print(f"\nCRITERION {criterion} PASS: {message}")


@pytest.fixture(scope="module")
def bench():
    """2,000-doc / 100-query planted corpus with its exact top-100 oracle."""
    spec = SyntheticSpec(
        doc_count=2000, tokens_per_doc=(8, 32), dim=128, num_concepts=68,
        queries=100, signal_tokens=8, filler_fraction=0.3, margin=0.05, seed=42,
    )
    corpus, queries, qrels = generate_synthetic(spec)
    oracle = {qid: exact_search(corpus, q, 100, query_id=qid) for qid, q in queries.items()}
    return corpus, queries, qrels, oracle


@pytest.fixture(scope="module")
def bench_plaid(bench):
    corpus, _, _, _ = bench
    config = PlaidConfig(
        num_centroids=256, ncells=8, centroid_score_threshold=0.3, ndocs=2000, seed=7
    )
    return build_plaid(corpus, config)


def _recall_vs_oracle(backend_lists, oracle):
    recalls = []
    for qid, ranked in backend_lists.items():
        truth = set(oracle[qid].doc_ids())
        recalls.append(len(set(ranked.doc_ids()) & truth) / len(truth))
    return float(np.mean(recalls))


def test_criterion_01_ivf_oracle_equivalence(bench):
    corpus, queries, _, oracle = bench
    total = corpus.total_vectors
    index = build_ivf(corpus, IvfConfig(nlist=128, nprobe=8, seed=7))
    start = time.monotonic()
    for qid, query in queries.items():
        approx = ivf_search(index, query, 100, nprobe=128, per_token_candidates=total,
                            query_id=qid)
        assert approx == oracle[qid], f"ivf differs from oracle on {qid}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"exhaustive ivf sweep took {elapsed:.1f}s"
    _pass(1, f"ivf(nprobe=nlist, cap=total) == exact top-100 on 100 queries in {elapsed:.1f}s")


def test_criterion_02_plaid_oracle_equivalence(bench, bench_plaid):
    corpus, queries, _, oracle = bench
    for qid, query in queries.items():
        approx = plaid_search(
            bench_plaid, query, 100, ncells=bench_plaid.config.num_centroids,
            threshold=-1.0, ndocs=len(corpus), query_id=qid,
        )
        assert approx == oracle[qid], f"plaid differs from oracle on {qid}"
    _pass(2, "plaid(ncells=all, threshold=-1, ndocs=doc_count) == exact top-100")


def test_criterion_03_monotonicity_suite(bench, bench_plaid):
    corpus, queries, _, oracle = bench
    index = build_ivf(corpus, IvfConfig(nlist=128, nprobe=8, seed=7))
    total = corpus.total_vectors
    nprobes = (1, 4, 16, 64, 128)

    # direct candidate-set subset assertions, every query
    strict = {"ncells": 0, "threshold": 0}  # strict growth steps on signal prefixes
    for qid, query in queries.items():
        previous = set()
        for nprobe in nprobes:
            current = set(ivf_candidates(index, query, nprobe=nprobe))
            assert previous <= current, f"ivf candidates not nested at nprobe={nprobe} ({qid})"
            previous = current
        prev_cells = set()
        for ncells in (4, 8, 16, 32, 64):
            cells = set(plaid_candidates(bench_plaid, query, ncells=ncells, threshold=0.3).candidates)
            assert prev_cells <= cells, f"plaid candidates not nested at ncells={ncells} ({qid})"
            prev_cells = cells
        loose = set(plaid_candidates(bench_plaid, query, ncells=8, threshold=0.3).candidates)
        mid = set(plaid_candidates(bench_plaid, query, ncells=8, threshold=0.4).candidates)
        tight = set(plaid_candidates(bench_plaid, query, ncells=8, threshold=0.5).candidates)
        assert tight <= mid <= loose, f"plaid candidates not nested across thresholds ({qid})"
        # At filler 0.3 the sets above hold every doc, so they cannot fail;
        # on the signal prefix the candidate sets are proper subsets.
        signal = query.truncated(8)
        for name, chain in (
            ("ncells", [dict(ncells=n, threshold=0.0) for n in (1, 2, 4, 8, 16)]),
            ("threshold", [dict(ncells=8, threshold=t) for t in (0.5, 0.3, 0.1, 0.0)]),
        ):
            sets = [set(plaid_candidates(bench_plaid, signal, **knobs).candidates)
                    for knobs in chain]
            assert all(a <= b for a, b in zip(sets, sets[1:])), f"{name} chain not nested ({qid})"
            strict[name] += sum(a < b for a, b in zip(sets, sets[1:]))
    assert strict["ncells"] > 0 and strict["threshold"] > 0, strict

    ivf_recalls = []
    for nprobe in nprobes:
        lists = {
            qid: ivf_search(index, q, 100, nprobe=nprobe, query_id=qid)
            for qid, q in queries.items()
        }
        ivf_recalls.append(_recall_vs_oracle(lists, oracle))
    assert all(a <= b + 1e-12 for a, b in zip(ivf_recalls, ivf_recalls[1:])), ivf_recalls

    ncells_recalls = []
    for ncells in (4, 8, 16, 32, 64):
        lists = {
            qid: plaid_search(bench_plaid, q, 100, ncells=ncells, threshold=0.3, query_id=qid)
            for qid, q in queries.items()
        }
        ncells_recalls.append(_recall_vs_oracle(lists, oracle))
    assert all(a <= b + 1e-12 for a, b in zip(ncells_recalls, ncells_recalls[1:])), ncells_recalls

    threshold_recalls = []
    for threshold in (0.3, 0.4, 0.5):
        lists = {
            qid: plaid_search(bench_plaid, q, 100, ncells=8, threshold=threshold, query_id=qid)
            for qid, q in queries.items()
        }
        threshold_recalls.append(_recall_vs_oracle(lists, oracle))
    assert all(a >= b - 1e-12 for a, b in zip(threshold_recalls, threshold_recalls[1:])), (
        threshold_recalls
    )
    _pass(3, f"recall@100 monotone: nprobe {ivf_recalls} | ncells {ncells_recalls} | "
             f"threshold {threshold_recalls}; candidate subsets checked directly, with "
             f"{strict['ncells']} / {strict['threshold']} strict ncells / threshold steps")


def test_criterion_04_saturation_plateau():
    spec = SyntheticSpec(
        doc_count=250, tokens_per_doc=(4, 12), dim=128, num_concepts=24,
        queries=30, signal_tokens=6, margin=0.05, seed=5, doc_noise=0.05,
    )
    corpus, queries, qrels = generate_synthetic(spec)
    index = build_plaid(corpus, PlaidConfig(num_centroids=25, ncells=4, ndocs=250, seed=3))
    max_unique = max(len(u) for u in index.unique_codes)
    assert max_unique <= 4, f"corpus construction failed: doc spans {max_unique} centroids"
    grid = grid_search(index, queries, qrels, [4, 8, 16, 32, 64], [0.3, 0.4, 0.5],
                       ndocs=250, k=100)
    assert len(grid.rows) == 15
    by_threshold = {}
    for row in grid.rows:
        key = tuple(report.aggregate for report in row.reports.values())
        by_threshold.setdefault(row.setting["threshold"], set()).add(key)
    for threshold, rows in by_threshold.items():
        assert len(rows) == 1, f"rows differ across ncells at threshold={threshold}"
    _pass(4, f"docs span <= {max_unique} centroids; grid rows identical for ncells >= 4")


def test_criterion_05_coverage_direction():
    spec = SyntheticSpec(
        doc_count=150, tokens_per_doc=(64, 64), dim=128, num_concepts=24,
        queries=5, signal_tokens=4, seed=21,
    )
    corpus, _, _ = generate_synthetic(spec)
    config = PlaidConfig(num_centroids=128, ncells=4, ndocs=150, seed=2)
    unpooled_index = build_plaid(corpus, config)
    pooled_index = build_plaid(
        pool_corpus(corpus, 32), config, centroids=unpooled_index.centroids
    )
    cov_unpooled = centroid_coverage(unpooled_index)
    cov_pooled = centroid_coverage(pooled_index)
    assert cov_pooled.mean_unique < cov_unpooled.mean_unique

    same = TokenMatrix(np.tile(basis_matrix([0], dim=32).data, (32, 1)))
    spread = TokenMatrix(np.eye(32, dtype=np.float32))
    fixture = build_plaid(
        Corpus.build({"same": same, "spread": spread}),
        PlaidConfig(num_centroids=32, ncells=4, ndocs=2, seed=0),
    )
    report = centroid_coverage(fixture)
    by_id = {doc_id: (rows, unique) for doc_id, rows, unique in report.per_doc}
    rows, unique = by_id["same"]
    assert unique == 1
    assert unique / rows == 0.03125
    _pass(5, f"pooled mean unique {cov_pooled.mean_unique:.2f} < "
             f"unpooled {cov_unpooled.mean_unique:.2f}; identical-row doc = 1/32 exactly")


def test_criterion_06_metric_parity_with_reference():
    per_query = {
        "q1": ["dA", "dB", "dX", "dY"],
        "q2": ["dX", "dY", "dZ", "dD"],
        "q3": ["dF", "dX", "dE", "dG"],
        "q4": [f"f{i}" for i in range(52)] + ["dI"],
        "q5": ["dJ", "dK"],
    }
    qrels_pairs = [
        ("q1", "dA", 2), ("q1", "dB", 1), ("q1", "dC", 0),
        ("q2", "dD", 1),
        ("q3", "dE", 3), ("q3", "dF", 2), ("q3", "dG", 1),
        ("q4", "dH", 1), ("q4", "dI", 1),
        ("q5", "dJ", 0),
    ]
    from latebench.core import RankedList

    run = RunFile.from_ranked_lists(
        [
            RankedList(
                query_id=qid,
                hits=tuple(ScoredDoc(d, float(len(docs) - i)) for i, d in enumerate(docs)),
            )
            for qid, docs in per_query.items()
        ],
        tag="fixture",
    )
    qrels = Qrels.from_pairs(qrels_pairs)
    ref_qrels = {}
    for qid, doc, grade in qrels_pairs:
        ref_qrels.setdefault(qid, {})[doc] = grade
    checked = []
    for name, k in (("mrr", 10), ("recall", 50), ("recall", 1000), ("ndcg", 10)):
        spec = MetricSpec(name, k)
        ours = evaluate_run(run, qrels, [spec])[str(spec)]
        ref_per_query, ref_mean = ref_evaluate(per_query, ref_qrels, name, k)
        assert abs(ours.aggregate - ref_mean) <= 1e-6, (str(spec), ours.aggregate, ref_mean)
        assert set(ours.per_query) == set(ref_per_query)
        for qid, value in ref_per_query.items():
            assert abs(ours.per_query[qid] - value) <= 1e-6
        checked.append(str(spec))
    _pass(6, f"evaluate_run matches the independent reference within 1e-6 on {checked}")


def test_criterion_07_filler_dilution_and_plateau():
    base_mrr, diluted_mrr = [], []
    for seed in range(5):
        common = dict(doc_count=200, tokens_per_doc=(6, 16), dim=64, num_concepts=24,
                      queries=25, signal_tokens=8, margin=0.05, seed=seed)
        for bucket, fraction in ((base_mrr, 0.0), (diluted_mrr, 0.7)):
            corpus, queries, qrels = generate_synthetic(
                SyntheticSpec(filler_fraction=fraction, **common)
            )
            run = run_queries(partial(exact_search, corpus), queries, 10)
            bucket.append(mrr_at_k(run, qrels, 10).aggregate)
    for diluted, base in zip(diluted_mrr, base_mrr):
        assert diluted <= base + 1e-12

    spec = SyntheticSpec(
        doc_count=300, tokens_per_doc=(6, 16), dim=128, num_concepts=30,
        queries=30, signal_tokens=10, filler_fraction=0.7, margin=0.05, seed=9,
    )
    corpus, queries, qrels = generate_synthetic(spec)
    lengths = [10, 20, 40, 60, 80, 100, 121]
    table = truncation_ablation(queries, partial(exact_search, corpus), lengths, 1000, qrels)
    assert len(table.rows) == 7
    plateau = [row for row in table.rows if row.setting["length"] >= spec.signal_tokens]
    first = plateau[0]
    for row in plateau[1:]:
        for label, report in row.reports.items():
            assert abs(report.aggregate - first.reports[label].aggregate) <= 1e-6
    _pass(7, f"MRR@10 dilution direction held on 5 seeds "
             f"({[round(v, 3) for v in diluted_mrr]} <= {[round(v, 3) for v in base_mrr]}); "
             f"7 ablation rows, plateau equal within 1e-6 beyond signal length")


def test_criterion_08_cli_grid_completeness(tmp_path):
    paths = {name: str(tmp_path / name) for name in
             ("corpus.lbb", "queries.lbb", "qrels.txt", "plaid.lbi", "grid.tsv")}
    assert cli_main([
        "generate", "--out-bundle", paths["corpus.lbb"],
        "--out-queries", paths["queries.lbb"], "--out-qrels", paths["qrels.txt"],
        "--docs", "120", "--tokens-min", "5", "--tokens-max", "12", "--dim", "64",
        "--num-concepts", "18", "--queries", "15", "--signal-tokens", "5", "--seed", "3",
    ]) == 0
    assert cli_main([
        "build", "--backend", "plaid", "--bundle", paths["corpus.lbb"],
        "--out", paths["plaid.lbi"], "--num-centroids", "32", "--ndocs", "8192",
        "--seed", "4",
    ]) == 0
    assert cli_main([
        "diagnose", "--mode", "grid", "--index", paths["plaid.lbi"],
        "--bundle", paths["corpus.lbb"], "--queries", paths["queries.lbb"],
        "--qrels", paths["qrels.txt"], "--ncells", "4,8,16,32,64",
        "--threshold", "0.3,0.4,0.5", "--ndocs", "8192", "--k", "100",
        "--out", paths["grid.tsv"],
    ]) == 0
    lines = (tmp_path / "grid.tsv").read_text().splitlines()
    data_rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("threshold")]
    assert len(data_rows) == 15
    assert any(l.startswith("# command: diagnose") for l in lines)
    _pass(8, "cmd_diagnose grid over 5 x 3 settings emitted exactly 15 rows")


def test_criterion_09_residual_codec():
    spec = SyntheticSpec(
        doc_count=500, tokens_per_doc=(16, 24), dim=128, num_concepts=28,
        queries=40, signal_tokens=8, filler_fraction=0.3, margin=0.05, seed=42,
        doc_noise=0.05, concepts_per_doc=3, query_noise=0.05,
    )
    corpus, queries, _ = generate_synthetic(spec)
    assert corpus.total_vectors >= 10_000
    config = PlaidConfig(
        num_centroids=128, ncells=8, centroid_score_threshold=0.3, ndocs=500, seed=7
    )
    plain = build_plaid(corpus, config)
    residual = build_plaid(corpus, dataclasses.replace(config, residual_bits=2))

    report = residual.storage
    assert report.raw_float16_bytes == corpus.total_vectors * 128 * 2
    per_vector = 4 + (128 * 2) // 8  # centroid id + packed levels
    quantiles = 7 * 4  # the 2-bit bucket cutoffs and weights, once
    assert report.compressed_bytes == corpus.total_vectors * per_vector + quantiles
    assert report.ratio >= 6.0

    overlaps = []
    for qid, query in queries.items():
        top_plain = set(plaid_search(plain, query, 10, query_id=qid).doc_ids())
        top_residual = set(plaid_search(residual, query, 10, query_id=qid).doc_ids())
        overlaps.append(len(top_plain & top_residual) / 10)
    mean_recall = float(np.mean(overlaps))
    # 0.950 with the per-vector max-scale codec, 0.940 with corpus-wide buckets;
    # criterion floor is 0.9
    assert mean_recall >= 0.9, overlaps
    _pass(9, f"storage ratio {report.ratio:.2f} >= 6; residual top-10 recall "
             f"{mean_recall:.3f} >= 0.9 vs residual-off")


def test_criterion_10_determinism_and_round_trips(tmp_path, bench_plaid, bench):
    corpus, queries, _, oracle = bench

    # same-seed rebuild is byte-identical
    config = bench_plaid.config
    rebuilt = build_plaid(corpus, config)
    assert save_plaid_index(rebuilt) == save_plaid_index(bench_plaid)

    # bundle round trip is lossless (float32 bitwise; float16 stable at stored precision)
    small = Corpus.build({d: corpus.docs[d] for d in corpus.doc_ids[:50]})
    again = read_bundle(write_bundle(small))
    for doc_id in small.doc_ids:
        assert np.array_equal(again.docs[doc_id].data, small.docs[doc_id].data)
    half = Corpus.build({d: corpus.docs[d] for d in corpus.doc_ids[:50]}, dtype="float16")
    half_bytes = write_bundle(half)
    assert write_bundle(read_bundle(half_bytes)) == half_bytes

    # run-file round trip is lossless
    run = RunFile.from_ranked_lists(
        [oracle[qid] for qid in list(queries)[:20]], tag="latebench"
    )
    parsed = parse_run(write_run(run))
    for qid in list(queries)[:20]:
        assert parsed.ranking(qid).hits == run.ranking(qid).hits

    # every CLI output reproduces its command from its own header
    paths = {name: str(tmp_path / name) for name in
             ("corpus.lbb", "queries.lbb", "qrels.txt", "ivf.lbi", "exact.run")}
    assert cli_main([
        "generate", "--out-bundle", paths["corpus.lbb"],
        "--out-queries", paths["queries.lbb"], "--out-qrels", paths["qrels.txt"],
        "--docs", "40", "--tokens-min", "5", "--tokens-max", "10", "--dim", "64",
        "--num-concepts", "12", "--queries", "6", "--signal-tokens", "5", "--seed", "8",
    ]) == 0
    assert cli_main([
        "build", "--backend", "ivf", "--bundle", paths["corpus.lbb"],
        "--out", paths["ivf.lbi"], "--nlist", "8", "--seed", "8",
    ]) == 0
    assert cli_main([
        "search", "--backend", "exact", "--bundle", paths["corpus.lbb"],
        "--queries", paths["queries.lbb"], "--k", "10", "--out", paths["exact.run"],
    ]) == 0
    for name in ("corpus.lbb", "qrels.txt", "ivf.lbi", "exact.run"):
        path = tmp_path / name
        argv = command_from_header(path)
        saved = tmp_path / (name + ".orig")
        shutil.copy(path, saved)
        assert cli_main(argv) == 0
        assert path.read_bytes() == saved.read_bytes(), f"{name} did not reproduce"
    _pass(10, "same-seed rebuilds byte-identical; bundle and run round trips lossless; "
              "all CLI outputs reproduce from their headers")
