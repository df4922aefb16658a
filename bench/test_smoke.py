"""Smoke tests for the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("query-filler30", "query-filler0", "cli-roundtrip")
SEEDS = (1, 1, 2)
COUNTS = ("core.maxsim_calls", "ivf.candidates", "plaid.centroids_probed",
          "plaid.centroids_surviving", "plaid.candidates", "plaid.rescored", "trec.run_lines")


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _snapshot(*dirs: Path) -> dict:
    return {str(p): (p.stat().st_mtime_ns, p.stat().st_size)
            for d in dirs for p in sorted(d.rglob("*"))}


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> [(stdout lines, result)] for SEEDS, plus the file snapshots."""
    before = _snapshot(ROOT / "src", ROOT / "tests")
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            for seed in SEEDS:
                done = _bench(workload, seed, trace)
                assert done.returncode == 0, done.stderr
                lines = done.stdout.strip().splitlines()
                results.setdefault((workload, trace), []).append((lines, json.loads(lines[-1])))
    return results, before, _snapshot(ROOT / "src", ROOT / "tests")


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def test_every_metric_is_printed_with_its_unit(runs):
    results, _, _ = runs
    declared = _declared()
    for (workload, trace), outputs in results.items():
        for lines, result in outputs:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, workload
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == declared[trace], (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], float)
                printed = f"metric {name} {metric['value']!r} {metric['unit']}"
                assert printed in lines, name
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_counts_repeat_for_a_seed_and_change_with_it(runs):
    results, _, _ = runs
    for workload in WORKLOADS:
        traced = [r["metrics"] for _, r in results[(workload, 1)]]
        plain = [r["metrics"] for _, r in results[(workload, 0)]]
        counts = [{name: m[name]["value"] for name in COUNTS} for m in traced]
        sizes = [m["plaid_index_bytes"]["value"] for m in plain]
        assert counts[0] == counts[1] and sizes[0] == sizes[1], workload
        assert counts[0] != counts[2] or sizes[0] != sizes[2], workload


def test_layers_a_workload_exercises_report_work(runs):
    results, _, _ = runs
    metrics = results[("cli-roundtrip", 1)][0][1]["metrics"]
    assert all(m["value"] != 0 for name, m in metrics.items()
               if name not in ("plaid.build_s", "trace.overhead_frac")), metrics
    metrics = results[("query-filler0", 1)][0][1]["metrics"]
    assert metrics["plaid.candidates"]["value"] < metrics["core.maxsim_calls"]["value"]


def test_writes_nothing_under_src_or_tests(runs):
    _, before, after = runs
    assert before == after


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("query-filler0", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
