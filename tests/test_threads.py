"""The two full sweeps, exact MaxSim and k-means assignment, give the same bits
split across two threads as on one.

Each test runs a sweep twice: with `core.sweep_worker` patched to a pool the
test owns, so the split is taken whatever CPUs the machine has, and patched to
None, the serial path. `kmeans._blas_threads` is patched to 1 for both, as
assign splits only when the BLAS runs on one thread. A spy on
`core.in_halves` counts the splits.
"""

import os
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from latebench import Corpus, core, exact_search, kmeans, maxsim_score, train_kmeans
from latebench.core import BLOCK_ROWS, SPLIT_ROWS, top_k
from latebench.kmeans import assign

from conftest import random_unit_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def pool():
    with ThreadPoolExecutor(1) as executor:
        yield executor


def _both_ways(monkeypatch, pool, run):
    """run() split over `pool`, then run() serial, and how many splits each made."""
    splits = []
    in_halves = core.in_halves

    def spy(*args):
        splits.append(args)
        return in_halves(*args)

    monkeypatch.setattr(core, "in_halves", spy)
    monkeypatch.setattr(kmeans, "_blas_threads", lambda: 1)
    monkeypatch.setattr(core, "sweep_worker", lambda: pool)
    threaded = run()
    split = len(splits)
    monkeypatch.setattr(core, "sweep_worker", lambda: None)
    serial = run()
    return threaded, serial, split, len(splits) - split


def _corpus(row_counts, dim=32, seed=0, tie=True) -> Corpus:
    """Random unit docs of the given row counts; with `tie`, one more doc
    repeats the first, so two docs of the two halves tie."""
    rng = np.random.default_rng(seed)
    docs = {f"d{i:05d}": random_unit_matrix(rng, int(rows), dim)
            for i, rows in enumerate(row_counts)}
    if tie:
        docs["tie"] = docs["d00000"]
    return Corpus.build(docs)


def _queries(dim=32, seed=1):
    rng = np.random.default_rng(seed)
    return [random_unit_matrix(rng, rows, dim) for rows in (1, 5, 32)]


def _listed(ranked):
    return [(hit.doc_id, hit.score.hex()) for hit in ranked.hits]


# Row counts of each corpus, all above SPLIT_ROWS rows.
CORPORA = {
    # One (g, L, dim) block: the half falls inside it.
    "one-block": [8] * 1100,
    # Many row-count blocks, rows 1 to 40.
    "many-blocks": np.random.default_rng(3).integers(1, 41, 600),
    # 2,001 docs of 4 rows (the tie doc among them), then 800 of 10: the half,
    # 8,002 of 16,004 rows, falls between the two blocks.
    "between-unequal-blocks": [4] * 2000 + [10] * 800,
}


@pytest.mark.parametrize("name", CORPORA)
def test_split_exact_sweep_keeps_every_bit(monkeypatch, pool, name):
    corpus = _corpus(CORPORA[name])
    assert corpus.total_vectors >= SPLIT_ROWS
    queries = _queries()

    def run():
        return ([_listed(top_k(corpus, q, len(corpus))) for q in queries],
                [_listed(exact_search(corpus, q, 10)) for q in queries])

    threaded, serial, split, serial_splits = _both_ways(monkeypatch, pool, run)
    assert threaded == serial
    assert (split, serial_splits) == (2 * len(queries), 0)
    for q, listed in zip(queries, threaded[0]):
        assert sorted(listed) == sorted(
            (doc_id, maxsim_score(q, doc).hex()) for doc_id, doc in corpus.docs.items())
        ties = [doc_id for doc_id, _ in listed if doc_id in ("d00000", "tie")]
        assert ties[0] == "d00000" and dict(listed)["d00000"] == dict(listed)["tie"]


def test_only_a_sweep_of_split_rows_is_split(monkeypatch, pool):
    small = _corpus([SPLIT_ROWS // 8] * 7 + [SPLIT_ROWS // 8 - 1], tie=False)
    large = _corpus([SPLIT_ROWS // 8] * 8, tie=False)
    assert (small.total_vectors, large.total_vectors) == (SPLIT_ROWS - 1, SPLIT_ROWS)
    query = _queries()[1]
    for corpus, splits in ((small, 0), (large, 1)):
        *_, split, _ = _both_ways(monkeypatch, pool, lambda: exact_search(corpus, query, 5))
        assert split == splits
    # A subset is split by its own row count: all of the large corpus's docs
    # are, the 120 of a rescoring pass (~2.4k rows on the bench) are not.
    for ordinals, splits in ((np.arange(len(large)), 1), (np.arange(0, len(large), 8), 0)):
        threaded, serial, split, _ = _both_ways(
            monkeypatch, pool, lambda: _listed(top_k(large, query, 5, ordinals=ordinals)))
        assert threaded == serial and split == splits


def _edge_tied(n, k, dim=32, seed=4):
    """n unit rows and k centroids; centroid 1 is centroid 0 with its first
    component negated, and the rows on both sides of every block edge are
    centroid 0 with that component zeroed, so they tie 0 and 1 exactly."""
    rng = np.random.default_rng(seed)
    vectors = random_unit_matrix(rng, n, dim).data.copy()
    centroids = random_unit_matrix(rng, k, dim).data.copy()
    centroids[1] = centroids[0]
    centroids[1, 0] = -centroids[0, 0]
    edges = sorted({e for lo in range(BLOCK_ROWS, n, BLOCK_ROWS)
                    for e in (lo - 1, lo, n - BLOCK_ROWS - 1, n - BLOCK_ROWS)} | {0, n - 1})
    row = centroids[0].astype(np.float64)
    row[0] = 0.0
    vectors[edges] = (row / np.linalg.norm(row)).astype(np.float32)
    return vectors, centroids, edges


@pytest.mark.parametrize("k", [2, 256, 2048])
@pytest.mark.parametrize("n", [4 * BLOCK_ROWS + 1, 10 * BLOCK_ROWS + 17])
def test_split_assign_keeps_every_label(monkeypatch, pool, n, k):
    vectors, centroids, edges = _edge_tied(n, k)
    calls = []
    matmul = np.matmul

    def spy(rows, other, out):
        calls.append((threading.get_ident(),
                      (rows.ctypes.data - vectors.ctypes.data) // vectors.strides[0], id(out)))
        return matmul(rows, other, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    threaded, serial, split, serial_splits = _both_ways(
        monkeypatch, pool, lambda: assign(vectors, centroids))
    monkeypatch.undo()
    assert threaded.dtype == serial.dtype == np.int32
    assert np.array_equal(threaded, serial)
    assert (split, serial_splits) == (1, 0)
    starts = [min(lo, n - BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS)]
    split_calls, serial_calls = calls[:len(starts)], calls[len(starts):]
    assert [lo for _, lo, _ in serial_calls] == starts
    # Two threads, each a contiguous run of the blocks into a buffer of its
    # own; the last block and its overlapping neighbour share a thread.
    runs = {}
    for thread, lo, buffer in split_calls:
        runs.setdefault((thread, buffer), []).append(lo)
    assert len(runs) == 2 and len({thread for thread, _ in runs}) == 2
    first, second = sorted(runs.values())
    assert first + second == starts and len(second) >= 2
    # The tied edge rows take the lower of the two equal dots.
    ties = vectors[edges] @ centroids[:2].T
    assert (ties[:, 0] == ties[:, 1]).all() and (threaded[edges] == 0).all()


def test_assign_of_four_blocks_is_not_split(monkeypatch, pool):
    vectors, centroids, _ = _edge_tied(4 * BLOCK_ROWS, 64)
    threaded, serial, split, _ = _both_ways(monkeypatch, pool, lambda: assign(vectors, centroids))
    assert np.array_equal(threaded, serial) and split == 0


@pytest.mark.parametrize("blas_threads", [2, 8, None])
def test_assign_is_not_split_when_the_blas_has_threads_or_is_unknown(monkeypatch, pool,
                                                                   blas_threads):
    vectors, centroids, _ = _edge_tied(5 * BLOCK_ROWS + 3, 64)
    splits = []
    monkeypatch.setattr(core, "in_halves", lambda *args: splits.append(args))
    monkeypatch.setattr(core, "sweep_worker", lambda: pool)
    monkeypatch.setattr(kmeans, "_blas_threads", lambda: blas_threads)
    threaded = assign(vectors, centroids)
    monkeypatch.setattr(core, "sweep_worker", lambda: None)
    assert np.array_equal(threaded, assign(vectors, centroids)) and splits == []


def test_blas_threads_reads_what_the_blas_runs_on():
    threads = kmeans._blas_threads()
    assert threads is None or threads >= 1
    if threads is not None:  # numpy's OpenBLAS, as its wheels bundle it
        script = "from latebench import kmeans; print(kmeans._blas_threads())"
        done = subprocess.run([sys.executable, "-c", script], env={**_env(), "OPENBLAS_NUM_THREADS": "1"},
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.split() == ["1"]


@pytest.mark.parametrize("k", [2, 64])
def test_split_training_is_bit_identical(monkeypatch, pool, k):
    vectors = random_unit_matrix(np.random.default_rng(9), 5 * BLOCK_ROWS + 123, 16).data

    def run():
        centroids, labels = train_kmeans(vectors, k, iters=8, seed=3)
        return centroids.tobytes() + labels.tobytes()

    threaded, serial, split, serial_splits = _both_ways(monkeypatch, pool, run)
    assert threaded == serial
    assert split >= 2 and serial_splits == 0


def test_concurrent_callers_share_one_worker_and_keep_their_bits(monkeypatch):
    corpus = _corpus(CORPORA["many-blocks"])
    query = _queries()[2]
    vectors, centroids, _ = _edge_tied(5 * BLOCK_ROWS + 3, 64, dim=16)

    def work():
        return _listed(exact_search(corpus, query, 50)), assign(vectors, centroids).tobytes()

    monkeypatch.setattr(core, "sweep_worker", lambda: None)
    expected = work()
    monkeypatch.undo()
    # A fresh process on two CPUs: the worker is made by whichever caller comes first.
    monkeypatch.setattr(kmeans, "_blas_threads", lambda: 1)
    monkeypatch.setattr(core, "_pool", core._UNSET)
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    callers = 6
    start = threading.Barrier(callers)
    results, pools = [None] * callers, [None] * callers

    def caller(i):
        start.wait()
        pools[i] = core.sweep_worker()
        results[i] = [work() for _ in range(3)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
        if core._pool not in (core._UNSET, None):
            core._pool.shutdown()
    assert pools[0] is not None and all(pool is pools[0] for pool in pools)
    assert results == [[expected] * 3] * callers


_DIGESTS = """
import hashlib, os, sys, threading
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from latebench import Corpus, TokenMatrix, core, exact_search, train_kmeans
rng = np.random.default_rng(5)
rows = rng.standard_normal((5 * core.BLOCK_ROWS + 9, 16)).astype(np.float32)
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
offsets = np.arange(0, len(rows) + 1, 9)
offsets[-1] = len(rows)
corpus = Corpus(tuple(f"d{i}" for i in range(len(offsets) - 1)), rows, offsets)
hits = exact_search(corpus, TokenMatrix(rows[:7]), 50).hits
centroids, labels = train_kmeans(rows, 32, iters=4, seed=1)
print(hashlib.sha256(repr([(h.doc_id, h.score.hex()) for h in hits]).encode()
                     + centroids.tobytes() + labels.tobytes()).hexdigest(),
      threading.active_count(), core.sweep_worker() is None)
"""


def _env(**extra):
    """This environment, with the package's sources first on the import path."""
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_a_process_pinned_to_one_cpu_starts_no_thread():
    # One BLAS thread, so that a free process splits assign as well.
    env = _env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    printed = {}
    for mode in ("pinned", "free"):
        done = subprocess.run([sys.executable, "-c", _DIGESTS, mode], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        printed[mode] = done.stdout.split()
    digest, threads, serial = printed["pinned"]
    assert (threads, serial) == ("1", "True")
    assert printed["free"][0] == digest
    if len(os.sched_getaffinity(0)) > 1:
        assert printed["free"][1:] == ["2", "False"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_a_forked_child_makes_its_own_worker(monkeypatch):
    corpus = _corpus(CORPORA["many-blocks"])
    query = _queries()[2]
    # The parent holds a started worker thread, which the child does not inherit.
    parent_pool = ThreadPoolExecutor(1)
    parent_pool.submit(int).result()
    monkeypatch.setattr(core, "_pool", parent_pool)
    expected = repr(_listed(exact_search(corpus, query, 20))).encode()
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking with threads
        pid = os.fork()
    if pid == 0:  # the child
        code = 1
        try:
            os.close(read)
            os.write(write, repr(_listed(exact_search(corpus, query, 20))).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        deadline = time.monotonic() + 60
        while (finished := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if finished[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's exact search did not finish in 60 s")
        assert os.waitstatus_to_exitcode(finished[1]) == 0
        assert select.select([read], [], [], 0)[0]
        assert os.read(read, 1 << 16) == expected
    finally:
        os.close(read)
        parent_pool.shutdown()


_AFTER_MAIN = """
import atexit, hashlib, sys, threading, time
import numpy as np
from latebench import Corpus, TokenMatrix, core, exact_search, kmeans
kmeans._blas_threads = lambda: 1
rng = np.random.default_rng(6)
rows = rng.standard_normal((5 * core.BLOCK_ROWS + 9, 16)).astype(np.float32)
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
offsets = np.arange(0, len(rows) + 1, 9)
offsets[-1] = len(rows)
corpus = Corpus(tuple(f"d{i}" for i in range(len(offsets) - 1)), rows, offsets)
assert len(rows) >= core.SPLIT_ROWS


def digest(when):
    hits = exact_search(corpus, TokenMatrix(rows[:7]), 50).hits
    labels = kmeans.assign(rows, rows[:64])
    print(when, hashlib.sha256(repr([(h.doc_id, h.score.hex()) for h in hits]).encode()
                               + labels.tobytes()).hexdigest(), flush=True)


if sys.argv[1] == "thread":  # the worker exists; a non-daemon thread outlives main
    digest("main")
    threading.Thread(target=lambda: (time.sleep(0.5), digest("thread"))).start()
else:  # the worker is first asked for in an atexit handler
    atexit.register(digest, "atexit")
"""


def test_a_sweep_after_the_main_thread_returned_runs_on_its_caller():
    """Once the main thread has returned, the worker takes no more work: a
    sweep in a thread that outlives it, or in an atexit handler, runs whole
    on its caller and gives the bits of one split while main still ran."""
    printed = {}
    for mode in ("thread", "atexit"):
        done = subprocess.run([sys.executable, "-c", _AFTER_MAIN, mode], env=_env(),
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        printed.update(line.split() for line in done.stdout.splitlines())
    assert printed.keys() == {"main", "thread", "atexit"}
    assert printed["thread"] == printed["atexit"] == printed["main"]
