"""The full sweeps, exact MaxSim, k-means assignment, k-means++ seeding and
the centroid sums, give the same bits split across two threads as on one.

Each test runs a sweep twice: with the CPU count `core.in_halves` reads
patched to two, so the split is taken whatever CPUs the machine has, and to
one, where both halves run on the caller. `kmeans._blas_threads` is patched
to 1 for both, as assign and seeding split only when the BLAS runs on one
thread. A spy on `core.in_halves` records which thread ran each split's second
half.
"""

import hashlib
import os
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from latebench import Corpus, core, exact_search, kmeans, maxsim_score, train_kmeans
from latebench.core import BLOCK_ROWS, SPLIT_ROWS, top_k
from latebench.kmeans import assign

from conftest import random_unit_matrix
from oracles import add_at_means, choice_seed_plus_plus, product_starts

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpus(monkeypatch, count):
    """Make the process's CPU affinity, as `core.in_halves` reads it, `count` CPUs."""
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _on_worker(thread) -> bool:
    return thread.name.startswith("latebench")


def _spy_seconds(monkeypatch) -> list:
    """Spy on `core.in_halves`: the list it returns gets the thread that ran
    each call's second half."""
    seconds = []
    in_halves = core.in_halves

    def spy(first, second):
        def recorded():
            seconds.append(threading.current_thread())
            second()
        in_halves(first, recorded)

    monkeypatch.setattr(core, "in_halves", spy)
    return seconds


def _both_ways(monkeypatch, run):
    """run() on two CPUs, then on one, and for each, per split, whether its
    second half ran on the worker thread."""
    seconds = _spy_seconds(monkeypatch)
    monkeypatch.setattr(kmeans, "_blas_threads", lambda: 1)
    _cpus(monkeypatch, 2)
    threaded = run()
    split = list(map(_on_worker, seconds))
    _cpus(monkeypatch, 1)
    serial = run()
    return threaded, serial, split, list(map(_on_worker, seconds[len(split):]))


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
def test_split_exact_sweep_keeps_every_bit(monkeypatch, name):
    corpus = _corpus(CORPORA[name])
    assert corpus.total_vectors >= SPLIT_ROWS
    queries = _queries()

    def run():
        return ([_listed(top_k(corpus, q, len(corpus))) for q in queries],
                [_listed(exact_search(corpus, q, 10)) for q in queries])

    threaded, serial, split, serial_splits = _both_ways(monkeypatch, run)
    assert threaded == serial
    assert (split, serial_splits) == ([True] * 2 * len(queries), [False] * 2 * len(queries))
    for q, listed in zip(queries, threaded[0]):
        assert sorted(listed) == sorted(
            (doc_id, maxsim_score(q, doc).hex()) for doc_id, doc in corpus.docs.items())
        ties = [doc_id for doc_id, _ in listed if doc_id in ("d00000", "tie")]
        assert ties[0] == "d00000" and dict(listed)["d00000"] == dict(listed)["tie"]


def test_only_a_sweep_of_split_rows_is_split(monkeypatch):
    small = _corpus([SPLIT_ROWS // 8] * 7 + [SPLIT_ROWS // 8 - 1], tie=False)
    large = _corpus([SPLIT_ROWS // 8] * 8, tie=False)
    assert (small.total_vectors, large.total_vectors) == (SPLIT_ROWS - 1, SPLIT_ROWS)
    query = _queries()[1]
    for corpus, splits in ((small, 0), (large, 1)):
        *_, split, _ = _both_ways(monkeypatch, lambda: exact_search(corpus, query, 5))
        assert split == [True] * splits
    # A subset is split by its own row count: all of the large corpus's docs
    # are, the 120 of a rescoring pass (~2.4k rows on the bench) are not.
    for ordinals, splits in ((np.arange(len(large)), 1), (np.arange(0, len(large), 8), 0)):
        threaded, serial, split, _ = _both_ways(
            monkeypatch, lambda: _listed(top_k(large, query, 5, ordinals=ordinals)))
        assert threaded == serial and split == [True] * splits


def _edge_tied(n, k, dim=32, seed=4):
    """n unit rows and k centroids; centroid 1 is centroid 0 with its first
    component negated, and the rows on both sides of every block edge are
    centroid 0 with that component zeroed, so they tie 0 and 1 exactly."""
    rng = np.random.default_rng(seed)
    vectors = random_unit_matrix(rng, n, dim).data.copy()
    centroids = random_unit_matrix(rng, k, dim).data.copy()
    centroids[1] = centroids[0]
    centroids[1, 0] = -centroids[0, 0]
    edges = sorted({e for lo in product_starts(n)[1:] for e in (lo - 1, lo)} | {0, n - 1})
    row = centroids[0].astype(np.float64)
    row[0] = 0.0
    vectors[edges] = (row / np.linalg.norm(row)).astype(np.float32)
    return vectors, centroids, edges


# (n, k, dim). At 40,167 rows the last product overlaps the one before it; at
# 5*BLOCK_ROWS + 17 it starts where that one ends.
ASSIGN_CASES = (
    [(n, k, 32) for n in (4 * BLOCK_ROWS + 1, 10 * BLOCK_ROWS + 17) for k in (2, 256, 2048)]
    + [(n, 256, dim) for n in (40_167, 5 * BLOCK_ROWS + 17) for dim in (2, 4, 8, 16, 128, 129)])


@pytest.mark.parametrize("n, k, dim", ASSIGN_CASES, ids=[
    f"{n}-{k}" + (f"-dim{dim}" if dim != 32 else "") for n, k, dim in ASSIGN_CASES])
def test_split_assign_keeps_every_label(monkeypatch, n, k, dim):
    vectors, centroids, edges = _edge_tied(n, k, dim)
    calls = []
    matmul = np.matmul

    def spy(rows, other, out):
        calls.append((threading.get_ident(),
                      (rows.ctypes.data - vectors.ctypes.data) // vectors.strides[0],
                      len(rows), out.ctypes.data))
        return matmul(rows, other, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    threaded, serial, split, serial_splits = _both_ways(
        monkeypatch, lambda: assign(vectors, centroids))
    monkeypatch.undo()
    product = vectors @ centroids.T
    assert threaded.dtype == serial.dtype == np.int32
    assert np.array_equal(threaded, np.argmax(product, axis=1))
    assert np.array_equal(serial, threaded)
    assert (split, serial_splits) == ([True], [False])
    starts = product_starts(n)
    split_calls, serial_calls = calls[:len(starts)], calls[len(starts):]
    assert [(lo, rows) for _, lo, rows, _ in serial_calls] == [
        (lo, BLOCK_ROWS) for lo in starts[:-1]] + [(starts[-1], n - starts[-1])]
    assert {thread for thread, _, _, _ in serial_calls} == {threading.get_ident()}
    # Two threads, each a contiguous run of the products into a buffer of its own.
    runs = {}
    for thread, lo, _, buffer in split_calls:
        runs.setdefault((thread, buffer), []).append(lo)
    assert len(runs) == 2 and len({thread for thread, _ in runs}) == 2
    first, second = sorted(runs.values())
    assert first + second == starts
    # The tied edge rows take the lower of the two equal dots wherever they are
    # the best; at dim 16 and up they are at every edge.
    ties = product[edges]
    best = ties[:, 0] == ties.max(axis=1)
    assert (ties[:, 0] == ties[:, 1]).all() and (dim < 16 or best.all())
    assert (threaded[edges][best] == 0).all()


def test_assign_of_four_blocks_is_not_split(monkeypatch):
    vectors, centroids, _ = _edge_tied(4 * BLOCK_ROWS, 64)
    threaded, serial, split, serial_splits = _both_ways(
        monkeypatch, lambda: assign(vectors, centroids))
    assert np.array_equal(threaded, serial) and split == serial_splits == []


@pytest.mark.parametrize("blas_threads", [2, 8, None])
def test_assign_is_not_split_when_the_blas_has_threads_or_is_unknown(monkeypatch,
                                                                   blas_threads):
    vectors, centroids, _ = _edge_tied(5 * BLOCK_ROWS + 3, 64)
    splits = []
    monkeypatch.setattr(core, "in_halves", lambda *args: splits.append(args))
    monkeypatch.setattr(kmeans, "_blas_threads", lambda: blas_threads)
    _cpus(monkeypatch, 2)
    threaded = assign(vectors, centroids)
    _cpus(monkeypatch, 1)
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
def test_split_training_is_bit_identical(monkeypatch, k):
    vectors = random_unit_matrix(np.random.default_rng(9), 5 * BLOCK_ROWS + 123, 16).data

    def run():
        centroids, labels = train_kmeans(vectors, k, iters=8, seed=3)
        return centroids.tobytes() + labels.tobytes()

    threaded, serial, split, serial_splits = _both_ways(monkeypatch, run)
    assert threaded == serial
    assert len(split) >= 2 and all(split) and serial_splits == [False] * len(split)


# The sha256 of the 32 seeds `_seed_plus_plus` drew (rng seed 5) from
# random_unit_matrix(default_rng(rows + dim), rows, dim) before seeding split,
# with numpy 2.4 and OpenBLAS 0.3.31: at one and at two BLAS threads, and on one CPU.
SEED_DIGESTS = {
    (4 * BLOCK_ROWS + 1, 8): "23cb92566bf95296557c88026e490173eda120c4a627093c1e708acaf09a87fe",
    (4 * BLOCK_ROWS + 1, 16): "448205354e8444f640c60da2d14d6c97387543ea631a34fe18c4ee796b071f35",
    (4 * BLOCK_ROWS + 1, 24): "1585d0631188f3f9629aee070b8e9e239dac8131c6bc2a48db7d3f874a21d25f",
    (4 * BLOCK_ROWS + 1, 128): "098797ecc1fa5929241516758eef25e3c181259f78cdbe8b5712d5ed3a30dba5",
    (4 * BLOCK_ROWS + 1, 129): "70eaf78c8f12351c531c56d0e1adf51b205f23a9139460bbb02cebc9b8418341",
    (20_001, 8): "4840904e9345e5b217a6d0adfc0df529e242463beb50db243b34e67561b75687",
    (20_001, 16): "1873d492a7a85c53693aa77016111b35e775f0505361bebefa27078d087717c5",
    (20_001, 24): "887a8d538a043da46b8a3c00534e63a02009928ebb527b9ee3a4b1c80d28d024",
    (20_001, 128): "5cf0e388e25be6182745dd240097c84eae3651f64b034c74ad6285f088655bca",
    (20_001, 129): "edf3ddb36c3c360288f5f99bd14694dc1d2b694e6f579ab444707b9be1070e4b",
    (40_167, 8): "c59950ae4234126953b40c5f492ad595a86db406952228c3f789e4ae7b2ff3f2",
    (40_167, 16): "c420f33f2c9c5303e69cc609705dba6d582ea965e14e59d5760727140d736302",
    (40_167, 24): "be768ea06bfb0512bb17b261694c4256406dd73866b862aab837844b46f25fe6",
    (40_167, 128): "8f2386b5830b83fc67f98ee0868e880f7c57df329b014ad38e9d02206a5dce28",
    (40_167, 129): "123283831f3a71b040932d2fc542e5e0cf16caa6b4457607af9088f59c0c6ea5",
}

# Every case of SEED_DIGESTS, dims 2 and 4 too, and 24,577 rows at dim 4. While
# seeding was cut in two only when its first pass's halves gave the whole
# product's bits, the cut was kept at 20,001 and 24,577 rows of dim 4, and a
# later pass moved the last row of best_dot by one ulp (passes 1 and 10): the
# split and the unsplit seeding differed there.
SEEDING_CASES = [(rows, dim) for rows in (4 * BLOCK_ROWS + 1, 20_001, 40_167)
                 for dim in (2, 4, 8, 16, 24, 128, 129)] + [(24_577, 4)]


@pytest.mark.parametrize("rows, dim", SEEDING_CASES, ids=[f"{r}x{d}" for r, d in SEEDING_CASES])
def test_split_seeding_and_sums_keep_every_bit(monkeypatch, rows, dim):
    vectors = random_unit_matrix(np.random.default_rng(rows + dim), rows, dim).data
    want = choice_seed_plus_plus(vectors, 32, np.random.default_rng(5))
    if (rows, dim) in SEED_DIGESTS:
        assert hashlib.sha256(want.tobytes()).hexdigest() == SEED_DIGESTS[rows, dim]
    passes = []
    nearest_dots = kmeans._nearest_dots

    def spy(vectors, x, best_dot):
        nearest_dots(vectors, x, best_dot)
        passes.append(best_dot.tobytes())

    def seed():
        return kmeans._seed_plus_plus(vectors, 32, np.random.default_rng(5))

    monkeypatch.setattr(kmeans, "_nearest_dots", spy)
    threaded, serial, split, serial_splits = _both_ways(monkeypatch, seed)
    # Unsplit, as with the BLAS on two threads.
    monkeypatch.setattr(kmeans, "_blas_threads", lambda: 2)
    whole = seed()
    assert threaded.tobytes() == serial.tobytes() == whole.tobytes() == want.tobytes()
    # One pass per seed but the last, with the same bytes every way.
    assert len(passes) == 3 * 31 and passes[:31] == passes[31:62] == passes[62:]
    assert (split, serial_splits) == ([True] * 31, [False] * 31)

    labels = assign(vectors, want).astype(np.intp)
    columns = kmeans._columns(vectors)
    assert columns.tobytes() == np.ascontiguousarray(vectors.T).tobytes()
    threaded, serial, split, serial_splits = _both_ways(
        monkeypatch, lambda: kmeans._cluster_sums(columns, labels, 32))
    assert threaded.tobytes() == serial.tobytes()
    assert (split, serial_splits) == ([True], [False])
    if rows == 20_001:
        sums, _, _ = add_at_means(vectors, labels, 32, want)
        assert threaded.tobytes() == sums.tobytes()


def test_sums_of_four_blocks_are_not_split(monkeypatch):
    vectors = random_unit_matrix(np.random.default_rng(4), 4 * BLOCK_ROWS, 16).data
    labels = assign(vectors, vectors[:8]).astype(np.intp)
    columns = kmeans._columns(vectors)
    threaded, serial, split, serial_splits = _both_ways(
        monkeypatch, lambda: kmeans._cluster_sums(columns, labels, 8))
    assert threaded.tobytes() == serial.tobytes() and split == serial_splits == []


def test_concurrent_callers_share_one_worker_and_keep_their_bits(monkeypatch):
    corpus = _corpus(CORPORA["many-blocks"])
    query = _queries()[2]
    vectors, centroids, _ = _edge_tied(5 * BLOCK_ROWS + 3, 64, dim=16)

    def work():
        return _listed(exact_search(corpus, query, 50)), assign(vectors, centroids).tobytes()

    monkeypatch.setattr(kmeans, "_blas_threads", lambda: 1)
    _cpus(monkeypatch, 1)
    expected = work()
    seconds = _spy_seconds(monkeypatch)
    _cpus(monkeypatch, 2)
    callers = 6
    start = threading.Barrier(callers)
    results = [None] * callers

    def caller(i):
        start.wait()
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
    assert results == [[expected] * 3] * callers
    # Every caller's second halves ran on the one worker thread.
    assert len(seconds) == 2 * 3 * callers and len(set(seconds)) == 1 and _on_worker(seconds[0])


class FirstHalfError(Exception):
    pass


class SecondHalfError(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
def test_in_halves_raises_the_first_halfs_error_else_the_seconds(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    ran = []

    def half(name, error=None, delay=0.0):
        def run():
            time.sleep(delay)
            ran.append((name, _on_worker(threading.current_thread())))
            if error is not None:
                raise error(name)
        return run

    # Both fail, the second later: the first's error, once the second has run
    # too (on one CPU the second never starts).
    with pytest.raises(FirstHalfError):
        core.in_halves(half("first", FirstHalfError), half("second", SecondHalfError, 0.2))
    assert ran == [("first", False), ("second", True)][:cpus]
    # Only the second fails, after the first has returned: its error.
    ran.clear()
    with pytest.raises(SecondHalfError):
        core.in_halves(half("first"), half("second", SecondHalfError, 0.2))
    assert ran == [("first", False), ("second", cpus == 2)]
    # Only the first fails: its error, once the slower second has run.
    ran.clear()
    with pytest.raises(FirstHalfError):
        core.in_halves(half("first", FirstHalfError), half("second", delay=0.2))
    assert ran == [("first", False), ("second", True)][:cpus]
    ran.clear()
    assert core.in_halves(half("first"), half("second", delay=0.2)) is None
    assert ran == [("first", False), ("second", cpus == 2)]


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
      threading.active_count(),
      sum(thread.name.startswith("latebench") for thread in threading.enumerate()))
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
    digest, threads, workers = printed["pinned"]
    assert (threads, workers) == ("1", "0")
    assert printed["free"][0] == digest
    if len(os.sched_getaffinity(0)) > 1:
        assert printed["free"][1:] == ["2", "1"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_a_forked_child_makes_its_own_worker(monkeypatch):
    corpus = _corpus(CORPORA["many-blocks"])
    query = _queries()[2]
    # The parent's split starts the worker thread, which the child does not
    # inherit; the child splits too.
    _cpus(monkeypatch, 2)
    expected = repr(_listed(exact_search(corpus, query, 20))).encode()
    assert any(map(_on_worker, threading.enumerate()))
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
else:  # the first split is in an atexit handler
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
