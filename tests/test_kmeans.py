import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from latebench import kmeans, train_kmeans
from latebench.errors import DimensionMismatch, TooFewVectors
from latebench.kmeans import BLOCK_ROWS, _cluster_sums, _renormalized_means, assign

from conftest import random_unit_matrix
from oracles import add_at_means, argmax_assignment, choice_seed_plus_plus


def test_perfectly_separated_pairs():
    e1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
    e2 = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.float32)
    vectors = np.stack([e1, e1, e2, e2])
    centroids, _ = train_kmeans(vectors, 2, iters=10, seed=0)
    found = {tuple(np.round(c, 6)) for c in centroids}
    assert found == {tuple(e1), tuple(e2)}


def test_k_equals_vector_count_gives_one_centroid_each():
    rng = np.random.default_rng(0)
    vectors = random_unit_matrix(rng, 6, 8).data
    centroids, _ = train_kmeans(vectors, 6, iters=10, seed=0)
    labels = assign(vectors, centroids)
    assert sorted(labels.tolist()) == list(range(6))
    for i, label in enumerate(labels):
        assert np.dot(vectors[i], centroids[label]) == pytest.approx(1.0, abs=1e-5)


def test_planted_directions_recovered():
    rng = np.random.default_rng(1)
    directions = random_unit_matrix(rng, 8, 32).data
    picks = rng.integers(0, 8, size=1000)
    noise = rng.standard_normal((1000, 32)).astype(np.float32) * 0.05
    vectors = directions[picks] + noise
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    centroids, _ = train_kmeans(vectors, 8, iters=20, seed=2)
    nearest = assign(vectors, centroids)
    dots = np.einsum("ij,ij->i", directions[picks], centroids[nearest])
    assert (dots >= 0.9).all()


def test_assignment_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    vectors = random_unit_matrix(rng, 60, 8).data
    centroids, _ = train_kmeans(vectors, 5, iters=10, seed=3)
    assert assign(vectors, centroids).tolist() == argmax_assignment(vectors, centroids)


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(4)
    vectors = random_unit_matrix(rng, 100, 16).data
    a, _ = train_kmeans(vectors, 10, iters=15, seed=7)
    b, _ = train_kmeans(vectors, 10, iters=15, seed=7)
    assert np.array_equal(a, b)
    c, _ = train_kmeans(vectors, 10, iters=15, seed=8)
    assert not np.array_equal(a, c)


def test_centroids_are_unit_norm():
    rng = np.random.default_rng(5)
    vectors = random_unit_matrix(rng, 200, 12).data
    centroids, _ = train_kmeans(vectors, 16, iters=10, seed=1)
    norms = np.linalg.norm(centroids, axis=1)
    assert norms == pytest.approx(np.ones(16), abs=1e-5)


def test_more_clusters_than_distinct_points_converges():
    # Duplicate-heavy input: dead clusters are reseeded onto existing points
    # and training still terminates with unit centroids.
    e1 = np.eye(4, dtype=np.float32)[0]
    e2 = np.eye(4, dtype=np.float32)[1]
    vectors = np.stack([e1] * 5 + [e2] * 5)
    centroids, _ = train_kmeans(vectors, 4, iters=10, seed=0)
    assert centroids.shape == (4, 4)
    labels = assign(vectors, centroids)
    for i, label in enumerate(labels):
        assert np.dot(vectors[i], centroids[label]) == pytest.approx(1.0, abs=1e-5)


def test_too_few_vectors_rejected():
    rng = np.random.default_rng(6)
    with pytest.raises(TooFewVectors):
        train_kmeans(random_unit_matrix(rng, 3, 8).data, 4)


def _update_cases():
    rng = np.random.default_rng(41)
    rows = random_unit_matrix(rng, 900, 24).data
    random_labels = assign(rows, random_unit_matrix(rng, 12, 24).data)
    # Three distinct points under seven centroids: at least four are empty.
    few = random_unit_matrix(rng, 3, 24).data[rng.integers(0, 3, size=60)]
    few_labels = assign(few, random_unit_matrix(rng, 7, 24).data)
    assert len(np.unique(few_labels)) <= 3
    return {
        "random-rows": (rows, random_labels, 12),
        "k-above-distinct": (few, few_labels, 7),
        "k-1": (rows, np.zeros(len(rows), dtype=np.int32), 1),
        "one-label": (rows, np.full(len(rows), 3, dtype=np.int32), 5),
    }


@pytest.mark.parametrize("case", ["random-rows", "k-above-distinct", "k-1", "one-label"])
def test_update_is_bit_identical_to_the_row_wise_scatter(case):
    vectors, labels, k = _update_cases()[case]
    prev = random_unit_matrix(np.random.default_rng(42), k, vectors.shape[1]).data
    want_sums, want_centroids, want_dead = add_at_means(vectors, labels, k, prev)
    columns = np.ascontiguousarray(vectors.T)
    sums = _cluster_sums(columns, labels, k)
    centroids, dead = _renormalized_means(columns, labels, k, prev)
    assert sums.dtype == np.float64 and sums.tobytes() == want_sums.tobytes()
    assert centroids.dtype == np.float32 and centroids.tobytes() == want_centroids.tobytes()
    assert np.array_equal(dead, want_dead)
    assert dead.any() == (case in ("k-above-distinct", "one-label"))


def test_training_output_is_pinned():
    # The sha256 the row-wise np.add.at update gave for these inputs with
    # numpy 2.4 and OpenBLAS 0.3.31; the bincount update must reproduce every
    # centroid bit. Another BLAS may round assign's product differently.
    rng = np.random.default_rng(2024)
    random_rows = random_unit_matrix(rng, 3000, 24).data
    duplicates = random_unit_matrix(rng, 5, 24).data[rng.integers(0, 5, size=400)]
    digest = hashlib.sha256()
    for vectors, k, seed in ((random_rows, 40, 3), (duplicates, 9, 4)):
        digest.update(train_kmeans(vectors, k, iters=20, seed=seed)[0].tobytes())
    assert digest.hexdigest() == (
        "cae9597ae4a44fcbf3d706aa4a4307dbc980ac9ede84e4983cf9c3f2255fbe5e")


@pytest.mark.parametrize("iters", [0, 1, 3, 20])
def test_training_returns_the_labels_of_its_centroids(iters):
    rng = np.random.default_rng(43)
    random_rows = random_unit_matrix(rng, 700, 24).data
    duplicates = random_unit_matrix(rng, 5, 24).data[rng.integers(0, 5, size=300)]
    for vectors, k in ((random_rows, 1), (random_rows, 17), (random_rows, 64), (duplicates, 9)):
        centroids, labels = train_kmeans(vectors, k, iters=iters, seed=iters)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, assign(vectors, centroids))


def _tied_blocks():
    """3*BLOCK_ROWS + 17 rows on 64 centroids, of which 3 and 59 are equal; the
    rows on both sides of every block boundary are centroid 3 itself."""
    rng = np.random.default_rng(7)
    n = 3 * BLOCK_ROWS + 17
    vectors = random_unit_matrix(rng, n, 128).data.copy()
    centroids = random_unit_matrix(rng, 64, 128).data.copy()
    centroids[59] = centroids[3]
    tied = [BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS,
            n - BLOCK_ROWS - 1, n - BLOCK_ROWS, 3 * BLOCK_ROWS - 1, 3 * BLOCK_ROWS, n - 1]
    vectors[tied] = centroids[3]
    return vectors, centroids, tied


def test_assign_blocks_keep_every_dot_of_the_one_product(monkeypatch):
    vectors, centroids, tied = _tied_blocks()
    product = vectors @ centroids.T
    blocks = []
    matmul = np.matmul

    def spy(rows, other, out):
        matmul(rows, other, out=out)
        blocks.append(((rows.ctypes.data - vectors.ctypes.data) // vectors.strides[0],
                       len(rows), out.copy()))
        return out

    monkeypatch.setattr(np, "matmul", spy)
    labels = assign(vectors, centroids)
    monkeypatch.undo()
    n = len(vectors)
    # Every product has BLOCK_ROWS rows but the last, which starts at the
    # multiple of 64 at or below n - BLOCK_ROWS and takes the 17 rows past it
    # too. A ragged 17-row tail would round differently here: OpenBLAS takes
    # other kernels for a product of a few rows.
    assert [(lo, rows) for lo, rows, _ in blocks] == [
        (0, BLOCK_ROWS), (BLOCK_ROWS, BLOCK_ROWS), (2 * BLOCK_ROWS, BLOCK_ROWS + 17)]
    for lo, rows, dots in blocks:
        assert dots.tobytes() == product[lo:lo + rows].tobytes()
    assert labels.dtype == np.int32
    assert np.array_equal(labels, np.argmax(product, axis=1))
    assert (product[tied, 3] == product[tied, 59]).all()
    assert (labels[tied] == 3).all()


def test_assign_holds_one_block_of_dots():
    vectors, centroids, _ = _tied_blocks()
    tracemalloc.start()
    try:
        assign(vectors, centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(vectors) * len(centroids) * 4 / 2


def test_assign_refuses_another_dim():
    rng = np.random.default_rng(8)
    with pytest.raises(DimensionMismatch, match="vector dim 16 != centroid dim 17"):
        assign(random_unit_matrix(rng, 5, 16).data, random_unit_matrix(rng, 3, 17).data)


def _multi_block_cases():
    """Two trainings over 2*BLOCK_ROWS + 301 rows: in the first the rows are six
    distinct vectors, grouped, under 11 centroids, so centroids die and are
    reseeded onto rows of the second block; in the second none die."""
    rng = np.random.default_rng(2035)
    few = random_unit_matrix(rng, 6, 24).data[np.sort(rng.integers(0, 6, 2 * BLOCK_ROWS + 301))]
    rows = random_unit_matrix(np.random.default_rng(2028), 2 * BLOCK_ROWS + 301, 24).data
    return {"reseeded": (few, 11, 5), "no-death": (rows, 48, 6)}


@pytest.mark.parametrize("case, reseeds, digest", [
    ("reseeded", True, "0baebc29a6cf341ca3338e44c3db397bf77675aa43fb0d03bf1c559085760102"),
    ("no-death", False, "0e79a1bec5292a1668f5c2a9ae643e31f2f3978a61382e1d0e59f4301ec929ad"),
], ids=["reseeded", "no-death"])
def test_multi_block_training_is_pinned(monkeypatch, case, reseeds, digest):
    # The sha256 of centroids and labels the whole-product assign gave for
    # these inputs (numpy 2.4, OpenBLAS 0.3.31), at one and at two threads.
    vectors, k, seed = _multi_block_cases()[case]
    deaths = []
    reseed = kmeans._reseed_dead

    def spy(vectors, labels, centroids, dead):
        deaths.append(bool(dead.any()))
        return reseed(vectors, labels, centroids, dead)

    monkeypatch.setattr(kmeans, "_reseed_dead", spy)
    centroids, labels = train_kmeans(vectors, k, iters=20, seed=seed)
    assert any(deaths) == reseeds
    assert hashlib.sha256(centroids.tobytes() + labels.tobytes()).hexdigest() == digest


def _weights():
    """Float64 k-means++ distance vectors, non-negative with a positive sum."""
    rng = np.random.default_rng(2040)
    for n in (1, 2, 7, 100, 40_167):
        for at in sorted({0, n // 2, n - 1}):
            one = np.zeros(n)
            one[at] = rng.uniform(2.0**-23, 4.0)
            yield one
        yield np.full(n, 0.5)  # every entry ties
        yield np.repeat(rng.uniform(0.0, 4.0, -(-n // 5)), 5)[:n]  # ties in runs of five
        yield rng.uniform(0.0, 4.0, n)
    for n in (1_000, 40_167):
        runs = rng.uniform(0.0, 4.0, n)
        for lo in range(0, n, n // 4):  # long runs of zeros among a few weights
            runs[lo:lo + n // 5] = 0.0
        yield runs
        sparse = np.zeros(n)
        sparse[rng.choice(n, 9, replace=False)] = rng.uniform(2.0**-23, 4.0, 9)
        yield sparse
        # What seeding draws from: float32 2 - 2*dot to the nearest seed, widened.
        vectors = random_unit_matrix(rng, n, 16).data
        best_dot = np.maximum(vectors @ vectors[0], vectors @ vectors[1])
        yield np.maximum(0.0, 2.0 - 2.0 * best_dot).astype(np.float64)
        tiny = np.full(n, 2.0**-23)  # the least positive float32 2 - 2*dot
        tiny[-1] = 4.0
        yield tiny


def test_draw_is_rng_choice_bit_for_bit():
    # Same index and same generator state after each of several draws, from
    # generators that start alike.
    cases = 0
    for d2 in _weights():
        for seed in (0, 1, 2):
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                want = theirs.choice(len(d2), p=d2 / d2.sum())
                assert kmeans._draw(d2.copy(), mine) == want
                assert mine.bit_generator.state == theirs.bit_generator.state
            cases += 1
    assert cases == 3 * 35
    # A zero sum draws uniformly, as rng.integers does.
    mine, theirs = np.random.default_rng(3), np.random.default_rng(3)
    assert kmeans._draw(np.zeros(40_167), mine) == theirs.integers(40_167)
    assert mine.bit_generator.state == theirs.bit_generator.state


def _untemper(y: int) -> int:
    """The MT19937 state word that its tempering turns into y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x = x & 0xFFFFFFFF
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def _drawing(u: float) -> np.random.Generator:
    """A generator whose next random() is u: an MT19937 whose next two words
    are those its (a * 2**26 + b) / 2**53 double turns into u."""
    bits = int(u * 2.0**53)
    generator = np.random.MT19937(0)
    state = generator.state
    state["state"]["key"][:2] = [_untemper(bits >> 26 << 5), _untemper((bits & (2**26 - 1)) << 6)]
    state["state"]["pos"] = 0
    generator.state = state
    return np.random.Generator(generator)


@pytest.mark.parametrize("d2, u", [
    # The cumulative sum ends below u: the small weights vanish beside the
    # first, so only the division by its last entry keeps the draw in range.
    ([1.0] + [0.99 * 2.0**-54] * 8, 1 - 2.0**-53),
    ([1.0, 1.0, 1.0, 1.0], 0.5),  # u on a boundary of the cumulative sum goes right
    ([0.0, 0.0, 3.0, 0.0], 0.0),
], ids=["below-u", "boundary", "zero"])
def test_draw_is_rng_choice_at_a_chosen_uniform(d2, u):
    d2 = np.array(d2)
    assert _drawing(u).random() == u
    theirs = _drawing(u)
    want = theirs.choice(len(d2), p=d2 / d2.sum())
    mine = _drawing(u)
    assert kmeans._draw(d2, mine) == want
    ours, their = mine.bit_generator.state["state"], theirs.bit_generator.state["state"]
    assert ours["pos"] == their["pos"] and np.array_equal(ours["key"], their["key"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_draw_refuses_a_sum_that_is_not_finite(bad):
    d2 = np.ones(50)
    d2[7] = bad
    with pytest.raises(ValueError, match="k-means"):
        kmeans._draw(d2, np.random.default_rng(0))


def test_seeding_is_the_choice_seeding_bit_for_bit():
    rng = np.random.default_rng(2041)
    rows = random_unit_matrix(rng, 3000, 24).data
    few = random_unit_matrix(rng, 4, 24).data[rng.integers(0, 4, 500)]  # sums of 0 once 4 are drawn
    same = np.repeat(rows[:1], 40, axis=0)  # every sum is 0
    for vectors, k in ((rows, 1), (rows, 2), (rows, 64), (few, 9), (same, 5), (rows[:1], 1)):
        for seed in (0, 7):
            want = choice_seed_plus_plus(vectors, k, np.random.default_rng(seed))
            got = kmeans._seed_plus_plus(vectors, k, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vectors_raise_what_choice_seeding_raised(bad):
    # rng.choice raised ValueError on the NaN probabilities such vectors give
    # (its divide warns on the way there, so warnings are silenced for it).
    rng = np.random.default_rng(2042)
    raised = []
    for n, at in ((100, 0), (100, 99), (20_001, 5), (20_001, 20_000)):
        vectors = random_unit_matrix(rng, n, 16).data.copy()
        vectors[at, 3] = bad
        for k, seed in ((2, 0), (2, 1), (8, 0), (8, 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    choice_seed_plus_plus(vectors, k, np.random.default_rng(seed))
                    want = None
                except ValueError:
                    want = ValueError
            if want is None:
                train_kmeans(vectors, k, iters=0, seed=seed)
            else:
                with pytest.raises(want):
                    train_kmeans(vectors, k, iters=2, seed=seed)
            raised.append(want)
    assert ValueError in raised


def test_split_training_is_pinned():
    # The sha256 of centroids and labels a training over 20,001 rows gave before
    # seeding and the sums split (numpy 2.4, OpenBLAS 0.3.31), at one and at two
    # BLAS threads and on one CPU. At one BLAS thread every pass splits.
    vectors = random_unit_matrix(np.random.default_rng(2036), 20_001, 32).data
    assert len(vectors) > 4 * BLOCK_ROWS
    centroids, labels = train_kmeans(vectors, 96, iters=20, seed=8)
    assert hashlib.sha256(centroids.tobytes() + labels.tobytes()).hexdigest() == (
        "679798da14e6f38ce03f186676221a5e5a4391fc5859b14c823b39ce99820ef3")
