import dataclasses

import numpy as np
import pytest

from latebench import (
    Corpus,
    PlaidConfig,
    TokenMatrix,
    build_plaid,
    exact_search,
    maxsim_score,
    plaid_candidates,
    plaid_search,
)
from latebench.bundle import corpus_digest, load_plaid_index, save_plaid_index
from latebench import core, kmeans
from latebench.core import pool_corpus, top_k
from latebench.errors import CorpusMismatch, NDocsTooSmall, UnknownDoc, UnsupportedBits
from latebench.kmeans import BLOCK_ROWS, approx_scores, probe
from latebench.plaid import (
    PlaidIndex,
    decode_residuals,
    encode_residuals,
    pack_levels,
    packed_width,
    residual_quantiles,
    unpack_levels,
)

from conftest import basis_matrix, random_unit_matrix
from oracles import (
    argmax_assignment,
    compressed_size_bytes,
    loop_decode_rows,
    loop_encode_rows,
    loop_quantiles,
    loop_residual_radii,
    per_doc_centroid_scores,
    quantize_roundtrip,
    reference_plaid_funnel,
)


def _basis_corpus(dim=8, copies=3):
    docs = {}
    for j in range(dim):
        rows = np.zeros((copies, dim), dtype=np.float32)
        rows[:, j] = 1.0
        docs[f"d{j}"] = TokenMatrix(rows)
    return Corpus.build(docs)


def test_centroid_exact_vectors_have_zero_residuals():
    corpus = _basis_corpus(dim=6)
    config = PlaidConfig(num_centroids=6, ncells=2, residual_bits=1, ndocs=6, seed=0)
    index = build_plaid(corpus, config)
    assert not index.residual_quantiles.any()
    # Every component sits on the one cutoff, 0, so it goes to the bucket above.
    assert (unpack_levels(index.residual_levels, 1, 6) == 1).all()
    for ordinal in range(index.doc_count):
        decoded = index.doc_matrix(ordinal)
        original = corpus.docs[index.doc_ids[ordinal]]
        assert decoded.data == pytest.approx(original.data, abs=1e-3)


def test_same_seed_rebuild_identical(planted_small):
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, residual_bits=2, ndocs=80, seed=9)
    a = build_plaid(corpus, config)
    b = build_plaid(corpus, config)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.residual_levels, b.residual_levels)
    assert a.residual_quantiles.tobytes() == b.residual_quantiles.tobytes()
    assert save_plaid_index(a) == save_plaid_index(b)


def test_storage_report_matches_size_oracle(planted_small):
    # The report counts the arrays as saved: with the centroids they are the
    # whole payload of the written file.
    corpus, _, _ = planted_small
    rows, dim = corpus.total_vectors, corpus.dim
    for bits in (1, 2):
        config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=bits, seed=2)
        index = build_plaid(corpus, config)
        data = save_plaid_index(index)
        payload = len(data) - (data.index(b"\nend\n") + len(b"\nend\n"))
        report = index.storage
        assert report.compressed_bytes + index.centroids.nbytes == payload
        assert report.compressed_bytes == compressed_size_bytes(rows, dim, bits)
        assert report.raw_float32_bytes == rows * dim * 4
        assert report.raw_float16_bytes == rows * dim * 2
        assert load_plaid_index(data).storage == report


def test_exhaustive_config_equals_exact_search(planted_small):
    corpus, queries, _ = planted_small
    config = PlaidConfig(
        num_centroids=32, ncells=32, centroid_score_threshold=-1.0,
        ndocs=len(corpus), seed=3,
    )
    index = build_plaid(corpus, config)
    for qid, query in list(queries.items())[:6]:
        assert plaid_search(index, query, 20, query_id=qid) == exact_search(
            corpus, query, 20, query_id=qid
        )


def test_total_pruning_returns_empty_list(planted_small):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=3))
    query = next(iter(queries.values()))
    dots, _ = probe(index.centroids, query, 4)
    assert dots.max() < 1.0  # so no probed centroid reaches the threshold
    result = plaid_search(index, query, 10, threshold=1.0)
    assert result.hits == ()


def test_recall_non_increasing_in_threshold(planted_small):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=8, ndocs=80, seed=3))
    truth = {
        qid: set(exact_search(corpus, query, 20).doc_ids())
        for qid, query in queries.items()
    }
    means = []
    for threshold in (0.3, 0.4, 0.5):
        recalls = []
        for qid, query in queries.items():
            got = set(plaid_search(index, query, 20, threshold=threshold).doc_ids())
            recalls.append(len(got & truth[qid]) / len(truth[qid]))
        means.append(sum(recalls) / len(recalls))
    assert means[0] >= means[1] >= means[2]


def test_candidate_monotonicity_in_ncells_and_threshold(planted_small):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=1, ndocs=80, seed=3))
    for query in list(queries.values())[:6]:
        previous: set = set()
        for ncells in (1, 2, 4, 8, 16, 32):
            current = set(plaid_candidates(index, query, ncells=ncells, threshold=0.3).candidates)
            assert previous <= current
            previous = current
        loose = set(plaid_candidates(index, query, ncells=8, threshold=0.3).candidates)
        tight = set(plaid_candidates(index, query, ncells=8, threshold=0.5).candidates)
        assert tight <= loose


def test_stage4_scores_equal_exact_kernel_when_residuals_off(planted_small):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=8, ndocs=80, seed=3))
    query = next(iter(queries.values()))
    result = plaid_search(index, query, 10, threshold=0.0)
    for hit in result.hits:
        assert hit.score == maxsim_score(query, corpus.docs[hit.doc_id])


def _ceilings(index, query, ordinals):
    """plaid_search's ceiling on each doc ordinal's stage-4 score: its stage-3
    approx score plus its largest residual norm times the query's, and the slack."""
    total = kmeans._query_norms(query).sum()
    approx = approx_scores(index, query.data @ index.centroids.T, ordinals)
    return approx + index.max_residual[ordinals] * total + kmeans._slack(index, query.rows, total)


def _survivors(index, query, ndocs, threshold=None):
    """Stage-3 survivors by the loop oracle: best approx score first, ties by doc id."""
    candidates = plaid_candidates(index, query, threshold=threshold).candidates
    approx = per_doc_centroid_scores(query.data @ index.centroids.T, index.codes,
                                     index.row_offsets)
    return sorted(candidates, key=lambda o: (-approx[o], index.doc_ids[o]))[:ndocs]


def test_stage4_reads_each_survivor_through_doc_matrix(planted_by_filler, monkeypatch):
    # Profilers time decoded-vector access by wrapping PlaidIndex.doc_matrix,
    # so stage 4 looks every doc it scores up through it, exactly once. It
    # reads only survivors, every one of the first k, and skips one only when
    # the survivor's ceiling lies below the least exact score of the first k.
    corpus, queries, _ = planted_by_filler[0.3]
    original, seen = PlaidIndex.doc_matrix, []
    monkeypatch.setattr(PlaidIndex, "doc_matrix",
                        lambda index, ordinal: seen.append(ordinal) or original(index, ordinal))
    skipped = 0
    for bits in (0, 2):
        config = PlaidConfig(num_centroids=32, ncells=4, ndocs=40, residual_bits=bits, seed=4)
        index = build_plaid(corpus, config)
        for query in queries.values():
            survivors = _survivors(index, query, 40)
            seen.clear()
            result = plaid_search(index, query, 10)
            assert len(seen) == len(set(seen))
            assert set(survivors[:10]) <= set(seen) <= set(survivors)
            scored = {index.doc_ids[o]: maxsim_score(query, original(index, o)) for o in seen}
            unread = sorted(set(survivors) - set(seen))
            if unread:
                ceiling = _ceilings(index, query, np.array(survivors))
                floor = min(scored[index.doc_ids[o]] for o in survivors[:10])
                assert all(ceiling[survivors.index(o)] < floor for o in unread)
            skipped += len(unread)
            assert all(scored[hit.doc_id] == hit.score for hit in result.hits)
    assert skipped > 0


def test_saturation_once_doc_centroids_covered():
    # Docs sit exactly on basis directions: every document occupies one
    # centroid, so any ncells beyond the covering set cannot change top-k.
    corpus = _basis_corpus(dim=8, copies=4)
    index = build_plaid(corpus, PlaidConfig(num_centroids=8, ncells=1, ndocs=8, seed=0))
    query = basis_matrix([0, 1], dim=8)
    baseline = plaid_search(index, query, 3, ncells=2, threshold=0.3)
    for ncells in (3, 4, 8, 64):
        assert plaid_search(index, query, 3, ncells=ncells, threshold=0.3) == baseline


@pytest.mark.parametrize("ncells", [0, -1])
def test_search_time_ncells_below_one_rejected(planted_small, ncells):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=3))
    query = next(iter(queries.values()))
    with pytest.raises(ValueError, match="ncells"):
        plaid_search(index, query, 5, ncells=ncells)
    with pytest.raises(ValueError, match="ncells"):
        plaid_candidates(index, query, ncells=ncells)


@pytest.mark.parametrize("threshold", [float("nan"), 5.0, 1.0 + 1e-6, -1.5])
def test_search_time_threshold_outside_unit_range_is_refused(planted_small, threshold):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=3))
    query = next(iter(queries.values()))
    with pytest.raises(ValueError, match=r"centroid_score_threshold must be in \[-1, 1\]"):
        plaid_search(index, query, 10, threshold=threshold)
    with pytest.raises(ValueError, match=r"centroid_score_threshold must be in \[-1, 1\]"):
        plaid_candidates(index, query, threshold=threshold)
    for edge in (-1.0, 1.0):
        plaid_search(index, query, 10, threshold=edge)


def test_ndocs_too_small_is_an_error(planted_small):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=3))
    with pytest.raises(NDocsTooSmall):
        plaid_search(index, next(iter(queries.values())), 10, ndocs=5)


def _approx(index, query, ordinals):
    """Stage-3 scores of the given doc ordinals, from the probe's centroid dots."""
    dots, _ = probe(index.centroids, query, 1)
    return approx_scores(index, dots, np.asarray(ordinals)).tolist()


def _doc_codes(index, ordinal):
    """The stored centroid of each of one document's rows, in row order."""
    return index.codes[index.row_offsets[ordinal]:index.row_offsets[ordinal + 1]]


def test_approx_score_exact_for_centroid_resident_docs():
    corpus = _basis_corpus(dim=6)
    index = build_plaid(corpus, PlaidConfig(num_centroids=6, ncells=2, ndocs=6, seed=0))
    query = basis_matrix([0, 3], dim=6)
    approx = _approx(index, query, range(index.doc_count))
    for ordinal in range(index.doc_count):
        exact = maxsim_score(query, corpus.docs[index.doc_ids[ordinal]])
        assert approx[ordinal] == pytest.approx(exact, abs=1e-6)


def test_approx_score_bounded_by_query_rows(planted_small):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=3))
    query = next(iter(queries.values()))
    for score in _approx(index, query, range(0, index.doc_count, 7)):
        assert score <= query.rows + 1e-6


def test_approx_score_rank_correlates_with_exact(planted_small):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=3))
    query = next(iter(queries.values()))
    approx = _approx(index, query, range(index.doc_count))
    exact = [maxsim_score(query, corpus.docs[d]) for d in corpus.doc_ids]
    # Kendall tau over all doc pairs; the approximation must order most pairs
    # the way the exact scores do. Threshold is an artifact decision.
    concordant = discordant = 0
    n = len(approx)
    for i in range(n):
        for j in range(i + 1, n):
            da, de = approx[i] - approx[j], exact[i] - exact[j]
            if da * de > 0:
                concordant += 1
            elif da * de < 0:
                discordant += 1
    tau = (concordant - discordant) / (concordant + discordant)
    assert tau >= 0.5


def test_unknown_doc_ordinal_rejected(planted_small):
    corpus, _, _ = planted_small
    for bits in (0, 1):
        config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=bits, seed=3)
        index = build_plaid(corpus, config)
        for ordinal in (-1, index.doc_count):
            with pytest.raises(UnknownDoc):
                index.doc_matrix(ordinal)
    for ordinal in (-1, len(corpus)):
        with pytest.raises(UnknownDoc, match=rf"\[0, {len(corpus)}\)"):
            corpus.doc_matrix(ordinal)


def test_centroid_codes_shape_and_constancy(planted_small):
    corpus, _, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=3))
    codes = _doc_codes(index, 0)
    assert len(codes) == corpus.docs[corpus.doc_ids[0]].rows
    identical = TokenMatrix(np.tile(basis_matrix([0], dim=64).data, (32, 1)))
    small = Corpus.build({"same": identical, **{f"p{i}": corpus.docs[corpus.doc_ids[i]] for i in range(8)}})
    small_index = build_plaid(small, PlaidConfig(num_centroids=16, ncells=4, ndocs=9, seed=0))
    same_codes = _doc_codes(small_index, 0)
    assert len(same_codes) == 32 and len(set(same_codes.tolist())) == 1


def test_centroid_codes_match_assignment_oracle(planted_small):
    corpus, _, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=16, ncells=4, ndocs=80, seed=5))
    vectors = corpus.docs[corpus.doc_ids[3]].data
    assert _doc_codes(index, 3).tolist() == argmax_assignment(vectors, index.centroids)


ONE_ROW = np.zeros(1, dtype=np.int32)  # the codes of a one-row block on centroid 0


def test_zero_residual_decodes_to_centroid():
    # A zero residual decodes to its centroid when its bucket's weight is zero.
    centroid = basis_matrix([0], dim=8).data
    quantiles = np.zeros(3, dtype=np.float32)
    packed = encode_residuals(centroid, centroid, ONE_ROW, quantiles)
    assert (unpack_levels(packed, 1, 8) == 1).all()
    assert np.array_equal(decode_residuals(packed, quantiles, centroid, ONE_ROW), centroid)


def test_two_bit_levels_count_the_cutoffs_at_or_below():
    centroid = np.zeros((1, 4), dtype=np.float32)
    centroid[0, 0] = 1.0
    quantiles = np.array([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3], dtype=np.float32)
    # -0.2 sits on the first cutoff, so it goes to the bucket above it.
    vector = centroid + np.array([-0.25, -0.2, 0.05, 0.9], dtype=np.float32)
    packed = encode_residuals(vector, centroid, ONE_ROW, quantiles)
    assert unpack_levels(packed, 2, 4).tolist() == [[0, 1, 2, 3]]
    decoded = decode_residuals(packed, quantiles, centroid, ONE_ROW)[0]
    want = np.array([0.7, -0.1, 0.1, 0.3])
    assert decoded == pytest.approx(want / np.linalg.norm(want), abs=1e-6)


def test_quantizer_grid_is_projection():
    # Each weight lies in its own bucket when the quantiles strictly
    # increase, so re-encoding the weights gives back their levels.
    rng = np.random.default_rng(12)
    residuals = (0.4 * rng.standard_normal((300, 32))).astype(np.float32)
    zero, codes = np.zeros((1, 32), dtype=np.float32), np.zeros(300, dtype=np.int32)
    for bits in (1, 2):
        quantiles = residual_quantiles(residuals, zero, codes, bits)
        assert (np.diff(quantiles) > 0).all()
        levels = rng.integers(0, 1 << bits, size=(300, 32)).astype(np.uint8)
        again = encode_residuals(quantiles[0::2][levels], zero, codes, quantiles)
        assert np.array_equal(unpack_levels(again, bits, 32), levels)
    # On a tie, a weight equal to the cutoff above it re-encodes a level up:
    # weight 1 (0.0) equals cutoff 2 (0.0).
    tied = np.array([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0], dtype=np.float32)
    again = encode_residuals(tied[0::2][None, :], zero[:, :4], ONE_ROW, tied)
    assert unpack_levels(again, 2, 4).tolist() == [[0, 2, 2, 3]]


def test_reconstruction_quality_matches_standalone_quantizer():
    rng = np.random.default_rng(13)
    vectors, centroids = [], []
    for _ in range(500):
        v = rng.standard_normal(128)
        v = (v / np.linalg.norm(v)).astype(np.float32)
        c = v + 0.2 * rng.standard_normal(128).astype(np.float32)
        vectors.append(v)
        centroids.append((c / np.linalg.norm(c)).astype(np.float32))
    vectors, centroids, codes = np.array(vectors), np.array(centroids), np.arange(500)
    # Mean cosine between true and decoded vectors on this fixture: the
    # per-vector max-scale codec measured 0.6284 at 1 bit and 0.8629 at 2 bits,
    # the corpus-wide buckets 0.7637 and 0.9103. The floors sit above the former.
    for bits, floor in ((1, 0.75), (2, 0.90)):
        quantiles = residual_quantiles(vectors, centroids, codes, bits)
        packed = encode_residuals(vectors, centroids, codes, quantiles)
        decoded = decode_residuals(packed, quantiles, centroids, codes)
        cosines = []
        for v, c, ours in zip(vectors, centroids, decoded):
            assert ours == pytest.approx(quantize_roundtrip(v, c, quantiles), abs=1e-5)
            cosines.append(float(np.dot(v.astype(np.float64), ours.astype(np.float64))))
        assert np.mean(cosines) >= floor, bits


def test_inverted_map_is_transpose_of_codes(planted_small):
    corpus, _, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=16, ncells=4, ndocs=80, seed=5))
    for centroid in range(16):
        expected = {
            ordinal
            for ordinal in range(index.doc_count)
            if centroid in _doc_codes(index, ordinal)
        }
        assert set(index.inverted[centroid].tolist()) == expected


def test_decoded_matrices_are_unit_norm(planted_small):
    from latebench import validate_matrix

    corpus, _, _ = planted_small
    index = build_plaid(
        corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=1, seed=5)
    )
    for ordinal in range(0, index.doc_count, 9):
        validate_matrix(index.doc_matrix(ordinal))


def test_index_store_is_a_corpus(planted_small):
    corpus, _, _ = planted_small
    plain = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=5))
    assert plain.store is corpus
    assert load_plaid_index(save_plaid_index(plain), corpus).store is corpus
    residual = build_plaid(
        corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=2, seed=5)
    )
    for index in (residual, load_plaid_index(save_plaid_index(residual))):
        store = index.store
        assert isinstance(store, Corpus) and store is not corpus
        assert store.doc_ids == index.doc_ids and np.array_equal(store.offsets, index.row_offsets)
        store.check_structure()
        vectors = store.vectors
        assert vectors.shape == corpus.vectors.shape and vectors.dtype == np.float32
        assert vectors.flags.c_contiguous and not vectors.flags.writeable
        levels = unpack_levels(index.residual_levels, 2, index.dim)
        want = loop_decode_rows(levels, index.residual_quantiles, index.centroids, index.codes)
        assert vectors.tobytes() == want.tobytes()
        for ordinal, doc_id in enumerate(index.doc_ids):
            matrix = store.docs[doc_id]
            assert matrix.data.base is vectors
            lo, hi = index.row_offsets[ordinal], index.row_offsets[ordinal + 1]
            assert np.shares_memory(matrix.data, vectors[lo:hi]) and matrix.rows == hi - lo
            assert index.doc_matrix(ordinal) is matrix


def test_unsupported_bits_rejected():
    # bits follow from the quantiles' length: 15 would be 3 bits, 1 would be 0.
    v = basis_matrix([0], dim=4).data
    with pytest.raises(UnsupportedBits):
        encode_residuals(v, v, ONE_ROW, np.zeros(15, np.float32))
    with pytest.raises(UnsupportedBits):
        decode_residuals(np.zeros((1, 4), dtype=np.uint8), np.zeros(1, np.float32), v, ONE_ROW)
    with pytest.raises(UnsupportedBits):
        PlaidConfig(residual_bits=4)


def test_config_invariants():
    with pytest.raises(ValueError):
        PlaidConfig(num_centroids=4, ncells=5)
    with pytest.raises(ValueError):
        PlaidConfig(centroid_score_threshold=1.5)


def _tied_corpus():
    """Twelve doc shapes, three copies each, with ids out of ordinal order.

    Copies share their centroids and vectors, so their stage-3 and exact
    scores tie and only the doc-id tie-break orders them.
    """
    rng = np.random.default_rng(31)
    names = [f"t{i:02d}" for i in rng.permutation(36)]
    docs = {}
    for i, name in enumerate(names):
        rows = np.zeros((2, 8), dtype=np.float32)
        rows[0, i % 4] = 1.0
        rows[1, 4 + i % 3] = 1.0
        docs[name] = TokenMatrix(rows)
    return Corpus.build(docs)


def test_stage3_scores_bit_equal_per_doc_sum(planted_by_filler):
    # numpy sums up to 8 values in a plain loop and more in unrolled blocks;
    # the query lengths probe both.
    rng = np.random.default_rng(5)
    for filler, (corpus, queries, _) in planted_by_filler.items():
        index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, seed=4))
        probes = list(queries.values()) + [
            random_unit_matrix(rng, rows, 64) for rows in (1, 7, 8, 9, 17, 130, 300)
        ]
        for query in probes:
            dots = query.data @ index.centroids.T
            got = approx_scores(index, dots, np.arange(index.doc_count))
            want = per_doc_centroid_scores(dots, index.codes, index.row_offsets)
            assert got.tolist() == want, (filler, query.rows)
            _assert_any_order(index, dots, want, rng)


def _assert_any_order(index, dots, want, rng):
    """approx_scores of a strided, a reversed, a permuted and an empty ordinal array."""
    ordinals = np.arange(index.doc_count)
    for order in (ordinals[::11], ordinals[::-1], rng.permutation(ordinals)):
        assert approx_scores(index, dots, order).tolist() == [want[o] for o in order]
    empty = approx_scores(index, dots, ordinals[:0])
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_stage3_clamps_narrow_docs_among_wide_ones():
    # One-code docs sit next to docs with up to 40 distinct codes, so the
    # layered max repeats the last code of most docs on most layers.
    rng = np.random.default_rng(19)
    centroids = random_unit_matrix(rng, 48, 16).data
    docs = {}
    for i in range(60):
        width = (1, 2, 5, 40)[i % 4]
        rows = centroids[rng.choice(48, size=width, replace=False)]
        docs[f"w{i:02d}"] = TokenMatrix(np.repeat(rows, 1 + i % 3, axis=0))
    corpus = Corpus.build(docs)
    index = build_plaid(corpus, PlaidConfig(num_centroids=48, ncells=2), centroids=centroids)
    widths = np.diff(index.unique_codes.offsets)
    assert widths.min() == 1 and widths.max() == 40
    for rows in (1, 8, 9, 33):
        dots = random_unit_matrix(rng, rows, 16).data @ index.centroids.T
        got = approx_scores(index, dots, np.arange(index.doc_count))
        want = per_doc_centroid_scores(dots, index.codes, index.row_offsets)
        assert got.tolist() == want, rows
        _assert_any_order(index, dots, want, rng)


def _funnel_cases(planted_by_filler):
    for filler, (corpus, queries, _) in planted_by_filler.items():
        yield f"filler {filler}", corpus, list(queries.values())[:3], 32
    rng = np.random.default_rng(8)
    queries = [TokenMatrix(np.vstack([basis_matrix([j], dim=8).data,
                                      random_unit_matrix(rng, 4, 8).data])) for j in range(4)]
    yield "tied ids", _tied_corpus(), queries, 8


def test_plaid_search_matches_reference_funnel(planted_by_filler):
    k = 5
    for name, corpus, queries, centroids in _funnel_cases(planted_by_filler):
        fresh = build_plaid(corpus, PlaidConfig(num_centroids=centroids, ncells=2, seed=6))
        packed = build_plaid(
            corpus, PlaidConfig(num_centroids=centroids, ncells=2, residual_bits=2, seed=6)
        )
        loaded = load_plaid_index(save_plaid_index(packed))
        for index in (fresh, loaded):
            vectors = [index.doc_matrix(o).data for o in range(index.doc_count)]
            for query in queries:
                for ncells in (1, 4, 64):
                    for threshold in (0.3, 0.5):
                        # One below and at the candidate count, the cut's two sides.
                        count = len(plaid_candidates(index, query, ncells, threshold).candidates)
                        for ndocs in {k, 7, max(k, count - 1), max(k, count), index.doc_count}:
                            got = plaid_search(index, query, k, ncells=ncells,
                                               threshold=threshold, ndocs=ndocs)
                            want = reference_plaid_funnel(
                                query.data, index.centroids, index.codes, index.row_offsets,
                                index.doc_ids, vectors, ncells, threshold, ndocs, k,
                            )
                            assert [tuple(hit) for hit in got.hits] == want, (
                                name, index.config.residual_bits, ncells, threshold, ndocs)


def test_tied_corpus_cuts_inside_a_tie_group():
    # Guards the funnel test above against passing without a real tie-break:
    # for some doc shape, the first two copies by ordinal are not the first
    # two by doc id, and ndocs=2 must keep the latter.
    corpus = _tied_corpus()
    index = build_plaid(corpus, PlaidConfig(num_centroids=8, ncells=2, seed=6))
    differs = 0
    for a in range(4):
        for b in range(3):
            query = basis_matrix([a, 4 + b], dim=8)
            scores = approx_scores(index, query.data @ index.centroids.T,
                                   np.arange(index.doc_count))
            group = [index.doc_ids[o] for o in np.flatnonzero(scores == scores.max())]
            assert len(group) == 3
            cut = plaid_search(index, query, 2, ndocs=2)
            assert list(cut.doc_ids()) == sorted(group)[:2]
            differs += set(group[:2]) != set(sorted(group)[:2])
    assert differs > 0


def _hexed(ranked):  # NaN != NaN, so compare exact bit patterns
    return [(hit.doc_id, hit.score.hex()) for hit in ranked.hits]


def _full_lexsort_search(index, query, k, ndocs, ncells=None, threshold=None):
    """plaid_search's funnel with the survivors taken by one lexsort of every
    candidate, and every survivor scored: no cut before stage 3's sort or stage 4."""
    candidates = np.array(plaid_candidates(index, query, ncells, threshold).candidates,
                          dtype=np.int64)
    approx = kmeans.approx_scores(index, query.data @ index.centroids.T, candidates)
    survivors = candidates[np.lexsort((index.store.id_rank[candidates], -approx))[:ndocs]]
    return top_k(index.store, query, k, survivors, store=index)


def test_nan_scores_keep_the_full_lexsort_survivors(planted_by_filler, monkeypatch):
    # The lexsort puts NaN scores last, so the cut before it must keep every
    # NaN-scored candidate whenever fewer than ndocs scores are numbers.
    corpus, queries, _ = planted_by_filler[0.3]
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, seed=4))
    query = next(iter(queries.values()))
    rows = query.data.copy()
    rows[2] = np.nan  # every stage-3 score is NaN

    def assert_full_lexsort_survivors(probe_query):
        count = len(plaid_candidates(index, probe_query).candidates)
        assert count > 40
        for k, ndocs in ((5, 5), (10, 10), (10, 40), (10, count - 1)):
            got = plaid_search(index, probe_query, k, ndocs=ndocs)
            assert len(got.hits) == k
            assert _hexed(got) == _hexed(_full_lexsort_search(index, probe_query, k, ndocs))

    assert_full_lexsort_survivors(TokenMatrix(rows))
    approx = kmeans.approx_scores

    def every_third_nan(index, dots, ordinals):  # the others stay numbers
        scores = approx(index, dots, ordinals)
        scores[::3] = np.nan
        return scores

    monkeypatch.setattr(kmeans, "approx_scores", every_third_nan)
    assert_full_lexsort_survivors(query)


def _recording(monkeypatch, owner, name):
    """Patch owner.name to record the last argument of each call; returns the record."""
    original, calls = getattr(owner, name), []
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args[-1]) or original(*args))
    return calls


@pytest.mark.parametrize("bits", [0, 1, 2])
def test_residual_radii_round_the_loop_norms_up(planted_by_filler, bits):
    corpus, _, _ = planted_by_filler[0.3]
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, residual_bits=bits,
                                            seed=4))
    want = loop_residual_radii(index.store.vectors, index.centroids, index.codes,
                               index.row_offsets)
    got = index.max_residual
    assert got.dtype == np.float32 and got.shape == want.shape
    assert (got >= want).all() and (got <= want * (1 + 1e-5) + 1e-20).all()


def _on_centroid_index(rng):
    """Every row of every doc is one of the index's centroids: zero residuals."""
    centroids = random_unit_matrix(rng, 24, 16).data
    docs = {f"c{i:02d}": TokenMatrix(centroids[rng.choice(24, size=1 + i % 5, replace=False)])
            for i in range(40)}
    return build_plaid(Corpus.build(docs), PlaidConfig(num_centroids=24, ncells=2),
                       centroids=centroids)


def test_residual_bounds_hold_for_every_doc(planted_by_filler):
    # ceiling >= stage-4 score for every doc, rounding included: at 0, 1 and
    # 2 bits, pooled, on query rows scaled by 1e3, and on docs that lie on
    # their centroids, where stage 3 and stage 4 dot the same vectors in
    # different BLAS calls.
    corpus, queries, _ = planted_by_filler[0.3]
    probes = list(queries.values())[:3]
    cases = [(f"{bits} bits", build_plaid(corpus, PlaidConfig(
        num_centroids=32, ncells=4, residual_bits=bits, seed=4)), probes) for bits in (0, 1, 2)]
    cases.append(("C=4", build_plaid(pool_corpus(corpus, 4),
                                     PlaidConfig(num_centroids=32, ncells=4, seed=4)), probes))
    rng = np.random.default_rng(41)
    cases.append(("on centroids", _on_centroid_index(rng),
                  [random_unit_matrix(rng, rows, 16) for rows in (1, 5, 32)]))
    for name, index, queries in cases:
        every = np.arange(index.doc_count)
        for query in queries + [TokenMatrix(q.data * np.float32(1e3)) for q in queries]:
            ceiling = _ceilings(index, query, every)
            ranked = dict(top_k(index.store, query, len(every), every, store=index).hits)
            scores = np.array([ranked[doc_id] for doc_id in index.doc_ids])
            assert (scores <= ceiling).all(), name
            if name == "on centroids":  # the slack is all that separates them
                total = kmeans._query_norms(query).sum()
                slack = kmeans._slack(index, query.rows, total)
                assert (ceiling - scores < 2.01 * slack).all() and slack < 1e-5 * total


def test_cut_keeps_the_uncut_list_over_the_funnel_grid(planted_by_filler, monkeypatch):
    # Over the reference funnel's (ncells, threshold, ndocs) grid, the list
    # equals the uncut funnel's by float.hex(), and stage 4 does skip docs.
    reads = _recording(monkeypatch, PlaidIndex, "doc_matrix")
    for filler, (corpus, queries, _) in planted_by_filler.items():
        skipped = 0
        for bits in (0, 2):
            index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=2,
                                                    residual_bits=bits, seed=6))
            for query in list(queries.values())[:3]:
                for ncells in (1, 4, 64):
                    for threshold in (0.3, 0.5):
                        count = len(plaid_candidates(index, query, ncells, threshold).candidates)
                        for k in (1, 5, 10):
                            for ndocs in {k, 7 + k, max(k, count - 1), max(k, count)}:
                                want = _hexed(_full_lexsort_search(index, query, k, ndocs,
                                                                   ncells, threshold))
                                reads.clear()
                                got = plaid_search(index, query, k, ncells=ncells,
                                                   threshold=threshold, ndocs=ndocs)
                                assert _hexed(got) == want, (filler, bits, ncells, threshold,
                                                             k, ndocs)
                                skipped += min(count, ndocs) - len(reads)
        assert skipped > 0, filler


def test_cut_reads_fewer_at_filler_30_and_skips_the_floor_at_filler_0(planted_by_filler,
                                                                    monkeypatch):
    # A second scoring pass (a second core._row_blocks call) runs only after
    # the floor of the first k: at filler 0.0 no search takes one.
    reads = _recording(monkeypatch, PlaidIndex, "doc_matrix")
    passes = _recording(monkeypatch, core, "_row_blocks")
    for filler, (corpus, queries, _) in planted_by_filler.items():
        for bits in (0, 2):
            index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4,
                                                    residual_bits=bits, seed=4))
            fewer = second = 0
            for query in queries.values():
                survivors = _survivors(index, query, index.config.ndocs)
                assert len(survivors) > 5
                reads.clear()
                passes.clear()
                plaid_search(index, query, 5)
                fewer += len(reads) < len(survivors)
                second += len(passes) > 1
            if filler == 0.3:
                assert fewer > len(queries) / 2 and second, bits
            else:
                assert fewer == 0 and not second, bits


def test_nan_query_or_store_row_cuts_nothing(planted_by_filler, monkeypatch):
    # Both indexes assign their rows to the same centroids, so the NaN row is
    # all that sets them apart.
    corpus, queries, _ = planted_by_filler[0.3]
    config = PlaidConfig(num_centroids=32, ncells=4, seed=4)
    centroids = build_plaid(corpus, config).centroids
    index = build_plaid(corpus, config, centroids)
    query = next(iter(queries.values()))
    rows = query.data.copy()
    rows[2] = np.nan
    vectors = corpus.vectors.copy()
    vectors[corpus.offsets[7] + 1, 3] = np.nan
    broken = build_plaid(Corpus(corpus.doc_ids, vectors, corpus.offsets), config, centroids)
    assert np.isnan(broken.max_residual[7]) and np.isnan(broken.reach)
    reads = _recording(monkeypatch, PlaidIndex, "doc_matrix")
    for case, searched, probe_query in (("clean", index, query),
                                        ("NaN query row", index, TokenMatrix(rows)),
                                        ("NaN store row", broken, query)):
        for k in (1, 5, 10):
            count = len(plaid_candidates(searched, probe_query).candidates)
            reads.clear()
            got = plaid_search(searched, probe_query, k)
            assert len(reads) == len(set(reads))
            assert (len(reads) < count) == (case == "clean"), (case, k)
            assert _hexed(got) == _hexed(_full_lexsort_search(searched, probe_query, k, count))


@pytest.mark.parametrize("bits", [0, 1, 2])
def test_loaded_index_derives_the_same_radii(planted_by_filler, bits):
    # The radii are derived, never saved: a load derives them bit for bit,
    # and the file holds the same arrays as ever.
    corpus, _, _ = planted_by_filler[0.3]
    built = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, residual_bits=bits,
                                            seed=4))
    data = save_plaid_index(built)
    header = data[:data.index(b"\nend\n")].decode().splitlines()
    names = [line.split()[1] for line in header if line.startswith("array ")]
    assert names == ["centroids", "codes"] + (["residual_levels", "residual_quantiles"]
                                               if bits else [])
    for loaded in [load_plaid_index(data, corpus)] + ([load_plaid_index(data)] if bits else []):
        assert loaded.max_residual.tobytes() == built.max_residual.tobytes()
        assert loaded.max_residual.dtype == np.float32
        assert loaded.reach == built.reach
        assert save_plaid_index(loaded) == data


def test_stage3_sum_order_on_wide_magnitudes():
    # Planted dots are float32 values of similar size, whose float64 sums are
    # exact in any order; spread magnitudes make the order visible.
    rng = np.random.default_rng(17)
    index = build_plaid(_tied_corpus(), PlaidConfig(num_centroids=8, ncells=2, seed=6))
    for rows in (*range(1, 20), 127, 128, 129, 300):
        magnitudes = 10.0 ** rng.uniform(-30, 0, size=(rows, 8))
        dots = (magnitudes * rng.choice([-1.0, 1.0], size=(rows, 8))).astype(np.float32)
        got = approx_scores(index, dots, np.arange(index.doc_count))
        want = per_doc_centroid_scores(dots, index.codes, index.row_offsets)
        assert got.tolist() == want, rows


def test_build_and_load_give_identical_code_lists(planted_by_filler):
    corpus, _, _ = planted_by_filler[0.3]
    built = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, seed=6))
    loaded = load_plaid_index(save_plaid_index(built), corpus)
    for name in ("inverted", "unique_codes"):
        a, b = getattr(built, name), getattr(loaded, name)
        assert np.array_equal(a.flat, b.flat) and a.flat.dtype == b.flat.dtype == np.int32
        assert np.array_equal(a.offsets, b.offsets)
        assert [row.tolist() for row in a] == [row.tolist() for row in b]
    assert len(built.inverted) == 32 and len(built.unique_codes) == built.doc_count
    for ordinal in range(built.doc_count):
        lo, hi = built.row_offsets[ordinal], built.row_offsets[ordinal + 1]
        assert built.unique_codes[ordinal].tolist() == sorted(set(built.codes[lo:hi].tolist()))


@pytest.mark.parametrize("bits", [1, 2])
def test_block_codec_equals_per_vector_loop(bits):
    rng = np.random.default_rng(40 + bits)
    rows = BLOCK_ROWS + 37  # a partial second block
    vectors = random_unit_matrix(rng, rows, 64).data
    centroids = vectors[[0, 5, 9, 700, 2500, BLOCK_ROWS, rows - 1]]
    corpus = Corpus.build({f"d{lo}": TokenMatrix(vectors[lo:lo + 7]) for lo in range(0, rows, 7)})
    config = PlaidConfig(num_centroids=len(centroids), ncells=2, residual_bits=bits)
    index = build_plaid(corpus, config, centroids=centroids)
    quantiles = loop_quantiles(vectors, centroids, index.codes, bits)
    for got in (residual_quantiles(vectors, centroids, index.codes, bits),
                index.residual_quantiles):
        assert got.tobytes() == quantiles.tobytes()
    levels = loop_encode_rows(vectors, centroids, index.codes, quantiles)
    assert np.unique(levels).tolist() == list(range(1 << bits))
    packed = pack_levels(levels, bits)
    want = loop_decode_rows(levels, quantiles, centroids, index.codes)
    for got in (encode_residuals(vectors, centroids, index.codes, quantiles),
                index.residual_levels):
        assert got.tobytes() == packed.tobytes()
    for decoded in (decode_residuals(packed, quantiles, centroids, index.codes),
                    index.doc_matrix(0).data.base):
        assert decoded.tobytes() == want.tobytes()
    # One row alone, on either side of the block boundary, gets its bits in the block.
    for i in (BLOCK_ROWS - 1, BLOCK_ROWS + 1):
        row = slice(i, i + 1)
        one = encode_residuals(vectors[row], centroids, index.codes[row], quantiles)
        assert np.array_equal(one, packed[row])
        one = decode_residuals(one, quantiles, centroids, index.codes[row])
        assert one.tobytes() == want[row].tobytes()


def test_block_decode_norms_each_row_like_one_vector():
    # In this seeded block, row 3463 decodes to other float32 bits when its
    # norm sums the squares pairwise (np.linalg.norm along an axis) instead
    # of with the dot product np.linalg.norm takes of one vector.
    rng = np.random.default_rng(6894)
    centroids = rng.standard_normal((4096, 128))
    centroids = (centroids / np.linalg.norm(centroids, axis=1, keepdims=True)).astype(np.float32)
    levels = rng.integers(0, 4, size=(4096, 128)).astype(np.uint8)
    quantiles = np.sort(rng.uniform(-0.3, 0.3, size=7)).astype(np.float32)
    decoded = decode_residuals(pack_levels(levels, 2), quantiles, centroids, np.arange(4096))
    row = slice(3463, 3464)
    want = loop_decode_rows(levels[row], quantiles, centroids[row], [0])
    assert decoded[row].tobytes() == want.tobytes()
    vector = centroids[row] + quantiles[0::2].astype(np.float64)[levels[row]]
    pairwise = (vector / np.linalg.norm(vector, axis=1, keepdims=True)).astype(np.float32)
    assert pairwise.tobytes() != want.tobytes()


def _edited(array, where, value):
    array = array.copy()
    array[where] = value
    return array


@pytest.mark.parametrize("bits, name, edit", [
    pytest.param(0, "codes", lambda ix: {"codes": _edited(ix.codes, 0, 32 + 5)},
                 id="code-outside-centroids"),
    pytest.param(0, "codes", lambda ix: {"codes": _edited(ix.codes, 0, -1)},
                 id="code-negative"),
    pytest.param(0, "codes", lambda ix: {"codes": ix.codes[:-1]}, id="codes-one-short"),
    pytest.param(2, "residual_levels",
                 lambda ix: {"residual_levels": ix.residual_levels[:, :-1]}, id="levels-short-dim"),
    pytest.param(2, "residual_levels",
                 lambda ix: {"residual_levels": unpack_levels(ix.residual_levels, 2, ix.dim)},
                 id="levels-unpacked"),
    pytest.param(1, "residual_levels",
                 lambda ix: {"residual_levels": ix.residual_levels.astype(np.int8)},
                 id="levels-not-uint8"),
    pytest.param(1, "residual_quantiles",
                 lambda ix: {"residual_quantiles": ix.residual_quantiles[:-1]},
                 id="quantiles-one-short"),
    pytest.param(1, "residual_quantiles",
                 lambda ix: {"residual_quantiles": ix.residual_quantiles.astype(np.float64)},
                 id="quantiles-not-float32"),
    pytest.param(2, "residual_quantiles",
                 lambda ix: {"residual_quantiles": _edited(ix.residual_quantiles, 3, np.nan)},
                 id="quantiles-not-finite"),
    pytest.param(2, "residual_quantiles",
                 lambda ix: {"residual_quantiles": ix.residual_quantiles[::-1].copy()},
                 id="quantiles-decreasing"),
])
def test_index_rejects_arrays_that_do_not_fit(planted_small, bits, name, edit):
    # Unchecked, a code of num_centroids + 5 on doc 0 would be filed as doc
    # 1's centroid 5, because the (doc, code) pairs are keyed doc * count + code.
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=bits, seed=2)
    index = build_plaid(corpus, config)
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(index, **edit(index))


def test_residual_free_index_needs_its_corpus(planted_small):
    corpus, _, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
    with pytest.raises(CorpusMismatch):
        dataclasses.replace(index, corpus=None)


def test_index_without_its_corpus_needs_its_digest(planted_small):
    # Without either, a re-save could not name the corpus the index was built from.
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=2, seed=2)
    index = build_plaid(corpus, config)
    with pytest.raises(CorpusMismatch, match="corpus_sha256"):
        dataclasses.replace(index, corpus=None)
    standalone = dataclasses.replace(index, corpus=None, corpus_sha256=corpus_digest(corpus))
    assert save_plaid_index(standalone) == save_plaid_index(index)


@pytest.mark.parametrize("bits", [0, 2])
def test_index_rejects_a_corpus_its_doc_lines_do_not_fit(planted_small, bits):
    # Unchecked, a residual-free index would rescore from rows past the end
    # of a smaller corpus (IndexError), and a residual one would save the
    # other corpus's digest beside its own doc lines.
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=bits, seed=2)
    index = build_plaid(corpus, config)
    ids = corpus.doc_ids
    docs = corpus.docs
    others = [
        Corpus.build({doc_id: docs[doc_id] for doc_id in ids[:-1]}),
        Corpus.build({doc_id: docs[doc_id] for doc_id in (ids[1], ids[0], *ids[2:])}),
        Corpus.build({doc_id: docs[doc_id].truncated(1) if doc_id == ids[0] else docs[doc_id]
                      for doc_id in ids}),
    ]
    for other in others:
        with pytest.raises(CorpusMismatch, match="disagree"):
            dataclasses.replace(index, corpus=other)
    assert dataclasses.replace(index, corpus=Corpus.build(dict(docs))).doc_count == len(ids)


def _msb_first_packbits(levels, bits):
    """np.packbits of the stream of each level's bits, MSB-first."""
    rows, dim = levels.shape
    stream = (levels[:, :, None] >> np.arange(bits - 1, -1, -1)) & 1
    return np.packbits(stream.reshape(rows, dim * bits).astype(np.uint8), axis=1)


@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("dim", [128, 10, 13, 1])
def test_packed_levels_round_trip(bits, dim):
    rng = np.random.default_rng(dim * 10 + bits)
    levels = rng.integers(0, 1 << bits, size=(57, dim)).astype(np.uint8)
    levels[0] = (1 << bits) - 1  # every bit set
    levels[1] = 0
    packed = pack_levels(levels, bits)
    assert packed.dtype == np.uint8 and packed.shape == (57, packed_width(dim, bits))
    assert packed_width(dim, bits) == -(-dim * bits // 8)
    assert np.array_equal(packed, _msb_first_packbits(levels, bits))
    unpacked = unpack_levels(packed, bits, dim)
    assert unpacked.dtype == np.uint8 and unpacked.flags.c_contiguous
    assert np.array_equal(unpacked, levels)
    # The bits past dim * bits in the last byte are zero.
    pad = 8 * packed.shape[1] - dim * bits
    assert not (packed[:, -1] & ((1 << pad) - 1)).any()
    assert unpack_levels(pack_levels(levels[:0], bits), bits, dim).shape == (0, dim)
    with pytest.raises(ValueError, match="residual_levels"):
        unpack_levels(np.zeros((3, packed.shape[1] + 1), dtype=np.uint8), bits, dim)


def test_packed_level_bit_order_is_pinned():
    two = np.array([[3, 0, 1, 2, 2, 1]], dtype=np.uint8)
    assert pack_levels(two, 2).tobytes() == bytes([0b11000110, 0b10010000])
    one = np.array([[1, 0, 1, 1, 0, 0, 0, 1, 1, 1]], dtype=np.uint8)
    assert pack_levels(one, 1).tobytes() == bytes([0b10110001, 0b11000000])


@pytest.mark.parametrize("bits", [1, 2])
def test_packing_refuses_levels_bits_cannot_hold(bits):
    levels = np.zeros((3, 8), dtype=np.uint8)
    levels[2, 5] = 1 << bits
    with pytest.raises(ValueError, match="residual_levels"):
        pack_levels(levels, bits)
    with pytest.raises(UnsupportedBits):
        pack_levels(levels, 3)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, bool])
def test_packing_refuses_levels_that_are_not_integers(dtype):
    # Cast to uint8, [1.5, 0.7, 2.9, 3.0] would pack as [1, 0, 2, 3].
    levels = np.array([[1.5, 0.7, 2.9, 3.0]]).astype(dtype)
    refused = f"residual_levels must be integers, not {np.dtype(dtype)}"
    with pytest.raises(ValueError, match=refused):
        pack_levels(levels, 2)
    # Integer levels of any width pack alike.
    for integers in (np.uint8, np.int32, np.int64):
        assert pack_levels(np.array([[1, 0, 2, 3]], dtype=integers), 2).tobytes() == bytes(
            [0b01001011])
