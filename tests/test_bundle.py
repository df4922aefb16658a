import dataclasses

import numpy as np
import pytest

from latebench import Corpus, IvfConfig, PlaidConfig, TokenMatrix, build_ivf, build_plaid
from latebench.bundle import (
    corpus_digest,
    load_ivf_index,
    load_plaid_index,
    read_bundle,
    read_bundle_meta,
    read_index_backend,
    save_ivf_index,
    save_plaid_index,
    write_bundle,
)
from latebench.errors import (
    BadMagic,
    CorpusMismatch,
    MalformedLine,
    OffsetOverlap,
    TruncatedPayload,
    VersionMismatch,
)

from conftest import basis_matrix, random_unit_matrix


def _random_corpus(seed=0, docs=20, dtype="float32"):
    rng = np.random.default_rng(seed)
    mats = {f"d{i:03d}": random_unit_matrix(rng, int(rng.integers(2, 9)), 16) for i in range(docs)}
    return Corpus.build(mats, dtype=dtype)


def test_single_doc_bundle_payload_size():
    corpus = Corpus.build({"only": basis_matrix([0], dim=16)})
    data = write_bundle(corpus)
    header_end = data.find(b"\nend\n") + len(b"\nend\n")
    assert len(data) - header_end == 16 * 4


def test_corrupt_magic_rejected():
    data = write_bundle(_random_corpus())
    with pytest.raises(BadMagic):
        read_bundle(b"#SOMETHINGELSE " + data)


def test_version_mismatch_rejected():
    data = write_bundle(_random_corpus())
    with pytest.raises(VersionMismatch):
        read_bundle(data.replace(b"v1\n", b"v9\n", 1))


def test_truncated_payload_rejected():
    data = write_bundle(_random_corpus())
    with pytest.raises(TruncatedPayload):
        read_bundle(data[:-10])


def test_trailing_junk_rejected():
    data = write_bundle(_random_corpus())
    with pytest.raises(TruncatedPayload):
        read_bundle(data + b"\x00\x00")


def test_overlapping_offsets_rejected():
    corpus = Corpus.build({"a": basis_matrix([0], dim=4), "b": basis_matrix([1], dim=4)})
    data = write_bundle(corpus)
    # second doc starts at 16; hand-edit it back to 8 so it overlaps doc one
    broken = data.replace(b"doc b 1 16", b"doc b 1 8\x20", 1)
    with pytest.raises((OffsetOverlap, TruncatedPayload)):
        read_bundle(broken)


def test_float32_roundtrip_bitwise():
    corpus = _random_corpus(seed=1, docs=100)
    again = read_bundle(write_bundle(corpus))
    assert again.manifest == corpus.manifest
    assert again.doc_ids == corpus.doc_ids
    for doc_id in corpus.doc_ids:
        assert np.array_equal(again.docs[doc_id].data, corpus.docs[doc_id].data)


def test_float16_roundtrip_stable_at_stored_precision():
    corpus = _random_corpus(seed=2, dtype="float16")
    first = write_bundle(corpus)
    loaded = read_bundle(first)
    assert loaded.manifest.dtype == "float16"
    # values are exactly the widened float16 numbers, so a rewrite is bitwise identical
    assert write_bundle(loaded) == first
    for doc_id in corpus.doc_ids:
        narrowed = corpus.docs[doc_id].data.astype(np.float16).astype(np.float32)
        assert np.array_equal(loaded.docs[doc_id].data, narrowed)


def test_meta_lines_roundtrip():
    corpus = _random_corpus(seed=3, docs=5)
    data = write_bundle(corpus, meta=["command: generate --docs 5", "param seed 3"])
    assert read_bundle_meta(data) == ["command: generate --docs 5", "param seed 3"]
    read_bundle(data)  # meta lines do not disturb parsing


def test_ivf_index_roundtrip(planted_small):
    corpus, queries, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2))
    data = save_ivf_index(index, meta=["command: build --backend ivf"])
    assert read_index_backend(data) == "ivf"
    loaded = load_ivf_index(data, corpus)
    assert loaded.config == index.config
    assert np.array_equal(loaded.centroids, index.centroids)
    assert np.array_equal(loaded.assignments, index.assignments)
    from latebench import ivf_search

    query = next(iter(queries.values()))
    assert ivf_search(loaded, query, 10) == ivf_search(index, query, 10)


def test_ivf_index_rejects_wrong_corpus(planted_small):
    corpus, _, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2))
    data = save_ivf_index(index)
    other = _random_corpus(seed=9, docs=10)
    with pytest.raises(CorpusMismatch):
        load_ivf_index(data, other)


def test_plaid_index_roundtrip_with_corpus(planted_small):
    corpus, queries, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
    data = save_plaid_index(index)
    loaded = load_plaid_index(data, corpus)
    assert loaded.config == index.config
    assert np.array_equal(loaded.codes, index.codes)
    from latebench import plaid_search

    query = next(iter(queries.values()))
    assert plaid_search(loaded, query, 10) == plaid_search(index, query, 10)


def test_plaid_residual_index_standalone(planted_small):
    # with residuals on, the index file is self-contained
    corpus, queries, _ = planted_small
    index = build_plaid(
        corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=2, seed=2)
    )
    data = save_plaid_index(index)
    loaded = load_plaid_index(data, corpus=None)
    from latebench import plaid_search

    query = next(iter(queries.values()))
    assert plaid_search(loaded, query, 10) == plaid_search(index, query, 10)
    assert loaded.storage is not None
    assert loaded.storage == index.storage


def test_plaid_residual_free_requires_corpus(planted_small):
    corpus, _, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
    with pytest.raises(CorpusMismatch):
        load_plaid_index(save_plaid_index(index), corpus=None)


def test_same_seed_index_bytes_identical(planted_small):
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=1, seed=6)
    assert save_plaid_index(build_plaid(corpus, config)) == save_plaid_index(
        build_plaid(corpus, config)
    )


def test_digest_changes_with_content():
    a = _random_corpus(seed=4, docs=4)
    b = _random_corpus(seed=5, docs=4)
    assert corpus_digest(a) != corpus_digest(b)
    assert corpus_digest(a) == corpus_digest(read_bundle(write_bundle(a, meta=["x"])))


def test_float16_manifest_survives_digest():
    corpus = _random_corpus(seed=6, dtype="float16")
    loaded = read_bundle(write_bundle(corpus))
    assert corpus_digest(loaded) == corpus_digest(
        Corpus(
            manifest=dataclasses.replace(corpus.manifest),
            doc_ids=corpus.doc_ids,
            docs={
                d: TokenMatrix(corpus.docs[d].data.astype(np.float16).astype(np.float32))
                for d in corpus.doc_ids
            },
        )
    )


def test_plaid_index_rejects_codes_that_disagree_with_header(planted_small):
    corpus, _, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
    for codes in (index.codes[:-1], index.codes + 32, index.codes - 1):
        data = save_plaid_index(dataclasses.replace(index, codes=codes))
        with pytest.raises(MalformedLine):
            load_plaid_index(data, corpus)
