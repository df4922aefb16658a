import copy
import dataclasses
import hashlib
import re

import numpy as np
import pytest

from latebench import (
    Corpus,
    IvfConfig,
    PlaidConfig,
    TokenMatrix,
    build_ivf,
    build_plaid,
    pool_corpus,
)
from latebench.bundle import (
    corpus_digest,
    load_ivf_index,
    load_plaid_index,
    read_bundle,
    save_ivf_index,
    save_plaid_index,
    write_bundle,
)
from latebench.errors import (
    BadMagic,
    CorpusMismatch,
    DimensionMismatch,
    EmptyCorpus,
    LatebenchError,
    MalformedLine,
    NotNormalized,
    PayloadMismatch,
    TruncatedPayload,
    VersionMismatch,
)
from latebench.plaid import unpack_levels

from conftest import basis_matrix, random_unit_matrix
from oracles import loop_decode_rows


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
        read_bundle(data.replace(b"v2\n", b"v9\n", 1))


def test_truncated_payload_rejected():
    data = write_bundle(_random_corpus())
    with pytest.raises(TruncatedPayload):
        read_bundle(data[:-10])


def test_trailing_junk_rejected():
    data = write_bundle(_random_corpus())
    with pytest.raises(TruncatedPayload):
        read_bundle(data + b"\x00\x00")


def test_float32_roundtrip_bitwise():
    corpus = _random_corpus(seed=1, docs=100)
    again = read_bundle(write_bundle(corpus))
    assert (again.dim, again.dtype, again.pooling, again.C, len(again)) == (
        corpus.dim, corpus.dtype, corpus.pooling, corpus.C, len(corpus))
    assert again.doc_ids == corpus.doc_ids
    for doc_id in corpus.doc_ids:
        assert np.array_equal(again.docs[doc_id].data, corpus.docs[doc_id].data)


def test_float16_roundtrip_stable_at_stored_precision():
    corpus = _random_corpus(seed=2, dtype="float16")
    first = write_bundle(corpus)
    loaded = read_bundle(first)
    assert loaded.dtype == "float16"
    # values are exactly the widened float16 numbers, so a rewrite is bitwise identical
    assert write_bundle(loaded) == first
    for doc_id in corpus.doc_ids:
        narrowed = corpus.docs[doc_id].data.astype(np.float16).astype(np.float32)
        assert np.array_equal(loaded.docs[doc_id].data, narrowed)


def test_float16_bundle_pools_at_its_own_tolerance(planted_small):
    corpus, _, _ = planted_small
    loaded = read_bundle(write_bundle(dataclasses.replace(corpus, dtype="float16")))
    pooled = pool_corpus(loaded, 4)
    assert (pooled.dtype, pooled.pooling, pooled.C) == ("float16", "fixed", 4)
    assert write_bundle(read_bundle(write_bundle(pooled))) == write_bundle(pooled)
    # A row off by more than its dtype's tolerance is still refused.
    for source, scale in ((loaded, 1.003), (corpus, 1.0005)):
        vectors = source.vectors.copy()
        vectors[16] *= scale
        row = 16 - corpus.offsets[1]
        with pytest.raises(NotNormalized, match=f"'{corpus.doc_ids[1]}': row {row} has norm 1.00"):
            pool_corpus(dataclasses.replace(source, vectors=vectors), 4)


def test_meta_lines_roundtrip():
    corpus = _random_corpus(seed=3, docs=5)
    data = write_bundle(corpus, meta=["command: generate --docs 5", "param seed 3"])
    head = data[:data.index(b"\nend\n")].decode("ascii")
    meta = [line[len("meta "):] for line in head.splitlines() if line.startswith("meta ")]
    assert meta == ["command: generate --docs 5", "param seed 3"]
    read_bundle(data)  # meta lines do not disturb parsing


def test_ivf_index_roundtrip(planted_small):
    corpus, queries, _ = planted_small
    index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2))
    data = save_ivf_index(index, meta=["command: build --backend ivf"])
    with pytest.raises(MalformedLine, match="not a plaid index: the file holds backend 'ivf'"):
        load_plaid_index(data, corpus)
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
        Corpus.build(
            {
                d: TokenMatrix(corpus.docs[d].data.astype(np.float16).astype(np.float32))
                for d in corpus.doc_ids
            },
            dtype="float16",
        )
    )


def test_header_text_must_be_ascii():
    corpus = _random_corpus(seed=3, docs=3)
    with pytest.raises(ValueError, match="meta \u00e9"):
        write_bundle(corpus, meta=["\u00e9"])


@pytest.mark.parametrize("sep", ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_header_text_must_stay_one_line_when_read(sep):
    # The reader splits the header with str.splitlines, which breaks at each of these.
    corpus = _random_corpus(seed=3, docs=3)
    with pytest.raises(ValueError, match="one line of ASCII text"):
        write_bundle(corpus, meta=[f"a{sep}b.lbb"])


def test_plaid_index_rejects_codes_that_disagree_with_header(planted_small):
    corpus, _, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
    for codes in (index.codes[:-1], index.codes + 32, index.codes - 1):
        corrupt = copy.copy(index)
        object.__setattr__(corrupt, "codes", codes)
        data = save_plaid_index(corrupt)
        with pytest.raises(MalformedLine):
            load_plaid_index(data, corpus)


@pytest.mark.parametrize("container", ["bundle", "ivf", "plaid1"])
def test_non_ascii_header_byte_is_malformed(planted_small, container):
    corpus, _, _ = planted_small
    if container == "bundle":
        data, load = write_bundle(corpus, meta=["x"]), read_bundle
    elif container == "ivf":
        index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2))
        data, load = save_ivf_index(index, meta=["x"]), lambda d: load_ivf_index(d, corpus)
    else:
        config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=1, seed=2)
        data, load = save_plaid_index(build_plaid(corpus, config), meta=["x"]), load_plaid_index
    load(data)
    line_no = data[:data.index(b"\nmeta x\n")].count(b"\n") + 2
    with pytest.raises(MalformedLine, match="0xe9") as exc:
        load(data.replace(b"\nmeta x\n", b"\nmeta \xe9\n", 1))
    assert exc.value.line_no == line_no


def test_corpus_digest_is_pinned():
    # Index files pair with their corpus through this digest, so the bytes it
    # hashes must not change.
    assert corpus_digest(_random_corpus(seed=4, docs=4)) == (
        "d024ae7e955819fa433049d1e9b76d62cda5c101e6ec9a61048dae7383c67366"
    )
    assert corpus_digest(_random_corpus(seed=6, dtype="float16")) == (
        "c0d14bda50f6c4f5e4e7a7425b03db4c5e883c2758eafbeb618b5890dcbecdf1"
    )
    assert corpus_digest(pool_corpus(_random_corpus(seed=7, docs=6), 3)) == (
        "ff9dd95ab5752980d24f5e1e6f17b9d3f1b4538c1ee2f35ca188b1c0c6fa4e55"
    )


def test_corpus_docs_are_views_of_one_flat_array(planted_small):
    built = _random_corpus(seed=1)
    half = _random_corpus(seed=2, dtype="float16")
    corpora = (built, read_bundle(write_bundle(built)), half, read_bundle(write_bundle(half)),
               pool_corpus(built, 3), planted_small[0])
    for corpus in corpora:
        vectors, offsets = corpus.vectors, corpus.offsets
        assert vectors.dtype == np.float32 and vectors.flags.c_contiguous
        assert not vectors.flags.writeable
        assert vectors.shape == (corpus.total_vectors, corpus.dim)
        assert offsets.dtype == np.int64 and offsets.shape == (len(corpus) + 1,)
        for ordinal, doc_id in enumerate(corpus.doc_ids):
            data = corpus.docs[doc_id].data
            assert np.shares_memory(data, vectors)
            assert np.array_equal(data, vectors[offsets[ordinal]:offsets[ordinal + 1]])


def _ndarray_fields(index):
    return [getattr(index, f.name) for f in dataclasses.fields(index)
            if isinstance(getattr(index, f.name), np.ndarray)]


def test_indexes_hold_no_vector_copy(planted_small):
    corpus, _, _ = planted_small
    shape = corpus.vectors.shape
    ivf = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2))
    plaid = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
    residual = build_plaid(
        corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=2, seed=2)
    )
    for index in (ivf, load_ivf_index(save_ivf_index(ivf), corpus)):
        assert index.corpus is corpus
        assert not [a for a in _ndarray_fields(index) if a.shape == shape]
    for index in (plaid, load_plaid_index(save_plaid_index(plaid), corpus)):
        assert not [a for a in _ndarray_fields(index) if a.shape == shape]
        for ordinal, doc_id in enumerate(index.doc_ids):
            assert index.doc_matrix(ordinal) is corpus.docs[doc_id]
    for index in (residual, load_plaid_index(save_plaid_index(residual))):
        flat = index.doc_matrix(0).data.base
        assert flat.shape == shape and not np.shares_memory(flat, corpus.vectors)
        levels = unpack_levels(index.residual_levels, 2, index.dim)
        want = loop_decode_rows(levels, index.residual_quantiles, index.centroids, index.codes)
        assert flat.tobytes() == want.tobytes()
        for ordinal in range(index.doc_count):
            matrix = index.doc_matrix(ordinal)
            assert matrix is index.doc_matrix(ordinal)
            assert np.shares_memory(matrix.data, flat)


def _edit_header(pattern, repl):
    """A corruption that rewrites the first header line matching pattern."""
    def edit(data):
        end = data.index(b"\nend\n")
        head, count = re.subn(pattern.encode(), repl.encode(), data[:end], count=1, flags=re.M)
        assert count == 1, pattern
        return head + data[end:]
    return edit


def _regroup_rows(first):
    """A corruption that sets doc 0's row count to first(rows); doc 1 keeps the total."""
    def edit(data):
        end = data.index(b"\nend\n")
        lines = data[:end].split(b"\n")
        a, b = [i for i, line in enumerate(lines) if line.startswith(b"doc ")][:2]
        rows = int(lines[a].split()[2])
        for i, delta in ((a, first(rows) - rows), (b, rows - first(rows))):
            key, doc_id, count = lines[i].split()
            lines[i] = b" ".join([key, doc_id, str(int(count) + delta).encode()])
        return b"\n".join(lines) + data[end:]
    return edit


def _repeat_doc_id(data):
    """A corruption that gives the second doc line the first one's id."""
    return _edit_header(r"^doc (\S+)( .*)\ndoc \S+ ", r"doc \1\2\ndoc \1 ")(data)


@pytest.fixture(scope="module")
def saved_indexes(planted_small):
    corpus, _, _ = planted_small
    ivf = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2))
    plaid = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
    plaid1, plaid2 = (build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80,
                                                      residual_bits=bits, seed=2))
                      for bits in (1, 2))
    ivf16 = copy.copy(ivf)  # the constructor would refuse these assignments
    object.__setattr__(ivf16, "assignments", ivf.assignments + 16)
    return {
        "ivf": save_ivf_index(ivf),
        "ivf+16": save_ivf_index(ivf16),
        "plaid": save_plaid_index(plaid),
        "plaid1": save_plaid_index(plaid1),
        "plaid2": save_plaid_index(plaid2),
    }


@pytest.mark.parametrize("dtype", [np.int64, np.uint16])
@pytest.mark.parametrize("source, field", [("ivf", "assignments"), ("plaid", "codes"),
                                           ("plaid2", "codes")])
def test_codes_no_index_file_stores_are_refused_at_construction(saved_indexes, planted_small,
                                                               dtype, source, field):
    # Both index files store int32 codes: int64 ones would save and then not
    # load, and uint16 ones would not save.
    corpus, _, _ = planted_small
    load = load_ivf_index if source == "ivf" else load_plaid_index
    index = load(saved_indexes[source], corpus)
    with pytest.raises(ValueError, match=f"^{field} must be int32, not {np.dtype(dtype)}$"):
        dataclasses.replace(index, **{field: getattr(index, field).astype(dtype)})


@pytest.mark.parametrize("source, corrupt, error", [
    pytest.param("plaid1", _edit_header(r"^doc (\S+) (\d+)$", r"doc \1 \2.5"), MalformedLine,
                 id="doc-rows-not-integer"),
    pytest.param("plaid1", _edit_header(r"^doc (\S+) \d+$", r"doc \1"), MalformedLine,
                 id="doc-rows-missing"),
    pytest.param("plaid1", _regroup_rows(lambda rows: -1), MalformedLine,
                 id="doc-rows-negative"),
    pytest.param("plaid1", _edit_header(r"^doc (\S+) \d+$", r"doc \1 " + "9" * 20),
                 MalformedLine, id="doc-rows-overflow-int64"),
    pytest.param("plaid", _edit_header(r"^ncells \d+$", "ncells four"), MalformedLine,
                 id="ncells-not-integer"),
    pytest.param("ivf", _edit_header(r"^nlist \d+$", "nlist x"), MalformedLine,
                 id="nlist-not-integer"),
    pytest.param("plaid", _edit_header(r"^num_centroids \d+$", "num_centroids 0"), MalformedLine,
                 id="num-centroids-zero"),
    pytest.param("plaid", _edit_header(r"^array codes int32", "array codes int16"), MalformedLine,
                 id="array-dtype-int16"),
    pytest.param("plaid", _edit_header(r"^array codes .*\n", ""), MalformedLine,
                 id="codes-array-missing"),
    pytest.param("ivf", _edit_header(r"^array assignments .*\n", ""), MalformedLine,
                 id="assignments-array-missing"),
    pytest.param("plaid", _edit_header(r"^(array codes int32 1 \d+) \d+ \d+$", r"\1"),
                 MalformedLine, id="array-line-cut-short"),
    pytest.param("ivf+16", lambda data: data, MalformedLine, id="assignments-outside-nlist"),
    pytest.param("ivf", _edit_header(r"^nlist 16$", "nlist 8"), MalformedLine,
                 id="nlist-disagrees-with-centroids"),
    pytest.param("plaid", _edit_header(r"^num_centroids 32$", "num_centroids 40"), MalformedLine,
                 id="num-centroids-disagree-with-centroids"),
    pytest.param("plaid", _regroup_rows(lambda rows: rows - 1), CorpusMismatch,
                 id="doc-rows-moved"),
    pytest.param("plaid1", _repeat_doc_id, MalformedLine, id="doc-id-repeated"),
])
def test_index_loaders_reject_inconsistent_headers(planted_small, saved_indexes, source,
                                                   corrupt, error):
    corpus, _, _ = planted_small
    load = load_ivf_index if source.startswith("ivf") else load_plaid_index
    load(saved_indexes[source.removesuffix("+16")], corpus)  # the untouched file loads
    with pytest.raises(error):
        load(corrupt(saved_indexes[source]), corpus)


@pytest.mark.parametrize("container, after, extra", [
    pytest.param("bundle", "C 0", "bogus 1 2 3", id="bundle-bogus"),
    pytest.param("bundle", "C 0", "dim 99", id="bundle-v1-dim"),
    pytest.param("plaid1", "ncells 4", "nlist 5", id="plaid-ivf-key"),
    pytest.param("ivf", "nlist 16", "ncells 4", id="ivf-plaid-key"),
])
def test_header_keys_outside_the_layout_are_malformed(planted_small, saved_indexes, container,
                                                      after, extra):
    corpus, _, _ = planted_small
    data = write_bundle(corpus) if container == "bundle" else saved_indexes[container]
    load = {"bundle": read_bundle, "ivf": lambda d: load_ivf_index(d, corpus),
            "plaid1": load_plaid_index}[container]
    load(data)
    line_no = data[:_payload_start(data)].decode().splitlines().index(after) + 2
    edited = _edit_header(rf"^{after}$", f"{after}\n{extra}")(data)
    with pytest.raises(MalformedLine, match=rf"^line {line_no}: header key '{extra.split()[0]}'"):
        load(edited)


@pytest.mark.parametrize("source, pattern, repl, named", [
    pytest.param("plaid", r"^ncells \d+$", "ncells four", r"ncells four", id="value-not-parsed"),
    pytest.param("bundle", r"^C 0$", "C x", r"C x", id="bundle-value-not-parsed"),
    pytest.param("ivf", r"^(nlist \d+)$", r"\1\n\1", r"nlist \d+", id="key-repeated"),
    pytest.param("plaid1", r"^doc (\S+) \d+$", r"doc \1", r"doc \S+", id="doc-line-short"),
    pytest.param("bundle", r"^doc (\S+)( .*)\ndoc \S+ ", r"doc \1\2\ndoc \1 ",
                 r"doc d00000 .*", id="doc-id-repeated"),
    pytest.param("plaid", r"^(array codes int32 1 \d+) \d+ \d+$", r"\1",
                 r"array codes int32 1 \d+", id="array-line-short"),
    pytest.param("plaid", r"^array codes int32", "array codes int16", r"array codes int16 .*",
                 id="array-line-mismatched"),
])
def test_header_faults_name_their_line(planted_small, saved_indexes, source, pattern, repl,
                                       named):
    corpus, _, _ = planted_small
    data = write_bundle(corpus) if source == "bundle" else saved_indexes[source]
    load = {"bundle": read_bundle, "ivf": lambda d: load_ivf_index(d, corpus),
            "plaid": lambda d: load_plaid_index(d, corpus), "plaid1": load_plaid_index}[source]
    edited = _edit_header(pattern, repl)(data)
    lines = edited[:_payload_start(edited)].decode().splitlines()
    # The last line matching `named` is the refused one: a repeat names its second line.
    line_no = max(i for i, line in enumerate(lines, start=1) if re.fullmatch(named, line))
    assert line_no > 1
    with pytest.raises(MalformedLine, match=rf"^line {line_no}: "):
        load(edited)


@pytest.mark.parametrize("source, field, value", [
    ("ivf", "nlist", "0"),
    ("ivf", "nprobe", "17"),
    ("ivf", "per_token_candidates", "0"),
    ("plaid", "num_centroids", "0"),
    ("plaid", "ncells", "33"),
    ("plaid", "centroid_score_threshold", "1.5"),
    ("plaid", "ndocs", "0"),
    ("plaid1", "residual_bits", "3"),
])
def test_invalid_config_values_name_their_line(planted_small, saved_indexes, source, field,
                                               value):
    # One edited line per IvfConfig and PlaidConfig check.
    corpus, _, _ = planted_small
    load = load_ivf_index if source == "ivf" else load_plaid_index
    edited = _edit_header(rf"^{field} \S+$", f"{field} {value}")(saved_indexes[source])
    line_no = edited[:_payload_start(edited)].decode().splitlines().index(f"{field} {value}") + 1
    assert line_no > 1
    with pytest.raises(MalformedLine, match=rf"^line {line_no}: invalid \w+Config: {field} "):
        load(edited, corpus)


def _shrink_assignments(data):
    """A corruption that declares one assignment fewer than the payload holds."""
    def fewer(match):
        rows, offset, nbytes = map(int, match.groups())
        return f"array assignments int32 1 {rows - 1} {offset} {nbytes - 4}"

    end = data.index(b"\nend\n")
    head, count = re.subn(r"^array assignments int32 1 (\d+) (\d+) (\d+)$", fewer,
                          data[:end].decode("ascii"), flags=re.M)
    assert count == 1
    return head.encode("ascii") + data[end:]


@pytest.mark.parametrize("source, corrupt, named", [
    pytest.param("ivf", _edit_header(r"^corpus_sha256 .*\n", ""), "corpus_sha256",
                 id="ivf-without-digest"),
    pytest.param("plaid", _edit_header(r"^corpus_sha256 .*\n", ""), "corpus_sha256",
                 id="plaid-without-digest"),
    pytest.param("plaid2", _edit_header(r"^corpus_sha256 .*\n", ""), "corpus_sha256",
                 id="plaid2-without-digest"),
    pytest.param("ivf", _shrink_assignments, "assignments", id="assignments-one-row-short"),
])
def test_index_faults_are_malformed_lines_naming_their_part(planted_small, saved_indexes,
                                                            source, corrupt, named):
    corpus, _, _ = planted_small
    # The corpus's ids and row counts with other vectors: a PLAID index without
    # its digest once loaded with it and rescored from the wrong vectors.
    rolled = Corpus(corpus.doc_ids, np.roll(corpus.vectors, 1, axis=0), corpus.offsets)
    loads = {"ivf": [lambda d: load_ivf_index(d, corpus)],
             "plaid": [lambda d: load_plaid_index(d, rolled)],
             "plaid2": [lambda d: load_plaid_index(d, rolled), load_plaid_index]}[source]
    edited = corrupt(saved_indexes[source])
    for load in loads:
        with pytest.raises(MalformedLine, match=named):
            load(edited)


def test_repeated_doc_ids_are_malformed_without_a_corpus(planted_small, saved_indexes):
    # Without a corpus to compare against, a repeated id would map two
    # ordinals to one decoded view.
    corpus, _, _ = planted_small
    load_plaid_index(saved_indexes["plaid1"])
    with pytest.raises(MalformedLine, match="not unique"):
        load_plaid_index(_repeat_doc_id(saved_indexes["plaid1"]))
    data = write_bundle(corpus)
    read_bundle(data)
    with pytest.raises(MalformedLine, match="not unique"):
        read_bundle(_repeat_doc_id(data))


def test_pooled_bundle_with_edited_C_is_malformed(planted_small):
    corpus, _, _ = planted_small
    data = write_bundle(pool_corpus(corpus, 3))
    read_bundle(data)
    with pytest.raises(MalformedLine, match="expected C=2"):
        read_bundle(_edit_header(r"^C 3$", "C 2")(data))


def test_unpooled_bundle_with_edited_C_is_malformed(planted_small):
    corpus, _, _ = planted_small
    data = write_bundle(corpus)
    read_bundle(data)
    with pytest.raises(MalformedLine, match="pooling=none requires C=0"):
        read_bundle(_edit_header(r"^C 0$", "C 5")(data))


def test_plaid_index_without_docs_is_an_empty_corpus(planted_small):
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=1, seed=2)
    index = build_plaid(corpus, config)
    empty = copy.copy(index)
    for name, value in [
        ("doc_ids", ()),
        ("row_offsets", np.zeros(1, dtype=np.int64)),
        ("codes", index.codes[:0]),
        ("residual_levels", index.residual_levels[:0]),
    ]:
        object.__setattr__(empty, name, value)
    data = save_plaid_index(empty)
    assert b"\ndoc " not in data and b"array codes int32 1 0 " in data
    with pytest.raises(EmptyCorpus):
        load_plaid_index(data)


def _payload_start(data):
    return data.index(b"\nend\n") + len(b"\nend\n")


def test_bundles_are_v2_indexes_v3_and_older_files_are_refused(saved_indexes, planted_small):
    corpus, _, _ = planted_small
    data = write_bundle(corpus)
    assert data.startswith(b"#LATEBENCH-BUNDLE v2\n")
    with pytest.raises(VersionMismatch, match="regenerate the bundle"):
        read_bundle(data.replace(b" v2\n", b" v1\n", 1))
    for name, data in saved_indexes.items():
        assert data.startswith(b"#LATEBENCH-INDEX v3\n"), name
        load = load_ivf_index if name.startswith("ivf") else load_plaid_index
        for old in (b" v2\n", b" v1\n"):
            with pytest.raises(VersionMismatch, match=r"\(rebuild the index\)"):
                load(data.replace(b" v3\n", old, 1), corpus)


def test_index_header_carries_the_payload_digest(saved_indexes):
    for name, data in saved_indexes.items():
        start = _payload_start(data)
        digest = hashlib.sha256(data[start:]).hexdigest()
        assert f"\npayload_sha256 {digest}\npayload {len(data) - start}\nend\n".encode() in data


def test_bundle_payload_bit_flip_raises(planted_small):
    data = write_bundle(planted_small[0])
    start = _payload_start(data)
    assert f"\npayload_sha256 {hashlib.sha256(data[start:]).hexdigest()}\n".encode() in data
    for where in (start, len(data) - 1):
        flipped = data[:where] + bytes([data[where] ^ 1]) + data[where + 1:]
        with pytest.raises(PayloadMismatch):
            read_bundle(flipped)


@pytest.mark.parametrize("source", ["ivf", "plaid", "plaid1"])
def test_index_payload_bit_flip_raises(planted_small, saved_indexes, source):
    corpus, _, _ = planted_small
    load = load_ivf_index if source == "ivf" else load_plaid_index
    data = saved_indexes[source]
    load(data, corpus)
    for where in (_payload_start(data), len(data) - 1):
        flipped = data[:where] + bytes([data[where] ^ 1]) + data[where + 1:]
        with pytest.raises(PayloadMismatch):
            load(flipped, corpus)
    with pytest.raises(MalformedLine, match="payload_sha256"):
        load(_edit_header(r"^payload_sha256 .*\n", "")(data), corpus)


@pytest.mark.parametrize("bits", [1, 2])
def test_residual_levels_are_saved_packed(planted_small, bits):
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=bits, seed=2)
    index = build_plaid(corpus, config)
    data = save_plaid_index(index)
    rows, width = corpus.total_vectors, corpus.dim * bits // 8
    assert re.search(rf"^array residual_levels uint8 2 {rows} {width} \d+ {rows * width}$".encode(),
                     data, re.M)
    start = data.index(b"\nend\n") + len(b"\nend\n")
    offset, nbytes = map(int, re.search(rb"^array residual_levels .* (\d+) (\d+)$", data,
                                        re.M).groups())
    saved = data[start + offset:start + offset + nbytes]
    for held in (index, load_plaid_index(data, corpus), load_plaid_index(data)):
        # The index holds the levels as saved, so the file round-trips bitwise;
        # loaded without its corpus, it keeps the corpus digest it was saved with.
        assert held.residual_levels.dtype == np.uint8
        assert held.residual_levels.shape == (rows, width)
        assert held.residual_levels.tobytes() == saved
        assert held.store.vectors.tobytes() == index.store.vectors.tobytes()
        assert save_plaid_index(held) == data
    # So the re-saved file still refuses a corpus of the same ids and row counts.
    other = Corpus(corpus.doc_ids, np.roll(corpus.vectors, 1, axis=0), corpus.offsets)
    with pytest.raises(CorpusMismatch):
        load_plaid_index(save_plaid_index(load_plaid_index(data)), other)
    # 1-bit levels where 2-bit ones are stored are half a vector too wide.
    with pytest.raises(MalformedLine, match="residual_levels"):
        load_plaid_index(_edit_header(r"^residual_bits \d$", f"residual_bits {3 - bits}")(data))


def test_corpus_digest_hashes_the_meta_free_bundle(planted_small):
    # The header alone: its payload_sha256 line commits it to the vectors.
    for corpus in (_random_corpus(seed=4, docs=4), _random_corpus(seed=6, dtype="float16"),
                   pool_corpus(_random_corpus(seed=7, docs=6), 3), planted_small[0]):
        data = write_bundle(corpus)
        assert corpus_digest(corpus) == hashlib.sha256(data[:_payload_start(data)]).hexdigest()


@pytest.mark.parametrize("kind", ["float32", "float16", "pooled"])
def test_bundle_rewrite_is_bitwise(kind):
    corpus = _random_corpus(seed=8, dtype="float16" if kind == "float16" else "float32")
    data = write_bundle(pool_corpus(corpus, 3) if kind == "pooled" else corpus, meta=["x"])
    assert write_bundle(read_bundle(data), meta=["x"]) == data


def test_bundle_and_plaid_index_write_the_same_doc_lines(planted_small):
    corpus, _, _ = planted_small
    index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))

    def doc_lines(data):
        head = data[:_payload_start(data)].decode("ascii")
        return [line for line in head.splitlines() if line.startswith("doc ")]

    lines = doc_lines(write_bundle(corpus))
    assert len(lines) == len(corpus) and lines == doc_lines(save_plaid_index(index))
    assert not re.search(rb"^(dim|doc_count) ", write_bundle(corpus), re.M)


def _corruptions(data, rng, count):
    """(kind, header only, bytes) for `count` seeded corruptions of each kind."""
    end = _payload_start(data)
    digits = [i for i in range(end) if data[i:i + 1].isdigit()]

    def put(i, byte):
        return data[:i] + bytes([byte]) + data[i + 1:]

    for _ in range(count):
        yield "header-digit", True, put(digits[rng.integers(len(digits))], 48 + rng.integers(10))
        where = int(rng.integers(end, len(data)))
        yield "payload-flip", False, put(where, data[where] ^ (1 << int(rng.integers(8))))
        yield "truncation", False, data[:rng.integers(len(data))]
        yield "header-byte", True, put(int(rng.integers(end)), int(rng.integers(256)))


@pytest.mark.parametrize("container", ["bundle", "ivf", "plaid1"])
def test_seeded_corruptions_raise_cleanly(planted_small, saved_indexes, container):
    # Every outcome is a LatebenchError or, for an edit of the header alone,
    # a clean load; every payload flip raises.
    corpus, _, _ = planted_small
    if container == "bundle":
        data, load = write_bundle(corpus, meta=["x"]), read_bundle
    elif container == "ivf":
        data, load = saved_indexes["ivf"], lambda d: load_ivf_index(d, corpus)
    else:
        data, load = saved_indexes["plaid1"], load_plaid_index
    load(data)
    rng = np.random.default_rng(2024)
    loaded = {}
    for kind, header_only, corrupt in _corruptions(data, rng, 100):
        try:
            load(corrupt)
        except LatebenchError:
            continue
        loaded[kind] = loaded.get(kind, 0) + 1
        assert header_only, kind
    assert "truncation" not in loaded and "payload-flip" not in loaded


def _shift_array(which, delta):
    """A corruption that moves the first or last array's offset by delta bytes."""
    def edit(data):
        head = data[:_payload_start(data)].decode("ascii").splitlines()
        arrays = [i for i, line in enumerate(head) if line.startswith("array ")]
        i = arrays[0 if which == "first" else -1]
        *fields, offset, nbytes = head[i].split()
        head[i] = " ".join([*fields, str(int(offset) + delta), nbytes])
        return ("\n".join(head) + "\n").encode("ascii") + data[_payload_start(data):]
    return edit


def _padded(data):
    """The container with 4 more payload bytes, its payload and digest lines updated."""
    payload = data[_payload_start(data):] + bytes(4)
    head = data[:_payload_start(data)].decode("ascii")
    head = re.sub(r"^payload_sha256 \S+$", f"payload_sha256 {hashlib.sha256(payload).hexdigest()}",
                  head, flags=re.M)
    head = re.sub(r"^payload \d+$", f"payload {len(payload)}", head, flags=re.M)
    return head.encode("ascii") + payload


@pytest.mark.parametrize("container", ["bundle", "ivf", "plaid2"])
@pytest.mark.parametrize("which, corrupt", [
    pytest.param("first", _shift_array("first", 4), id="first-moved-on"),
    pytest.param("last", _shift_array("last", -4), id="last-moved-back"),
    pytest.param("last", _padded, id="payload-past-the-last"),
])
def test_arrays_must_tile_the_payload(planted_small, saved_indexes, container, which, corrupt):
    # Header edits leave the payload digest intact; unchecked, a moved offset
    # loaded misaligned arrays and an untiled tail was never read.
    corpus, _, _ = planted_small
    data = write_bundle(corpus) if container == "bundle" else saved_indexes[container]
    load = {"bundle": read_bundle, "ivf": lambda d: load_ivf_index(d, corpus),
            "plaid2": load_plaid_index}[container]
    load(data)
    edited = corrupt(data)
    lines = edited[:_payload_start(edited)].decode().splitlines()
    arrays = [i for i, line in enumerate(lines, start=1) if line.startswith("array ")]
    line_no = arrays[0 if which == "first" else -1]
    with pytest.raises(MalformedLine, match=rf"^line {line_no}: array '\w+' "):
        load(edited)


@pytest.mark.parametrize("backend", ["ivf", "plaid"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_centroids_are_refused(planted_small, backend, value):
    corpus, _, _ = planted_small
    if backend == "ivf":
        index, save = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2)), save_ivf_index
        load = lambda d: load_ivf_index(d, corpus)  # noqa: E731
    else:
        index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
        save, load = save_plaid_index, lambda d: load_plaid_index(d, corpus)  # noqa: E731
    centroids = index.centroids.copy()
    centroids[3, 5] = value
    with pytest.raises(ValueError, match="centroids"):
        dataclasses.replace(index, centroids=centroids)
    broken = copy.copy(index)  # the constructor would refuse these centroids
    object.__setattr__(broken, "centroids", centroids)
    with pytest.raises(MalformedLine, match="centroids"):
        load(save(broken))


def test_supplied_float64_centroids_are_built_and_saved_as_float32(planted_small):
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, residual_bits=2, seed=2)
    trained = build_plaid(corpus, config)
    index = build_plaid(corpus, config, centroids=trained.centroids.astype(np.float64))
    assert index.centroids.dtype == np.float32 and index.centroids.flags.c_contiguous
    assert np.array_equal(index.codes, trained.codes)
    data = save_plaid_index(index)
    assert data == save_plaid_index(trained)
    assert np.array_equal(load_plaid_index(data, corpus).codes, trained.codes)


def test_supplied_centroids_of_another_dim_are_refused(planted_small):
    corpus, _, _ = planted_small
    config = PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2)
    centroids = random_unit_matrix(np.random.default_rng(3), 32, corpus.dim + 1).data
    with pytest.raises(DimensionMismatch, match=f"{corpus.dim} != centroid dim {corpus.dim + 1}"):
        build_plaid(corpus, config, centroids=centroids)


@pytest.mark.parametrize("backend", ["ivf", "plaid"])
@pytest.mark.parametrize("edit", ["float64", "wider"])
def test_index_centroids_must_be_float32_of_the_corpus_dim(planted_small, backend, edit):
    corpus, _, _ = planted_small
    if backend == "ivf":
        index = build_ivf(corpus, IvfConfig(nlist=16, nprobe=4, seed=2))
    else:
        index = build_plaid(corpus, PlaidConfig(num_centroids=32, ncells=4, ndocs=80, seed=2))
    count = len(index.centroids)
    if edit == "float64":
        centroids = index.centroids.astype(np.float64)
    else:
        centroids = np.concatenate([index.centroids, np.zeros((count, 1), np.float32)], axis=1)
    shape = rf"\({count}, {corpus.dim}\)"
    with pytest.raises(ValueError, match=rf"centroids must be a {shape} float32"):
        dataclasses.replace(index, centroids=centroids)
