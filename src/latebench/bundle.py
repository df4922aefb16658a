"""Bit-exact file containers for embedding corpora and built indexes.

Both containers share one layout: a human-readable ASCII header terminated by
an ``end`` line, then a contiguous little-endian binary payload. The header is
fully self-describing, so a hex dump plus the first kilobyte of text is enough
to debug a broken file.

Embedding bundle::

    #LATEBENCH-BUNDLE v1
    dim 128
    dtype float32
    pooling none
    C 0
    doc_count 2
    meta <free text, one line each>
    doc <id> <rows> <offset>
    payload <total bytes>
    end
    <raw row-major matrices in the declared dtype>

Index container::

    #LATEBENCH-INDEX v1
    backend <ivf|plaid>
    <config key/value lines>
    corpus_sha256 <hex digest of the meta-free corpus bundle>
    meta <free text>
    doc <id> <rows>            (plaid only)
    array <name> <dtype> <shape...> <offset> <nbytes>
    payload <total bytes>
    end
    <raw arrays>

float32 bundles round-trip bitwise. float16 is a storage precision: values are
widened exactly to float32 on read and re-narrow to identical bytes on write,
but row norms can be off by ~1e-3 after the narrowing, so reads of float16
bundles validate norms at a relaxed tolerance.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from .core import Corpus, CorpusManifest, TokenMatrix, all_token_vectors
from .errors import (
    BadMagic,
    CorpusMismatch,
    MalformedLine,
    OffsetOverlap,
    TruncatedPayload,
    VersionMismatch,
)
from .ivf import IvfConfig, IvfIndex
from .plaid import PlaidConfig, PlaidIndex, StorageReport, code_lists

BUNDLE_MAGIC = "#LATEBENCH-BUNDLE"
INDEX_MAGIC = "#LATEBENCH-INDEX"
FORMAT_VERSION = "v1"

FLOAT16_NORM_TOLERANCE = 2e-3

_NUMPY_DTYPES = {"float32": "<f4", "float16": "<f2", "int32": "<i4", "uint8": "<u1", "int64": "<i8"}


class _HeaderWriter:
    def __init__(self, magic: str):
        self.lines = [f"{magic} {FORMAT_VERSION}"]

    def line(self, *fields) -> None:
        text = " ".join(str(f) for f in fields)
        if "\n" in text:
            raise ValueError("header lines must not contain newlines")
        self.lines.append(text)

    def meta(self, entries: Iterable[str]) -> None:
        for entry in entries:
            self.line("meta", entry)

    def finish(self, payload: bytes) -> bytes:
        self.line("payload", len(payload))
        self.lines.append("end")
        return ("\n".join(self.lines) + "\n").encode("ascii") + payload


class _Header:
    """Parsed header: ordered (key, fields) pairs plus the payload bytes."""

    def __init__(self, data: bytes, magic: str):
        end = data.find(b"\nend\n")
        if not data.startswith(magic.encode("ascii")):
            got = data[:24].decode("ascii", errors="replace")
            raise BadMagic(f"expected {magic!r}, got {got!r}")
        if end < 0:
            raise TruncatedPayload("header is not terminated by an 'end' line")
        text = data[: end + 1].decode("ascii", errors="strict")
        self.payload = data[end + len(b"\nend\n"):]
        lines = text.splitlines()
        first = lines[0].split()
        if len(first) != 2 or first[1] != FORMAT_VERSION:
            raise VersionMismatch(f"unsupported format version in {lines[0]!r}")
        self.records: list[tuple[str, list[str]]] = []
        for line_no, line in enumerate(lines[1:], start=2):
            fields = line.split()
            if not fields:
                raise MalformedLine(line_no, "blank header line")
            self.records.append((fields[0], fields[1:]))

    def one(self, key: str) -> list[str]:
        found = [fields for k, fields in self.records if k == key]
        if len(found) != 1:
            raise MalformedLine(0, f"expected exactly one {key!r} header line, got {len(found)}")
        return found[0]

    def many(self, key: str) -> list[list[str]]:
        return [fields for k, fields in self.records if k == key]

    def check_payload(self) -> None:
        declared = int(self.one("payload")[0])
        if len(self.payload) < declared:
            raise TruncatedPayload(
                f"payload declares {declared} bytes but only {len(self.payload)} present"
            )
        if len(self.payload) > declared:
            raise TruncatedPayload(
                f"payload declares {declared} bytes but {len(self.payload)} present (trailing junk)"
            )


def write_bundle(corpus: Corpus, meta: Iterable[str] = ()) -> bytes:
    corpus.check_structure()
    m = corpus.manifest
    writer = _HeaderWriter(BUNDLE_MAGIC)
    writer.line("dim", m.dim)
    writer.line("dtype", m.dtype)
    writer.line("pooling", m.pooling)
    writer.line("C", m.C)
    writer.line("doc_count", m.doc_count)
    writer.meta(meta)
    item_bytes = 4 if m.dtype == "float32" else 2
    offset = 0
    chunks = []
    for doc_id in corpus.doc_ids:
        matrix = corpus.docs[doc_id]
        writer.line("doc", doc_id, matrix.rows, offset)
        raw = matrix.data.astype(_NUMPY_DTYPES[m.dtype]).tobytes()
        chunks.append(raw)
        offset += matrix.rows * m.dim * item_bytes
    return writer.finish(b"".join(chunks))


def read_bundle_meta(data: bytes) -> list[str]:
    header = _Header(data, BUNDLE_MAGIC)
    return [" ".join(fields) for fields in header.many("meta")]


def read_bundle(data: bytes) -> Corpus:
    header = _Header(data, BUNDLE_MAGIC)
    header.check_payload()
    try:
        dim = int(header.one("dim")[0])
        C = int(header.one("C")[0])
        doc_count = int(header.one("doc_count")[0])
    except ValueError:
        raise MalformedLine(0, "non-integer manifest field") from None
    dtype = header.one("dtype")[0]
    pooling = header.one("pooling")[0]
    if dtype not in ("float32", "float16"):
        raise MalformedLine(0, f"unknown dtype {dtype!r}")
    if pooling not in ("none", "fixed"):
        raise MalformedLine(0, f"unknown pooling {pooling!r}")
    item_bytes = 4 if dtype == "float32" else 2
    entries = []
    for fields in header.many("doc"):
        if len(fields) != 3:
            raise MalformedLine(0, f"doc line needs id, rows, offset: {fields!r}")
        try:
            entries.append((fields[0], int(fields[1]), int(fields[2])))
        except ValueError:
            raise MalformedLine(0, f"non-integer doc fields: {fields!r}") from None
    if len(entries) != doc_count:
        raise MalformedLine(0, f"doc_count={doc_count} but {len(entries)} doc lines")
    expected_total = sum(rows * dim * item_bytes for _, rows, _ in entries)
    if expected_total != len(header.payload):
        raise TruncatedPayload(
            f"payload holds {len(header.payload)} bytes, docs require {expected_total}"
        )
    previous_end = 0
    for doc_id, rows, offset in entries:
        if offset < previous_end:
            raise OffsetOverlap(f"doc {doc_id!r} at offset {offset} overlaps previous data")
        previous_end = offset + rows * dim * item_bytes
    if previous_end != len(header.payload):
        raise TruncatedPayload("doc extents do not cover the payload exactly")
    docs = {}
    for doc_id, rows, offset in entries:
        nbytes = rows * dim * item_bytes
        raw = np.frombuffer(header.payload[offset:offset + nbytes], dtype=_NUMPY_DTYPES[dtype])
        docs[doc_id] = TokenMatrix(raw.astype(np.float32).reshape(rows, dim))
    manifest = CorpusManifest(
        dim=dim, dtype=dtype, pooling=pooling, C=C,
        doc_count=doc_count, total_vectors=sum(rows for _, rows, _ in entries),
    )
    corpus = Corpus(manifest=manifest, doc_ids=tuple(d for d, _, _ in entries), docs=docs)
    tolerance = FLOAT16_NORM_TOLERANCE if dtype == "float16" else None
    if tolerance is None:
        corpus.validate()
    else:
        corpus.validate(norm_tol=tolerance)
    return corpus


def corpus_digest(corpus: Corpus) -> str:
    """sha256 over the meta-free serialized corpus; guards index/corpus pairing."""
    return hashlib.sha256(write_bundle(corpus, meta=())).hexdigest()


def _pack_arrays(writer: _HeaderWriter, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    offset = 0
    chunks = []
    for name, array in arrays:
        dtype_name = {np.dtype(v): k for k, v in _NUMPY_DTYPES.items()}[np.dtype(array.dtype)]
        raw = np.ascontiguousarray(array).astype(_NUMPY_DTYPES[dtype_name]).tobytes()
        shape = " ".join(str(s) for s in array.shape)
        writer.line("array", name, dtype_name, len(array.shape), shape, offset, len(raw))
        chunks.append(raw)
        offset += len(raw)
    return b"".join(chunks)


def _unpack_arrays(header: _Header) -> dict[str, np.ndarray]:
    arrays = {}
    for fields in header.many("array"):
        name, dtype_name, ndim = fields[0], fields[1], int(fields[2])
        shape = tuple(int(s) for s in fields[3:3 + ndim])
        offset, nbytes = int(fields[3 + ndim]), int(fields[4 + ndim])
        raw = header.payload[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise TruncatedPayload(f"array {name!r} extends past the payload")
        arrays[name] = np.frombuffer(raw, dtype=_NUMPY_DTYPES[dtype_name]).reshape(shape).copy()
    return arrays


def save_ivf_index(index: IvfIndex, meta: Iterable[str] = ()) -> bytes:
    writer = _HeaderWriter(INDEX_MAGIC)
    cfg = index.config
    writer.line("backend", "ivf")
    writer.line("nlist", cfg.nlist)
    writer.line("nprobe", cfg.nprobe)
    writer.line("per_token_candidates", cfg.per_token_candidates)
    writer.line("kmeans_iters", cfg.kmeans_iters)
    writer.line("seed", cfg.seed)
    writer.line("corpus_sha256", corpus_digest(index.corpus))
    writer.meta(meta)
    payload = _pack_arrays(writer, [
        ("centroids", index.centroids),
        ("assignments", index.assignments),
    ])
    return writer.finish(payload)


def read_index_backend(data: bytes) -> str:
    return _Header(data, INDEX_MAGIC).one("backend")[0]


def load_ivf_index(data: bytes, corpus: Corpus) -> IvfIndex:
    header = _Header(data, INDEX_MAGIC)
    header.check_payload()
    if header.one("backend")[0] != "ivf":
        raise MalformedLine(0, "not an ivf index")
    digest = header.one("corpus_sha256")[0]
    if digest != corpus_digest(corpus):
        raise CorpusMismatch("index was built from a different corpus than the one supplied")
    config = IvfConfig(
        nlist=int(header.one("nlist")[0]),
        nprobe=int(header.one("nprobe")[0]),
        per_token_candidates=int(header.one("per_token_candidates")[0]),
        kmeans_iters=int(header.one("kmeans_iters")[0]),
        seed=int(header.one("seed")[0]),
    )
    arrays = _unpack_arrays(header)
    vectors, token_docs, token_rows = all_token_vectors(corpus)
    assignments = arrays["assignments"].astype(np.int32)
    if assignments.shape[0] != vectors.shape[0]:
        raise CorpusMismatch("stored assignments do not match corpus vector count")
    lists = tuple(
        np.flatnonzero(assignments == c).astype(np.int32) for c in range(config.nlist)
    )
    return IvfIndex(
        config=config,
        centroids=arrays["centroids"].astype(np.float32),
        assignments=assignments,
        token_vectors=vectors,
        token_docs=token_docs,
        token_rows=token_rows,
        lists=lists,
        corpus=corpus,
    )


def save_plaid_index(index: PlaidIndex, meta: Iterable[str] = ()) -> bytes:
    writer = _HeaderWriter(INDEX_MAGIC)
    cfg = index.config
    writer.line("backend", "plaid")
    writer.line("num_centroids", cfg.num_centroids)
    writer.line("ncells", cfg.ncells)
    writer.line("centroid_score_threshold", repr(cfg.centroid_score_threshold))
    writer.line("ndocs", cfg.ndocs)
    writer.line("residual_bits", cfg.residual_bits)
    writer.line("kmeans_iters", cfg.kmeans_iters)
    writer.line("seed", cfg.seed)
    if index.corpus is not None:
        writer.line("corpus_sha256", corpus_digest(index.corpus))
    writer.meta(meta)
    for ordinal, doc_id in enumerate(index.doc_ids):
        writer.line("doc", doc_id, index.doc_rows(ordinal))
    arrays = [("centroids", index.centroids), ("codes", index.codes)]
    if cfg.residual_bits > 0:
        arrays.append(("residual_levels", index.residual_levels))
        arrays.append(("residual_scales", index.residual_scales))
    return writer.finish(_pack_arrays(writer, arrays))


def load_plaid_index(data: bytes, corpus: Corpus | None = None) -> PlaidIndex:
    header = _Header(data, INDEX_MAGIC)
    header.check_payload()
    if header.one("backend")[0] != "plaid":
        raise MalformedLine(0, "not a plaid index")
    config = PlaidConfig(
        num_centroids=int(header.one("num_centroids")[0]),
        ncells=int(header.one("ncells")[0]),
        centroid_score_threshold=float(header.one("centroid_score_threshold")[0]),
        ndocs=int(header.one("ndocs")[0]),
        residual_bits=int(header.one("residual_bits")[0]),
        kmeans_iters=int(header.one("kmeans_iters")[0]),
        seed=int(header.one("seed")[0]),
    )
    if corpus is None and config.residual_bits == 0:
        raise CorpusMismatch("a residual-free plaid index needs its corpus to rescore")
    if corpus is not None:
        stored = header.many("corpus_sha256")
        if stored and stored[0][0] != corpus_digest(corpus):
            raise CorpusMismatch("index was built from a different corpus than the one supplied")
    doc_ids = []
    row_counts = []
    for fields in header.many("doc"):
        doc_ids.append(fields[0])
        row_counts.append(int(fields[1]))
    row_offsets = np.concatenate([[0], np.cumsum(row_counts)]).astype(np.int64)
    arrays = _unpack_arrays(header)
    codes = arrays["codes"].astype(np.int32)
    if codes.shape != (int(row_offsets[-1]),):
        raise MalformedLine(0, f"{codes.shape} codes stored for {int(row_offsets[-1])} doc rows")
    if codes.size and not 0 <= int(codes.min()) <= int(codes.max()) < config.num_centroids:
        raise MalformedLine(0, f"codes outside [0, {config.num_centroids})")
    inverted, unique_codes = code_lists(codes, row_offsets, config.num_centroids)
    storage = None
    if config.residual_bits > 0:
        storage = StorageReport.for_layout(
            int(codes.shape[0]), int(arrays["centroids"].shape[1]), config.residual_bits
        )
    return PlaidIndex(
        config=config,
        centroids=arrays["centroids"].astype(np.float32),
        codes=codes,
        row_offsets=row_offsets,
        doc_ids=tuple(doc_ids),
        inverted=inverted,
        unique_codes=unique_codes,
        residual_levels=arrays.get("residual_levels"),
        residual_scales=arrays.get("residual_scales"),
        corpus=corpus,
        storage=storage,
    )
