"""Bit-exact file containers for embedding corpora and built indexes.

Both containers share one layout: a human-readable ASCII header terminated by
an ``end`` line, then a contiguous little-endian binary payload. The header is
fully self-describing, so a hex dump plus the first kilobyte of text is enough
to debug a broken file. Each container has its own version: bundles are v1,
indexes v2 (a v1 index raises VersionMismatch and must be rebuilt).

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

    #LATEBENCH-INDEX v2
    backend <ivf|plaid>
    <config key/value lines>
    corpus_sha256 <hex digest of the meta-free corpus bundle>
    meta <free text>
    doc <id> <rows>            (plaid only)
    array <name> <dtype> <ndim> <shape...> <offset> <nbytes>
    payload_sha256 <hex digest of the payload>
    payload <total bytes>
    end
    <raw arrays>

The index loaders check the payload against `payload_sha256` before anything
else reads it, so a flipped payload bit raises PayloadMismatch, and check the
corpus digest; the arrays themselves, and their fit with the doc lines and
the corpus, are checked by the index constructors. The containers only move
arrays: a residual PLAID index's `residual_levels` are saved and loaded as
the index holds them, packed by `plaid.pack_levels` into uint8 of shape
(total_vectors, ceil(dim * bits / 8)).

float32 bundles round-trip bitwise. float16 is a storage precision: values are
widened exactly to float32 on read and re-narrow to identical bytes on write,
but row norms can be off by ~1e-3 after the narrowing, so reads of float16
bundles validate norms at a relaxed tolerance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Iterable

import numpy as np

from .core import DTYPE_BYTES, NORM_TOLERANCE, Corpus
from .errors import (
    BadMagic,
    CorpusMismatch,
    MalformedLine,
    OffsetOverlap,
    PayloadMismatch,
    TruncatedPayload,
    VersionMismatch,
)
from .ivf import IvfConfig, IvfIndex
from .plaid import PlaidConfig, PlaidIndex

BUNDLE_MAGIC = "#LATEBENCH-BUNDLE"
INDEX_MAGIC = "#LATEBENCH-INDEX"
VERSIONS = {BUNDLE_MAGIC: "v1", INDEX_MAGIC: "v2"}

FLOAT16_NORM_TOLERANCE = 2e-3

_NUMPY_DTYPES = {"float32": "<f4", "float16": "<f2", "int32": "<i4", "uint8": "<u1", "int64": "<i8"}


class _HeaderWriter:
    def __init__(self, magic: str):
        self.lines = [f"{magic} {VERSIONS[magic]}"]

    def line(self, *fields) -> None:
        text = " ".join(str(f) for f in fields)
        if "\n" in text or not text.isascii():
            raise ValueError(f"header lines must be one line of ASCII text, got {text!r}")
        self.lines.append(text)

    def meta(self, entries: Iterable[str]) -> None:
        for entry in entries:
            self.line("meta", entry)

    def head(self, payload_bytes: int) -> bytes:
        """The finished header of a payload of `payload_bytes` bytes."""
        self.line("payload", payload_bytes)
        self.lines.append("end")
        return ("\n".join(self.lines) + "\n").encode("ascii")


def check_meta(entries: Iterable[str]) -> None:
    """Raise the ValueError that writing these meta entries into a header would raise."""
    _HeaderWriter(BUNDLE_MAGIC).meta(entries)


class _Header:
    """Parsed header: ordered (key, fields) pairs plus the payload bytes."""

    def __init__(self, data: bytes, magic: str):
        end = data.find(b"\nend\n")
        if not data.startswith(magic.encode("ascii")):
            got = data[:24].decode("ascii", errors="replace")
            raise BadMagic(f"expected {magic!r}, got {got!r}")
        if end < 0:
            raise TruncatedPayload("header is not terminated by an 'end' line")
        try:
            text = data[: end + 1].decode("ascii")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise MalformedLine(line_no, f"non-ASCII header byte {data[exc.start]:#04x}") from None
        self.payload = data[end + len(b"\nend\n"):]
        lines = text.splitlines()
        first = lines[0].split()
        if len(first) != 2 or first[1] != VERSIONS[magic]:
            rebuild = " (rebuild the index)" if magic == INDEX_MAGIC else ""
            raise VersionMismatch(f"unsupported format version in {lines[0]!r}{rebuild}")
        self.records: list[tuple[str, list[str]]] = []
        for line_no, line in enumerate(lines[1:], start=2):
            fields = line.split()
            if not fields:
                raise MalformedLine(line_no, "blank header line")
            self.records.append((fields[0], fields[1:]))

    def value(self, key: str, kind: type = str):
        """The one value of the one `key` line, parsed as `kind`."""
        found = self.many(key)
        if len(found) != 1 or len(found[0]) != 1:
            raise MalformedLine(0, f"expected exactly one {key!r} header line with one value")
        try:
            return kind(found[0][0])
        except ValueError:
            raise MalformedLine(0, f"{key} {found[0][0]!r} is not a {kind.__name__}") from None

    def many(self, key: str) -> list[list[str]]:
        return [fields for k, fields in self.records if k == key]

    def doc_lines(self, width: int) -> list[tuple]:
        """(id, int, ...) per `doc` line of `width` fields; unique ids, ints >= 0."""
        entries = []
        for fields in self.many("doc"):
            if len(fields) != width or not all(f.isdigit() for f in fields[1:]):
                raise MalformedLine(
                    0, f"doc line needs an id and {width - 1} integer(s) >= 0: {fields!r}"
                )
            entries.append((fields[0], *map(int, fields[1:])))
        if len({entry[0] for entry in entries}) != len(entries):
            raise MalformedLine(0, "doc ids in the doc lines are not unique")
        return entries

    def config(self, cls):
        """A config dataclass from one header line per field, typed like its default."""
        fields = dataclasses.fields(cls)
        try:
            return cls(**{f.name: self.value(f.name, type(f.default)) for f in fields})
        except ValueError as exc:
            raise MalformedLine(0, f"invalid {cls.__name__}: {exc}") from None

    def arrays(self, expected: dict[str, tuple[str, tuple]]) -> dict[str, np.ndarray]:
        """Exactly the expected arrays, each checked against its (dtype, shape).

        A None in an expected shape matches any length.
        """
        arrays = {}
        for fields in self.many("array"):
            try:
                name, dtype_name, ndim = fields[0], fields[1], int(fields[2])
                *shape, offset, nbytes = (int(f) for f in fields[3:])
            except (IndexError, ValueError):
                raise MalformedLine(0, f"short or non-integer array line {fields!r}") from None
            dtype, want = expected.get(name, (None, ()))
            if (dtype_name != dtype or name in arrays or not len(shape) == len(want) == ndim
                    or any(s < 0 or w not in (None, s) for w, s in zip(want, shape))):
                raise MalformedLine(0, f"array line {fields!r} is not a {dtype} of shape {want}")
            item = np.dtype(_NUMPY_DTYPES[dtype])
            if offset < 0 or nbytes != math.prod(shape) * item.itemsize:
                raise MalformedLine(0, f"array {name!r} declares {nbytes} bytes at {offset}")
            if offset + nbytes > len(self.payload):
                raise TruncatedPayload(f"array {name!r} extends past the payload")
            raw = np.frombuffer(self.payload, item, math.prod(shape), offset)
            arrays[name] = raw.reshape(shape).copy()
        missing = sorted(expected.keys() - arrays.keys())
        if missing:
            raise MalformedLine(0, f"missing array(s) {missing}")
        return arrays

    def check_payload(self) -> None:
        declared = self.value("payload", int)
        if len(self.payload) < declared:
            raise TruncatedPayload(
                f"payload declares {declared} bytes but only {len(self.payload)} present"
            )
        if len(self.payload) > declared:
            raise TruncatedPayload(
                f"payload declares {declared} bytes but {len(self.payload)} present (trailing junk)"
            )


def _bundle_parts(corpus: Corpus, meta: Iterable[str]) -> tuple[bytes, np.ndarray]:
    """A bundle's header bytes and its payload, the vectors in the stored dtype."""
    writer = _HeaderWriter(BUNDLE_MAGIC)
    writer.line("dim", corpus.dim)
    writer.line("dtype", corpus.dtype)
    writer.line("pooling", corpus.pooling)
    writer.line("C", corpus.C)
    writer.line("doc_count", len(corpus))
    writer.meta(meta)
    row_bytes = corpus.dim * DTYPE_BYTES[corpus.dtype]
    starts = corpus.offsets.tolist()
    for doc_id, lo, hi in zip(corpus.doc_ids, starts[:-1], starts[1:]):
        writer.line("doc", doc_id, hi - lo, lo * row_bytes)
    payload = corpus.vectors.astype(_NUMPY_DTYPES[corpus.dtype], copy=False)
    return writer.head(payload.nbytes), payload


def write_bundle(corpus: Corpus, meta: Iterable[str] = ()) -> bytes:
    head, payload = _bundle_parts(corpus, meta)
    return b"".join((head, payload))


def read_bundle(data: bytes) -> Corpus:
    header = _Header(data, BUNDLE_MAGIC)
    header.check_payload()
    dim = header.value("dim", int)
    C = header.value("C", int)
    doc_count = header.value("doc_count", int)
    dtype, pooling = header.value("dtype"), header.value("pooling")
    if dtype not in DTYPE_BYTES:
        raise MalformedLine(0, f"unknown dtype {dtype!r}")
    item_bytes = DTYPE_BYTES[dtype]
    entries = header.doc_lines(3)
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
    # The extents tile the payload in doc order, so it is the flat row array.
    offsets = np.zeros(len(entries) + 1, dtype=np.int64)
    np.cumsum([rows for _, rows, _ in entries], out=offsets[1:])
    vectors = np.frombuffer(header.payload, dtype=_NUMPY_DTYPES[dtype]).astype(np.float32)
    vectors = vectors.reshape(int(offsets[-1]), dim)
    try:
        corpus = Corpus(tuple(d for d, _, _ in entries), vectors, offsets, dtype, pooling, C)
    except ValueError as exc:
        raise MalformedLine(0, f"header does not describe the payload: {exc}") from None
    corpus.validate(FLOAT16_NORM_TOLERANCE if dtype == "float16" else NORM_TOLERANCE)
    return corpus


def corpus_digest(corpus: Corpus) -> str:
    """sha256 over the meta-free serialized corpus; guards index/corpus pairing.

    The payload is hashed in place, without joining a copy of the bundle.
    """
    head, payload = _bundle_parts(corpus, ())
    digest = hashlib.sha256(head)
    digest.update(payload)
    return digest.hexdigest()


def _finish_index(writer: _HeaderWriter, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    """One `array` line per array, the payload digest, then header plus payload."""
    offset = 0
    chunks = []
    for name, array in arrays:
        dtype_name = {np.dtype(v): k for k, v in _NUMPY_DTYPES.items()}[np.dtype(array.dtype)]
        raw = np.ascontiguousarray(array).astype(_NUMPY_DTYPES[dtype_name]).tobytes()
        shape = " ".join(str(s) for s in array.shape)
        writer.line("array", name, dtype_name, len(array.shape), shape, offset, len(raw))
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    writer.line("payload_sha256", hashlib.sha256(payload).hexdigest())
    return writer.head(len(payload)) + payload


def _index_header(data: bytes, backend: str) -> _Header:
    """The header of a `backend` index whose payload matches its length and digest."""
    header = _Header(data, INDEX_MAGIC)
    header.check_payload()
    if header.value("payload_sha256") != hashlib.sha256(header.payload).hexdigest():
        raise PayloadMismatch("index payload does not match its payload_sha256")
    if header.value("backend") != backend:
        raise MalformedLine(0, f"not a {backend} index")
    return header


def _write_config(writer: _HeaderWriter, config) -> None:
    for f in dataclasses.fields(config):
        writer.line(f.name, getattr(config, f.name))


def save_ivf_index(index: IvfIndex, meta: Iterable[str] = ()) -> bytes:
    writer = _HeaderWriter(INDEX_MAGIC)
    writer.line("backend", "ivf")
    _write_config(writer, index.config)
    writer.line("corpus_sha256", corpus_digest(index.corpus))
    writer.meta(meta)
    return _finish_index(writer, [
        ("centroids", index.centroids),
        ("assignments", index.assignments),
    ])


def read_index_backend(data: bytes) -> str:
    return _Header(data, INDEX_MAGIC).value("backend")


def load_ivf_index(data: bytes, corpus: Corpus) -> IvfIndex:
    header = _index_header(data, "ivf")
    if header.value("corpus_sha256") != corpus_digest(corpus):
        raise CorpusMismatch("index was built from a different corpus than the one supplied")
    config = header.config(IvfConfig)
    arrays = header.arrays({
        "centroids": ("float32", (config.nlist, corpus.dim)),
        "assignments": ("int32", (None,)),
    })
    assignments = arrays["assignments"]
    if assignments.shape[0] != corpus.total_vectors:
        raise CorpusMismatch("stored assignments do not match corpus vector count")
    try:
        return IvfIndex(
            config=config, centroids=arrays["centroids"], assignments=assignments, corpus=corpus
        )
    except ValueError as exc:
        raise MalformedLine(0, f"arrays do not describe an ivf index: {exc}") from None


def save_plaid_index(index: PlaidIndex, meta: Iterable[str] = ()) -> bytes:
    writer = _HeaderWriter(INDEX_MAGIC)
    cfg = index.config
    writer.line("backend", "plaid")
    _write_config(writer, cfg)
    if index.corpus is not None:
        writer.line("corpus_sha256", corpus_digest(index.corpus))
    writer.meta(meta)
    for doc_id, rows in zip(index.doc_ids, np.diff(index.row_offsets).tolist()):
        writer.line("doc", doc_id, rows)
    arrays = [("centroids", index.centroids), ("codes", index.codes)]
    if cfg.residual_bits > 0:
        arrays.append(("residual_levels", index.residual_levels))
        arrays.append(("residual_scales", index.residual_scales))
    return _finish_index(writer, arrays)


def load_plaid_index(data: bytes, corpus: Corpus | None = None) -> PlaidIndex:
    """Load a PLAID index; a supplied corpus must be the one it was built from."""
    header = _index_header(data, "plaid")
    config = header.config(PlaidConfig)
    if corpus is not None and header.many("corpus_sha256"):
        if header.value("corpus_sha256") != corpus_digest(corpus):
            raise CorpusMismatch("index was built from a different corpus than the one supplied")
    docs = header.doc_lines(2)
    doc_ids = tuple(doc_id for doc_id, _ in docs)
    row_offsets = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum([rows for _, rows in docs], out=row_offsets[1:])
    total = int(row_offsets[-1])
    expected = {
        "centroids": ("float32", (config.num_centroids, None)),
        "codes": ("int32", (total,)),
    }
    if config.residual_bits > 0:
        expected["residual_levels"] = ("uint8", (total, None))
        expected["residual_scales"] = ("float32", (total,))
    arrays = header.arrays(expected)
    try:
        return PlaidIndex(
            config=config,
            centroids=arrays["centroids"],
            codes=arrays["codes"],
            row_offsets=row_offsets,
            doc_ids=doc_ids,
            residual_levels=arrays.get("residual_levels"),
            residual_scales=arrays.get("residual_scales"),
            corpus=corpus,
        )
    except ValueError as exc:
        raise MalformedLine(0, f"arrays do not describe a plaid index: {exc}") from None
