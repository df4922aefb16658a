"""Bit-exact file containers for embedding corpora and built indexes.

Bundles and indexes share one layout: a human-readable ASCII header
terminated by an ``end`` line, then a contiguous little-endian payload of
named arrays. The header is fully self-describing, so a hex dump plus the
first kilobyte of text is enough to debug a broken file. Bundles are v2 and
indexes v3; an older bundle raises VersionMismatch and must be regenerated,
an older index must be rebuilt.

Layout::

    #LATEBENCH-BUNDLE v2               or #LATEBENCH-INDEX v3
    dtype <float32|float16>            (bundle)
    pooling <none|fixed>               (bundle; fixed exactly when C >= 1)
    C <rows per pooled doc, else 0>    (bundle)
    backend <ivf|plaid>                (index)
    <config key/value lines>           (index)
    corpus_sha256 <corpus_digest>      (index)
    meta <free text, one line each>
    doc <id> <rows>                    (bundle, plaid index)
    array <name> <dtype> <ndim> <shape...> <offset> <nbytes>
    payload_sha256 <hex digest of the payload>
    payload <total bytes>
    end
    <raw arrays>

A bundle holds one array, `vectors` (total rows, dim) in the stored dtype,
whose rows the doc lines split into documents in order. Each reader refuses
a header key outside its layout (MalformedLine with the line), and checks
the payload against its length and `payload_sha256` before anything else
reads it, so a flipped payload bit raises PayloadMismatch. Every index
names the corpus it was built from by its `corpus_sha256` line
(`corpus_digest`), and its loader checks a supplied corpus against it. The
arrays themselves, and their fit with the doc lines and the corpus, are
checked by the Corpus and index constructors. The containers only move
arrays: a residual PLAID index's `residual_levels` are saved and loaded as
the index holds them, packed by `plaid.pack_levels` into uint8 of shape
(total_vectors, ceil(dim * bits / 8)), and so are its float32
`residual_quantiles` (`plaid.residual_quantiles`).

float32 bundles round-trip bitwise. float16 is a storage precision: values are
widened exactly to float32 on read and re-narrow to identical bytes on write,
but row norms can be off by ~1e-3 after the narrowing, so a read validates
norms at its dtype's tolerance (`core.NORM_TOLERANCE`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Iterable

import numpy as np

from .core import NORM_TOLERANCE, Corpus
from .errors import (
    BadMagic,
    CorpusMismatch,
    MalformedLine,
    PayloadMismatch,
    TruncatedPayload,
    UnsupportedBits,
    VersionMismatch,
)
from .ivf import IvfConfig, IvfIndex
from .plaid import PlaidConfig, PlaidIndex

BUNDLE_MAGIC = "#LATEBENCH-BUNDLE"
INDEX_MAGIC = "#LATEBENCH-INDEX"
VERSIONS = {BUNDLE_MAGIC: "v2", INDEX_MAGIC: "v3"}

_NUMPY_DTYPES = {"float32": "<f4", "float16": "<f2", "int32": "<i4", "uint8": "<u1"}
_DTYPE_NAMES = {np.dtype(v): k for k, v in _NUMPY_DTYPES.items()}


class _HeaderWriter:
    def __init__(self, magic: str):
        self.lines = [f"{magic} {VERSIONS[magic]}"]

    def line(self, *fields) -> None:
        text = " ".join(str(f) for f in fields)
        if text.splitlines() != [text] or not text.isascii():  # _Header splits with splitlines
            raise ValueError(f"header lines must be one line of ASCII text, got {text!r}")
        self.lines.append(text)

    def meta(self, entries: Iterable[str]) -> None:
        for entry in entries:
            self.line("meta", entry)

    def docs(self, doc_ids: Iterable[str], offsets: np.ndarray) -> None:
        """One `doc <id> <rows>` line per document whose rows `offsets` bound."""
        for doc_id, rows in zip(doc_ids, np.diff(offsets).tolist()):
            self.line("doc", doc_id, rows)

    def finish(self, arrays: list[tuple[str, np.ndarray]]) -> list:
        """[header, *arrays] of the finished container, for one `b"".join`.

        Writes one `array` line per array and the payload digest; each array
        is hashed in place and copied only by the join.
        """
        offset = 0
        digest = hashlib.sha256()
        raws = []
        for name, array in arrays:
            dtype_name = _DTYPE_NAMES[np.dtype(array.dtype)]
            raw = np.ascontiguousarray(array, dtype=_NUMPY_DTYPES[dtype_name])
            shape = " ".join(str(s) for s in raw.shape)
            self.line("array", name, dtype_name, raw.ndim, shape, offset, raw.nbytes)
            digest.update(raw)
            raws.append(raw)
            offset += raw.nbytes
        self.line("payload_sha256", digest.hexdigest())
        self.line("payload", offset)
        self.lines.append("end")
        return [("\n".join(self.lines) + "\n").encode("ascii"), *raws]


def check_meta(entries: Iterable[str]) -> None:
    """Raise the ValueError that writing these meta entries into a header would raise."""
    _HeaderWriter(BUNDLE_MAGIC).meta(entries)


class _Header:
    """Parsed header: ordered (line number, key, fields) records plus the payload bytes.

    A MalformedLine names the line it refuses, or line 0 for the header as a whole.
    """

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
            redo = "rebuild the index" if magic == INDEX_MAGIC else "regenerate the bundle"
            raise VersionMismatch(f"unsupported format version in {lines[0]!r} ({redo})")
        self.records: list[tuple[int, str, list[str]]] = []
        for line_no, line in enumerate(lines[1:], start=2):
            fields = line.split()
            if not fields:
                raise MalformedLine(line_no, "blank header line")
            self.records.append((line_no, fields[0], fields[1:]))

    def only(self, *keys: str) -> None:
        """Refuse any line whose key is neither one of `keys` nor in every container."""
        allowed = {"meta", "array", "payload_sha256", "payload", *keys}
        for line_no, key, _ in self.records:
            if key not in allowed:
                raise MalformedLine(line_no, f"header key {key!r} is not in this layout")

    def value(self, key: str, kind: type = str):
        """The one value of the one `key` line, parsed as `kind`."""
        found = self.many(key) or [(0, [])]  # line 0: there is no such line
        line_no, fields = found[min(len(found), 2) - 1]  # a repeat names its second line
        if len(found) != 1 or len(fields) != 1:
            raise MalformedLine(line_no, f"expected exactly one {key!r} header line with one value")
        try:
            return kind(fields[0])
        except ValueError:
            raise MalformedLine(line_no, f"{key} {fields[0]!r} is not a {kind.__name__}") from None

    def many(self, key: str) -> list[tuple[int, list[str]]]:
        return [(line_no, fields) for line_no, k, fields in self.records if k == key]

    def docs(self) -> tuple[tuple[str, ...], np.ndarray]:
        """(doc ids, row offsets) from the `doc <id> <rows>` lines; unique ids, rows >= 0."""
        rows, total = {}, 0
        for line_no, fields in self.many("doc"):
            if len(fields) != 2 or not fields[1].isdigit():
                raise MalformedLine(line_no, f"doc line needs an id and a count >= 0: {fields!r}")
            if fields[0] in rows:
                raise MalformedLine(line_no, f"doc id {fields[0]!r} is not unique")
            rows[fields[0]] = int(fields[1])
            total += rows[fields[0]]
            if total >= 2**63:
                raise MalformedLine(line_no, "doc rows overflow int64")
        return tuple(rows), np.cumsum([0, *rows.values()], dtype=np.int64)

    def config(self, cls):
        """A config from one header line per field, typed like its default; a value
        the config refuses names the line of the field its message starts with."""
        fields = dataclasses.fields(cls)
        try:
            return cls(**{f.name: self.value(f.name, type(f.default)) for f in fields})
        except (ValueError, UnsupportedBits) as exc:
            refused = self.many(str(exc).split()[0]) or [(0, [])]
            raise MalformedLine(refused[0][0], f"invalid {cls.__name__}: {exc}") from None

    def arrays(self, expected: dict[str, tuple[str, tuple]]) -> dict[str, np.ndarray]:
        """Exactly the expected arrays, each checked against its (dtype, shape).

        A None in an expected shape matches any length. The arrays tile the
        payload in header order, as `_HeaderWriter.finish` writes them: each
        starts where the one before it ends, the first at 0, and the last ends
        where the payload does.
        """
        arrays, end = {}, 0
        for line_no, fields in self.many("array"):
            try:
                name, dtype_name, ndim = fields[0], fields[1], int(fields[2])
                *shape, offset, nbytes = (int(f) for f in fields[3:])
            except (IndexError, ValueError):
                raise MalformedLine(line_no, f"short or non-integer array {fields!r}") from None
            dtype, want = expected.get(name, (None, ()))
            if (dtype_name != dtype or name in arrays or not len(shape) == len(want) == ndim
                    or any(s < 0 or w not in (None, s) for w, s in zip(want, shape))):
                raise MalformedLine(line_no, f"array {fields!r} is not a {dtype} of shape {want}")
            item = np.dtype(_NUMPY_DTYPES[dtype])
            size = math.prod(shape) * item.itemsize
            if offset != end or nbytes != size:
                raise MalformedLine(line_no, f"array {name!r} declares {nbytes} bytes at "
                                             f"{offset}, not {size} at {end}")
            end += nbytes
            if end > len(self.payload):
                raise TruncatedPayload(f"array {name!r} extends past the payload")
            raw = np.frombuffer(self.payload, item, math.prod(shape), offset)
            arrays[name] = raw.reshape(shape).copy()
        missing = sorted(expected.keys() - arrays.keys())
        if missing:
            raise MalformedLine(0, f"missing array(s) {missing}")
        if end != len(self.payload):
            raise MalformedLine(line_no, f"array {name!r} ends at {end}, the payload at "
                                         f"{len(self.payload)}")
        return arrays


def _checked_header(data: bytes, magic: str) -> _Header:
    """The header of a `magic` container whose payload matches its length and digest."""
    header = _Header(data, magic)
    declared, present = header.value("payload", int), len(header.payload)
    if present != declared:
        junk = " (trailing junk)" if present > declared else ""
        raise TruncatedPayload(f"payload declares {declared} bytes but {present} present{junk}")
    if header.value("payload_sha256") != hashlib.sha256(header.payload).hexdigest():
        raise PayloadMismatch("payload does not match its payload_sha256")
    return header


def _bundle(corpus: Corpus, meta: Iterable[str]) -> list:
    """[header, vectors in the stored dtype] of the corpus's bundle."""
    writer = _HeaderWriter(BUNDLE_MAGIC)
    writer.line("dtype", corpus.dtype)
    writer.line("pooling", corpus.pooling)
    writer.line("C", corpus.C)
    writer.meta(meta)
    writer.docs(corpus.doc_ids, corpus.offsets)
    return writer.finish([("vectors", corpus.vectors.astype(_NUMPY_DTYPES[corpus.dtype],
                                                            copy=False))])


def write_bundle(corpus: Corpus, meta: Iterable[str] = ()) -> bytes:
    return b"".join(_bundle(corpus, meta))


def read_bundle(data: bytes) -> Corpus:
    header = _checked_header(data, BUNDLE_MAGIC)
    header.only("dtype", "pooling", "C", "doc")
    dtype, pooling, C = header.value("dtype"), header.value("pooling"), header.value("C", int)
    if dtype not in NORM_TOLERANCE:
        raise MalformedLine(header.many("dtype")[0][0], f"unknown dtype {dtype!r}")
    if pooling != ("fixed" if C >= 1 else "none"):
        rule = {"none": "requires C=0", "fixed": "requires C >= 1"}.get(pooling, "is unknown")
        raise MalformedLine(header.many("pooling")[0][0], f"pooling={pooling} {rule}, got C={C}")
    doc_ids, offsets = header.docs()
    vectors = header.arrays({"vectors": (dtype, (int(offsets[-1]), None))})["vectors"]
    try:
        corpus = Corpus(doc_ids, vectors, offsets, dtype, C)
    except ValueError as exc:
        raise MalformedLine(0, f"header does not describe the payload: {exc}") from None
    corpus.validate()
    return corpus


def corpus_digest(corpus: Corpus) -> str:
    """sha256 of the corpus's meta-free bundle header; guards index/corpus pairing.

    The header's payload_sha256 commits it to the vectors, so they are hashed
    once, in place.
    """
    return hashlib.sha256(_bundle(corpus, ())[0]).hexdigest()


def _index_writer(backend: str, config, corpus_sha256: str, meta: Iterable[str]) -> _HeaderWriter:
    """An index header through its meta lines: the backend, one line per config
    field, the digest of the corpus it was built from, then the meta entries."""
    writer = _HeaderWriter(INDEX_MAGIC)
    writer.line("backend", backend)
    for f in dataclasses.fields(config):
        writer.line(f.name, getattr(config, f.name))
    writer.line("corpus_sha256", corpus_sha256)
    writer.meta(meta)
    return writer


def _index_header(data: bytes, backend: str, cls: type, corpus: Corpus | None, *keys: str):
    """(checked header, config, corpus digest) of a `backend` index; refuses keys
    outside its layout, and a supplied corpus of another digest."""
    header = _checked_header(data, INDEX_MAGIC)
    stored = header.value("backend")
    if stored != backend:
        raise MalformedLine(header.many("backend")[0][0],
                            f"not a {backend} index: the file holds backend {stored!r}")
    header.only("backend", "corpus_sha256", *(f.name for f in dataclasses.fields(cls)), *keys)
    config, digest = header.config(cls), header.value("corpus_sha256")
    if corpus is not None and digest != corpus_digest(corpus):
        raise CorpusMismatch("index was built from a different corpus than the one supplied")
    return header, config, digest


def save_ivf_index(index: IvfIndex, meta: Iterable[str] = ()) -> bytes:
    writer = _index_writer("ivf", index.config, corpus_digest(index.corpus), meta)
    return b"".join(writer.finish([
        ("centroids", index.centroids),
        ("assignments", index.assignments),
    ]))


def load_ivf_index(data: bytes, corpus: Corpus) -> IvfIndex:
    header, config, _ = _index_header(data, "ivf", IvfConfig, corpus)
    arrays = header.arrays({
        "centroids": ("float32", (config.nlist, corpus.dim)),
        "assignments": ("int32", (None,)),
    })
    try:
        return IvfIndex(config=config, centroids=arrays["centroids"],
                        assignments=arrays["assignments"], corpus=corpus)
    except ValueError as exc:
        raise MalformedLine(0, f"arrays do not describe an ivf index: {exc}") from None


def save_plaid_index(index: PlaidIndex, meta: Iterable[str] = ()) -> bytes:
    cfg = index.config
    digest = corpus_digest(index.corpus) if index.corpus is not None else index.corpus_sha256
    writer = _index_writer("plaid", cfg, digest, meta)
    writer.docs(index.doc_ids, index.row_offsets)
    arrays = [("centroids", index.centroids), ("codes", index.codes)]
    if cfg.residual_bits > 0:
        arrays.append(("residual_levels", index.residual_levels))
        arrays.append(("residual_quantiles", index.residual_quantiles))
    return b"".join(writer.finish(arrays))


def load_plaid_index(data: bytes, corpus: Corpus | None = None) -> PlaidIndex:
    """Load a PLAID index; a supplied corpus must be the one it was built from."""
    header, config, digest = _index_header(data, "plaid", PlaidConfig, corpus, "doc")
    doc_ids, row_offsets = header.docs()
    total = int(row_offsets[-1])
    expected = {
        "centroids": ("float32", (config.num_centroids, None)),
        "codes": ("int32", (total,)),
    }
    if config.residual_bits > 0:
        expected["residual_levels"] = ("uint8", (total, None))
        expected["residual_quantiles"] = ("float32", (None,))
    arrays = header.arrays(expected)
    try:
        return PlaidIndex(
            config=config,
            centroids=arrays["centroids"],
            codes=arrays["codes"],
            row_offsets=row_offsets,
            doc_ids=doc_ids,
            residual_levels=arrays.get("residual_levels"),
            residual_quantiles=arrays.get("residual_quantiles"),
            corpus=corpus,
            corpus_sha256=digest,
        )
    except ValueError as exc:
        raise MalformedLine(0, f"arrays do not describe a plaid index: {exc}") from None
