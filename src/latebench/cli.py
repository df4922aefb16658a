"""Batch command-line surface.

Five subcommands cover the full experimental loop: generate synthetic data,
build an index, search, evaluate a run, and run a diagnostic. Every output
file opens with a header that echoes the exact command line and the value of
each flag the command read (`_READS`; for `build`, the index's own config
lines). One table, `_SEARCH_FLAGS`, names each backend's search-time flags. A
search, and an ablation, add one `resolved <flag> <value>` line per such flag
of their backend: the value it searched at, the flag's or else the index
config's. So no run ever depends on an invisible default; the header alone
suffices to reproduce the file. `build`, `search` and `diagnose` refuse a
flag they do not read, `search` and `diagnose` a search-time value they
cannot parse, and `evaluate` a malformed `--metric`, all before any file is
read; so does the parser, for what argparse refuses. Each refusal is one
`LATEBENCH-ERROR` line, exit 2. Outputs are written atomically (temp file +
rename) and inputs are never mutated.

Four sweeps use a second CPU when the process's CPU affinity allows it (no
flag): a MaxSim sweep of at least `core.SPLIT_ROWS` rows, and in k-means
training over more than 4 * `core.BLOCK_ROWS` rows the assignment and the
seeding passes at one BLAS thread and the centroid sums, each cut into halves
that keep every output's bits (`core.in_halves`): assignment and seeding give
each half whole products of the one schedule the serial code runs. Everything
else runs on the calling thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import shlex
import sys
import tempfile
from functools import partial
from pathlib import Path

from . import bundle as bundle_io
from . import diagnostics
from .core import NORM_TOLERANCE, Corpus, exact_search, pool_corpus
from .errors import LatebenchError
from .ivf import IvfConfig, build_ivf, ivf_search
from .metrics import (
    DEFAULT_SPECS,
    MetricSpec,
    evaluate_run,
    format_aligned,
    format_table,
    report_rows,
)
from .plaid import PlaidConfig, PlaidIndex, build_plaid, plaid_search
from .synthetic import SyntheticSpec, generate_synthetic
from .trec import RunFile, parse_qrels, parse_run, write_qrels, write_run

logger = logging.getLogger(__name__)


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_entries(args: argparse.Namespace, reads: set[str] | None = None) -> list[str]:
    """The command line, then `param <dest> <value>` per flag in `reads` (every flag when None)."""
    skip = {"func", "command_line", "verbose"}
    params = [f"param {key} {getattr(args, key)}" for key in sorted(vars(args))
              if key not in skip and (reads is None or key in reads)]
    entries = [f"command: {shlex.join(args.command_line)}", *params]
    for entry in entries:
        if entry.splitlines() != [entry]:  # every reader splits lines with splitlines
            raise LatebenchError(f"header entries must be one line of text, got {entry!r}")
    return entries


def command_from_header(path: Path) -> list[str]:
    """Recover the argv that produced an output file from its header."""
    data = Path(path).read_bytes()
    for raw in data.split(b"\n", 500)[:500]:
        line = raw.decode("utf-8", errors="ignore").lstrip("# ")
        if line.startswith("meta "):
            line = line[len("meta "):]
        if line.startswith("command: "):
            try:
                return shlex.split(line[len("command: "):])
            except ValueError as exc:
                raise LatebenchError(f"unreadable command header in {path}: {exc}") from None
    raise LatebenchError(f"no command header found in {path}")


def _load_corpus(path: str) -> Corpus:
    return bundle_io.read_bundle(Path(path).read_bytes())


def _load_queries(path: str):
    corpus = _load_corpus(path)
    return {qid: corpus.docs[qid] for qid in corpus.doc_ids}


def _flag(dest: str) -> str:
    """The flag of the argparse dest `dest`, as typed."""
    return "--" + dest.replace("_", "-")


def _one(args: argparse.Namespace, dest: str, kind: type):
    """The one value flag `dest` holds, read by `kind`; None when unset."""
    text = getattr(args, dest)
    try:
        return None if text is None else kind(text)
    except ValueError:
        raise LatebenchError(f"{_flag(dest)} {text!r} is not one {kind.__name__} value") from None


def _parse_list(args: argparse.Namespace, dest: str, kind: type) -> list:
    """The comma list flag `dest` holds, each part read by `kind`; a list with
    an empty part (`4,,8`, `,0.4`, `8,`) or one `kind` cannot read is refused."""
    text = getattr(args, dest)
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise LatebenchError(f"{_flag(dest)} {text!r} has an empty comma-separated part")
    try:
        return [kind(part) for part in parts]
    except ValueError:
        raise LatebenchError(f"{_flag(dest)} {text!r} is not a comma-separated list of "
                             f"{kind.__name__} values") from None


# Config fields whose flags are not named after them, as argparse dests: a
# pair field takes two flags.
_FIELD_DESTS = {
    "doc_count": ("docs",),
    "tokens_per_doc": ("tokens_min", "tokens_max"),
    "centroid_score_threshold": ("threshold",),
}


def _config_defaults(*configs: type) -> dict:
    """Each flag (argparse dest) of the configs' fields, shared ones once, and
    its field's default, whose type is the flag's kind."""
    defaults = {}
    for config in configs:
        for field in dataclasses.fields(config):
            dests = _FIELD_DESTS.get(field.name, (field.name,))
            defaults.update(zip(dests, field.default if len(dests) > 1 else (field.default,)))
    return defaults


def _add_config_flags(parser: argparse.ArgumentParser, *configs: type) -> None:
    """One flag per field of the configs (shared ones once), typed and defaulted by it."""
    for dest, default in _config_defaults(*configs).items():
        parser.add_argument(_flag(dest), type=type(default), default=default)


def _config(cls: type, args: argparse.Namespace):
    """`cls` from the parsed flags of its fields."""
    values = {}
    for field in dataclasses.fields(cls):
        parsed = tuple(getattr(args, d) for d in _FIELD_DESTS.get(field.name, (field.name,)))
        values[field.name] = parsed if len(parsed) > 1 else parsed[0]
    return cls(**values)


# Each backend's search-time flags (argparse dests), PLAID's in the order
# `diagnostics.grid_search` takes them; grid mode reads those marked True as
# comma lists. Each sets its index config's field, whose kind it is read as;
# unset, it keeps the value the index was built with.
_SEARCH_FLAGS = {"ivf": {"nprobe": False, "per_token_candidates": False},
                 "plaid": {"ncells": True, "threshold": True, "ndocs": False}}


def _search_values(args: argparse.Namespace, backend: str, grid: bool = False) -> dict:
    """Each search-time flag of `backend`, by dest, read as its config field's
    kind: a comma list where grid mode sweeps it, else one value."""
    kinds = _config_defaults(IvfConfig, PlaidConfig)
    return {dest: (_parse_list if grid and listed else _one)(args, dest, type(kinds[dest]))
            for dest, listed in _SEARCH_FLAGS[backend].items()}


# The flags (argparse dests) each use of `build`, `search` and `diagnose` reads,
# as (required, optional). Lacking a required one or given another, a command
# is refused before any file is read. Search and diagnose headers echo these.
_READS = {
    "build": (("backend", "bundle", "out"), ()),
    "ivf config": ((), tuple(_config_defaults(IvfConfig))),
    "plaid config": ((), tuple(_config_defaults(PlaidConfig))),
    "search": (("backend", "queries", "out"), ("k", "tag")),
    "diagnose": (("mode", "out"), ()),
    "backend=exact": (("bundle",), ()),
    "backend=ivf": (("index", "bundle"), tuple(_SEARCH_FLAGS["ivf"])),
    "backend=plaid": (("index",), ("bundle", *_SEARCH_FLAGS["plaid"])),
    "coverage mode": (("index",), ("bundle",)),
    "grid mode": (("index", "queries", "qrels", *_SEARCH_FLAGS["plaid"]), ("bundle", "k")),
    "ablation mode": (("queries", "qrels"), ("backend", "lengths", "k")),
    "agreement mode": (("run_a", "run_b", "qrels"), ("k",)),
}


def _reads(args: argparse.Namespace) -> set[str]:
    """The flags a build, search or diagnose command reads, once it has every
    required one and was given no other on its command line."""
    if args.subcommand == "build":
        uses = ("build", f"{args.backend} config")
    elif args.subcommand == "search":
        uses = ("search", f"backend={args.backend}")
    else:
        backend = (f"backend={args.backend}",) if args.mode == "ablation" else ()
        uses = ("diagnose", f"{args.mode} mode", *backend)
    missing = [(use, _flag(dest)) for use in uses for dest in _READS[use][0]
               if getattr(args, dest) is None]
    if missing:
        short = " with ".join(dict.fromkeys(use for use, _ in missing))
        raise LatebenchError(f"{short} requires {' '.join(flag for _, flag in missing)}")
    reads = {dest for use in uses for dests in _READS[use] for dest in dests}
    # With abbreviations off, each `--name` or `--name=value` token is one flag.
    given = {token[2:].partition("=")[0].replace("-", "_")
             for token in args.command_line if token.startswith("--")}
    unread = [_flag(dest) for dest in sorted(given - reads - {"verbose"})]
    if unread:
        raise LatebenchError(f"{' with '.join(uses)} does not read {' '.join(unread)}")
    return reads


def cmd_generate(args) -> int:
    if args.pool_to < 0:  # refused before generating, as pool_corpus would refuse it after
        raise LatebenchError(f"--pool-to must be >= 0 (0 = no pooling), got {args.pool_to}")
    spec = _config(SyntheticSpec, args)
    header = _header_entries(args)
    bundle_io.check_meta(header)  # refuse a header it cannot write before generating
    corpus, queries, qrels = generate_synthetic(spec)
    if args.pool_to:
        corpus = pool_corpus(corpus, args.pool_to)
    corpus = dataclasses.replace(corpus, dtype=args.dtype)
    _atomic_write(Path(args.out_bundle), bundle_io.write_bundle(corpus, meta=header))
    query_corpus = Corpus.build(queries)
    _atomic_write(Path(args.out_queries), bundle_io.write_bundle(query_corpus, meta=header))
    _atomic_write(Path(args.out_qrels), write_qrels(qrels, header=header).encode())
    logger.info("generated %d docs, %d queries", len(corpus), len(queries))
    return 0


def cmd_build(args) -> int:
    _reads(args)  # refuse a flag of the other backend's config
    config = _config(IvfConfig if args.backend == "ivf" else PlaidConfig, args)
    header = _header_entries(args, reads=set())  # the config lines hold the parameters
    bundle_io.check_meta(header)  # refuse a header it cannot write before building
    corpus = _load_corpus(args.bundle)
    if args.backend == "ivf":
        data = bundle_io.save_ivf_index(build_ivf(corpus, config), meta=header)
    else:
        index = build_plaid(corpus, config)
        data = bundle_io.save_plaid_index(index, meta=header)
        if index.storage is not None:
            report = index.storage
            rows = [
                ["layout", "bytes"],
                ["raw_float32", str(report.raw_float32_bytes)],
                ["raw_float16", str(report.raw_float16_bytes)],
                ["compressed", str(report.compressed_bytes)],
                ["ratio_vs_float16", f"{report.ratio:.2f}"],
                ["index_file", str(len(data))],
            ]
            sys.stdout.write(format_aligned(rows))
    _atomic_write(Path(args.out), data)
    return 0


def _load_plaid(args) -> PlaidIndex:
    corpus = _load_corpus(args.bundle) if args.bundle else None
    return bundle_io.load_plaid_index(Path(args.index).read_bytes(), corpus)


def _make_searcher(args: argparse.Namespace) -> tuple[partial, dict]:
    """The backend's search bound to its index and to the value of each of
    its search-time flags, the flag's, else the index config's; and those
    values, by dest. The flags are parsed before any file is read."""
    if args.backend == "exact":
        return partial(exact_search, _load_corpus(args.bundle)), {}
    flags = _search_values(args, args.backend)
    if args.backend == "ivf":
        index = bundle_io.load_ivf_index(Path(args.index).read_bytes(), _load_corpus(args.bundle))
        search = ivf_search
    else:
        index, search = _load_plaid(args), plaid_search
    config = {dest: value for field, value in vars(index.config).items()
              for dest in _FIELD_DESTS.get(field, (field,))}
    resolved = {dest: config[dest] if value is None else value for dest, value in flags.items()}
    return partial(search, index, **resolved), resolved


def cmd_search(args) -> int:
    header = _header_entries(args, _reads(args))
    RunFile.check_tag(args.tag)  # refuse a tag no run line can hold before reading any file
    search, resolved = _make_searcher(args)
    queries = _load_queries(args.queries)
    run = diagnostics.run_queries(search, queries, args.k, tag=args.tag)
    header += [f"resolved {dest} {value}" for dest, value in resolved.items()]
    _atomic_write(Path(args.out), write_run(run, header=header).encode())
    return 0


def cmd_evaluate(args) -> int:
    header = "".join(f"# {line}\n" for line in _header_entries(args))
    specs = tuple(MetricSpec.parse(m) for m in args.metric) if args.metric else DEFAULT_SPECS
    run = parse_run(Path(args.run).read_text())
    qrels = parse_qrels(Path(args.qrels).read_text())
    reports = evaluate_run(run, qrels, specs, strict=args.strict)
    rows = report_rows(reports)
    _atomic_write(Path(args.out), (header + format_table(rows)).encode())
    sys.stdout.write(format_aligned(rows))
    return 0


def cmd_diagnose(args) -> int:
    header = _header_entries(args, _reads(args))
    if args.mode == "coverage":
        table = diagnostics.centroid_coverage(_load_plaid(args)).table()
    elif args.mode == "grid":
        sweep = _search_values(args, "plaid", grid=True)
        table = diagnostics.grid_search(
            _load_plaid(args), _load_queries(args.queries),
            parse_qrels(Path(args.qrels).read_text()), *sweep.values(), args.k).table()
    elif args.mode == "ablation":
        lengths = _parse_list(args, "lengths", int)
        search, resolved = _make_searcher(args)
        header += [f"resolved {dest} {value}" for dest, value in resolved.items()]
        table = diagnostics.truncation_ablation(
            _load_queries(args.queries), search, lengths, args.k,
            parse_qrels(Path(args.qrels).read_text())).table()
    else:  # agreement
        table = diagnostics.compare_runs(
            parse_run(Path(args.run_a).read_text()), parse_run(Path(args.run_b).read_text()),
            parse_qrels(Path(args.qrels).read_text()), args.k).table()
    text = "".join(f"# {line}\n" for line in header) + format_table(table)
    _atomic_write(Path(args.out), text.encode())
    sys.stdout.write(format_aligned(table))
    return 0


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    """Search-time flags; one left unset keeps the value the index was built with."""
    parser.add_argument("--index", help="index file produced by `latebench build`")
    parser.add_argument("--bundle", help="embedding bundle (corpus)")
    for flags in _SEARCH_FLAGS.values():
        for dest in flags:
            parser.add_argument(_flag(dest))


class _Parser(argparse.ArgumentParser):
    """Raises what argparse refuses as a LatebenchError; its subcommands' parsers too."""

    def error(self, message: str):
        raise LatebenchError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latebench",
        description="Late-interaction retrieval bench: exact, IVF and PLAID-style backends.",
        allow_abbrev=False,
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # No abbreviated flags: `_reads` takes each `--name` token for the flag it names.
    add_parser = partial(sub.add_parser, allow_abbrev=False)

    gen = add_parser("generate", help="generate a planted synthetic dataset")
    gen.add_argument("--out-bundle", required=True)
    gen.add_argument("--out-queries", required=True)
    gen.add_argument("--out-qrels", required=True)
    _add_config_flags(gen, SyntheticSpec)
    gen.add_argument("--pool-to", type=int, default=0,
                     help="pool documents to this fixed slot count (0 = off)")
    gen.add_argument("--dtype", choices=tuple(NORM_TOLERANCE), default="float32")
    gen.set_defaults(func=cmd_generate)

    build = add_parser("build", help="build an index from a bundle")
    build.add_argument("--backend", choices=["ivf", "plaid"], required=True)
    build.add_argument("--bundle", required=True)
    build.add_argument("--out", required=True)
    _add_config_flags(build, IvfConfig, PlaidConfig)
    build.set_defaults(func=cmd_build)

    search = add_parser("search", help="run queries against a backend")
    search.add_argument("--backend", choices=["exact", "ivf", "plaid"], required=True)
    search.add_argument("--queries", required=True, help="queries bundle")
    search.add_argument("--k", type=int, default=100)
    search.add_argument("--tag", default="latebench")
    search.add_argument("--out", required=True)
    _add_backend_flags(search)
    search.set_defaults(func=cmd_search)

    evaluate = add_parser("evaluate", help="score a run file against qrels")
    evaluate.add_argument("--run", required=True)
    evaluate.add_argument("--qrels", required=True)
    evaluate.add_argument("--metric", action="append", default=[],
                          help="metric@k, repeatable (default: "
                               f"{' '.join(map(str, DEFAULT_SPECS))})")
    evaluate.add_argument("--strict", action="store_true",
                          help="error on run queries missing from qrels")
    evaluate.add_argument("--out", required=True)
    evaluate.set_defaults(func=cmd_evaluate)

    diagnose = add_parser("diagnose", help="coverage / grid / ablation / agreement")
    diagnose.add_argument("--mode", choices=["coverage", "grid", "ablation", "agreement"],
                          required=True)
    diagnose.add_argument("--out", required=True)
    diagnose.add_argument("--backend", choices=["exact", "ivf", "plaid"], default="plaid")
    diagnose.add_argument("--queries")
    diagnose.add_argument("--qrels")
    diagnose.add_argument("--k", type=int, default=100)
    diagnose.add_argument("--lengths", default="10,20,40,60,80,100,121",
                          help="comma-separated truncation lengths")
    diagnose.add_argument("--run-a")
    diagnose.add_argument("--run-b")
    _add_backend_flags(diagnose)
    diagnose.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)  # `--help` exits 0, as argparse does
        args.command_line = argv
        level = logging.WARNING - 10 * min(args.verbose, 2)
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (LatebenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"LATEBENCH-ERROR {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
