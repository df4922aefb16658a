"""Batch command-line surface.

Five subcommands cover the full experimental loop: generate synthetic data,
build an index, search, evaluate a run, and run a diagnostic. Every output
file opens with a header that echoes the exact command line and every
resolved parameter, so no run ever depends on an invisible default; the
header alone suffices to reproduce the file. Outputs are written atomically
(temp file + rename) and inputs are never mutated.

Every command runs single-threaded.
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
from .core import Corpus, exact_search, pool_corpus
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
from .plaid import PlaidConfig, build_plaid, plaid_search
from .synthetic import SyntheticSpec, generate_synthetic
from .trec import parse_qrels, parse_run, write_qrels, write_run

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


def _resolved_params(args: argparse.Namespace) -> list[str]:
    skip = {"func", "command_line", "verbose"}
    lines = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        lines.append(f"param {key} {value}")
    return lines


def _header_entries(args: argparse.Namespace) -> list[str]:
    return [f"command: {shlex.join(args.command_line)}", *_resolved_params(args)]


def command_from_header(path: Path) -> list[str]:
    """Recover the argv that produced an output file from its header."""
    data = Path(path).read_bytes()
    for raw in data.split(b"\n", 500)[:500]:
        line = raw.decode("utf-8", errors="ignore").lstrip("# ")
        if line.startswith("meta "):
            line = line[len("meta "):]
        if line.startswith("command: "):
            return shlex.split(line[len("command: "):])
    raise LatebenchError(f"no command header found in {path}")


def _load_corpus(path: str) -> Corpus:
    return bundle_io.read_bundle(Path(path).read_bytes())


def _load_queries(path: str):
    corpus = _load_corpus(path)
    return {qid: corpus.docs[qid] for qid in corpus.doc_ids}


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def cmd_generate(args) -> int:
    spec = SyntheticSpec(
        doc_count=args.docs,
        tokens_per_doc=(args.tokens_min, args.tokens_max),
        dim=args.dim,
        num_concepts=args.num_concepts,
        queries=args.queries,
        signal_tokens=args.signal_tokens,
        filler_fraction=args.filler_fraction,
        margin=args.margin,
        seed=args.seed,
        concepts_per_doc=args.concepts_per_doc,
        doc_noise=args.doc_noise,
        query_noise=args.query_noise,
        filler_noise=args.filler_noise,
    )
    header = _header_entries(args)
    bundle_io.check_meta(header)  # refuse a header it cannot write before generating
    corpus, queries, qrels = generate_synthetic(spec)
    if args.pool_to:
        corpus = pool_corpus(corpus, args.pool_to)
    if args.dtype == "float16":
        corpus = dataclasses.replace(corpus, dtype="float16")
    _atomic_write(Path(args.out_bundle), bundle_io.write_bundle(corpus, meta=header))
    query_corpus = Corpus.build(queries)
    _atomic_write(Path(args.out_queries), bundle_io.write_bundle(query_corpus, meta=header))
    _atomic_write(Path(args.out_qrels), write_qrels(qrels, header=header).encode())
    logger.info("generated %d docs, %d queries", len(corpus), len(queries))
    return 0


def cmd_build(args) -> int:
    corpus = _load_corpus(args.bundle)
    header = _header_entries(args)
    if args.backend == "ivf":
        config = IvfConfig(
            nlist=args.nlist,
            nprobe=args.nprobe,
            per_token_candidates=args.per_token_candidates,
            kmeans_iters=args.kmeans_iters,
            seed=args.seed,
        )
        data = bundle_io.save_ivf_index(build_ivf(corpus, config), meta=header)
    else:
        config = PlaidConfig(
            num_centroids=args.num_centroids,
            ncells=args.ncells,
            centroid_score_threshold=args.threshold,
            ndocs=args.ndocs,
            residual_bits=args.residual_bits,
            kmeans_iters=args.kmeans_iters,
            seed=args.seed,
        )
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


def _make_searcher(args) -> partial:
    if args.backend == "exact":
        if not args.bundle:
            raise LatebenchError("backend=exact requires --bundle")
        return partial(exact_search, _load_corpus(args.bundle))
    if not args.index:
        raise LatebenchError(f"backend={args.backend} requires --index")
    index_bytes = Path(args.index).read_bytes()
    if args.backend == "ivf":
        if not args.bundle:
            raise LatebenchError("backend=ivf requires --bundle for exact rescoring")
        index = bundle_io.load_ivf_index(index_bytes, _load_corpus(args.bundle))
        return partial(ivf_search, index, nprobe=args.nprobe,
                       per_token_candidates=args.per_token_candidates)
    corpus = _load_corpus(args.bundle) if args.bundle else None
    index = bundle_io.load_plaid_index(index_bytes, corpus)
    ncells = int(args.ncells) if args.ncells is not None else None
    threshold = float(args.threshold) if args.threshold is not None else None
    return partial(plaid_search, index, ncells=ncells, threshold=threshold, ndocs=args.ndocs)


def cmd_search(args) -> int:
    queries = _load_queries(args.queries)
    search = _make_searcher(args)
    run = diagnostics.run_queries(search, queries, args.k, tag=args.tag)
    text = write_run(run, header=_header_entries(args))
    _atomic_write(Path(args.out), text.encode())
    return 0


def cmd_evaluate(args) -> int:
    run = parse_run(Path(args.run).read_text())
    qrels = parse_qrels(Path(args.qrels).read_text())
    specs = tuple(MetricSpec.parse(m) for m in args.metric) if args.metric else DEFAULT_SPECS
    reports = evaluate_run(run, qrels, specs, strict=args.strict)
    rows = report_rows(reports)
    header = "".join(f"# {line}\n" for line in _header_entries(args))
    _atomic_write(Path(args.out), (header + format_table(rows)).encode())
    sys.stdout.write(format_aligned(rows))
    return 0


def cmd_diagnose(args) -> int:
    header = "".join(f"# {line}\n" for line in _header_entries(args))
    if args.mode == "coverage":
        if not args.index:
            raise LatebenchError("coverage mode requires --index")
        index = bundle_io.load_plaid_index(
            Path(args.index).read_bytes(),
            _load_corpus(args.bundle) if args.bundle else None,
        )
        report = diagnostics.centroid_coverage(index, sample=args.sample, seed=args.seed)
        table = report.rows()
    elif args.mode == "grid":
        missing = [
            flag
            for flag, value in [("--index", args.index), ("--queries", args.queries),
                                ("--qrels", args.qrels), ("--ncells", args.ncells),
                                ("--threshold", args.threshold), ("--ndocs", args.ndocs)]
            if value is None
        ]
        if missing:
            raise LatebenchError(f"grid mode requires {' '.join(missing)}")
        corpus = _load_corpus(args.bundle) if args.bundle else None
        index = bundle_io.load_plaid_index(Path(args.index).read_bytes(), corpus)
        result = diagnostics.grid_search(
            index,
            _load_queries(args.queries),
            parse_qrels(Path(args.qrels).read_text()),
            _parse_int_list(args.ncells),
            _parse_float_list(args.threshold),
            args.ndocs,
            args.k,
        )
        table = result.table()
    elif args.mode == "ablation":
        search = _make_searcher(args)
        result = diagnostics.truncation_ablation(
            _load_queries(args.queries),
            search,
            _parse_int_list(args.lengths),
            args.k,
            parse_qrels(Path(args.qrels).read_text()),
        )
        table = result.table()
    else:  # agreement
        report = diagnostics.compare_runs(
            parse_run(Path(args.run_a).read_text()),
            parse_run(Path(args.run_b).read_text()),
            parse_qrels(Path(args.qrels).read_text()),
            args.k,
        )
        table = report.table()
    _atomic_write(Path(args.out), (header + format_table(table)).encode())
    sys.stdout.write(format_aligned(table))
    return 0


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--index", help="index file produced by `latebench build`")
    parser.add_argument("--bundle", help="embedding bundle (corpus)")
    parser.add_argument("--nprobe", type=int, default=None)
    parser.add_argument("--per-token-candidates", type=int, default=None)
    # str, not numeric: diagnose --mode grid reads these as comma lists
    parser.add_argument("--ncells", default=None)
    parser.add_argument("--threshold", default=None)
    parser.add_argument("--ndocs", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latebench",
        description="Late-interaction retrieval bench: exact, IVF and PLAID-style backends.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="generate a planted synthetic dataset")
    gen.add_argument("--out-bundle", required=True)
    gen.add_argument("--out-queries", required=True)
    gen.add_argument("--out-qrels", required=True)
    gen.add_argument("--docs", type=int, default=100)
    gen.add_argument("--tokens-min", type=int, default=8)
    gen.add_argument("--tokens-max", type=int, default=32)
    gen.add_argument("--dim", type=int, default=128)
    gen.add_argument("--num-concepts", type=int, default=16)
    gen.add_argument("--queries", type=int, default=20)
    gen.add_argument("--signal-tokens", type=int, default=8)
    gen.add_argument("--filler-fraction", type=float, default=0.0)
    gen.add_argument("--margin", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--concepts-per-doc", type=int, default=2)
    gen.add_argument("--doc-noise", type=float, default=0.25)
    gen.add_argument("--query-noise", type=float, default=0.1)
    gen.add_argument("--filler-noise", type=float, default=0.35)
    gen.add_argument("--pool-to", type=int, default=0,
                     help="pool documents to this fixed slot count (0 = off)")
    gen.add_argument("--dtype", choices=["float32", "float16"], default="float32")
    gen.set_defaults(func=cmd_generate)

    build = sub.add_parser("build", help="build an index from a bundle")
    build.add_argument("--backend", choices=["ivf", "plaid"], required=True)
    build.add_argument("--bundle", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--nlist", type=int, default=64)
    build.add_argument("--nprobe", type=int, default=8)
    build.add_argument("--per-token-candidates", type=int, default=256)
    build.add_argument("--num-centroids", type=int, default=256)
    build.add_argument("--ncells", type=int, default=4)
    build.add_argument("--threshold", type=float, default=0.4)
    build.add_argument("--ndocs", type=int, default=4096)
    build.add_argument("--residual-bits", type=int, choices=[0, 1, 2], default=0)
    build.add_argument("--kmeans-iters", type=int, default=20)
    build.add_argument("--seed", type=int, default=0)
    build.set_defaults(func=cmd_build)

    search = sub.add_parser("search", help="run queries against a backend")
    search.add_argument("--backend", choices=["exact", "ivf", "plaid"], required=True)
    search.add_argument("--queries", required=True, help="queries bundle")
    search.add_argument("--k", type=int, default=100)
    search.add_argument("--tag", default="latebench")
    search.add_argument("--out", required=True)
    _add_backend_flags(search)
    search.set_defaults(func=cmd_search)

    evaluate = sub.add_parser("evaluate", help="score a run file against qrels")
    evaluate.add_argument("--run", required=True)
    evaluate.add_argument("--qrels", required=True)
    evaluate.add_argument("--metric", action="append", default=[],
                          help="metric@k, repeatable (default: mrr@10 recall@1000 ndcg@10)")
    evaluate.add_argument("--strict", action="store_true",
                          help="error on run queries missing from qrels")
    evaluate.add_argument("--out", required=True)
    evaluate.set_defaults(func=cmd_evaluate)

    diagnose = sub.add_parser("diagnose", help="coverage / grid / ablation / agreement")
    diagnose.add_argument("--mode", choices=["coverage", "grid", "ablation", "agreement"],
                          required=True)
    diagnose.add_argument("--out", required=True)
    diagnose.add_argument("--backend", choices=["exact", "ivf", "plaid"], default="plaid")
    diagnose.add_argument("--queries")
    diagnose.add_argument("--qrels")
    diagnose.add_argument("--k", type=int, default=100)
    diagnose.add_argument("--sample", type=int, default=5000)
    diagnose.add_argument("--seed", type=int, default=0)
    diagnose.add_argument("--lengths", default="10,20,40,60,80,100,121",
                          help="comma-separated truncation lengths")
    diagnose.add_argument("--run-a")
    diagnose.add_argument("--run-b")
    _add_backend_flags(diagnose)
    # grid mode reads --ncells / --threshold as comma lists
    diagnose.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_line = argv
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (LatebenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"LATEBENCH-ERROR {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
