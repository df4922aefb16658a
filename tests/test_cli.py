import dataclasses
import hashlib
import re
import shlex
import shutil
from pathlib import Path

import pytest

from latebench import Corpus, IvfConfig, PlaidConfig, SyntheticSpec, cli, pool_corpus
from latebench.bundle import read_bundle, write_bundle
from latebench.cli import command_from_header, main
from latebench.errors import LatebenchError
from latebench.trec import parse_run


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset plus both index kinds, built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    gen = [
        "generate",
        "--out-bundle", str(root / "corpus.lbb"),
        "--out-queries", str(root / "queries.lbb"),
        "--out-qrels", str(root / "qrels.txt"),
        "--docs", "50", "--tokens-min", "5", "--tokens-max", "12",
        "--dim", "64", "--num-concepts", "12", "--queries", "8",
        "--signal-tokens", "5", "--seed", "13",
    ]
    assert main(gen) == 0
    assert main([
        "build", "--backend", "ivf",
        "--bundle", str(root / "corpus.lbb"), "--out", str(root / "ivf.lbi"),
        "--nlist", "16", "--seed", "2",
    ]) == 0
    assert main([
        "build", "--backend", "plaid",
        "--bundle", str(root / "corpus.lbb"), "--out", str(root / "plaid.lbi"),
        "--num-centroids", "24", "--ndocs", "50", "--seed", "2",
    ]) == 0
    return root


def test_outputs_exist_with_headers(workspace):
    qrels_text = (workspace / "qrels.txt").read_text()
    assert qrels_text.startswith("# command: generate")
    assert "# param seed 13" in qrels_text


@pytest.mark.parametrize("dtype", ["float32", "float16"])
def test_generate_pool_to_writes_the_pooled_bundle(tmp_path, dtype):
    # What `--pool-to 4` writes is pool_corpus of the unpooled bundle, narrowed to --dtype.
    def generate(name, *extra):
        bundle = tmp_path / name / "corpus.lbb"
        assert main(["generate", "--out-bundle", str(bundle),
                     "--out-queries", str(tmp_path / name / "queries.lbb"),
                     "--out-qrels", str(tmp_path / name / "qrels.txt"),
                     "--docs", "30", "--tokens-min", "3", "--tokens-max", "9", "--dim", "32",
                     "--num-concepts", "10", "--queries", "4", "--signal-tokens", "2",
                     "--seed", "13", *extra]) == 0
        return bundle.read_bytes()

    pooled = generate("pooled", "--pool-to", "4", "--dtype", dtype)
    plain = read_bundle(generate("plain"))
    want = dataclasses.replace(pool_corpus(plain, 4), dtype=dtype)
    assert write_bundle(read_bundle(pooled)) == write_bundle(want)
    header = pooled[:pooled.index(b"\nend\n")].decode().splitlines()
    assert {"pooling fixed", "C 4", f"dtype {dtype}"} <= set(header)
    # --pool-to 0 is no pooling.
    unpooled = read_bundle(generate("zero", "--pool-to", "0", "--dtype", dtype))
    assert unpooled.pooling == "none"
    assert write_bundle(unpooled) == write_bundle(dataclasses.replace(plain, dtype=dtype))


def test_search_and_evaluate_on_planted_data(workspace, capsys):
    assert main([
        "search", "--backend", "exact",
        "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--k", "10", "--out", str(workspace / "exact.run"),
    ]) == 0
    assert main([
        "evaluate", "--run", str(workspace / "exact.run"),
        "--qrels", str(workspace / "qrels.txt"),
        "--out", str(workspace / "eval.tsv"),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "MRR@10" in stdout
    lines = [l for l in (workspace / "eval.tsv").read_text().splitlines()
             if l.startswith("all")]
    assert lines[0].split("\t")[1] == "1.000000"  # planted guarantee


def test_backends_disagree_flag_is_caught(workspace, capsys):
    code = main([
        "search", "--backend", "plaid",
        "--index", str(workspace / "ivf.lbi"),
        "--queries", str(workspace / "queries.lbb"),
        "--k", "5", "--out", str(workspace / "bad.run"),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("LATEBENCH-ERROR ") and "'ivf'" in err[0]
    assert not (workspace / "bad.run").exists()


def test_error_is_single_machine_parsable_line(workspace, capsys):
    code = main([
        "search", "--backend", "exact",
        "--bundle", str(workspace / "missing.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--k", "5", "--out", str(workspace / "x.run"),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("LATEBENCH-ERROR ")


def test_non_ascii_output_path_is_one_clean_error(tmp_path, capsys):
    code = main([
        "generate",
        "--out-bundle", str(tmp_path / "c\u00e9.lbb"),
        "--out-queries", str(tmp_path / "queries.lbb"),
        "--out-qrels", str(tmp_path / "qrels.txt"),
        "--docs", "50", "--tokens-min", "5", "--tokens-max", "12",
        "--dim", "64", "--num-concepts", "12", "--queries", "8",
        "--signal-tokens", "5", "--seed", "13",
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("LATEBENCH-ERROR ") and "UnicodeEncodeError" not in err[0]
    assert list(tmp_path.iterdir()) == []


def test_build_same_flags_byte_identical(workspace, tmp_path):
    out = tmp_path / "again.lbi"
    argv = [
        "build", "--backend", "plaid",
        "--bundle", str(workspace / "corpus.lbb"), "--out", str(out),
        "--num-centroids", "24", "--ndocs", "50", "--seed", "2",
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def _param_names(path):
    """The flag names of an output's `param` header lines."""
    head = path.read_bytes().split(b"\nend\n")[0].decode("ascii", errors="ignore")
    lines = (line.removeprefix("# ").removeprefix("meta ") for line in head.splitlines())
    return sorted(line.split()[1] for line in lines if line.startswith("param "))


def test_every_output_reproduces_from_its_header(workspace, tmp_path):
    run_path = workspace / "repro.run"
    assert main([
        "search", "--backend", "ivf",
        "--index", str(workspace / "ivf.lbi"),
        "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--k", "10", "--out", str(run_path),
    ]) == 0
    coverage_path = workspace / "repro-coverage.tsv"
    assert main([
        "diagnose", "--mode", "coverage",
        "--index", str(workspace / "plaid.lbi"), "--bundle", str(workspace / "corpus.lbb"),
        "--out", str(coverage_path),
    ]) == 0
    outputs = (run_path, coverage_path, workspace / "ivf.lbi", workspace / "plaid.lbi",
               workspace / "qrels.txt")
    for path in outputs:
        argv = command_from_header(path)
        # search and diagnose echo the flags their backend or mode reads, build
        # none (its index header holds the resolved config), the others all.
        args = cli.build_parser().parse_args(argv)
        if args.subcommand in ("search", "diagnose"):
            args.command_line = argv
            echoed = cli._reads(args)
        else:
            echoed = set() if args.subcommand == "build" else set(vars(args)) - {"func", "verbose"}
        assert _param_names(path) == sorted(echoed)
        saved = tmp_path / (path.name + ".orig")
        shutil.copy(path, saved)
        assert main(argv) == 0
        assert path.read_bytes() == saved.read_bytes()


@pytest.mark.parametrize("backend, config", [("ivf", IvfConfig), ("plaid", PlaidConfig)])
def test_index_headers_name_only_their_config_fields(workspace, tmp_path, backend, config):
    out = tmp_path / "x.lbi"
    flags = {"ivf": ["--nlist", "16", "--nprobe", "3"],
             "plaid": ["--num-centroids", "24", "--ncells", "9", "--ndocs", "50"]}[backend]
    assert main(["build", "--backend", backend, "--bundle", str(workspace / "corpus.lbb"),
                 "--out", str(out), *flags]) == 0
    head = out.read_bytes().split(b"\nend\n")[0].decode("ascii").splitlines()[1:]
    named = {line.split()[2] if line.startswith("meta param ") else line.split()[0]
             for line in head if not line.startswith("meta command: ")}
    fields = {f.name for f in dataclasses.fields(config)}
    layout = {"backend", "corpus_sha256", "doc", "array", "payload_sha256", "payload"}
    assert fields <= named and named - fields <= layout


@pytest.mark.parametrize("argv, refused", [
    pytest.param(["build", "--backend", "ivf", "--bundle", "c.lbb", "--out", "x.lbi",
                  "--ncells", "999", "--residual-bits", "2"],
                 "build with ivf config does not read --ncells --residual-bits", id="build-ivf"),
    pytest.param(["build", "--backend", "plaid", "--bundle", "c.lbb", "--out", "x.lbi",
                  "--nlist=16"], "build with plaid config does not read --nlist", id="build-plaid"),
    pytest.param(["search", "--backend", "exact", "--bundle", "c.lbb", "--queries", "q.lbb",
                  "--out", "x.run", "--nprobe", "3"],
                 "search with backend=exact does not read --nprobe", id="search-exact"),
    pytest.param(["search", "--backend", "ivf", "--index", "i.lbi", "--bundle", "c.lbb",
                  "--queries", "q.lbb", "--out", "x.run", "--ndocs", "9"],
                 "search with backend=ivf does not read --ndocs", id="search-ivf"),
    pytest.param(["diagnose", "--mode", "coverage", "--index", "p.lbi", "--out", "c.tsv",
                  "--k", "7", "--lengths", "1", "--run-a", "x"],
                 "diagnose with coverage mode does not read --k --lengths --run-a",
                 id="coverage"),
    pytest.param(["diagnose", "--mode", "grid", "--index", "p.lbi", "--queries", "q.lbb",
                  "--qrels", "r.txt", "--ncells", "4", "--threshold", "0.4", "--ndocs", "9",
                  "--backend", "exact", "--out", "g.tsv"],
                 "diagnose with grid mode does not read --backend", id="grid"),
])
def test_unread_flags_are_one_error_line(tmp_path, monkeypatch, capsys, argv, refused):
    # None of the files exist: a check made after reading one would be an OSError.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"LATEBENCH-ERROR LatebenchError: {refused}"]
    assert list(tmp_path.iterdir()) == []


_GRID = ["diagnose", "--mode", "grid", "--index", "p.lbi", "--queries", "q.lbb",
         "--qrels", "r.txt", "--ndocs", "9", "--out", "g.tsv"]
_ABLATION = ["diagnose", "--mode", "ablation", "--backend", "exact", "--bundle", "c.lbb",
             "--queries", "q.lbb", "--qrels", "r.txt", "--out", "a.tsv"]


@pytest.mark.parametrize("argv, refused", [
    pytest.param([*_GRID, "--ncells", "4,,8", "--threshold", "0.4"],
                 "--ncells '4,,8' has an empty comma-separated part", id="inner"),
    pytest.param([*_GRID, "--ncells", "4", "--threshold", ",0.4"],
                 "--threshold ',0.4' has an empty comma-separated part", id="leading"),
    pytest.param([*_GRID, "--ncells", "4", "--threshold", " ,0.4"],
                 "--threshold ' ,0.4' has an empty comma-separated part", id="blank"),
    pytest.param([*_ABLATION, "--lengths", "8,"],
                 "--lengths '8,' has an empty comma-separated part", id="trailing"),
    pytest.param([*_ABLATION, "--lengths", "8,x"],
                 "--lengths '8,x' is not a comma-separated list of int values", id="not-int"),
])
def test_malformed_comma_list_is_refused_before_reading(tmp_path, monkeypatch, capsys, argv,
                                                        refused):
    # None of the files exist, and every loader fails the test if it is called.
    monkeypatch.chdir(tmp_path)
    for name in ("_load_plaid", "_load_queries", "_make_searcher", "parse_qrels"):
        monkeypatch.setattr(cli, name, _too_early)
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"LATEBENCH-ERROR LatebenchError: {refused}"]
    assert list(tmp_path.iterdir()) == []


def test_abbreviated_flags_are_refused(capsys):
    # An abbreviation would name a flag its token does not spell out.
    assert main(["search", "--backend", "exact", "--bundle", "c.lbb", "--queries", "q.lbb",
                 "--out", "x.run", "--nprob", "3"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "LATEBENCH-ERROR LatebenchError: unrecognized arguments: --nprob 3"]


_GENERATE = ["generate", "--out-bundle", "c.lbb", "--out-queries", "q.lbb",
             "--out-qrels", "qrels.txt"]
_SEARCH = ["search", "--backend", "exact", "--bundle", "c.lbb", "--queries", "q.lbb",
           "--out", "x.run"]


@pytest.mark.parametrize("argv, refused", [
    pytest.param(["build", "--backend", "ivf", "--bundle", "c.lbb", "--out", "i.lbi",
                  "--nlist", "abc"], "argument --nlist: invalid int value: 'abc'", id="nlist"),
    pytest.param([*_SEARCH, "--k", "abc"], "argument --k: invalid int value: 'abc'", id="k"),
    pytest.param([*_GENERATE, "--docs", "x"], "argument --docs: invalid int value: 'x'",
                 id="docs"),
    pytest.param([*_GENERATE, "--pool-to", "x"], "argument --pool-to: invalid int value: 'x'",
                 id="pool-to"),
    pytest.param(["search", "--backend", "foo", "--queries", "q.lbb", "--out", "x.run"],
                 "argument --backend: invalid choice: 'foo'", id="backend"),
    pytest.param(_GENERATE[:-2], "the following arguments are required: --out-qrels",
                 id="missing-required"),
    pytest.param([*_SEARCH, "--nprobes", "3"], "unrecognized arguments: --nprobes 3",
                 id="unknown-flag"),
    pytest.param([*_SEARCH, "--per-token", "5"], "unrecognized arguments: --per-token 5",
                 id="abbreviated-flag"),
    pytest.param([], "the following arguments are required: subcommand", id="no-subcommand"),
])
def test_argparse_refusals_are_one_error_line(tmp_path, monkeypatch, capsys, argv, refused):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"LATEBENCH-ERROR LatebenchError: {refused}")
    assert list(tmp_path.iterdir()) == []


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["search", "--help"])
    assert exited.value.code == 0 and capsys.readouterr().out.startswith("usage: latebench")


def test_reads_table_names_every_flag_of_build_search_and_diagnose():
    parser = cli.build_parser()
    flags = {
        argv[0]: set(vars(parser.parse_args(argv))) - {"subcommand", "func", "verbose"}
        for argv in (["build", "--backend", "ivf", "--bundle", "c", "--out", "o"],
                     ["search", "--backend", "exact", "--queries", "q", "--out", "o"],
                     ["diagnose", "--mode", "coverage", "--out", "o"])
    }
    backends = {f"backend={b}" for b in ("exact", "ivf", "plaid")}
    modes = {f"{m} mode" for m in ("coverage", "grid", "ablation", "agreement")}
    uses = {"build": {"build", "ivf config", "plaid config"}, "search": {"search", *backends},
            "diagnose": {"diagnose", *modes, *backends}}
    assert set(cli._READS) == set().union(*uses.values())
    for command, names in uses.items():
        read = {dest for use in names for dests in cli._READS[use] for dest in dests}
        assert read == flags[command], command


def _readme_flags(cell: str) -> set[str]:
    """The dests of the flags in a table cell's first code span; the rest is prose."""
    span = re.match(r"`([^`]*)`", cell)
    return {flag[2:].replace("-", "_") for flag in span[1].split()} if span else set()


def test_readme_flag_table_is_the_reads_table():
    # The table is kept by hand: each row's command names a use of _READS,
    # except build's, which also reads the chosen config's flags.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| command | requires | also reads |\n", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in table.splitlines() if not line.strip().startswith("|---")]
    covered = set()
    for command, requires, reads in rows:
        subcommand, flag, value = re.fullmatch(r"`(\w+) --(\w+) (\w+)`", command).groups()
        use = {"build": f"{value} config", "search": f"backend={value}",
               "diagnose": f"{value} mode"}[subcommand]
        required, optional = cli._READS[use]
        if subcommand == "build":
            required = set(cli._READS["build"][0]) - {flag}
        assert (_readme_flags(requires), _readme_flags(reads)) == (set(required), set(optional)), \
            command
        covered.add(use)
    assert covered == set(cli._READS) - {"build", "search", "diagnose"}


def test_diagnose_grid_emits_15_rows(workspace):
    out = workspace / "grid.tsv"
    assert main([
        "diagnose", "--mode", "grid",
        "--index", str(workspace / "plaid.lbi"),
        "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--qrels", str(workspace / "qrels.txt"),
        "--ncells", "4,8,16,32,64", "--threshold", "0.3,0.4,0.5",
        "--ndocs", "8192", "--k", "10", "--out", str(out),
    ]) == 0
    data_rows = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#") and not l.startswith("threshold")]
    assert len(data_rows) == 15


def test_diagnose_coverage_and_ablation_and_agreement(workspace):
    assert main([
        "diagnose", "--mode", "coverage",
        "--index", str(workspace / "plaid.lbi"),
        "--bundle", str(workspace / "corpus.lbb"),
        "--out", str(workspace / "cov.tsv"),
    ]) == 0
    assert main([
        "diagnose", "--mode", "ablation", "--backend", "exact",
        "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--qrels", str(workspace / "qrels.txt"),
        "--lengths", "1,2,5", "--k", "10", "--out", str(workspace / "abl.tsv"),
    ]) == 0
    abl_rows = [l for l in (workspace / "abl.tsv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("length")]
    assert len(abl_rows) == 3
    assert main([
        "search", "--backend", "plaid",
        "--index", str(workspace / "plaid.lbi"),
        "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--k", "10", "--out", str(workspace / "plaid.run"),
    ]) == 0
    assert main([
        "diagnose", "--mode", "agreement",
        "--run-a", str(workspace / "exact.run"), "--run-b", str(workspace / "plaid.run"),
        "--qrels", str(workspace / "qrels.txt"), "--k", "10",
        "--out", str(workspace / "agree.tsv"),
    ]) == 0
    agree = (workspace / "agree.tsv").read_text()
    assert "delta[MRR@10]" in agree


def test_inputs_never_mutated(workspace):
    corpus_bytes = (workspace / "corpus.lbb").read_bytes()
    assert main([
        "search", "--backend", "exact",
        "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--k", "3", "--out", str(workspace / "again.run"),
    ]) == 0
    assert (workspace / "corpus.lbb").read_bytes() == corpus_bytes


def test_invalid_config_reported_cleanly(workspace, tmp_path, capsys):
    code = main([
        "build", "--backend", "plaid",
        "--bundle", str(workspace / "corpus.lbb"), "--out", str(tmp_path / "x.lbi"),
        "--num-centroids", "8", "--ncells", "16", "--seed", "1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("LATEBENCH-ERROR ValueError: ncells")


def test_residual_build_prints_storage_table(workspace, tmp_path, capsys):
    assert main([
        "build", "--backend", "plaid",
        "--bundle", str(workspace / "corpus.lbb"), "--out", str(tmp_path / "res.lbi"),
        "--num-centroids", "24", "--ndocs", "50", "--residual-bits", "2", "--seed", "2",
    ]) == 0
    stdout = capsys.readouterr().out
    assert "ratio_vs_float16" in stdout
    assert "compressed" in stdout


def test_storage_table_reports_the_written_file(workspace, tmp_path, capsys):
    out = tmp_path / "res.lbi"
    assert main([
        "build", "--backend", "plaid",
        "--bundle", str(workspace / "corpus.lbb"), "--out", str(out),
        "--num-centroids", "24", "--ndocs", "50", "--residual-bits", "1", "--seed", "2",
    ]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert rows["index_file"] == str(out.stat().st_size)


def test_grid_missing_flags_reported(workspace, capsys):
    code = main([
        "diagnose", "--mode", "grid",
        "--index", str(workspace / "plaid.lbi"),
        "--out", str(workspace / "never.tsv"),
    ])
    assert code == 2
    assert "grid mode requires" in capsys.readouterr().err


@pytest.mark.parametrize("argv, missing", [
    pytest.param(["search", "--backend", "exact"], "--bundle", id="search-exact"),
    pytest.param(["search", "--backend", "ivf"], "--index --bundle", id="search-ivf"),
    pytest.param(["search", "--backend", "plaid"], "--index", id="search-plaid"),
    pytest.param(["diagnose", "--mode", "coverage"], "--index", id="coverage"),
    pytest.param(["diagnose", "--mode", "grid"],
                 "--index --queries --qrels --ncells --threshold --ndocs", id="grid"),
    pytest.param(["diagnose", "--mode", "ablation", "--backend", "ivf"],
                 "--queries --qrels --index --bundle", id="ablation"),
    pytest.param(["diagnose", "--mode", "agreement"], "--run-a --run-b --qrels", id="agreement"),
])
def test_missing_required_flags_are_one_error_line(tmp_path, monkeypatch, capsys, argv, missing):
    # search's --queries names no file: a check made after reading it would be an OSError.
    monkeypatch.chdir(tmp_path)
    queries = ["--queries", "queries.lbb"] if argv[0] == "search" else []
    assert main([*argv, *queries, "--out", "never.out"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("LATEBENCH-ERROR LatebenchError: ")
    assert err[0].endswith(f" requires {missing}")
    assert "Traceback" not in captured.err and list(tmp_path.iterdir()) == []


class _Captured(Exception):
    pass


@pytest.mark.parametrize("argv, target, default", [
    pytest.param(["generate", "--out-bundle", "c.lbb", "--out-queries", "q.lbb",
                  "--out-qrels", "r.txt"], "generate_synthetic", SyntheticSpec(), id="generate"),
    pytest.param(["build", "--backend", "ivf", "--bundle", "corpus.lbb", "--out", "x.lbi"],
                 "build_ivf", IvfConfig(), id="build-ivf"),
    pytest.param(["build", "--backend", "plaid", "--bundle", "corpus.lbb", "--out", "x.lbi"],
                 "build_plaid", PlaidConfig(), id="build-plaid"),
])
def test_required_flags_alone_give_the_config_defaults(workspace, monkeypatch, argv, target,
                                                       default):
    def capture(*args):
        raise _Captured(args[-1])

    monkeypatch.chdir(workspace)
    monkeypatch.setattr(cli, target, capture)
    with pytest.raises(_Captured) as got:
        main(argv)
    assert got.value.args[0] == default


def test_unsupported_residual_bits_reported_by_the_config(workspace, tmp_path, capsys):
    out = tmp_path / "x.lbi"
    assert main(["build", "--backend", "plaid", "--bundle", str(workspace / "corpus.lbb"),
                 "--out", str(out), "--residual-bits", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["LATEBENCH-ERROR UnsupportedBits: residual_bits must be 0, 1 or 2, got 3"]
    assert not out.exists()


def test_unwritable_header_is_refused_before_generating(tmp_path, capsys, monkeypatch):
    def no_generation(spec):
        raise AssertionError("generated before checking the header")

    monkeypatch.setattr(cli, "generate_synthetic", no_generation)
    code = main([
        "generate",
        "--out-bundle", str(tmp_path / "cé.lbb"),
        "--out-queries", str(tmp_path / "queries.lbb"),
        "--out-qrels", str(tmp_path / "qrels.txt"),
        "--docs", "50", "--queries", "8", "--seed", "13",
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("LATEBENCH-ERROR ValueError: ")
    assert list(tmp_path.iterdir()) == []


def test_search_time_ivf_budget_below_one_reported_cleanly(workspace, capsys):
    out = workspace / "never.run"
    code = main([
        "search", "--backend", "ivf",
        "--index", str(workspace / "ivf.lbi"), "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--per-token-candidates", "0", "--k", "5", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["LATEBENCH-ERROR ValueError: per_token_candidates must be >= 1"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["search", "--backend", "ivf", "--index", "ivf.lbi", "--nprobe", "0"], id="ivf"),
    pytest.param(["search", "--backend", "plaid", "--index", "plaid.lbi", "--ncells", "-1"],
                 id="plaid"),
    pytest.param(["diagnose", "--mode", "grid", "--index", "plaid.lbi", "--qrels", "qrels.txt",
                  "--ncells", "0,4", "--threshold", "0.4", "--ndocs", "50"], id="grid"),
])
def test_search_time_probe_below_one_reported_cleanly(workspace, capsys, argv):
    out = workspace / "never.out"
    argv = [str(workspace / a) if a.endswith((".lbi", ".txt")) else a for a in argv]
    code = main([*argv, "--bundle", str(workspace / "corpus.lbb"),
                 "--queries", str(workspace / "queries.lbb"), "--k", "5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("LATEBENCH-ERROR ValueError: nprobe and ncells ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["search", "--backend", "plaid", "--index", "plaid.lbi", "--threshold", "nan"],
                 id="search-nan"),
    pytest.param(["search", "--backend", "plaid", "--index", "plaid.lbi", "--threshold", "5"],
                 id="search-above-one"),
    pytest.param(["diagnose", "--mode", "grid", "--index", "plaid.lbi", "--qrels", "qrels.txt",
                  "--ncells", "4", "--threshold", "2,0.4", "--ndocs", "50"], id="grid"),
])
def test_search_time_threshold_outside_unit_range_reported_cleanly(workspace, capsys, argv):
    # Unchecked, such a threshold pruned every centroid: an empty run, exit 0.
    out = workspace / "never.out"
    argv = [str(workspace / a) if a.endswith((".lbi", ".txt")) else a for a in argv]
    code = main([*argv, "--bundle", str(workspace / "corpus.lbb"),
                 "--queries", str(workspace / "queries.lbb"), "--k", "5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["LATEBENCH-ERROR ValueError: centroid_score_threshold must be in [-1, 1]"]
    assert not out.exists()


def test_grid_ndocs_zero_reported_as_too_small(workspace, capsys):
    out = workspace / "never.tsv"
    code = main([
        "diagnose", "--mode", "grid",
        "--index", str(workspace / "plaid.lbi"), "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"), "--qrels", str(workspace / "qrels.txt"),
        "--ncells", "4", "--threshold", "0.4", "--ndocs", "0", "--k", "5", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["LATEBENCH-ERROR NDocsTooSmall: ndocs=0 is smaller than k=5"]
    assert not out.exists()


def test_readme_walkthrough_commands_parse():
    # A renamed or dropped flag fails here instead of silently breaking the docs.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("latebench ")]
    assert {argv[1] for argv in commands} == {"generate", "build", "search", "evaluate",
                                              "diagnose"}
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        args.command_line = argv[1:]
        if args.subcommand in ("build", "search", "diagnose"):
            cli._reads(args)  # every flag it requires is there, and no flag it does not read


def _too_early(*args):
    raise AssertionError("ran before the header was checked")


def test_header_line_break_is_refused_before_generating(tmp_path, capsys, monkeypatch):
    # str.splitlines, which the bundle reader splits its header with, breaks at "\r".
    monkeypatch.setattr(cli, "generate_synthetic", _too_early)
    code = main([
        "generate",
        "--out-bundle", str(tmp_path / "a\rb.lbb"),
        "--out-queries", str(tmp_path / "queries.lbb"),
        "--out-qrels", str(tmp_path / "qrels.txt"),
        "--docs", "50", "--queries", "8", "--seed", "13",
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("LATEBENCH-ERROR LatebenchError: header")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pool_to", ["-3", "-1"])
def test_negative_pool_to_is_refused_before_generating(tmp_path, capsys, monkeypatch, pool_to):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "generate_synthetic", _too_early)
    assert main([*_GENERATE, "--docs", "50", "--queries", "8", "--pool-to", pool_to]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"LATEBENCH-ERROR LatebenchError: --pool-to must be >= 0 (0 = no pooling), got {pool_to}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["search", "--backend", "exact", "--bundle", "c.lbb", "--queries", "q.lbb"],
    ["evaluate", "--run", "x.run", "--qrels", "qrels.txt"],
    ["diagnose", "--mode", "coverage", "--index", "p.lbi"],
])
def test_text_header_line_break_is_refused_before_reading(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_load_corpus", _too_early)
    monkeypatch.setattr(cli, "parse_run", _too_early)
    monkeypatch.setattr(cli, "_load_plaid", _too_early)
    assert main(argv + ["--out", str(tmp_path / "x\ny.out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("LATEBENCH-ERROR LatebenchError: header")
    assert list(tmp_path.iterdir()) == []


def test_unreadable_command_header_is_a_latebench_error(tmp_path):
    path = tmp_path / "x.run"
    path.write_text("# command: search --out 'x\n# y.run'\n")
    with pytest.raises(LatebenchError, match="unreadable command header"):
        command_from_header(path)


@pytest.mark.parametrize("backend", ["ivf", "plaid"])
def test_unwritable_header_is_refused_before_building(tmp_path, capsys, monkeypatch, backend):
    for name in ("_load_corpus", "build_ivf", "build_plaid"):
        monkeypatch.setattr(cli, name, _too_early)
    out = tmp_path / "\u00e9.lbi"
    assert main(["build", "--backend", backend, "--bundle", "c.lbb", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("LATEBENCH-ERROR ValueError: header lines")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tag", ["a b", ""])
def test_run_tag_that_is_not_one_token_writes_no_run(workspace, capsys, tag):
    out = workspace / "tagged.run"
    code = main([
        "search", "--backend", "exact",
        "--bundle", str(workspace / "corpus.lbb"),
        "--queries", str(workspace / "queries.lbb"),
        "--k", "5", "--tag", tag, "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"LATEBENCH-ERROR ValueError: run tag {tag!r} is empty or contains whitespace"]
    assert not out.exists()


def test_bad_run_tag_is_refused_before_any_file_is_read(tmp_path, capsys):
    code = main([
        "search", "--backend", "exact",
        "--bundle", str(tmp_path / "missing.lbb"),
        "--queries", str(tmp_path / "missing-queries.lbb"),
        "--tag", "a b", "--out", str(tmp_path / "x.run"),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["LATEBENCH-ERROR ValueError: run tag 'a b' is empty or contains whitespace"]
    assert list(tmp_path.iterdir()) == []


# sha256 of each diagnose table without its `#` header lines, on the dataset
# below. The bench reads these tables by row and column label, so a change of
# columns, order or number format has to update its digest here, on purpose.
TABLE_DIGESTS = {
    "grid.tsv": "017d1375e8004623332121cc0d822e648edbe83556d80047bfc1186781fbe9cc",
    "ablation.tsv": "140ac1f254b31a6687cf2d2fe39f0fb624b4f025727e9570f8cca01330eb2c38",
    "coverage.tsv": "955412df0168ef6d33d96eff447741f7654cc36a910316e7e4b77c9365124107",
    "agreement.tsv": "274cbe0b96f11536054c091245d72efc2a7cbbc49d5ea4a39fbbd8cc8f8809ca",
}


def test_diagnose_tables_keep_their_layout(tmp_path):
    f = {name: str(tmp_path / name) for name in (
        "corpus.lbb", "queries.lbb", "qrels.txt", "graded.txt", "plaid.lbi", "exact.run",
        "plaid.run", *TABLE_DIGESTS)}
    plaid = ["--index", f["plaid.lbi"], "--bundle", f["corpus.lbb"]]
    commands = [
        ["generate", "--out-bundle", f["corpus.lbb"], "--out-queries", f["queries.lbb"],
         "--out-qrels", f["qrels.txt"], "--docs", "60", "--tokens-min", "4", "--tokens-max",
         "10", "--dim", "32", "--num-concepts", "12", "--queries", "12", "--signal-tokens", "4",
         "--filler-fraction", "0.7", "--margin", "0.02", "--seed", "3"],
        ["build", "--backend", "plaid", "--bundle", f["corpus.lbb"], "--out", f["plaid.lbi"],
         "--num-centroids", "16", "--ndocs", "60", "--seed", "1"],
        ["search", "--backend", "exact", "--bundle", f["corpus.lbb"], "--queries",
         f["queries.lbb"], "--k", "20", "--out", f["exact.run"]],
        ["search", "--backend", "plaid", *plaid, "--queries", f["queries.lbb"], "--k", "5",
         "--ncells", "1", "--threshold", "0.9", "--ndocs", "5", "--out", f["plaid.run"]],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    # Grade each query's exact top 8 (3, 2, 1, 1, ...), so that a grid of 3-doc
    # PLAID runs scores below 1.
    exact = parse_run(Path(f["exact.run"]).read_text())
    Path(f["graded.txt"]).write_text("".join(
        f"{qid} 0 {doc_id} {max(3 - rank, 1)}\n"
        for qid in exact.query_ids() for rank, doc_id in enumerate(exact.top_ids(qid, 8))))
    diagnoses = [
        ["--mode", "grid", *plaid, "--queries", f["queries.lbb"], "--qrels", f["graded.txt"],
         "--ncells", "1,2,8", "--threshold", "0.5,0.95", "--ndocs", "3", "--k", "3",
         "--out", f["grid.tsv"]],
        ["--mode", "ablation", "--backend", "exact", "--bundle", f["corpus.lbb"], "--queries",
         f["queries.lbb"], "--qrels", f["qrels.txt"], "--lengths", "1,2,4,40", "--k", "20",
         "--out", f["ablation.tsv"]],
        ["--mode", "coverage", *plaid, "--out", f["coverage.tsv"]],
        ["--mode", "agreement", "--run-a", f["exact.run"], "--run-b", f["plaid.run"],
         "--qrels", f["graded.txt"], "--k", "5", "--out", f["agreement.tsv"]],
    ]
    for argv in diagnoses:
        assert main(["diagnose", *argv]) == 0, argv
    digests = {}
    for name in TABLE_DIGESTS:
        lines = Path(f[name]).read_text().splitlines(keepends=True)
        body = "".join(line for line in lines if not line.startswith("#"))
        digests[name] = hashlib.sha256(body.encode()).hexdigest()
    assert digests == TABLE_DIGESTS


_PLAID_SEARCH = ["search", "--backend", "plaid", "--index", "p.lbi", "--queries", "q.lbb",
                 "--out", "x.run"]
_PLAID_ABLATION = ["diagnose", "--mode", "ablation", "--backend", "plaid", "--index", "p.lbi",
                   "--queries", "q.lbb", "--qrels", "r.txt", "--out", "a.tsv"]


def _malformed_search_time_flags():
    """Each search-time flag with each malformed value, under every command that
    reads it: search and ablation one value, grid one --ndocs and comma lists of
    --ncells and --threshold."""
    kinds = {"ivf": {"nprobe": "int", "per-token-candidates": "int"},
             "plaid": {"ncells": "int", "threshold": "float", "ndocs": "int"}}
    uses = {"search": ["search", "--queries", "q.lbb", "--out", "x.run"],
            "ablation": ["diagnose", "--mode", "ablation", "--queries", "q.lbb", "--qrels",
                         "r.txt", "--out", "a.tsv"]}
    for backend, flags in kinds.items():
        for use, argv in uses.items():
            for flag, kind in flags.items():
                for text in ("abc", "4,8"):
                    yield pytest.param(
                        [*argv, "--backend", backend, "--index", "i.lbi", "--bundle", "c.lbb",
                         f"--{flag}", text], f"--{flag} {text!r} is not one {kind} value",
                        id=f"{use}-{flag}-{text}")
    grid = ["diagnose", "--mode", "grid", "--index", "p.lbi", "--queries", "q.lbb",
            "--qrels", "r.txt", "--out", "g.tsv"]
    well_formed = {"ncells": "4", "threshold": "0.4", "ndocs": "9"}
    refusals = {
        "ncells": {"abc": "is not a comma-separated list of int values",
                   "4,,8": "has an empty comma-separated part"},
        "threshold": {"abc": "is not a comma-separated list of float values",
                      "4,,8": "has an empty comma-separated part"},
        "ndocs": {"abc": "is not one int value", "4,8": "is not one int value"},
    }
    for flag, refused in refusals.items():
        for text, why in refused.items():
            values = {**well_formed, flag: text}
            yield pytest.param(
                [*grid, *(arg for dest, value in values.items() for arg in (f"--{dest}", value))],
                f"--{flag} {text!r} {why}", id=f"grid-{flag}-{text}")


@pytest.mark.parametrize("argv, refused", [
    pytest.param([*_PLAID_SEARCH, "--ncells", "abc"],
                 "--ncells 'abc' is not one int value", id="search-ncells"),
    pytest.param([*_PLAID_SEARCH, "--threshold", "0.4,0.5"],
                 "--threshold '0.4,0.5' is not one float value", id="search-threshold"),
    pytest.param([*_PLAID_SEARCH, "--ncells", "4,"],
                 "--ncells '4,' is not one int value", id="search-empty"),
    pytest.param([*_PLAID_ABLATION, "--ncells", "4,8"],
                 "--ncells '4,8' is not one int value", id="ablation-ncells"),
    pytest.param([*_PLAID_ABLATION, "--threshold", "x"],
                 "--threshold 'x' is not one float value", id="ablation-threshold"),
    *_malformed_search_time_flags(),
])
def test_search_time_flag_is_parsed_before_reading(tmp_path, monkeypatch, capsys, argv, refused):
    # None of the files exist, and every loader fails the test if it is called.
    monkeypatch.chdir(tmp_path)
    for name in ("_load_corpus", "_load_plaid", "_load_queries", "parse_qrels", "parse_run"):
        monkeypatch.setattr(cli, name, _too_early)
    monkeypatch.setattr(cli.bundle_io, "load_ivf_index", _too_early)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"LATEBENCH-ERROR LatebenchError: {refused}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("metric, refused", [
    pytest.param("mrr@x", "metric spec 'mrr@x' has a cutoff that is not an integer, "
                 "expected name@k", id="cutoff"),
    pytest.param("foo@3", "unknown metric 'foo'; expected one of ", id="name"),
])
def test_bad_metric_is_refused_before_any_file_is_read(tmp_path, monkeypatch, capsys, metric,
                                                       refused):
    # Neither file exists, and reading either fails the test.
    monkeypatch.chdir(tmp_path)
    for name in ("parse_run", "parse_qrels"):
        monkeypatch.setattr(cli, name, _too_early)
    assert main(["evaluate", "--run", "x.run", "--qrels", "r.txt", "--metric", metric,
                 "--out", "e.tsv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"LATEBENCH-ERROR ValueError: {refused}")
    assert list(tmp_path.iterdir()) == []


def _resolved(path):
    """An output's `resolved` header lines, as {flag: value}."""
    lines = (line.removeprefix("# ") for line in path.read_text().splitlines())
    return dict(line.split()[1:] for line in lines if line.startswith("resolved "))


# The workspace's PLAID index is built at ndocs 50, both at the other defaults.
_PLAID_CONFIG = {"ncells": "4", "threshold": "0.4", "ndocs": "50"}
_IVF_CONFIG = {"nprobe": "8", "per_token_candidates": "256"}


@pytest.mark.parametrize("backend, flags, resolved", [
    ("plaid", [], _PLAID_CONFIG),
    ("plaid", ["--ncells", "2", "--ndocs", "60"], {**_PLAID_CONFIG, "ncells": "2", "ndocs": "60"}),
    ("plaid", ["--threshold", "0.5"], {**_PLAID_CONFIG, "threshold": "0.5"}),
    ("ivf", [], _IVF_CONFIG),
    ("ivf", ["--per-token-candidates", "9"], {**_IVF_CONFIG, "per_token_candidates": "9"}),
    ("exact", [], {}),
])
def test_run_header_names_the_settings_it_searched_at(workspace, tmp_path, backend, flags,
                                                      resolved):
    assert PlaidConfig().ncells == 4 and PlaidConfig().centroid_score_threshold == 0.4
    assert (IvfConfig().nprobe, IvfConfig().per_token_candidates) == (8, 256)
    index = [] if backend == "exact" else ["--index", str(workspace / f"{backend}.lbi")]
    source = [*index, "--bundle", str(workspace / "corpus.lbb")]
    queries = ["--queries", str(workspace / "queries.lbb")]
    run = tmp_path / "flags.run"
    argv = ["search", "--backend", backend, *source, *queries, "--k", "5", *flags,
            "--out", str(run)]
    assert main(argv) == 0
    assert _resolved(run) == resolved
    assert command_from_header(run) == argv
    # Given as flags, the resolved values search the same run.
    named = [arg for dest, value in resolved.items()
             for arg in (f"--{dest.replace('_', '-')}", value)]
    again = tmp_path / "named.run"
    assert main(["search", "--backend", backend, *source, *queries, "--k", "5", *named,
                 "--out", str(again)]) == 0
    assert _resolved(again) == resolved
    body = [[line for line in path.read_text().splitlines() if not line.startswith("#")]
            for path in (run, again)]
    assert body[0] == body[1] and body[0]
    # An ablation over the backend names them too.
    table = tmp_path / "ablation.tsv"
    assert main(["diagnose", "--mode", "ablation", "--backend", backend, *source, *queries,
                 "--qrels", str(workspace / "qrels.txt"), "--lengths", "2,4", "--k", "5",
                 *flags, "--out", str(table)]) == 0
    assert _resolved(table) == resolved


def test_search_refuses_a_query_id_starting_with_a_hash(workspace, tmp_path, capsys):
    # A run line starting '#q' would read back as a comment, so no run is written.
    queries = read_bundle((workspace / "queries.lbb").read_bytes())
    renamed = {("#q" if i == 1 else qid): matrix
               for i, (qid, matrix) in enumerate(queries.docs.items())}
    (tmp_path / "hash.lbb").write_bytes(write_bundle(Corpus.build(renamed)))
    code = main(["search", "--backend", "exact", "--bundle", str(workspace / "corpus.lbb"),
                 "--queries", str(tmp_path / "hash.lbb"), "--k", "5",
                 "--out", str(tmp_path / "hash.run")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("LATEBENCH-ERROR ValueError: query id '#q'")
    assert not (tmp_path / "hash.run").exists()
