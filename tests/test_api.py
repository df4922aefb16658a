"""Every public module-level function of the package has a caller outside its own definition,
and every error type a user outside errors.py.

A public function that only tests call is a side door: it has to be kept in
step with the code it shadows without serving any of it. Public means defined
at the top level of a module under src/latebench with a name that does not
start with an underscore, whether or not the package exports it. The callers
counted are the other modules under src/latebench and the bench scripts; the
package's own export list is not a caller. An error type that no other
package module raises or catches is left behind by code that was deleted.
The CLI passes no literal default to a config field's flag, so it holds no
second copy of a config default, and it names each backend's search-time
flags in one table. Every order and cut is `core.best` and both
index backends pick what they rescore through one `kmeans.shortlist` call.
Every search ends in `core.top_k`, the one function from doc ordinals to a
ranked list, and only it and `Corpus.row_blocks` touch the stacked body.
Only `metrics` spells a metric label; every other table takes its labels from
the reports.
"""

import ast
import re
import dataclasses
from pathlib import Path

from latebench import IvfConfig, PlaidConfig, SyntheticSpec, cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = [p for p in sorted((ROOT / "src" / "latebench").glob("*.py")) if p.name != "__init__.py"]
SOURCES = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def _public_functions() -> list[str]:
    """module.name of every public function defined at the top level of a package module."""
    return [
        f"{path.stem}.{node.name}"
        for path in PACKAGE
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def _referenced_names(sources: list[Path] = SOURCES) -> set[str]:
    """Names read, attributes taken and names imported, outside the body of a same-named def."""
    names = set()

    def visit(node, inside=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Name) and node.id != inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in sources:
        visit(ast.parse(path.read_text(), filename=str(path)))
    return names


def test_every_exported_function_has_a_caller():
    functions = _public_functions()
    assert "plaid.build_plaid" in functions and "bundle.read_bundle" in functions
    referenced = _referenced_names()
    assert [f for f in functions if f.split(".")[1] not in referenced] == []


def test_every_error_type_is_used_outside_errors_py():
    errors = ROOT / "src" / "latebench" / "errors.py"
    classes = [node.name for node in ast.parse(errors.read_text(), filename=str(errors)).body
               if isinstance(node, ast.ClassDef)]
    assert "LatebenchError" in classes and "PayloadMismatch" in classes
    referenced = _referenced_names([p for p in PACKAGE if p != errors])
    assert [c for c in classes if c not in referenced] == []


def _literal_config_defaults(source: str) -> list[str]:
    """`add_argument` calls that pass a literal default= for a config field's flag."""
    dests = {dest for fields in cli._FIELD_DESTS.values() for dest in fields}
    dests |= {f.name for cls in (SyntheticSpec, IvfConfig, PlaidConfig)
              for f in dataclasses.fields(cls)}
    return [
        ast.unparse(call) for call in ast.walk(ast.parse(source))
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument"
        and any(isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and arg.value.lstrip("-").replace("-", "_") in dests for arg in call.args)
        and any(kw.arg == "default" and isinstance(kw.value, ast.Constant)
                for kw in call.keywords)
    ]


def test_cli_copies_no_config_default():
    assert _literal_config_defaults('p.add_argument("--tokens-min", type=int, default=8)')
    assert _literal_config_defaults((ROOT / "src" / "latebench" / "cli.py").read_text()) == []


def test_one_table_names_the_search_time_flags():
    # Besides the table, only _FIELD_DESTS maps a field onto `threshold`.
    tree = ast.parse((ROOT / "src" / "latebench" / "cli.py").read_text())
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    names = {"nprobe", "per_token_candidates", "ncells", "threshold", "ndocs"}

    def spelled(node, skip=frozenset()):
        return sorted(n.value for n in ast.walk(node) if isinstance(n, ast.Constant)
                      and isinstance(n.value, str) and n.value in names and id(n) not in skip)

    assert spelled(tables["_SEARCH_FLAGS"]) == sorted(names)
    inside = {id(n) for table in ("_SEARCH_FLAGS", "_FIELD_DESTS") for n in ast.walk(tables[table])}
    assert spelled(tree, inside) == []


def _sites(predicate) -> list[str]:
    """module.function of every node of a package module the predicate holds for."""
    found = []

    def visit(node, stem, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if predicate(node):
            found.append(f"{stem}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, stem, scope)

    for path in PACKAGE:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "<module>")
    return found


def _numpy_ranking(node) -> bool:
    """np.lexsort or np.partition, taken as an attribute or imported from numpy."""
    names = {"lexsort", "partition"}
    if isinstance(node, ast.Attribute):
        return node.attr in names and getattr(node.value, "id", None) in ("np", "numpy")
    return (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name in names for alias in node.names))


def test_one_ranking_rule_and_one_shortlist():
    assert _numpy_ranking(ast.parse("np.lexsort((a, b))").body[0].value.func)
    assert not _numpy_ranking(ast.parse('"a@b".partition("@")').body[0].value.func)
    assert set(_sites(_numpy_ranking)) == {"core.best"}
    assert "kmeans.bounded" not in _public_functions()
    shortlist_calls = _sites(lambda node: isinstance(node, ast.Call)
                             and getattr(node.func, "attr", None) == "shortlist")
    assert shortlist_calls == ["ivf.ivf_search", "plaid.plaid_search"]


def _names(*names):
    """A predicate: a node that reads, takes as an attribute or imports one of `names`."""
    def predicate(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name in names for alias in node.names)
        return getattr(node, "id", getattr(node, "attr", None)) in names
    return predicate


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and _names(name)(node.func)


def test_searches_score_only_through_top_k():
    # Every search ends in core.top_k, and every document it ranks is scored
    # by the one stacked body core._stacked_maxsim over blocks from
    # core._row_blocks: the whole corpus's made once by Corpus.row_blocks, a
    # subset's by top_k. The kernel maxsim_score is the reference definition:
    # inside the package only the full sweep score_all calls it.
    assert _sites(_names("_row_blocks")) == ["core.row_blocks", "core.top_k"]
    assert _sites(_names("_stacked_maxsim")) == ["core.top_k"]
    assert "score_docs" not in _referenced_names() and "core.score_docs" not in _public_functions()
    assert _sites(_calls("top_k")) == ["core.exact_search", "ivf.ivf_search", "plaid.plaid_search"]
    assert _sites(_calls("maxsim_score")) == ["core.score_all"]
    assert _sites(_calls("score_all")) == []


_LABEL = re.compile(r"(mrr|recall|ndcg)@", re.IGNORECASE)


def _spelled_labels(source: str) -> list[str]:
    """String literals, docstrings aside, that spell a metric label such as MRR@10."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and _LABEL.search(node.value)]


def test_only_metrics_spells_a_metric_label():
    assert _spelled_labels('HEADER = ["length", "MRR@10"]') == ["MRR@10"]
    assert _spelled_labels('p.add_argument("--m", help=f"default: ndcg@{k}")') == ["default: ndcg@"]
    assert _spelled_labels('def f():\n    """Reports nDCG@10."""') == []
    found = {path.name: _spelled_labels(path.read_text()) for path in PACKAGE
             if path.name != "metrics.py"}
    assert {name: labels for name, labels in found.items() if labels} == {}
