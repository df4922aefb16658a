"""Every function the package exports has a caller outside its own definition.

A public function that only tests call is a side door: it has to be kept in
step with the code it shadows without serving any of it. The callers counted
are the other modules under src/latebench and the bench scripts; the
package's own export list is not a caller.
"""

import ast
import inspect
from pathlib import Path

import latebench

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in sorted((ROOT / "src" / "latebench").glob("*.py")) if p.name != "__init__.py"]
SOURCES += sorted((ROOT / "bench").glob("*.py"))


def _referenced_names() -> set[str]:
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

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)))
    return names


def test_every_exported_function_has_a_caller():
    functions = [n for n in latebench.__all__ if inspect.isfunction(getattr(latebench, n))]
    assert "build_plaid" in functions and "plaid_search" in functions
    referenced = _referenced_names()
    assert [n for n in functions if n not in referenced] == []
