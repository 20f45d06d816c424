"""Rules every module under src/stonework keeps, checked on its syntax tree.

``python -O`` strips ``assert`` statements, so invariants must raise errors
instead.  The enumeration cap comes from ``STONEWORK_CAP`` alone, so no
function takes a ``cap`` parameter.  Relation graphs are read through their
neighbour tuples, so no module reads the derived pair set ``.related``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "stonework").glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"boolalg.py", "cli.py", "terms.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_cap_parameter(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == "cap"
    ]
    assert not found, f"{path.name}: functions with a cap parameter: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_pair_set_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "related"]
    assert not lines, f"{path.name}: reads of .related at lines {lines}"
