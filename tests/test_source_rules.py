"""Rules every module under src/stonework keeps, checked on its syntax tree.

``python -O`` strips ``assert`` statements, so invariants must raise errors
instead.  The enumeration cap comes from ``STONEWORK_CAP`` alone, so no
function takes a ``cap`` parameter.  Relation graphs are read through their
neighbour tuples, so no module reads the derived pair set ``.related``.
Each matrix is Smith-reduced once, so ``_diagonalize`` is called only from
the memo ``IntMatrix._reduction``.  The cyclic collector is paused around a
command by ``cli.main`` alone, so only ``cli.py`` imports ``gc``.  A term is
walked node by node only to print it and to build its cached preorder, which
evaluation, substitution, ``==``, ``hash`` and ``generators_of`` all read, so
only ``terms._render`` and ``terms._preorder`` read ``.left``, ``.right`` or
``.arg``.  Every module-level function and class is named, by bare name, from
a definition a command reaches, so ``src`` holds only what the commands run.
Every command starts in a fresh process, so the frozen records are built by
``stonework.record``, which generates one ``__init__`` per class, and no
module imports ``dataclasses``; importing ``stonework.cli`` in a bare
interpreter loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from stonework import cli

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


def _importers_of(module: str) -> list[str]:
    return [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == module for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module
    ]


def test_only_cli_imports_gc():
    assert _importers_of("gc") == ["cli.py"]


def test_no_module_imports_dataclasses():
    assert _importers_of("dataclasses") == []


def test_cli_imports_neither_dataclasses_nor_inspect():
    code = "import sys, stonework.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(SOURCES[0].parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


def _scopes_of(tree: ast.AST, hit, scope: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
    """The scope (class and function names) of every node under ``tree`` that ``hit`` accepts."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
        if hit(node):
            found.append(scope)
        found.extend(_scopes_of(node, hit, inner))
    return found


def _scopes_in_sources(hit) -> list[tuple[str, ...]]:
    return [
        (path.name, *scope)
        for path in SOURCES
        for scope in _scopes_of(ast.parse(path.read_text(encoding="utf-8"), str(path)), hit)
    ]


def _calls_diagonalize(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    return "_diagonalize" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_diagonalize_is_called_only_from_the_memo():
    assert _scopes_in_sources(_calls_diagonalize) == [("zhomology.py", "IntMatrix", "_reduction")]
    tree = ast.parse((SOURCES[0].parent / "zhomology.py").read_text(encoding="utf-8"))
    memo = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_reduction")
    assert [ast.unparse(d) for d in memo.decorator_list] == ["functools.cached_property"]


def test_only_the_preorder_and_the_printer_walk_terms():
    def reads_operand(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("left", "right", "arg")

    assert set(_scopes_in_sources(reads_operand)) == {("terms.py", "_preorder"), ("terms.py", "_render")}


def _names_read(node: ast.AST) -> set[str]:
    names = (n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))
    return {n.id if isinstance(n, ast.Name) else n.attr for n in names}


def test_every_definition_is_reached_from_a_command():
    reads: dict[tuple[str, str], set[str]] = {}  # (module, name) -> the names its definition reads
    roots = {"main", "build_parser", "_plain_call", *(c.run.__name__ for c in cli.COMMANDS)}
    # cmd_cohomology and cmd_stabilize look these up with getattr
    roots |= {f"{s}_{kind}" for s in cli.SPACE[1]["choices"] for kind in ("graph", "tower")}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                reads[path.stem, node.name] = _names_read(node)
            else:
                roots |= _names_read(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for (_, defined), names in reads.items() if defined == name for n in names)
    unreached = sorted(f"{module}.{name}" for module, name in reads if name not in reached)
    assert not unreached, f"{len(unreached)} definitions no command reaches: {unreached}"
