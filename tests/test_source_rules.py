"""Rules every module under src/stonework keeps, checked on its syntax tree.

``python -O`` strips ``assert`` statements, so invariants must raise errors
instead.  The enumeration cap comes from ``STONEWORK_CAP`` alone, so no
function takes a ``cap`` parameter.  A code reaches report text only through
``boolalg.digit_rows``, which writes its bit columns, ``boolalg._bits_of`` and
``format``, and is then held as that digit string, so no module calls ``bin``.  Relation graphs are read through their
neighbour tuples, so no module reads the derived pair set ``.related``.
Each matrix is Smith-reduced once, so ``_diagonalize`` is called only from
the memo ``IntMatrix._reduction``.  The cyclic collector is paused around a
command by ``cli.main`` alone, so only ``cli.py`` imports ``gc``.  A term is
the tuple of its postfix tokens, and only ``terms.py`` knows that layout:
no other module names the marker tokens or spells ``~``, ``&`` or ``|`` as a
string (``0`` and ``1`` also spell bits, so only their names are checked);
the others build terms with the constructors.  ``src`` holds only what the
commands run.  Every module-level
function and class is named, by bare name or as an attribute, from a
definition a command reaches, and every method and property (a ``def`` in a
class body, ``staticmethod`` and ``cached_property`` included) and every
annotated field of a record is read as an attribute by one.  ``ast`` cannot
type an operand, so the operator dunders a
class defines (``__lt__``, ``__le__``, ``__matmul__``, ...) are checked by
running the small golden commands with a counter on each, and each must be
called; the protocol dunders (``__init__``, ``__post_init__``, ``__eq__``,
``__hash__``, ``__repr__``, ``__str__``) come with their class.  The one
exemption is ``RelGraph.related``, which only the benchmark's graph probe
reads, and a test fails once that probe stops reading it.
Every regex is a pattern that ``re.compile`` builds at module level, so a
hot path never pays ``re``'s cache lookup for a string pattern, and ``re``
is called nowhere else.
Every ``raise`` names a ``StoneworkError`` (or calls a function annotated to
return one), so a broken input or invariant ends a command with its exit
code and one line; the exceptions are the few that keep a Python contract,
listed in ``API_ERRORS``.
A transition between adjacent levels is checked by
``profinite.check_transition`` alone, so only it raises the ``transition
{n} ...`` messages, and the count message is written once, at module level
in ``profinite.py``.
Every command starts in a fresh process, so the frozen records are built by
``stonework.record``, which generates one ``__init__`` per class, and no
module imports ``dataclasses``; importing ``stonework.cli`` in a bare
interpreter loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from stonework import cli, errors
from test_golden import CASES, case_argv

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
def test_no_bin_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "bin"]
    assert not lines, f"{path.name}: bin() calls at lines {lines}"


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


def _calls_re(node: ast.AST) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "re"


def test_every_regex_is_compiled_at_module_level():
    not_compile = _scopes_in_sources(lambda node: _calls_re(node) and node.func.attr != "compile")
    in_a_body = [scope for scope in _scopes_in_sources(_calls_re) if len(scope) > 1]
    assert not_compile + in_a_body == [], "re is called other than by a module-level re.compile"


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


STONEWORK_ERRORS = {
    name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, errors.StoneworkError)
}

# raises that keep a Python contract, (file, enclosing function, exception) ->
# how many: a term constructor or check given a non-term, a record assigned
# to, the report encoder given a type json.dumps refuses, and the script's exit
API_ERRORS = Counter({
    ("terms.py", "Gen", "TypeError"): 1,
    ("terms.py", "check_term", "TypeError"): 5,
    ("record.py", "_setattr", "AttributeError"): 1,
    ("record.py", "_delattr", "AttributeError"): 1,
    ("cli.py", "_json", "TypeError"): 1,
    ("cli.py", None, "SystemExit"): 1,
})


def _raises(node: ast.AST, function=None):
    """(innermost enclosing function name or None, raised name) for every
    raise statement under ``node``; the name is ``X`` in ``raise X(...)``,
    ``raise errors.X(...)`` or ``raise X``, and None for a bare ``raise``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield function, exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
        yield from _raises(child, child.name if isinstance(child, ast.FunctionDef) else function)


def test_every_raise_names_a_stonework_error():
    # a function annotated to return a stonework error, such as the parser's error in terms.py, may build it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}
    makers = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and getattr(node.returns, "id", None) in STONEWORK_ERRORS
    }
    others = Counter(
        (name, function, raised)
        for name, tree in trees.items()
        for function, raised in _raises(tree)
        if raised not in STONEWORK_ERRORS | makers
    )
    assert others == API_ERRORS


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


def test_transition_messages_come_from_one_check():
    def raises_a_transition_message(node: ast.AST) -> bool:
        return isinstance(node, ast.Raise) and "f'transition {" in ast.unparse(node)

    def spells_the_count_message(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and "one transition between" in str(node.value)

    assert _scopes_in_sources(raises_a_transition_message) == [("profinite.py", "check_transition")] * 2
    assert _scopes_in_sources(spells_the_count_message) == [("profinite.py",)]


# terms.py's names for its marker tokens, and the operator characters
MARKER_NAMES = {"_FALSE", "_TRUE", "_NOT", "_AND", "_OR", "_ARITY"}
OPERATOR_CHARACTERS = {"~", "&", "|"}


def test_only_terms_names_the_token_markers():
    def names_a_marker(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in MARKER_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in MARKER_NAMES
        if isinstance(node, ast.alias):
            return node.name in MARKER_NAMES
        return isinstance(node, ast.Constant) and node.value in OPERATOR_CHARACTERS

    found = _scopes_in_sources(names_a_marker)
    assert {scope[0] for scope in found} == {"terms.py"}, [s for s in found if s[0] != "terms.py"]
    terms_globals = set(vars(importlib.import_module("stonework.terms")))
    assert MARKER_NAMES <= terms_globals


PROTOCOL = {"__init__", "__post_init__", "__eq__", "__hash__", "__repr__", "__str__"}
# (module, class, member) read only by perfbench/tracing.py::_graph_probe
EXEMPT = {("profinite", "RelGraph", "related")}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reads(nodes) -> set[str]:
    """Names read under ``nodes``: each bare name, and each attribute both
    bare and as ".attr", the only form that reaches a method."""
    out = set()
    for n in (n for node in nodes for n in ast.walk(node)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out |= {n.attr, f".{n.attr}"}
    return out


def _members(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    return [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _reachability() -> tuple[dict[str, tuple[str, set[str]]], set[str], set[str]]:
    """Every definition in src as label -> (the name that reaches it, the
    names it reads); the names read at module level or by a reached
    definition; and the names the commands reach."""
    defs: dict[str, tuple[str, set[str]]] = {}
    roots = {"main", "build_parser", "_plain_call", *(c.run.__name__ for c in cli.COMMANDS)}
    # cmd_cohomology and cmd_stabilize look these up with getattr
    roots |= {f"{s}_{kind}" for s in cli.SPACE[1]["choices"] for kind in ("graph", "tower")}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{path.stem}.{node.name}"] = (node.name, _reads([node]))
            elif isinstance(node, ast.ClassDef):
                members = _members(node)
                body = [n for n in node.body if n not in members]
                defs[f"{path.stem}.{node.name}"] = (node.name, _reads([*node.bases, *node.decorator_list, *body]))
                for m in members:
                    if (path.stem, node.name, m.name) not in EXEMPT:
                        # Python applies a dunder, so it is reached with its class; see
                        # test_every_operator_is_applied_by_a_command for the operators
                        key = node.name if _is_dunder(m.name) else f".{m.name}"
                        defs[f"{path.stem}.{node.name}.{m.name}"] = (key, _reads([m]))
            else:
                roots |= _reads([node])
    reads_of: dict[str, list[set[str]]] = {}
    for key, names in defs.values():
        reads_of.setdefault(key, []).append(names)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for names in reads_of.get(name, ()):
                todo.extend(names)
    read = roots.union(*(names for key, names in defs.values() if key in reached))
    return defs, read, reached


def test_every_definition_is_reached_from_a_command():
    defs, _, reached = _reachability()
    unreached = sorted(label for label, (key, _) in defs.items() if key not in reached)
    assert not unreached, f"{len(unreached)} definitions no command reaches: {unreached}"


def test_every_record_field_is_read_by_a_reached_definition():
    _, read, _ = _reachability()
    fields = [
        (f"{path.stem}.{node.name}.{item.target.id}", f".{item.target.id}")
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, ast.ClassDef) and "record" in _reads(node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert fields, "no record field found"
    unread = sorted(label for label, attr in fields if attr not in read)
    assert not unread, f"{len(unread)} record fields no reached definition reads: {unread}"


def test_the_exempt_member_is_still_read_by_the_benchmark_probe():
    tracing = SOURCES[0].parent.parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    for _, _, member in EXEMPT:
        assert any(isinstance(n, ast.Attribute) and n.attr == member for n in ast.walk(tree)), member


def test_every_operator_is_applied_by_a_command(monkeypatch, tmp_path):
    calls: dict[str, int] = {}

    def counting(label, fn):
        def wrapper(*args):
            calls[label] += 1
            return fn(*args)

        return wrapper

    for path in SOURCES:
        module = importlib.import_module(f"stonework.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                for m in _members(node):
                    if _is_dunder(m.name) and m.name not in PROTOCOL:
                        label = f"{path.stem}.{node.name}.{m.name}"
                        calls[label] = 0
                        monkeypatch.setattr(cls, m.name, counting(label, vars(cls)[m.name]))
    assert calls, "no operator found"
    small = [name for name, argv in CASES.items() if all(int(a) <= 8 for a in argv if a.isdigit())]
    for name in small:
        assert cli.main(["--json", *case_argv(name, tmp_path)]) == cli.EXIT_OK
    unapplied = sorted(label for label, n in calls.items() if not n)
    assert not unapplied, f"operators no small golden command applies: {unapplied}"
