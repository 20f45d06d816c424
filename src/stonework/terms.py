"""Boolean terms over named generators, plus the concrete syntax.

Grammar (precedence ``~`` > ``&`` > ``|``, binary operators left-associative)::

    expr := expr "|" expr | expr "&" expr | "~" expr
          | "0" | "1" | ident | "(" expr ")"

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Optional

from .errors import DuplicateGenerator, ParseError, UnknownGenerator


class Term:
    """Base class; instances are immutable syntax trees."""

    __slots__ = ()

    def __and__(self, other: "Term") -> "Term":
        return And(self, other)

    def __or__(self, other: "Term") -> "Term":
        return Or(self, other)

    def __invert__(self) -> "Term":
        return Not(self)


@dataclass(frozen=True, slots=True)
class Zero(Term):
    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True, slots=True)
class One(Term):
    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True, slots=True)
class Gen(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Not(Term):
    arg: Term

    def __str__(self) -> str:
        return f"~{_atom(self.arg)}"


@dataclass(frozen=True, slots=True)
class And(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        # the right operand re-associates if printed bare, so atomize it
        return f"{_conj(self.left)} & {_atom(self.right)}"


@dataclass(frozen=True, slots=True)
class Or(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left} | {_conj(self.right)}"


def _atom(t: Term) -> str:
    if isinstance(t, (And, Or)):
        return f"({t})"
    return str(t)


def _conj(t: Term) -> str:
    if isinstance(t, Or):
        return f"({t})"
    return str(t)


ZERO = Zero()
ONE = One()


def eval_term(t: Term, masks: Mapping[str, int], full: int = 1) -> int:
    """Truth table of ``t``: bit k is its value in assignment k.

    Bit k of ``masks[g]`` is g's value in assignment k and ``full`` has every
    assignment's bit set, so the default evaluates one 0/1 assignment;
    ``~ & |`` become word operations (Knuth, TAOCP 4A, 7.1.3).  An explicit
    stack, not recursion, walks the term.
    """
    values: list[int] = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        cls = type(s)
        if cls is Gen:
            try:
                values.append(masks[s.name])
            except KeyError:
                raise UnknownGenerator(s.name) from None
        elif cls is And or cls is Or or cls is Not:
            # the class goes below its operands and combines their tables when popped
            todo += (cls, s.arg) if cls is Not else (cls, s.right, s.left)
        elif cls is Zero or cls is One:
            values.append(0 if cls is Zero else full)
        elif s is And:
            values.append(values.pop() & values.pop())
        elif s is Or:
            values.append(values.pop() | values.pop())
        elif s is Not:
            values.append(full ^ values.pop())
        else:
            raise TypeError(f"not a term: {s!r}")
    return values[0]


def generators_of(t: Term) -> set[str]:
    """Names of all generators mentioned in ``t``."""
    out: set[str] = set()
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Gen):
            out.add(s.name)
        elif isinstance(s, Not):
            stack.append(s.arg)
        elif isinstance(s, (And, Or)):
            stack.append(s.left)
            stack.append(s.right)
    return out


def substitute(t: Term, images: Mapping[str, Term]) -> Term:
    """Replace each generator by its image term."""
    if isinstance(t, (Zero, One)):
        return t
    if isinstance(t, Gen):
        try:
            return images[t.name]
        except KeyError:
            raise UnknownGenerator(t.name) from None
    if isinstance(t, Not):
        return Not(substitute(t.arg, images))
    if isinstance(t, And):
        return And(substitute(t.left, images), substitute(t.right, images))
    if isinstance(t, Or):
        return Or(substitute(t.left, images), substitute(t.right, images))
    raise TypeError(f"not a term: {t!r}")


def join(terms: list[Term]) -> Term:
    """Left-associated disjunction; the empty join is 0."""
    if not terms:
        return ZERO
    out = terms[0]
    for t in terms[1:]:
        out = Or(out, t)
    return out


def meet(terms: list[Term]) -> Term:
    """Left-associated conjunction; the empty meet is 1."""
    if not terms:
        return ONE
    out = terms[0]
    for t in terms[1:]:
        out = And(out, t)
    return out


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[01|&~()]))")


class _Tokens:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0, gens=None):
        self.text = text
        self.gens = gens
        self.pos = 0
        self.line = line
        self.col_offset = col_offset
        self.current: str | None = None
        self.advance()

    def _col(self, pos: int) -> int:
        return pos + 1 + self.col_offset

    def advance(self) -> None:
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:].strip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", self.line, self._col(self.pos))
            self.current = None
            self.pos = len(self.text)
            return
        self.current = m.group("ident") or m.group("op")
        self.token_pos = m.start() if m.group("ident") is None else m.start("ident")
        self.pos = m.end()

    def expect(self, tok: str) -> None:
        if self.current != tok:
            raise ParseError(f"expected {tok!r}", self.line, self._col(self.pos))
        self.advance()


def _parse_expr(tk: _Tokens) -> Term:
    t = _parse_conj(tk)
    while tk.current == "|":
        tk.advance()
        t = Or(t, _parse_conj(tk))
    return t


def _parse_conj(tk: _Tokens) -> Term:
    t = _parse_unary(tk)
    while tk.current == "&":
        tk.advance()
        t = And(t, _parse_unary(tk))
    return t


def _parse_unary(tk: _Tokens) -> Term:
    if tk.current == "~":
        tk.advance()
        return Not(_parse_unary(tk))
    return _parse_atom(tk)


def _parse_atom(tk: _Tokens) -> Term:
    tok = tk.current
    if tok is None:
        raise ParseError("unexpected end of input", tk.line, tk._col(tk.pos))
    if tok == "0":
        tk.advance()
        return ZERO
    if tok == "1":
        tk.advance()
        return ONE
    if tok == "(":
        tk.advance()
        t = _parse_expr(tk)
        tk.expect(")")
        return t
    if _IDENT.fullmatch(tok):
        if tk.gens is not None and tok not in tk.gens:
            raise ParseError(f"unknown generator {tok!r}", tk.line, tk._col(tk.token_pos))
        tk.advance()
        return Gen(tok)
    raise ParseError(f"unexpected token {tok!r}", tk.line, tk._col(tk.pos))


def parse_term(text: str, line: int = 1, gens: Optional[Collection[str]] = None) -> Term:
    """Parse a single Boolean expression, naming only ``gens`` if given."""
    tk = _Tokens(text, line=line, gens=gens)
    t = _parse_expr(tk)
    if tk.current is not None:
        raise ParseError(f"trailing input {tk.current!r}", line, tk._col(tk.pos))
    return t


def parse_term_list(text: str, line: int = 1, gens: Optional[Collection[str]] = None) -> list[Term]:
    """Parse a comma-separated list of expressions (possibly empty)."""
    if not text.strip():
        return []
    return [parse_term(chunk, line, gens) for chunk in text.split(",")]


def parse_gen_list(text: str, line: int = 1) -> list[str]:
    names: list[str] = []
    for chunk in text.split():
        if not _IDENT.fullmatch(chunk):
            raise ParseError(f"bad generator name {chunk!r}", line, 1)
        if chunk in names:
            raise DuplicateGenerator(chunk)
        names.append(chunk)
    return names


def term_to_json(t: Term):
    """Serialize a term as nested lists (round-trips with term_from_json)."""
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Gen):
        return t.name
    if isinstance(t, Not):
        return ["~", term_to_json(t.arg)]
    if isinstance(t, And):
        return ["&", term_to_json(t.left), term_to_json(t.right)]
    if isinstance(t, Or):
        return ["|", term_to_json(t.left), term_to_json(t.right)]
    raise TypeError(f"not a term: {t!r}")


def term_from_json(obj) -> Term:
    if obj == "0":
        return ZERO
    if obj == "1":
        return ONE
    if isinstance(obj, str):
        return Gen(obj)
    op = obj[0]
    if op == "~":
        return Not(term_from_json(obj[1]))
    if op == "&":
        return And(term_from_json(obj[1]), term_from_json(obj[2]))
    if op == "|":
        return Or(term_from_json(obj[1]), term_from_json(obj[2]))
    raise ValueError(f"bad term encoding: {obj!r}")
