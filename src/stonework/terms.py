"""Boolean terms over named generators, plus the concrete syntax.

Grammar (precedence ``~`` > ``&`` > ``|``, binary operators left-associative)::

    expr := expr "|" expr | expr "&" expr | "~" expr
          | "0" | "1" | ident | "(" expr ")"

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.
"""

from __future__ import annotations

import re
from typing import Collection, KeysView, Mapping, Optional

from .errors import ParseError, UnknownGenerator
from .record import record


class Term:
    """Base class; instances are immutable syntax trees, equal and hashed by preorder."""

    __slots__ = ("_key",)  # the preorder, once computed

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Term) and _preorder(self) == _preorder(other)

    def __hash__(self) -> int:
        return hash(_preorder(self))

    def __str__(self) -> str:
        return _render(self)

    def __repr__(self) -> str:
        return f"parse_term({_render(self)!r})"


@record
class Zero(Term):
    __slots__ = ()


@record
class One(Term):
    __slots__ = ()


@record
class Gen(Term):
    __slots__ = ("name",)
    name: str


@record
class Not(Term):
    __slots__ = ("arg",)
    arg: Term


@record
class And(Term):
    __slots__ = ("left", "right")
    left: Term
    right: Term


@record
class Or(Term):
    __slots__ = ("left", "right")
    left: Term
    right: Term


ZERO = Zero()
ONE = One()


def _operand(t: Term, bracketed: tuple) -> tuple:
    """``t`` as stack items, in parentheses if its class is in ``bracketed``."""
    return (")", t, "(") if type(t) in bracketed else (t,)


def _render(t: Term) -> str:
    """Concrete syntax of ``t`` with the fewest parentheses that parse back
    to it; an explicit stack of terms and text pieces walks any depth."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        cls = type(s)
        if cls is str:
            out.append(s)
        elif cls is Gen:
            out.append(s.name)
        elif cls is Not:
            out.append("~")
            todo += _operand(s.arg, (And, Or))
        elif cls is And:
            # the right operand re-associates if printed bare, so bracket it
            todo += (*_operand(s.right, (And, Or)), " & ", *_operand(s.left, (Or,)))
        elif cls is Or:
            todo += (*_operand(s.right, (Or,)), " | ", s.left)
        elif cls is Zero or cls is One:
            out.append("0" if cls is Zero else "1")
        else:
            raise TypeError(f"not a term: {cls.__name__}")
    return "".join(out)


def _preorder(t: Term) -> tuple:
    """Node classes and generator names of ``t`` in preorder, kept on ``t``;
    fixed arities make it determine the term, and read backwards it is the
    term in reverse Polish order.  A stack walks any depth."""
    key = getattr(t, "_key", None)
    if key is not None:
        return key
    out: list = []
    todo: list = [t]
    while todo:
        s = todo.pop()
        cls = type(s)
        if cls is Gen and type(s.name) is str:
            out.append(s.name)
        elif cls is And or cls is Or or cls is Not:
            out.append(cls)
            todo += (s.arg,) if cls is Not else (s.right, s.left)
        elif cls is Zero or cls is One:
            out.append(cls)
        else:
            raise TypeError(f"not a term: {cls.__name__}")
    key = tuple(out)
    object.__setattr__(t, "_key", key)
    return key


def eval_term(t: Term, masks: Mapping[str, int], full: int = 1) -> int:
    """Truth table of ``t``: bit k is its value in assignment k.

    Bit k of ``masks[g]`` is g's value in assignment k and ``full`` has every
    assignment's bit set, so the default evaluates one 0/1 assignment;
    ``~ & |`` become word operations (Knuth, TAOCP 4A, 7.1.3).  One loop
    over the cached preorder, read backwards, folds the tables on a stack.
    """
    values: list[int] = []
    try:
        for x in reversed(_preorder(t)):
            if type(x) is str:
                values.append(masks[x])
            elif x is And:
                values.append(values.pop() & values.pop())
            elif x is Or:
                values.append(values.pop() | values.pop())
            elif x is Not:
                values.append(full ^ values.pop())
            else:
                values.append(0 if x is Zero else full)
    except KeyError:
        # the fold reads generators right to left; name the leftmost unknown one
        raise UnknownGenerator(next(g for g in generators_of(t) if g not in masks)) from None
    return values[0]


def generators_of(t: Term) -> KeysView[str]:
    """Names of the generators in ``t``, each once, in reading order."""
    return {x: None for x in _preorder(t) if type(x) is str}.keys()


def substitute(t: Term, images: Mapping[str, Term]) -> Term:
    """Replace each generator by its image term, folding as ``eval_term`` does;
    the left operand is on top of the stack, so it is popped first."""
    values: list[Term] = []
    try:
        for x in reversed(_preorder(t)):
            if type(x) is str:
                values.append(images[x])
            elif x is Not:
                values.append(Not(values.pop()))
            elif x is And or x is Or:
                values.append(x(values.pop(), values.pop()))
            else:
                values.append(ZERO if x is Zero else ONE)
    except KeyError:
        raise UnknownGenerator(next(g for g in generators_of(t) if g not in images)) from None
    return values[0]


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


Gens = Optional[Collection[str]]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# a token, or (group 1 unset, so "" from findall) a character that starts
# none; whitespace between matches is skipped by the search itself
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|[01|&~()])|\S")


def parse_term(text: str, line: int = 1, offset: int = 0, gens: Gens = None) -> Term:
    """Parse one Boolean expression that starts ``offset`` characters into
    its line, naming only ``gens`` if given.

    One ``findall`` pass lists the tokens, then None for the end of input;
    a character that starts no token is listed as "".  The loop walks the
    list by index: each ``(`` pushes the enclosing disjunction, conjunction
    and pending negations, and its ``)`` pops them, so nesting depth costs
    no recursion.  It never steps past a "", so an error raised there is
    that character's, the leftmost one; an error rescans for its position.
    """
    tokens: list = _TOKEN.findall(text)
    tokens.append(None)

    def error(message: str) -> ParseError:
        pos = next((m.start() for k, m in enumerate(_TOKEN.finditer(text)) if k == i), len(text))
        if tokens[i] == "":
            message = f"unexpected character {text[pos]!r}"
        return ParseError(message, line, offset + pos + 1)

    frames: list[tuple] = []
    disj = conj = None
    i = 0
    while True:
        negations = 0
        while tokens[i] == "~":
            i += 1
            negations += 1
        tok = tokens[i]
        if tok == "(":
            i += 1
            frames.append((disj, conj, negations))
            disj = conj = None
            continue
        if tok is None:
            raise error("unexpected end of input")
        if tok == "0" or tok == "1":
            t = ZERO if tok == "0" else ONE
        elif tok in "|&)":  # true of "" too; any other token is an identifier
            raise error(f"unexpected token {tok!r}")
        elif gens is not None and tok not in gens:
            raise error(f"unknown generator {tok!r}")
        else:
            t = Gen(tok)
        i += 1
        # t is a complete atom: fold it in, closing every ")" that follows it
        while True:
            for _ in range(negations):
                t = Not(t)
            conj = t if conj is None else And(conj, t)
            tok = tokens[i]
            if tok == "&":
                break
            disj = conj if disj is None else Or(disj, conj)
            conj = None
            if tok == "|":
                break
            if not frames:
                if i < len(tokens) - 1:
                    raise error(f"trailing input {tok!r}")
                return disj
            if tok != ")":
                raise error("expected ')'")
            i += 1
            t = disj
            disj, conj, negations = frames.pop()
        i += 1


def parse_term_list(text: str, line: int = 1, offset: int = 0, gens: Gens = None) -> list[Term]:
    """Parse a comma-separated list of expressions (possibly empty)."""
    if not text.strip():
        return []
    terms = []
    for chunk in text.split(","):
        terms.append(parse_term(chunk, line, offset, gens))
        offset += len(chunk) + 1
    return terms


def parse_gen_list(text: str, line: int = 1, offset: int = 0) -> list[str]:
    names: list[str] = []
    for m in re.finditer(r"\S+", text):
        chunk = m.group()
        if not _IDENT.fullmatch(chunk):
            raise ParseError(f"bad generator name {chunk!r}", line, offset + m.start() + 1)
        if chunk in names:
            raise ParseError(f"duplicate generator {chunk!r}", line, offset + m.start() + 1)
        names.append(chunk)
    return names

