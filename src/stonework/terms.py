"""Boolean terms over named generators, plus the concrete syntax.

Grammar (precedence ``~`` > ``&`` > ``|``, binary operators left-associative)::

    expr := expr "|" expr | expr "&" expr | "~" expr
          | "0" | "1" | ident | "(" expr ")"

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.  A term list reads ``,`` as a
token that ends a term, as the end of input does.

A term is the tuple of its tokens in postfix (reverse Polish) order: a
generator is its name, an identifier, and each of ``0 1 ~ & |`` is one
marker token, the character itself.  Every reader folds the tuple on a
stack, so terms of any depth work.  Only this module knows the layout; other
code builds terms with ``Gen Not And ZERO ONE join meet``.
"""

from __future__ import annotations

import re
from typing import Collection, KeysView, Mapping, Optional

from .errors import ParseError, UnknownGenerator

Term = tuple  # of str: names and markers, in postfix order

_FALSE, _TRUE, _NOT, _AND, _OR = "0", "1", "~", "&", "|"
_ARITY = {_FALSE: 0, _TRUE: 0, _NOT: 1, _AND: 2, _OR: 2}

ZERO: Term = (_FALSE,)
ONE: Term = (_TRUE,)


# The constructors.  An operand that is not a tuple, such as a bare name,
# raises TypeError at the concatenation instead of splicing in its items.


def Gen(name: str) -> Term:
    """The generator ``name``, which must be an identifier, so no marker."""
    if type(name) is not str or not name.isidentifier():
        raise TypeError(f"not a generator name: {name!r}")
    return (name,)


def Not(t: Term) -> Term:
    return t + (_NOT,)


def And(left: Term, right: Term) -> Term:
    return left + right + (_AND,)


def _chain(terms: list[Term], op: str, empty: Term) -> Term:
    """Left-associated ``op`` of ``terms``, built in one list; a part that is
    not a tuple raises TypeError, as in ``And``."""
    out: list[str] = []
    for k, t in enumerate(terms):
        out += t + ((op,) if k else ())
    return tuple(out) if terms else empty


def join(terms: list[Term]) -> Term:
    """Left-associated disjunction; the empty join is 0."""
    return _chain(terms, _OR, ZERO)


def meet(terms: list[Term]) -> Term:
    """Left-associated conjunction; the empty meet is 1."""
    return _chain(terms, _AND, ONE)


def check_term(t: object, gens: Collection[str]) -> None:
    """Raise TypeError unless ``t`` is a term, a tuple of names and markers in
    which each operator finds its operands and one value is left; raise
    UnknownGenerator at the first name outside ``gens``."""
    if type(t) is not tuple:
        raise TypeError(f"not a term: a {type(t).__name__}")
    height = 0  # values on the stack of a fold
    for x in t:
        if type(x) is not str:
            raise TypeError(f"not a term: token {x!r}")
        arity = _ARITY.get(x)
        if arity is None:
            if not x.isidentifier():
                raise TypeError(f"not a term: token {x!r}")
            if x not in gens:
                raise UnknownGenerator(x)
            arity = 0
        elif arity > height:
            raise TypeError(f"not a term: {x!r} lacks an operand")
        height += 1 - arity
    if height != 1:
        raise TypeError(f"not a term: {height} values left")


def eval_term(t: Term, masks: Mapping[str, int], full: int = 1) -> int:
    """Truth table of ``t``: bit k is its value in assignment k.

    Bit k of ``masks[g]`` is g's value in assignment k and ``full`` has every
    assignment's bit set, so the default evaluates one 0/1 assignment;
    ``~ & |`` become word operations (Knuth, TAOCP 4A, 7.1.3).  One loop
    folds the tables on a stack in reading order, so the first generator
    missing from ``masks`` is the leftmost.
    """
    values: list[int] = []
    try:
        for x in t:
            if x not in _ARITY:
                values.append(masks[x])
            elif x == _AND:
                values.append(values.pop() & values.pop())
            elif x == _OR:
                values.append(values.pop() | values.pop())
            elif x == _NOT:
                values.append(full ^ values.pop())
            else:
                values.append(full if x == _TRUE else 0)
    except KeyError:
        raise UnknownGenerator(x) from None
    return values[0]


def generators_of(t: Term) -> KeysView[str]:
    """Names of the generators in ``t``, each once, in reading order."""
    return {x: None for x in t if x not in _ARITY}.keys()


def substitute(t: Term, images: Mapping[str, Term]) -> Term:
    """Replace each generator by its image term: one splice of the images."""
    out: list[str] = []
    try:
        for x in t:
            if x in _ARITY:
                out.append(x)
            else:
                out += images[x]
    except KeyError:
        raise UnknownGenerator(x) from None
    return tuple(out)


Gens = Optional[Collection[str]]

# a token, or (group 1 unset, so "" from findall) a character that starts
# none; whitespace between matches is skipped by the search itself.  A list
# also reads "," as a token, which ends a term.
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|[01|&~()])|\S")
_LIST_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|[01|&~(),])|\S")
_WORD = re.compile(r"\S+")
_BINDS = {_NOT: 3, _AND: 2, _OR: 1}  # precedence; binary operators associate left


def parse_term(text: str, line: int = 1, offset: int = 0, gens: Gens = None) -> Term:
    """Parse one Boolean expression that starts ``offset`` characters into
    its line, naming only ``gens`` if given (a set, for long lists)."""
    return _parse(_TOKEN, text, line, offset, gens)[0]


def parse_term_list(text: str, line: int = 1, offset: int = 0, gens: Gens = None) -> list[Term]:
    """Parse a comma-separated list of expressions (possibly empty)."""
    if not text.strip():
        return []
    return _parse(_LIST_TOKEN, text, line, offset, None if gens is None else frozenset(gens))


def _parse(pattern: re.Pattern, text: str, line: int, offset: int, gens: Gens) -> list[Term]:
    """The terms of ``text``, read with the token ``pattern``.

    One ``findall`` pass lists the tokens, then None for the end of input;
    a character that starts no token is listed as "".  The loop walks the
    list by index as Dijkstra's shunting yard does: each operand goes to the
    postfix output at once, and ``~ & |`` and ``(`` wait on a stack until a
    token that binds no tighter, or the matching ``)``, releases them, so
    nesting depth costs no recursion.  A "," (which only the list pattern
    reads as a token) ends a term as the end of input does.  The loop never
    steps past a "", so an error raised there is that character's, the
    leftmost one; an error rescans for its position.
    """
    tokens: list = pattern.findall(text)
    tokens.append(None)

    def error(message: str) -> ParseError:
        pos = next((m.start() for k, m in enumerate(pattern.finditer(text)) if k == i), len(text))
        if tokens[i] == "":
            message = f"unexpected character {text[pos]!r}"
        return ParseError(message, line, offset + pos + 1)

    terms: list[Term] = []
    out: list[str] = []
    ops: list[str] = []  # pending operators and open parentheses
    i = 0
    while True:
        tok = tokens[i]  # an operand starts here
        if tok == "~" or tok == "(":
            ops.append(tok)
            i += 1
            continue
        if tok is None or tok == ",":
            raise error("unexpected end of input")
        if tok in "|&)":  # true of "" too; any other token is 0, 1 or a name
            raise error(f"unexpected token {tok!r}")
        if gens is not None and tok not in _ARITY and tok not in gens:
            raise error(f"unknown generator {tok!r}")
        out.append(tok)
        i += 1
        # an operand is complete: emit the operators that bind to it at least
        # as tightly as the next token does, closing each ")" that follows
        while True:
            tok = tokens[i]
            binary = tok == "&" or tok == "|"
            while ops and ops[-1] != "(" and (not binary or _BINDS[ops[-1]] >= _BINDS[tok]):
                out.append(ops.pop())
            if binary:
                ops.append(tok)
                break
            if not ops:
                if tok is not None and tok != ",":
                    raise error(f"trailing input {tok!r}")
                terms.append(tuple(out))
                if tok is None:
                    return terms
                out = []
                break
            if tok != ")":
                raise error("expected ')'")
            ops.pop()
            i += 1
        i += 1


def parse_gen_list(text: str, line: int = 1, offset: int = 0) -> list[str]:
    names: dict[str, None] = {}
    for m in _WORD.finditer(text):
        chunk = m.group()
        if not (chunk.isascii() and chunk.isidentifier()):  # [A-Za-z_][A-Za-z0-9_]*
            raise ParseError(f"bad generator name {chunk!r}", line, offset + m.start() + 1)
        if chunk in names:
            raise ParseError(f"duplicate generator {chunk!r}", line, offset + m.start() + 1)
        names[chunk] = None
    return list(names)
