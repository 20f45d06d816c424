"""Shared helpers: random term generation, hypothesis strategies and oracles."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from stonework.terms import And, Gen, Not, ONE, Or, Term, ZERO
from stonework.zhomology import IntMatrix


def random_term(rng: random.Random, gens: list[str], depth: int) -> Term:
    """Uniform-ish random term over the given generators, bounded depth."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(len(gens) + 2) if gens else rng.randrange(2)
        if choice == 0:
            return ZERO
        if choice == 1:
            return ONE
        return Gen(gens[choice - 2])
    op = rng.randrange(3)
    if op == 0:
        return Not(random_term(rng, gens, depth - 1))
    left = random_term(rng, gens, depth - 1)
    right = random_term(rng, gens, depth - 1)
    return And(left, right) if op == 1 else Or(left, right)


def term_strategy(gens: list[str], max_depth: int = 4) -> st.SearchStrategy[Term]:
    leaves = st.sampled_from([ZERO, ONE] + [Gen(g) for g in gens])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
        ),
        max_leaves=2**max_depth,
    )


def rational_rank(m: IntMatrix) -> int:
    """Rank over the rationals by Gaussian elimination (independent oracle)."""
    rows = [[Fraction(x) for x in r] for r in m.rows]
    rank = 0
    col = 0
    while rank < len(rows) and col < m.ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank
