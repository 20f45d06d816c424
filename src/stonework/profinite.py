"""Sequential towers of finite sets and relation graphs.

Levels are finite point lists; transitions map level n+1 down to level n.
Algebra towers follow the truncation schedule: level n keeps generators
g0..gn together with anything mentioned by the first n+1 relations, and
quotients by those relations; their spectra keep each point as its
``boolalg`` integer code, generator i of n being bit n-1-i, and each level's
spectrum is built over the one below.  Relation graphs
carry a reflexive symmetric relation used as a finite approximation of a
compact Hausdorff quotient; no class holds a tower of them, as
``zhomology.stabilization_report`` reads its graphs one level at a time.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import compress
from math import isqrt
from typing import Callable, Hashable, Optional, Sequence

from .boolalg import enumeration_cap
from .errors import BadArgument, CapExceeded, InvariantViolated
from .record import record
from .terms import And, Gen, Term, check_term, eval_term, generators_of

Vertex = Hashable


@record
class SeqDiagram:
    """Finite sets with transition maps level n+1 -> level n, by position:
    ``transitions[n][i]`` is the position in level n of the image of level
    n+1's point i, as in the graph towers ``stabilization_report`` walks."""

    levels: tuple[tuple[Vertex, ...], ...]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.transitions) != max(len(self.levels) - 1, 0):
            raise InvariantViolated("need one transition between each pair of adjacent levels")
        for n, image in enumerate(self.transitions):
            size = len(self.levels[n])
            if len(image) != len(self.levels[n + 1]) or image and not 0 <= min(image) <= max(image) < size:
                raise InvariantViolated(f"transition {n} is not a total map between adjacent levels")


@record
class CountablePresentation:
    """Countably indexed generators g0,g1,... with a relation schedule.

    Relations are the explicit list followed by the schematic family (a
    callback producing the relation at each index), if any.
    """

    explicit_rels: tuple[Term, ...] = ()
    family: Optional[Callable[[int], Term]] = None

    def relation(self, i: int) -> Optional[Term]:
        if i < len(self.explicit_rels):
            return self.explicit_rels[i]
        if self.family is not None:
            return self.family(i - len(self.explicit_rels))
        return None


def pairwise_meet_zero_family(i: int) -> Term:
    """Enumeration g0&g1, g0&g2, g1&g2, g0&g3, ... of the at-most-one relations."""
    # pairs (a, b) with a < b ordered by (b, a): (0, b) is pair b(b-1)/2
    b = (1 + isqrt(8 * i + 1)) // 2
    return And(Gen(f"g{i - b * (b - 1) // 2}"), Gen(f"g{b}"))


FAMILIES: dict[str, Optional[Callable[[int], Term]]] = {
    "none": None,
    "pairwise-meet-zero": pairwise_meet_zero_family,
}


def _gen_index(name: str) -> int:
    if not name.startswith("g") or not name[1:].isdigit():
        raise BadArgument(f"countable presentations use generators g0,g1,...; got {name!r}")
    try:
        return int(name[1:])
    except ValueError:  # more digits than int() reads
        raise BadArgument(f"generator index of {len(name) - 1} digits is out of range") from None


def spectrum_tower(p: CountablePresentation, depth: int) -> SeqDiagram:
    """The spectra of the truncations at levels 0..depth-1, as codes, with
    the restriction of each level to the one below.

    Level n+1 is built over level n: its candidates are level n's points
    times the assignments of its new generators, and only relation n+1 can
    cut them, since those points already kill relations 0..n.  Each relation
    is checked once, when it arrives.  The cap bounds each level's candidate
    table, points x 2^(new generators), and the points the whole tower holds,
    an empty level counting as 1; each level still to come counts as at least
    1, so a tower is refused at the first level that proves it too large.
    """
    cap = enumeration_cap()
    held = depth  # the points kept so far, plus 1 for each level still to come
    indices: list[int] = []  # the level's generator indices, ascending
    have: set[int] = set()
    codes: Sequence[int] = (0,)  # below level 0: the one point of no generators
    levels, transitions = [], []
    for n in range(depth):
        r = p.relation(n)
        named = {n}
        if r is not None:
            named.update(map(_gen_index, generators_of(r)))
            check_term(r, {f"g{i}" for i in named})  # so g05 is unknown, as only g5 names index 5
        new = sorted(named - have)
        size, k = len(codes), len(new)
        if (need := max(size - 1, 0).bit_length() + k) > cap:
            raise CapExceeded(need, cap, f"tower level {n} ({size} x 2^{k} candidates)")
        codes, image = _fibres(codes, indices, new, r) if codes else ((), ())
        held += max(len(codes), 1) - 1
        if (need := (held - 1).bit_length()) > cap:
            raise CapExceeded(need, cap, f"tower of depth {depth} at level {n} ({held} points held)")
        have.update(new)
        if indices and new and new[0] < indices[-1]:
            indices = sorted(have)
        else:
            indices += new  # in place: a long tower of small levels stays linear
        levels.append(codes)
        if n:
            transitions.append(image)
    return SeqDiagram(tuple(levels), tuple(transitions))


def _fibres(codes: Sequence[int], old: list[int], new: list[int], r: Optional[Term]):
    """The points that extend ``codes`` (over generator indices ``old``) by
    the generators ``new`` and kill ``r`` (None kills nothing), ascending,
    with the position of the point each one extends.

    Candidates run parent-major, each parent's assignments ascending, with
    the first new generator as an assignment's high bit.  Each generator
    that ``r`` names gets a table with one byte per candidate: an old one's
    is sliced out of the parents' codes, written as 8-byte words, and a new
    one's is a fixed pattern.
    ``r`` is evaluated once over the tables, and the bytes of its complement
    select the survivors.  A candidate's code spreads its parent's bits over
    the old generators' places and its assignment's over the new ones'; when
    a new generator sits below an old one, codes do not ascend in candidate
    order, and the level is sorted.
    """
    k, size = len(new), len(codes)
    m = 1 << k
    ordered = not old or not new or new[0] > old[-1]
    if ordered:  # the new generators take the low bits
        spread, lift = list(map(k.__rlshift__, codes)), range(m)
    else:
        moves: dict[int, int] = {}  # shift -> the old bits it moves
        lift_bits: list[int] = []  # the code bit of each assignment bit, low first
        for b, i in enumerate(sorted(old + new, reverse=True)):  # bit b: the bth largest index
            if i in new:
                lift_bits.append(b)
            else:
                moves[len(lift_bits)] = moves.get(len(lift_bits), 0) | 1 << b - len(lift_bits)
        spread = [0] * size
        for shift, mask in moves.items():
            spread = [x | (c & mask) << shift for x, c in zip(spread, codes)]
        lift = [sum(1 << b for t, b in enumerate(lift_bits) if a >> t & 1) for a in range(m)]
    candidates, parents = [0] * (size * m), [0] * (size * m)
    for a in range(m):
        candidates[a::m], parents[a::m] = map(lift[a].__or__, spread) if a else spread, range(size)
    if r is not None:
        tables, limbs = {}, {}
        for g in generators_of(r):
            i = int(g[1:])
            if i in new:  # assignment bit k-1-j for the jth new generator
                column = _runs(1 << k - 1 - new.index(i), m) * size
            else:
                b = len(old) - 1 - bisect_left(old, i)  # its bit in a parent's code
                if b >> 6 not in limbs:
                    limbs[b >> 6] = _limb(codes, b >> 6, len(old) > 64)
                column = limbs[b >> 6][(b & 63) >> 3 :: 8].translate(_BIT[b & 7])
                if m > 1:
                    column = column.replace(b"\0", bytes(m)).replace(b"\1", b"\1" * m)
            tables[g] = int.from_bytes(column, "big")
        full = int.from_bytes(b"\1" * len(candidates), "big")
        keep = (full ^ eval_term(r, tables, full)).to_bytes(len(candidates), "big")
        candidates, parents = compress(candidates, keep), compress(parents, keep)
    if ordered:
        return tuple(candidates), tuple(parents)
    pairs = sorted(zip(candidates, parents))
    return tuple(c for c, _ in pairs), tuple(i for _, i in pairs)


def _runs(run: int, length: int) -> bytes:
    """``length`` bytes of alternating runs of ``run`` 0s and ``run`` 1s: bit
    j of 0, 1, 2, ... is ``_runs(1 << j, ...)``."""
    return (bytes(run) + b"\1" * run) * (length // (2 * run))


_BIT = [_runs(1 << j, 256) for j in range(8)]  # the translation from a byte to its bit j


def _limb(codes: Sequence[int], j: int, wide: bool) -> bytes:
    """Bits 64j..64j+63 of each code, as one little-endian 8-byte word per
    code; ``wide`` says some code may not fit in 64 bits."""
    if j:
        codes = map((64 * j).__rrshift__, codes)
    words = array("Q", map(_WORD.__and__, codes) if wide else codes)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tobytes()


_WORD = (1 << 64) - 1


@record
class RelGraph:
    """Finite vertex set with a reflexive symmetric relation.

    ``adjacent[i]`` holds the positions in ``vertices`` of the vertices
    related to vertex i, in ascending order and with i itself among them.
    """

    vertices: tuple[Vertex, ...]
    adjacent: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, adj = len(self.vertices), self.adjacent
        if len(set(self.vertices)) != n:
            raise InvariantViolated("repeated vertex")
        if len(adj) != n:
            raise InvariantViolated(f"{len(adj)} neighbour lists for {n} vertices")
        for i, row in enumerate(adj):
            prev = -1
            for j in row:
                if not prev < j < n:
                    raise InvariantViolated(f"neighbours of vertex {i} are not ascending positions below {n}")
                if i not in adj[j]:
                    raise InvariantViolated("relation not symmetric")
                prev = j
            if i not in row:
                raise InvariantViolated("relation not reflexive")

    @property
    def related(self) -> frozenset:
        """The relation as a set of ordered vertex pairs, for oracles and probes."""
        vs = self.vertices
        return frozenset((vs[i], vs[j]) for i, row in enumerate(self.adjacent) for j in row)
