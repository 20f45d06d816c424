"""Sequential towers of finite sets and relation graphs.

Levels are finite point lists; transitions map level n+1 down to level n.
Algebra towers follow the truncation schedule: level n keeps generators
g0..gn together with anything mentioned by the first n+1 relations, and
quotients by those relations.  Each level's spectrum is built over the one
below: a point's code is its parent's code followed by the bits of the
generators its level adds, in order of arrival (``boolalg``'s order where
they arrive in ascending order).  Relation graphs carry a reflexive
symmetric relation used as a finite approximation of a compact Hausdorff
quotient; no class holds a tower of them, as
``zhomology.stabilization_report`` reads its graphs one level at a time.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from typing import Callable, Hashable, Optional, Sequence

from .boolalg import _BIT, _limb, _runs, enumeration_cap, gen_index
from .errors import BadArgument, CapExceeded, InvariantViolated
from .record import record
from .terms import And, Gen, Term, check_term, eval_term, generators_of

Vertex = Hashable


@record
class SeqDiagram:
    """Finite sets with transition maps level n+1 -> level n, by position:
    ``transitions[n][i]`` is the position in level n of the image of level
    n+1's point i, as in the graph towers ``stabilization_report`` walks;
    ``check_transition`` checks each."""

    levels: tuple[tuple[Vertex, ...], ...]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.transitions) != max(len(self.levels) - 1, 0):
            raise InvariantViolated(ONE_TRANSITION_EACH)
        for n, image in enumerate(self.transitions):
            check_transition(n, image, len(self.levels[n + 1]), len(self.levels[n]))


ONE_TRANSITION_EACH = "need one transition between each pair of adjacent levels"


def check_transition(n: int, image: Sequence[int], above: int, below: int) -> None:
    """Check that transition ``n`` maps the ``above`` points of level n+1 into the ``below`` of level n."""
    if len(image) != above:
        raise InvariantViolated(f"transition {n} maps {len(image)} of {above} vertices")
    if image and not 0 <= min(image) <= max(image) < below:
        raise InvariantViolated(f"transition {n} has a position outside level {n}")


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
    if (i := gen_index(name)) is None:
        raise BadArgument(f"countable presentations use generators g0,g1,...; got {name!r}")
    return i


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
    place: dict[int, int] = {}  # generator index -> arrival place, from 0
    codes: Sequence[int] = (0,)  # below level 0: the one point of no generators
    levels, transitions = [], []
    for n in range(depth):
        r = p.relation(n)
        named = {n}
        if r is not None:
            named.update(map(_gen_index, generators_of(r)))
            check_term(r, {f"g{i}" for i in named})  # so g05 is unknown, as only g5 names index 5
        new = sorted(named.difference(place))
        size, k = len(codes), len(new)
        if (need := max(size - 1, 0).bit_length() + k) > cap:
            raise CapExceeded(need, cap, f"tower level {n} ({size} x 2^{k} candidates)")
        place.update(zip(new, range(len(place), len(place) + k)))
        codes, image = _fibres(codes, place, k, r) if codes else ((), ())
        held += max(len(codes), 1) - 1
        if (need := (held - 1).bit_length()) > cap:
            raise CapExceeded(need, cap, f"tower of depth {depth} at level {n} ({held} points held)")
        levels.append(codes)
        if n:
            transitions.append(image)
    return SeqDiagram(tuple(levels), tuple(transitions))


def _fibres(codes: Sequence[int], place: dict[int, int], k: int, r: Optional[Term]):
    """The points that extend ``codes`` by the last ``k`` generators to
    arrive in ``place`` and kill ``r`` (None kills nothing), ascending, with
    the position of the point each one extends.

    A candidate's code is its parent's shifted past its assignment's k bits
    and ORed with them, so parent-major candidates ascend.  Each generator
    that ``r`` names gets a table with one byte per candidate: an old one's
    is a bit column sliced out of the parents' codes, written as 8-byte
    words by ``boolalg._limb`` (as ``boolalg.digit_rows`` slices a
    spectrum's), and a new one's is a fixed pattern.  ``r`` is evaluated
    once over the tables, and the bytes of its complement select the
    survivors.
    """
    size, m, top = len(codes), 1 << k, len(place) - 1
    shifted = list(map(k.__rlshift__, codes))
    candidates, parents = [0] * (size * m), [0] * (size * m)
    for a in range(m):
        candidates[a::m], parents[a::m] = map(a.__or__, shifted) if a else shifted, range(size)
    if r is not None:
        tables, limbs = {}, {}
        for g in generators_of(r):
            b = top - place[gen_index(g)]  # its bit in a candidate's code
            if b < k:
                column = _runs(1 << b, m) * size
            else:
                b -= k  # its bit in a parent's code
                if b >> 6 not in limbs:
                    limbs[b >> 6] = _limb(codes, b >> 6, top - k >= 64)
                column = limbs[b >> 6][(b & 63) >> 3 :: 8].translate(_BIT[b & 7])
                if m > 1:
                    column = column.replace(b"\0", bytes(m)).replace(b"\1", b"\1" * m)
            tables[g] = int.from_bytes(column, "big")
        full = int.from_bytes(b"\1" * len(candidates), "big")
        keep = (full ^ eval_term(r, tables, full)).to_bytes(len(candidates), "big")
        candidates, parents = compress(candidates, keep), compress(parents, keep)
    return tuple(candidates), tuple(parents)


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
