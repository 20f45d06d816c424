"""Sequential towers of finite sets and relation graphs.

Levels are finite point lists; transitions map level n+1 down to level n.
Algebra towers follow the truncation schedule: level n keeps generators
g0..gn together with anything mentioned by the first n+1 relations, and
quotients by those relations; their spectra keep each point as its
``boolalg`` integer code, generator i of n being bit n-1-i.  Relation graphs
carry a reflexive symmetric relation used as a finite approximation of a
compact Hausdorff quotient.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from .boolalg import FinBoolAlg, Presentation, spectrum
from .errors import BadArgument, InvariantViolated, RelationNotPreserved
from .record import record
from .terms import And, Gen, Term, generators_of

Vertex = Hashable


def _not_total(n: int) -> InvariantViolated:
    return InvariantViolated(f"transition {n} is not a total map between adjacent levels")


@record
class SeqDiagram:
    """Finite sets with transition maps level n+1 -> level n, by position as in
    ``RelGraphTower``: ``transitions[n][i]`` is the position in level n of the
    image of level n+1's point i."""

    levels: tuple[tuple[Vertex, ...], ...]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.transitions) != max(len(self.levels) - 1, 0):
            raise InvariantViolated("need one transition between each pair of adjacent levels")
        for n, image in enumerate(self.transitions):
            size = len(self.levels[n])
            if len(image) != len(self.levels[n + 1]) or image and not 0 <= min(image) <= max(image) < size:
                raise _not_total(n)


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
    # pairs (a, b) with a < b ordered by (b, a)
    b = 1
    while i >= b:
        i -= b
        b += 1
    a = i
    return And(Gen(f"g{a}"), Gen(f"g{b}"))


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


def truncation_tower(p: CountablePresentation, depth: int) -> tuple[FinBoolAlg, ...]:
    """Finite truncations at levels 0..depth-1, as their spectra.

    Level n's generators are among level n+1's and its relations are a
    prefix of level n+1's, so each inclusion kills every source relation.
    Each level extends the one below by relation n, its generators and g_n.
    """
    levels: list[FinBoolAlg] = []
    rels, indices = [], set()
    for n in range(depth):
        if (r := p.relation(n)) is not None:
            rels.append(r)
            indices.update(_gen_index(g) for g in generators_of(r))
        indices.add(n)
        gens = [f"g{i}" for i in sorted(indices)]
        levels.append(spectrum(Presentation.make(gens, rels)))
    return tuple(levels)


def spectrum_tower(algebras: tuple[FinBoolAlg, ...]) -> SeqDiagram:
    """Dualize a truncation tower: level sets are spectra, and each transition
    restricts a point to the lower level's generators, which is precomposing
    the inclusion: it drops the bits of the generators that level lacks,
    moving each run of kept bits down past the dropped bits below it as
    (code >> shift) & mask.  One lookup in the lower level's index turns each
    restricted code into its position; a code outside the lower spectrum
    raises ``InvariantViolated``."""
    levels = tuple(alg.codes for alg in algebras)
    transitions = []
    for n, (lower, upper) in enumerate(zip(algebras, algebras[1:])):
        have = set(lower.source.gens)
        kept = [b for b, g in enumerate(reversed(upper.source.gens)) if g in have]
        runs: dict[int, int] = {}  # shift -> the lower bits its run fills
        for k, b in enumerate(kept):  # the kth kept bit, b, moves down to bit k
            runs[b - k] = runs.get(b - k, 0) | 1 << k
        (shift, mask), *rest = runs.items() or [(0, 0)]  # with no kept bit, every code restricts to 0
        low = [code >> shift & mask for code in upper.codes]
        for shift, mask in rest:
            low = [x | code >> shift & mask for x, code in zip(low, upper.codes)]
        try:
            transitions.append(tuple(map(lower.index.__getitem__, low)))
        except KeyError:
            raise _not_total(n) from None
    return SeqDiagram(levels, tuple(transitions))


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


@record
class RelGraphTower:
    """Relation graphs with relation-preserving transitions level n+1 -> n.

    Transitions name vertices by position: ``transitions[n][i]`` is the
    position in level n of the image of level n+1's vertex i.
    """

    levels: tuple[RelGraph, ...]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.transitions) != max(len(self.levels) - 1, 0):
            raise InvariantViolated("need one transition between each pair of adjacent levels")
        for n, image in enumerate(self.transitions):
            upper, lower = self.levels[n + 1], self.levels[n]
            if len(image) != len(upper.vertices):
                raise InvariantViolated(f"transition {n} maps {len(image)} of {len(upper.vertices)} vertices")
            if not all(0 <= p < len(lower.vertices) for p in image):
                raise InvariantViolated(f"transition {n} has a position outside level {n}")
            for i, row in enumerate(upper.adjacent):
                for j in row:
                    if image[j] not in lower.adjacent[image[i]]:
                        u, v = upper.vertices[i], upper.vertices[j]
                        raise RelationNotPreserved(f"transition {n} breaks the pair ({u!r}, {v!r})")
