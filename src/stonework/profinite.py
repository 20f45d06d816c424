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

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from .boolalg import FinBoolAlg, Morphism, Presentation, spectrum
from .errors import BadArgument, InvariantViolated, RelationNotPreserved, SquareNotCommuting
from .terms import And, Gen, Term, generators_of

Vertex = Hashable


@dataclass(frozen=True)
class SeqDiagram:
    """Finite sets with transition maps level n+1 -> level n."""

    levels: tuple[tuple[Vertex, ...], ...]
    transitions: tuple[dict, ...]  # transitions[n]: level n+1 -> level n

    def __post_init__(self):
        if len(self.transitions) != max(len(self.levels) - 1, 0):
            raise InvariantViolated("need one transition between each pair of adjacent levels")
        for n, tr in enumerate(self.transitions):
            upper = set(self.levels[n + 1])
            lower = set(self.levels[n])
            if set(tr) != upper or not set(tr.values()) <= lower:
                raise ValueError(f"transition {n} is not a total map between adjacent levels")

    @property
    def depth(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class AlgebraTower:
    """Finite Boolean algebras with connecting morphisms level n -> level n+1."""

    levels: tuple[FinBoolAlg, ...]
    connecting: tuple[Morphism, ...]


@dataclass(frozen=True)
class ClosedTower:
    """A sequential diagram with saturated per-level selected subsets."""

    base: SeqDiagram
    selected: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.selected) != self.base.depth:
            raise InvariantViolated("need one selected set per level")
        for n, tr in enumerate(self.base.transitions):
            image = {tr[x] for x in self.selected[n + 1]}
            if not image <= self.selected[n]:
                raise ValueError(f"selected sets not saturated at level {n}")


@dataclass(frozen=True)
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


def truncation_tower(p: CountablePresentation, depth: int) -> AlgebraTower:
    """Finite truncations at levels 0..depth-1 with generator-inclusion maps.

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
    connecting = tuple(
        Morphism(lower.source, upper.source, {g: Gen(g) for g in lower.source.gens})
        for lower, upper in zip(levels, levels[1:])
    )
    return AlgebraTower(tuple(levels), connecting)


def spectrum_tower(t: AlgebraTower) -> SeqDiagram:
    """Dualize: level sets are spectra, and each transition restricts a point
    to the lower level's generators, which is precomposing the inclusion: it
    drops the bits of the generators that level lacks, moving each run of kept
    bits down past the dropped bits below it as (code >> shift) & mask."""
    levels = tuple(alg.codes for alg in t.levels)
    transitions = []
    for lower, upper in zip(t.levels, t.levels[1:]):
        have = set(lower.source.gens)
        kept = [b for b, g in enumerate(reversed(upper.source.gens)) if g in have]
        runs: dict[int, int] = {}  # shift -> the lower bits its run fills
        for k, b in enumerate(kept):  # the kth kept bit, b, moves down to bit k
            runs[b - k] = runs.get(b - k, 0) | 1 << k
        low = [0] * len(upper.codes)
        for shift, mask in runs.items():
            low = [x | code >> shift & mask for x, code in zip(low, upper.codes)]
        transitions.append(dict(zip(upper.codes, low)))
    return SeqDiagram(levels, tuple(transitions))


def points_at_depth(d: SeqDiagram, depth: int) -> list[tuple]:
    """All transition-compatible chains (x_0, ..., x_depth)."""
    if depth >= d.depth:
        raise ValueError(f"depth {depth} exceeds available levels {d.depth}")
    chains = []
    for top in d.levels[depth]:
        chain = [top]
        for n in range(depth - 1, -1, -1):
            chain.append(d.transitions[n][chain[-1]])
        chains.append(tuple(reversed(chain)))
    return chains


def closed_from_decidables(d: SeqDiagram, subsets: Sequence) -> ClosedTower:
    """Saturate per-level subsets to the projections of full compatible chains.

    A backward pass keeps points extending upward through the given subsets,
    then a forward pass drops points whose transition leaves the result; the
    selected sets are then exactly the level projections of the chains
    through all supplied levels, which satisfies the saturation invariant.
    """
    if len(subsets) != d.depth:
        raise ValueError("one subset per level required")
    selected = [frozenset(s) & frozenset(level) for s, level in zip(subsets, d.levels)]
    for n in range(d.depth - 2, -1, -1):
        image = frozenset(d.transitions[n][x] for x in selected[n + 1])
        selected[n] = selected[n] & image
    for n in range(1, d.depth):
        tr = d.transitions[n - 1]
        selected[n] = frozenset(x for x in selected[n] if tr[x] in selected[n - 1])
    return ClosedTower(d, tuple(selected))


def emptiness_witness(c: ClosedTower) -> Optional[int]:
    """Least level through which no compatible selected chain exists.

    Finite-stage content of the compactness lemma: if the represented
    intersection is empty, a finite witness level exists; within the
    supplied depth the answer is exact, beyond it None is returned.
    """
    return constraint_emptiness_witness(c.base, c.selected)


def constraint_emptiness_witness(d: SeqDiagram, subsets: Sequence) -> Optional[int]:
    """Least k such that no chain (x_0..x_k) stays inside the subsets."""
    reachable: Optional[frozenset] = None
    for n in range(d.depth):
        allowed = frozenset(subsets[n]) & frozenset(d.levels[n])
        if reachable is None:
            reachable = allowed
        else:
            tr = d.transitions[n - 1]
            reachable = frozenset(x for x in allowed if tr[x] in reachable)
        if not reachable:
            return n
    return None


@dataclass(frozen=True)
class LevelwiseFactorization:
    epi: tuple[dict, ...]  # per level: src point -> middle point
    middle: SeqDiagram
    mono: tuple[dict, ...]  # per level: middle point -> dst point (inclusion)


def levelwise_factor(
    src: SeqDiagram, dst: SeqDiagram, maps: Sequence[dict]
) -> LevelwiseFactorization:
    """Per-level image factorization of a levelwise map of diagrams."""
    if len(maps) != src.depth or src.depth != dst.depth:
        raise ValueError("one map per level required")
    for n in range(src.depth - 1):
        for x in src.levels[n + 1]:
            if maps[n][src.transitions[n][x]] != dst.transitions[n][maps[n + 1][x]]:
                raise SquareNotCommuting(n)
    mid_levels = []
    for n in range(src.depth):
        image = {maps[n][x] for x in src.levels[n]}
        mid_levels.append(tuple(y for y in dst.levels[n] if y in image))
    mid_transitions = []
    for n in range(src.depth - 1):
        mid_transitions.append({y: dst.transitions[n][y] for y in mid_levels[n + 1]})
    middle = SeqDiagram(tuple(mid_levels), tuple(mid_transitions))
    epi = tuple(dict(m) for m in maps)
    mono = tuple({y: y for y in level} for level in mid_levels)
    return LevelwiseFactorization(epi, middle, mono)


@dataclass(frozen=True)
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
            raise ValueError("repeated vertex")
        if len(adj) != n:
            raise ValueError(f"{len(adj)} neighbour lists for {n} vertices")
        for i, row in enumerate(adj):
            prev = -1
            for j in row:
                if not prev < j < n:
                    raise ValueError(f"neighbours of vertex {i} are not ascending positions below {n}")
                if i not in adj[j]:
                    raise ValueError("relation not symmetric")
                prev = j
            if i not in row:
                raise ValueError("relation not reflexive")

    @property
    def related(self) -> frozenset:
        """The relation as a set of ordered vertex pairs, for oracles and probes."""
        vs = self.vertices
        return frozenset((vs[i], vs[j]) for i, row in enumerate(self.adjacent) for j in row)


@dataclass(frozen=True)
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
                raise ValueError(f"transition {n} maps {len(image)} of {len(upper.vertices)} vertices")
            if not all(0 <= p < len(lower.vertices) for p in image):
                raise ValueError(f"transition {n} has a position outside level {n}")
            for i, row in enumerate(upper.adjacent):
                for j in row:
                    if image[j] not in lower.adjacent[image[i]]:
                        u, v = upper.vertices[i], upper.vertices[j]
                        raise RelationNotPreserved(f"transition {n} breaks the pair ({u!r}, {v!r})")


def equality_graph(vertices: Sequence[Vertex]) -> RelGraph:
    vertices = tuple(vertices)
    return RelGraph(vertices, tuple((i,) for i in range(len(vertices))))


def connected_component(g: RelGraph, v: Vertex) -> frozenset:
    """Closure of ``v`` under the relation, by a walk over neighbour positions."""
    if v not in g.vertices:
        raise ValueError(f"{v!r} is not a vertex")
    start = g.vertices.index(v)
    seen, stack = {start}, [start]
    while stack:
        for j in g.adjacent[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return frozenset(g.vertices[i] for i in seen)


def is_totally_disconnected(t: RelGraphTower, depth: int) -> bool:
    """True iff every component at every level <= depth is a singleton,
    that is, every vertex is related to itself alone."""
    if depth > len(t.levels):
        raise ValueError("depth exceeds available levels")
    return all(row == (i,) for g in t.levels[:depth] for i, row in enumerate(g.adjacent))


def bound_levelwise_nat_map(
    level: Sequence[Vertex], f: Callable[[Vertex], int]
) -> tuple[int, dict]:
    """Factor a map to the naturals through Fin(k) with k = 1 + max value."""
    values = {v: f(v) for v in level}
    k = 1 + max(values.values()) if values else 0
    return k, values
