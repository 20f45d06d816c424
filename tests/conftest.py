"""Shared helpers: random term generation, hypothesis strategies and oracles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable

from hypothesis import settings
from hypothesis import strategies as st

from lemmas import Or, RelGraphTower, _check_lengths, _coboundary, hstack, realize
from stonework.boolalg import (
    Bits,
    FinBoolAlg,
    Morphism,
    MorphismReport,
    Presentation,
    _bits_of,
    evaluate,
    minterm,
    spectrum,
)
from stonework.errors import RelationNotPreserved, UnknownGenerator
from stonework.interval import BitWord, circle_graph, interval_graph, restrict_graph_map
from stonework.profinite import CountablePresentation, RelGraph, SeqDiagram
from stonework.terms import (
    And,
    Gen,
    Not,
    ONE,
    Term,
    ZERO,
    eval_term,
    generators_of,
    substitute,
)
from stonework.zhomology import (
    ChainComplexZ,
    IntMatrix,
    LevelCohomology,
    StabilizationReport,
    _covers_kernel,
    homology,
    kernel_basis,
)

# a failing random example prints the @reproduce_failure line that replays it;
# example counts and deadlines stay the defaults
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


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


@st.composite
def presentations(draw, max_gens: int = 8):
    """Generators g0..g{n-1} for some n <= max_gens, with up to 4 random relations."""
    gens = [f"g{i}" for i in range(draw(st.integers(0, max_gens)))]
    return Presentation.make(gens, draw(st.lists(term_strategy(gens, max_depth=3), max_size=4)))


def eval_term_reference(t: Term, assignment: dict[str, int]) -> int:
    """One assignment at a time, by recursion on the nested lists of
    ``term_to_json`` (an oracle independent of ``eval_term``)."""
    return _eval_nested(term_to_json(t), assignment)


def _eval_nested(node, assignment: dict[str, int]) -> int:
    if node == "0" or node == "1":
        return int(node)
    if isinstance(node, str):
        try:
            return assignment[node]
        except KeyError:
            raise UnknownGenerator(node) from None
    if node[0] == "~":
        return 1 - _eval_nested(node[1], assignment)
    if node[0] == "&":
        return _eval_nested(node[1], assignment) and _eval_nested(node[2], assignment)
    return _eval_nested(node[1], assignment) or _eval_nested(node[2], assignment)


def code_of(bits) -> int:
    """The integer code of a point given as 0/1 bits, generator 0 first: the
    first bit is the most significant."""
    code = 0
    for b in bits:
        code = code << 1 | b
    return code


def point_of(code: int, n: int) -> tuple[int, ...]:
    """The 0/1 bits of an ``n``-generator point code, generator 0 first."""
    return tuple(code >> (n - 1 - i) & 1 for i in range(n))


def interleaving_pullback(point, n: int) -> tuple[int, ...]:
    """The point of binfty(2n) that a point (e, a0.., b0..) of the llpo
    product restricts to along g_2k -> a_k, g_2k+1 -> b_k (an oracle)."""
    return tuple(point[1 + m // 2] if m % 2 == 0 else point[1 + n + m // 2] for m in range(2 * n))


def codes_by_compress(p: Presentation) -> tuple[int, ...]:
    """The spectrum's codes by the table scan ``spectrum`` used to make: the
    relations' truth tables over generator masks built bit by bit, then one
    0/1 entry per assignment, compressed against the codes (an oracle)."""
    n, size = len(p.gens), 1 << len(p.gens)
    masks = {g: sum(1 << c for c in range(size) if point_of(c, n)[i]) for i, g in enumerate(p.gens)}
    full = alive = (1 << size) - 1
    for r in p.rels:
        alive &= ~eval_term(r, masks, full)
    return tuple(itertools.compress(range(size), _bits_of(alive, size)))


def truncation_tower(p: CountablePresentation, depth: int) -> tuple[FinBoolAlg, ...]:
    """Finite truncations at levels 0..depth-1, as their spectra, each level
    enumerated by the cube ``spectrum`` over all of its generators (an
    oracle for ``spectrum_tower``'s levels)."""
    return tuple(map(spectrum, truncations_from_scratch(p, depth)))


def restriction_diagram(algebras: tuple[FinBoolAlg, ...]) -> SeqDiagram:
    """Dualize a truncation tower by restriction (an oracle for
    ``spectrum_tower``'s transitions): each point drops the bits of the
    generators the lower level lacks, each run of kept bits moving down past
    the dropped bits below it as (code >> shift) & mask, and one lookup in
    the lower level's index gives its position; a code outside the lower
    spectrum gets position -1, which ``SeqDiagram`` refuses."""
    levels = tuple(alg.codes for alg in algebras)
    transitions = []
    for lower, upper in zip(algebras, algebras[1:]):
        have = set(lower.source.gens)
        kept = [b for b, g in enumerate(reversed(upper.source.gens)) if g in have]
        runs: dict[int, int] = {}  # shift -> the lower bits its run fills
        for k, b in enumerate(kept):  # the kth kept bit, b, moves down to bit k
            runs[b - k] = runs.get(b - k, 0) | 1 << k
        low = [0] * len(upper.codes)
        for shift, mask in runs.items():
            low = [x | code >> shift & mask for x, code in zip(low, upper.codes)]
        transitions.append(tuple(lower.index.get(c, -1) for c in low))
    return SeqDiagram(levels, tuple(transitions))


def tower_point_by_point(p: CountablePresentation, depth: int) -> SeqDiagram:
    """The truncation tower built one point at a time: each point of level n
    and each assignment of level n+1's new generators makes a candidate,
    kept when ``eval_term_reference`` gives relation n+1 the value 0, and the
    level is sorted by code (an oracle that reaches levels of any width)."""
    indices: list[int] = []
    points: list[dict[int, int]] = [{}]  # index -> bit
    levels, transitions = [], []
    for n in range(depth):
        r = p.relation(n)
        new = sorted({n, *(int(g[1:]) for g in generators_of(r or ()))} - set(indices))
        indices = sorted(indices + new)
        level = []
        for parent, point in enumerate(points):
            for bits in itertools.product((0, 1), repeat=len(new)):
                q = {**point, **dict(zip(new, bits))}
                if r is None or eval_term_reference(r, {f"g{i}": v for i, v in q.items()}) == 0:
                    level.append((code_of(q[i] for i in indices), parent, q))
        level.sort(key=lambda c: c[0])
        levels.append(tuple(code for code, _, _ in level))
        if n:
            transitions.append(tuple(parent for _, parent, _ in level))
        points = [q for _, _, q in level]
    return SeqDiagram(tuple(levels), tuple(transitions))


def truncations_from_scratch(p: CountablePresentation, depth: int) -> list[Presentation]:
    """Each level's presentation rebuilt from relation 0 up: relations 0..n
    and every generator they name, with g0..gn (an oracle)."""
    levels = []
    for n in range(depth):
        rels = [r for r in (p.relation(i) for i in range(n + 1)) if r is not None]
        indices = set(range(n + 1))
        for r in rels:
            indices.update(int(g[1:]) for g in generators_of(r))
        levels.append(Presentation.make([f"g{i}" for i in sorted(indices)], rels))
    return levels


def restrict_per_bit(code: int, upper: Presentation, lower: Presentation) -> int:
    """Drop the bits of the generators ``lower`` lacks from an ``upper`` code,
    one bit at a time, highest first (an oracle for the transitions)."""
    n, kept = len(upper.gens), set(lower.gens)
    for b in [n - 1 - i for i, g in enumerate(upper.gens) if g not in kept]:
        code = code >> b + 1 << b | code & (1 << b) - 1
    return code


def term_to_json(t: Term):
    """A term as nested lists: "0", "1" and names stand for themselves, and
    an operator is ``[op, *operands]``.  Its own stack reads the postfix
    tokens, and it round-trips with term_from_json."""
    stack: list = []
    for x in t:
        if x == "~":
            stack.append(["~", stack.pop()])
        elif x == "&" or x == "|":
            right = stack.pop()
            stack.append([x, stack.pop(), right])
        else:
            stack.append(x)
    (out,) = stack
    return out


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


def duality_failures_exhaustive(a: FinBoolAlg) -> tuple[Bits, ...]:
    """Every bit-vector over the spectrum that ``realize`` then ``evaluate``
    does not give back, one vector at a time (independent oracle)."""
    return tuple(
        v for v in itertools.product((0, 1), repeat=a.n_points) if evaluate(realize(v, a), a) != v
    )


def witness_from_scratch(p: Presentation, rels, bound: int):
    """Least k <= bound with p quotiented by rels[0..k] trivial, each prefix
    rebuilt as a presentation and enumerated from scratch (an oracle)."""
    for k in range(min(bound + 1, len(rels))):
        if spectrum(Presentation.make(p.gens, [*p.rels, *rels[: k + 1]])).n_points == 0:
            return k
    return None


def morphism_report_by_substitution(m: Morphism) -> MorphismReport:
    """``analyze_morphism`` from scratch, with no cached spectra or image
    tables: each source minterm's image built by substitution and evaluated,
    and the point map read off each image term evaluated over the dst
    spectrum (an oracle)."""
    src_alg, dst_alg = spectrum(m.src), spectrum(m.dst)
    killed = [
        i for i in range(src_alg.n_points) if not any(evaluate(substitute(minterm(src_alg, i), m.images), dst_alg))
    ]
    codes = [0] * dst_alg.n_points
    for g in m.src.gens:
        codes = [c << 1 | b for c, b in zip(codes, evaluate(m.images[g], dst_alg))]
    pm = tuple(src_alg.codes.index(c) for c in codes)
    surjective = set(pm) == set(range(src_alg.n_points))
    return MorphismReport(
        injective=not killed,
        kernel_size=2 ** len(killed),
        kernel_top=tuple(int(i in killed) for i in range(src_alg.n_points)),
        point_map=pm,
        point_map_surjective=surjective,
        axiom2_consistent=(not killed) == surjective,
    )


def graph_from_pairs(vertices, pairs) -> RelGraph:
    """The ``RelGraph`` of a relation given as a set of ordered vertex pairs."""
    vertices = tuple(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    adjacent: list[list[int]] = [[] for _ in vertices]
    for u, v in pairs:
        adjacent[pos[u]].append(pos[v])
    return RelGraph(vertices, tuple(tuple(sorted(row)) for row in adjacent))


@st.composite
def pair_relations(draw, max_vertices: int = 8) -> tuple[tuple, frozenset]:
    """Reflexive symmetric relations, as ordered pairs, on up to
    ``max_vertices`` distinct vertices listed in the order drawn (not sorted)."""
    vertices = tuple(draw(st.lists(st.integers(-20, 20), unique=True, max_size=max_vertices)))
    related = {(v, v) for v in vertices}
    for u, v in itertools.combinations(vertices, 2):
        if draw(st.booleans()):
            related |= {(u, v), (v, u)}
    return vertices, frozenset(related)


def rel_graphs(max_vertices: int = 8):
    """``RelGraph``s of the relations ``pair_relations`` draws."""
    return pair_relations(max_vertices).map(lambda drawn: graph_from_pairs(*drawn))


def graph_triples_exhaustive(g: RelGraph) -> list[tuple]:
    """Related triples from a scan of all V^3 vertex triples (independent oracle)."""
    related = g.related
    out = []
    for u, v, w in itertools.product(g.vertices, repeat=3):
        if (u, v) in related and (v, w) in related and (u, w) in related:
            out.append((u, v, w))
    return out


def graph_triples(g: RelGraph, pairs: list[tuple]) -> list[tuple]:
    """Related triples (u, v, w) in vertex order, walking the neighbour lists of ``pairs``."""
    related = g.related
    neighbours: dict = {}
    for u, v in pairs:
        neighbours.setdefault(u, []).append(v)
    return [
        (u, v, w)
        for u, nu in neighbours.items()
        for v in nu
        for w in neighbours[v]
        if (u, w) in related
    ]


def square_graph(n: int) -> RelGraph:
    """The product of two level-n interval graphs: pairs of vertices are
    related when each coordinate is.  Unlike circle and interval levels it
    has about 4V edges and 4V triangles, and eliminating its d0 merges
    vertices into long columns."""
    g = interval_graph(n)
    size = len(g.vertices)
    return RelGraph(
        tuple(itertools.product(g.vertices, repeat=2)),
        tuple(tuple(a * size + b for a in u for b in v) for u, v in itertools.product(g.adjacent, repeat=2)),
    )


def _graph_tower(graph: Callable[[int], RelGraph], depth: int) -> RelGraphTower:
    """Levels graph(0..depth-1) with bit-truncation transitions, each pair of
    each transition checked by the oracle tower."""
    return RelGraphTower(tuple(map(graph, range(depth))), tuple(map(restrict_graph_map, range(depth - 1))))


def interval_tower(depth: int) -> RelGraphTower:
    return _graph_tower(interval_graph, depth)


def circle_tower(depth: int) -> RelGraphTower:
    return _graph_tower(circle_graph, depth)


def square_tower(depth: int) -> RelGraphTower:
    """Square levels 0..depth-1; level n+1's vertex (a, b) goes to (a // 2, b // 2)."""
    transitions = tuple(
        tuple(a // 2 * 2**n + b // 2 for a, b in itertools.product(range(2 ** (n + 1)), repeat=2))
        for n in range(depth - 1)
    )
    return RelGraphTower(tuple(square_graph(n) for n in range(depth)), transitions)


def ordered_bases(g: RelGraph) -> tuple[tuple, list, list]:
    """The vertices as 1-tuples, the related pairs and the related triples,
    repeats included, in vertex order (the ordered complex's bases)."""
    order = {v: i for i, v in enumerate(g.vertices)}
    pairs = sorted(g.related, key=lambda p: (order[p[0]], order[p[1]]))
    return tuple((v,) for v in g.vertices), pairs, graph_triples(g, pairs)


def ordered_graph_complex(g: RelGraph) -> ChainComplexZ:
    """Augmented complex Z -> Z^V -> Z^(related pairs) -> Z^(related triples)
    on ordered tuples, repeats included (oracle for the oriented complex)."""
    b0, b1, b2 = ordered_bases(g)
    return ChainComplexZ(
        d0=_coboundary(b1, b0),
        d1=_coboundary(b2, b1),
        aug=IntMatrix(len(b0), 1, (((0, 1),),) * len(b0)),
    )


def ordered_cochain_map(fine: RelGraph, coarse: RelGraph, image) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Precomposition (m0, m1, m2) on ordered tuples along a relation-preserving
    map that sends fine vertex i to coarse position image[i]."""
    vertex_map = {v: coarse.vertices[p] for v, p in zip(fine.vertices, image)}
    maps = []
    for fine_basis, coarse_basis in zip(ordered_bases(fine), ordered_bases(coarse)):
        coarse_idx = {b: i for i, b in enumerate(coarse_basis)}
        rows = []
        for b in fine_basis:
            key = tuple(vertex_map[v] for v in b)
            if key not in coarse_idx:
                raise RelationNotPreserved(f"image tuple {key!r} not in the coarse complex")
            rows.append(((coarse_idx[key], 1),))
        maps.append(IntMatrix(len(rows), len(coarse_basis), tuple(rows)))
    m0, m1, m2 = maps
    fine_cx, coarse_cx = ordered_graph_complex(fine), ordered_graph_complex(coarse)
    if m1 @ coarse_cx.d0 != fine_cx.d0 @ m0 or m2 @ coarse_cx.d1 != fine_cx.d1 @ m1:
        raise RelationNotPreserved("pullback does not commute with the coboundaries")
    return m0, m1, m2


def oriented_bases(g: RelGraph) -> tuple[list, list, list]:
    """The strictly ascending position tuples of 1, 2 and 3 pairwise related
    vertices, from a scan of all of them (the oriented complex's bases)."""
    def related(t: tuple) -> bool:
        return all(j in g.adjacent[i] for i, j in itertools.combinations(t, 2))

    return tuple(list(filter(related, itertools.combinations(range(len(g.vertices)), k))) for k in (1, 2, 3))


def signed_pullback(fine: RelGraph, coarse: RelGraph, image) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The oriented pullback (m0, m1, m2) by sorting (oracle for
    ``induced_cochain_map``, which returns m1).

    Fine vertex i goes to coarse position image[i].  A fine simplex reads the
    coarse simplex its image sorts to, times the sign of the sorting
    permutation, and reads zero when its image repeats a position.
    """
    maps = []
    for fine_basis, coarse_basis in zip(oriented_bases(fine), oriented_bases(coarse)):
        coarse_idx = {t: i for i, t in enumerate(coarse_basis)}
        rows = []
        for t in fine_basis:
            img = [image[i] for i in t]
            if len(set(img)) < len(img):
                rows.append(())
                continue
            key = tuple(sorted(img))
            if key not in coarse_idx:
                raise RelationNotPreserved(f"image simplex {key!r} not in the coarse complex")
            inversions = sum(a > c for a, c in itertools.combinations(img, 2))
            rows.append(((coarse_idx[key], -1 if inversions % 2 else 1),))
        maps.append(IntMatrix(len(rows), len(coarse_basis), tuple(rows)))
    return tuple(maps)


def ordered_stabilization_report(tower: RelGraphTower) -> StabilizationReport:
    """``stabilization_report`` computed on the ordered complexes (oracle)."""
    complexes = [ordered_graph_complex(g) for g in tower.levels]
    results = []
    for n, cx in enumerate(complexes):
        h = homology(cx)
        results.append(LevelCohomology(n, cx.dims, h.h0, h.h1, h.exact_at))
    h0_iso, h1_iso = [], []
    for n in range(len(complexes) - 1):
        coarse, fine = complexes[n], complexes[n + 1]
        m0, m1, _ = ordered_cochain_map(tower.levels[n + 1], tower.levels[n], tower.transitions[n])
        lo, hi = results[n], results[n + 1]
        z0_hi = hi.h0.rank
        z1_hi = hi.h1.rank + hi.dims[0] - z0_hi
        surj0 = _covers_kernel(m0 @ kernel_basis(coarse.d0), z0_hi)
        h0_iso.append(lo.h0 == hi.h0 and surj0)
        surj1 = _covers_kernel(hstack(m1 @ kernel_basis(coarse.d1), fine.d0), z1_hi)
        h1_iso.append(lo.h1 == hi.h1 and surj1)
    return StabilizationReport(tuple(results), tuple(h0_iso), tuple(h1_iso))


def dense(m: IntMatrix) -> list[list[int]]:
    """The entries of ``m`` as dense rows, for the oracles that read a matrix."""
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for i, row in enumerate(m.rows):
        for j, x in row:
            out[i][j] = x
    return out


def rational_rank(m: IntMatrix) -> int:
    """Rank over the rationals by Gaussian elimination (independent oracle)."""
    rows = [[Fraction(x) for x in r] for r in dense(m)]
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


def _pattern(u: tuple[int, ...], first: int, repeat: int, n: int) -> tuple[int, ...]:
    word = u + (first,) + (repeat,) * max(n - len(u) - 1, 0)
    return word[:n]


def near_companion(n: int, s: BitWord, t: BitWord) -> bool:
    """Nearness via an exhaustive search for a common witness prefix u
    (independent oracle for ``near``).

    Both words must be truncations of u.0.111... or u.1.000... for a single
    u of length m <= n.
    """
    _check_lengths(n, s, t)
    for m in range(n + 1):
        for u in itertools.product((0, 1), repeat=m):
            p0 = _pattern(u, 0, 1, n)
            p1 = _pattern(u, 1, 0, n)
            if s.bits in (p0, p1) and t.bits in (p0, p1):
                return True
    return False
