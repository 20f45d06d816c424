"""The paper's finite-stage lemma checks, which the tests run and no command
does (README lists them), and builders of test matrices and elements."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from stonework import profinite
from stonework.boolalg import (
    Bits,
    FinBoolAlg,
    Morphism,
    Presentation,
    binfty,
    hom,
    minterm,
    point_map,
    spectrum,
)
from stonework.cli import _countable, _key_lines
from stonework.errors import InvariantViolated, RelationNotPreserved, StoneworkError
from stonework.interval import D0, D1, BitWord, Dyadic, IntervalUnion, _gaps
from stonework.profinite import RelGraph, SeqDiagram, Vertex
from stonework.record import record
from stonework.terms import Gen, Gens, Not, Term, generators_of, join, meet, parse_term
from stonework.zhomology import (
    AbInvariants,
    ChainComplexZ,
    IntMatrix,
    _replay,
    _sparse_row,
    _v_columns,
    snf_invariants,
)


class SquareNotCommuting(StoneworkError):
    def __init__(self, level: int):
        self.level = level
        super().__init__(f"levelwise map does not commute with transitions at level {level}")


class OutOfRange(StoneworkError):
    """A dyadic argument lies outside [0, 1]."""


def free(n: int) -> Presentation:
    """Free algebra on ``n`` generators g0..g{n-1}."""
    return Presentation.make([f"g{i}" for i in range(n)])


def Or(left: Term, right: Term) -> Term:
    """The disjunction of two terms; no command builds one but by ``join``."""
    return join([left, right])


def render(t: Term) -> str:
    """Concrete syntax of ``t`` with the fewest parentheses that parse back
    to it.  A stack of (text, binding) pairs reads the postfix tokens, and an
    operand is bracketed when it binds looser than its place needs: an atom
    or a negation after ``~`` and right of ``&``, a conjunction or tighter
    left of ``&`` and right of ``|``; a right operand that binds only as
    tightly as its operator would re-associate if bare."""
    stack: list[tuple[str, int]] = []

    def operand(needs: int) -> str:
        text, binds = stack.pop()
        return text if binds >= needs else f"({text})"

    for x in t:
        if x == "~":
            stack.append(("~" + operand(3), 3))
        elif x == "&" or x == "|":
            binds = 2 if x == "&" else 1
            right = operand(binds + 1)
            stack.append((f"{operand(binds)} {x} {right}", binds))
        else:
            stack.append((x, 3))
    [(text, _)] = stack
    return text


def realize(v: Bits, a: FinBoolAlg) -> Term:
    """A term whose evaluation is ``v``: disjunction of selected minterms.

    Over the empty spectrum this is the empty disjunction 0.
    """
    if len(v) != a.n_points:
        raise ValueError(f"vector length {len(v)} != {a.n_points} points")
    return join([minterm(a, i) for i, bit in enumerate(v) if bit])


def identity(p: Presentation) -> Morphism:
    return Morphism(p, p, {g: Gen(g) for g in p.gens})


def epi_mono_factor(m: Morphism) -> tuple[Morphism, FinBoolAlg, Morphism]:
    """Factor ``m`` as quotient-then-inclusion.

    The middle algebra is src quotiented by the complement of the image of
    the induced point map; its spectrum is exactly that image.
    """
    src_alg = m.src_alg
    image = set(point_map(m))
    cokernel_vec = tuple(0 if i in image else 1 for i in range(src_alg.n_points))
    extra = realize(cokernel_vec, src_alg)
    middle_pres = Presentation.make(m.src.gens, list(m.src.rels) + [extra])
    epi = hom(m.src, {g: Gen(g) for g in m.src.gens}, middle_pres)
    mono = hom(middle_pres, dict(m.images), m.dst)
    return epi, epi.dst_alg, mono


@dataclass(frozen=True)
class NormalFormBInfty:
    """Canonical form of a stage-n element: Join(I) or MeetNeg(I)."""

    kind: str  # "join" | "meetneg"
    indices: frozenset[int]

    def to_term(self) -> Term:
        gens = [Gen(f"g{i}") for i in sorted(self.indices)]
        if self.kind == "join":
            return join(gens)
        return meet([Not(g) for g in gens])

    def __str__(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.indices))
        return ("Join" if self.kind == "join" else "MeetNeg") + "{" + inner + "}"


def _binfty_point_roles(a: FinBoolAlg) -> dict[int, int]:
    """Map point-index -> generator index of the one-hot points (generator j
    of n is bit n-1-j); the all-zero point, the least code, is point 0."""
    n = len(a.source.gens)
    if not a.codes or a.codes[0] or any(c & (c - 1) for c in a.codes):
        raise ValueError("not a binfty spectrum")
    return {i: n - c.bit_length() for i, c in enumerate(a.codes) if c}


def binfty_normal_form(v: Bits, n: int) -> NormalFormBInfty:
    """Classify an element of binfty(n) as Join(I) or MeetNeg(I).

    MeetNeg(I) iff the all-zero point is selected, with I the generator
    indices of the deselected one-hot points; Join(I) otherwise with I the
    indices of the selected ones.
    """
    a = spectrum(binfty(n))
    if len(v) != a.n_points:
        raise ValueError(f"vector length {len(v)} != {a.n_points} points")
    onehot = _binfty_point_roles(a)
    if v[0]:
        indices = frozenset(g for i, g in onehot.items() if not v[i])
        return NormalFormBInfty("meetneg", indices)
    indices = frozenset(g for i, g in onehot.items() if v[i])
    return NormalFormBInfty("join", indices)


def image_of(d: SeqDiagram, n: int) -> dict:
    """Transition n as a map from level n+1's points to level n's points."""
    return dict(zip(d.levels[n + 1], map(d.levels[n].__getitem__, d.transitions[n])))


def in_index_order(d: SeqDiagram, p: profinite.CountablePresentation) -> SeqDiagram:
    """A diagram of ``spectrum_tower(p, depth)`` with each code's bits moved
    from order of arrival to index order (generator i of n at bit n-1-i),
    each level re-sorted and the transitions remapped: the layout of the
    cube oracle ``truncation_tower``.  A level of ``d`` that does not
    strictly ascend raises ``InvariantViolated``."""
    arrived: list[int] = []  # generator indices in order of arrival
    levels, transitions, rank = [], [], {}
    for n, codes in enumerate(d.levels):
        if any(a >= b for a, b in zip(codes, codes[1:])):
            raise InvariantViolated(f"level {n} does not ascend")
        named = {n, *(int(g[1:]) for g in generators_of(p.relation(n) or ()))}
        arrived += sorted(named.difference(arrived))
        top, order = len(arrived) - 1, sorted(arrived)
        runs: dict[int, int] = {}  # shift up -> the code bits it moves
        for j, i in enumerate(arrived):  # bit top - j moves to bit top - order.index(i)
            shift = j - order.index(i)
            runs[shift] = runs.get(shift, 0) | 1 << top - j
        recoded = [sum((c & m) << s if s >= 0 else (c & m) >> -s for s, m in runs.items()) for c in codes]
        ranked = sorted(range(len(codes)), key=recoded.__getitem__)
        levels.append(tuple(recoded[i] for i in ranked))
        if n:
            image = d.transitions[n - 1]
            transitions.append(tuple(rank[image[i]] for i in ranked))
        rank = {old: new for new, old in enumerate(ranked)}
    return SeqDiagram(tuple(levels), tuple(transitions))


@dataclass(frozen=True)
class ClosedTower:
    """A sequential diagram with saturated per-level selected subsets."""

    base: SeqDiagram
    selected: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.selected) != len(self.base.levels):
            raise InvariantViolated("need one selected set per level")
        for n in range(len(self.base.transitions)):
            down = image_of(self.base, n)
            if not {down[x] for x in self.selected[n + 1]} <= self.selected[n]:
                raise ValueError(f"selected sets not saturated at level {n}")


def points_at_depth(d: SeqDiagram, depth: int) -> list[tuple]:
    """All transition-compatible chains (x_0, ..., x_depth)."""
    if depth >= len(d.levels):
        raise ValueError(f"depth {depth} exceeds available levels {len(d.levels)}")
    chains = []
    for i, top in enumerate(d.levels[depth]):
        chain = [top]
        for n in range(depth - 1, -1, -1):  # follow the top point's position down
            i = d.transitions[n][i]
            chain.append(d.levels[n][i])
        chains.append(tuple(reversed(chain)))
    return chains


def closed_from_decidables(d: SeqDiagram, subsets: Sequence) -> ClosedTower:
    """Saturate per-level subsets to the projections of full compatible chains.

    A backward pass keeps points extending upward through the given subsets,
    then a forward pass drops points whose transition leaves the result; the
    selected sets are then exactly the level projections of the chains
    through all supplied levels, which satisfies the saturation invariant.
    """
    if len(subsets) != len(d.levels):
        raise ValueError("one subset per level required")
    selected = [frozenset(s) & frozenset(level) for s, level in zip(subsets, d.levels)]
    for n in range(len(d.levels) - 2, -1, -1):
        down = image_of(d, n)
        image = frozenset(down[x] for x in selected[n + 1])
        selected[n] = selected[n] & image
    for n in range(1, len(d.levels)):
        down = image_of(d, n - 1)
        selected[n] = frozenset(x for x in selected[n] if down[x] in selected[n - 1])
    return ClosedTower(d, tuple(selected))


def constraint_emptiness_witness(d: SeqDiagram, subsets: Sequence) -> Optional[int]:
    """Least k such that no chain (x_0..x_k) stays inside the subsets."""
    reachable: Optional[frozenset] = None
    for n in range(len(d.levels)):
        allowed = frozenset(subsets[n]) & frozenset(d.levels[n])
        if reachable is None:
            reachable = allowed
        else:
            down = image_of(d, n - 1)
            reachable = frozenset(x for x in allowed if down[x] in reachable)
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
    if len(maps) != len(src.levels) or len(src.levels) != len(dst.levels):
        raise ValueError("one map per level required")
    for n in range(len(src.levels) - 1):
        src_down, dst_down = image_of(src, n), image_of(dst, n)
        for x in src.levels[n + 1]:
            if maps[n][src_down[x]] != dst_down[maps[n + 1][x]]:
                raise SquareNotCommuting(n)
    mid_levels = []
    for n in range(len(src.levels)):
        image = {maps[n][x] for x in src.levels[n]}
        mid_levels.append(tuple(y for y in dst.levels[n] if y in image))
    mid_transitions = []
    for n in range(len(src.levels) - 1):
        down, at = image_of(dst, n), {y: i for i, y in enumerate(mid_levels[n])}
        mid_transitions.append(tuple(at[down[y]] for y in mid_levels[n + 1]))
    middle = SeqDiagram(tuple(mid_levels), tuple(mid_transitions))
    epi = tuple(dict(m) for m in maps)
    mono = tuple({y: y for y in level} for level in mid_levels)
    return LevelwiseFactorization(epi, middle, mono)


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


@record
class RelGraphTower:
    """Relation graphs with relation-preserving transitions level n+1 -> n
    (oracle for the checks of ``stabilization_report``'s walk).

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


def all_words(n: int) -> list[BitWord]:
    return [BitWord(bits) for bits in itertools.product((0, 1), repeat=n)]


def cs_value(w: BitWord) -> Dyadic:
    """Truncated binary-expansion value sum bits(i)/2^(i+1) = k/2^n."""
    return Dyadic(w.value, w.length)


def bit_loop_value(bits: Sequence[int]) -> int:
    """The value of a bit list with bit 0 most significant, one bit at a time."""
    k = 0
    for b in bits:
        k = 2 * k + b
    return k


def _check_lengths(n: int, s: BitWord, t: BitWord) -> None:
    if s.length != n or t.length != n:
        raise ValueError(f"expected words of length {n}, got {s.length} and {t.length}")


def near(n: int, s: BitWord, t: BitWord) -> bool:
    """Nearness as adjacency: |value(s) - value(t)| <= 1."""
    _check_lengths(n, s, t)
    return abs(s.value - t.value) <= 1


def dyadic_sub(x: Dyadic, y: Dyadic) -> Dyadic:
    """The exact difference x - y."""
    e = max(x.exp, y.exp)
    return Dyadic((x.num << (e - x.exp)) - (y.num << (e - y.exp)), e)


def dyadic_abs(d: Dyadic) -> Dyadic:
    return Dyadic(abs(d.num), d.exp)


def contains(u: IntervalUnion, d: Dyadic) -> bool:
    """Is ``d`` in ``u``?  An open part holds its endpoint 0 or 1, if it has one."""
    for lo, hi in u.parts:
        if u.kind == "closed":
            if lo <= d <= hi:
                return True
        elif lo < d < hi or d == lo == D0 or d == hi == D1:
            return True
    return False


def complement_open_union(u: IntervalUnion) -> IntervalUnion:
    """Relative complement in [0,1] of an open union, as closed parts."""
    if u.kind != "open":
        raise ValueError("expected an open union")
    return IntervalUnion("closed", _gaps(u.parts))


@dataclass(frozen=True)
class FiberPoint:
    """Eventually constant binary sequence: finite prefix then a repeated bit."""

    prefix: BitWord
    repeat: int

    def truncate(self, m: int) -> BitWord:
        bits = (self.prefix.bits + (self.repeat,) * m)[:m]
        return BitWord(bits)

    def __str__(self) -> str:
        bar = "0..." if self.repeat == 0 else "1..."
        return f"{self.prefix}{bar}"


def cs_fiber(d: Dyadic) -> list[FiberPoint]:
    """The one or two binary expansions of a dyadic in [0,1].

    Interior points k/2^n have the terminating expansion w.1.000... and the
    co-terminating one w.0.111...; the endpoints have a single expansion.
    """
    if d < D0 or D1 < d:
        raise OutOfRange(str(d))
    if d == D0:
        return [FiberPoint(BitWord(()), 0)]
    if d == D1:
        return [FiberPoint(BitWord(()), 1)]
    # d = num/2^exp with num odd, 0 < num < 2^exp, exp >= 1
    bits = tuple((d.num >> (d.exp - 1 - i)) & 1 for i in range(d.exp))
    low = FiberPoint(BitWord(bits), 0)  # ...w 1 0 0 0
    high = FiberPoint(BitWord(bits[:-1] + (0,)), 1)  # ...w 0 1 1 1
    return [low, high]


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: unimodular U, V with D = U * m * V.

    The pivot rows and columns are permuted onto the diagonal in elimination
    order, and a negative pivot's row of U is negated.
    """
    pivots, rowops, _ = m._reduction
    u = _replay([{i: 1} for i in range(m.nrows)], rowops)
    prows = [r for r, _, _ in pivots]
    pcols = [c for _, c, _ in pivots]
    row_order = prows + sorted(set(range(m.nrows)) - set(prows))
    col_order = pcols + sorted(set(range(m.ncols)) - set(pcols))
    sign = {r: -1 if x < 0 else 1 for r, _, x in pivots}
    u_rows = tuple(_sparse_row({k: sign.get(r, 1) * x for k, x in u[r].items()}) for r in row_order)
    d_rows = tuple(((i, abs(x)),) for i, (_, _, x) in enumerate(pivots))
    return (
        IntMatrix(m.nrows, m.nrows, u_rows),
        IntMatrix(m.nrows, m.ncols, d_rows + ((),) * (m.nrows - len(pivots))),
        _v_columns(m, col_order),
    )


def snf_diagonal(d: IntMatrix) -> list[int]:
    return [dict(d.rows[i]).get(i, 0) for i in range(min(d.nrows, d.ncols))]


def solve_exact(k: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Integer solution X of K X = B; raises if no exact solution exists."""
    u, d, v = snf(k)
    diag = snf_diagonal(d)
    rank = sum(1 for x in diag if x != 0)
    c = u @ b
    if any(x % diag[i] for i in range(rank) for _, x in c.rows[i]) or any(c.rows[rank:]):
        raise ValueError("no integer solution")
    y_rows = tuple(tuple((j, x // diag[i]) for j, x in c.rows[i]) for i in range(rank))
    y = IntMatrix(k.ncols, b.ncols, y_rows + ((),) * (k.ncols - rank))
    return v @ y


def quotient_invariants(ambient_rank: int, relations: IntMatrix) -> AbInvariants:
    """Invariants of Z^r modulo the column lattice of ``relations``."""
    if relations.nrows != ambient_rank:
        raise ValueError("relation matrix has wrong height")
    nonzero = [x for x in snf_invariants(relations) if x != 0]
    return AbInvariants(
        rank=ambient_rank - len(nonzero),
        torsion=tuple(x for x in nonzero if x > 1),
    )


@dataclass(frozen=True)
class FiniteCover:
    """Finite base with a finite fiber over each point and a coefficient spec.

    coefficients "trivial" uses the constant group Z; "fiber-powers" uses
    Z^(T_x) over the point x.
    """

    base: tuple[str, ...]
    fibers: tuple[tuple[str, ...], ...]
    coefficients: str = "trivial"

    def __post_init__(self):
        if len(self.base) != len(self.fibers):
            raise ValueError("one fiber per base point required")
        if self.coefficients not in ("trivial", "fiber-powers"):
            raise ValueError(f"bad coefficient spec {self.coefficients!r}")

    def coeff_indices(self, x: int) -> tuple:
        if self.coefficients == "trivial":
            return (None,)
        return self.fibers[x]


def _cover_basis(cov: FiniteCover, degree: int) -> list[tuple]:
    out = []
    for x, fiber in enumerate(cov.fibers):
        for tup in itertools.product(fiber, repeat=degree + 1):
            for c in cov.coeff_indices(x):
                out.append((x, tup, c))
    return out


def _faces(t: tuple) -> list[tuple]:
    """The tuples left by deleting each entry of ``t`` in turn."""
    return [t[:i] + t[i + 1 :] for i in range(len(t))]


def _coboundary(upper: Sequence, lower: Sequence, faces=_faces) -> IntMatrix:
    """Row k is the alternating face sum of upper[k]: sum over i of (-1)^i e_(face i)."""
    index = {b: j for j, b in enumerate(lower)}
    rows = []
    for b in upper:
        acc: dict[int, int] = {}
        for i, f in enumerate(faces(b)):
            j = index[f]
            acc[j] = acc.get(j, 0) + (-1) ** i
        rows.append(_sparse_row(acc))
    return IntMatrix(len(upper), len(lower), tuple(rows))


def cech_complex(cov: FiniteCover) -> ChainComplexZ:
    """Cech complex of a finite cover, degenerate tuples included, with the
    zero augmentation.

    A face of (x, tuple, c) deletes one entry of the tuple over the same
    point x with the same coefficient c.
    """
    b0, b1, b2 = (_cover_basis(cov, degree) for degree in range(3))

    def faces(b: tuple) -> list[tuple]:
        x, tup, c = b
        return [(x, f, c) for f in _faces(tup)]

    return ChainComplexZ(
        d0=_coboundary(b1, b0, faces),
        d1=_coboundary(b2, b1, faces),
        aug=zero_matrix(len(b0), 1),
    )


def parse_tower_file(text: str) -> profinite.CountablePresentation:
    return _countable(_key_lines(text))


def parse_term_list_by_chunks(text: str, line: int = 1, offset: int = 0, gens: Gens = None) -> list[Term]:
    """Oracle for ``terms.parse_term_list``: split at every comma and parse
    each chunk as one term from its own offset."""
    if not text.strip():
        return []
    names = None if gens is None else frozenset(gens)
    terms = []
    for chunk in text.split(","):
        terms.append(parse_term(chunk, line, offset, names))
        offset += len(chunk) + 1
    return terms


Z = AbInvariants(1)
TRIVIAL_GROUP = AbInvariants(0)


def from_rows(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> IntMatrix:
    """Matrix from dense rows of integers, as written in a literal."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise InvariantViolated(f"dense rows do not all have {ncols} entries")
    return IntMatrix(
        len(rows), ncols, tuple(tuple((j, int(x)) for j, x in enumerate(r) if x) for r in rows)
    )


def zero_matrix(nrows: int, ncols: int) -> IntMatrix:
    return IntMatrix(nrows, ncols, ((),) * nrows)


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(((i, 1),) for i in range(n)))


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.nrows != b.nrows:
        raise ValueError("row mismatch in hstack")
    rows = tuple(r + tuple((j + a.ncols, x) for j, x in s) for r, s in zip(a.rows, b.rows))
    return IntMatrix(a.nrows, a.ncols + b.ncols, rows)


def zero_element(a: FinBoolAlg) -> Bits:
    return (0,) * a.n_points


def one_element(a: FinBoolAlg) -> Bits:
    return (1,) * a.n_points
