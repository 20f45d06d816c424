"""Finitely presented Boolean algebras and their spectra.

A presentation is a list of named generators plus relation terms, each
relation ``r`` meaning ``r = 0`` in the quotient.  The spectrum of a
presentation is the finite set of 0/1 assignments satisfying every
relation, kept in lexicographic order of their bit-strings under the
presentation's generator order.  Elements of the algebra are represented
canonically as bit-vectors over the spectrum points, so that equality of
elements is equality of vectors and the duality check is an exhaustive
bijection test.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import (
    BadSetting,
    CapExceeded,
    DuplicateGenerator,
    NotDisjoint,
    RelationNotKilled,
    UnknownGenerator,
)
from .terms import (
    And,
    Gen,
    Not,
    ONE,
    Term,
    ZERO,
    eval_term,
    generators_of,
    join,
    meet,
    substitute,
)

DEFAULT_CAP = 20

Point = tuple[int, ...]
Bits = tuple[int, ...]


def enumeration_cap() -> int:
    """Generator/level cap; overridable via STONEWORK_CAP (never unlimited)."""
    raw = os.environ.get("STONEWORK_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise BadSetting(f"STONEWORK_CAP must be an integer, got {raw!r}") from None


def check_cap(n: int, cap: Optional[int]) -> None:
    """Raise CapExceeded when 2^n exceeds 2^cap (the configured cap if None)."""
    limit = enumeration_cap() if cap is None else cap
    if n > limit:
        raise CapExceeded(n, limit)


@dataclass(frozen=True)
class Presentation:
    """Ordered generators plus relations (each relation asserts term = 0)."""

    gens: tuple[str, ...]
    rels: tuple[Term, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for g in self.gens:
            if g in seen:
                raise DuplicateGenerator(g)
            seen.add(g)
        for r in self.rels:
            for name in generators_of(r):
                if name not in seen:
                    raise UnknownGenerator(name)

    @staticmethod
    def make(gens: Sequence[str], rels: Sequence[Term] = ()) -> "Presentation":
        return Presentation(tuple(gens), tuple(rels))


def free(n: int, prefix: str = "g") -> Presentation:
    """Free algebra on ``n`` generators g0..g{n-1}."""
    return Presentation.make([f"{prefix}{i}" for i in range(n)])


def binfty(n: int) -> Presentation:
    """Stage-n truncation of the at-most-one-hit algebra.

    Generators g0..g{n-1} with relations g_i & g_j = 0 for i < j; the
    spectrum has n+1 points: the all-zero assignment and the n one-hot ones.
    """
    gens = [f"g{i}" for i in range(n)]
    rels = [And(Gen(gens[i]), Gen(gens[j])) for i in range(n) for j in range(i + 1, n)]
    return Presentation.make(gens, rels)


@dataclass(frozen=True)
class FinBoolAlg:
    """Spectrum of a presentation: the relation-satisfying points, lex-ordered."""

    source: Presentation
    points: tuple[Point, ...]

    def assignment(self, i: int) -> dict[str, int]:
        return dict(zip(self.source.gens, self.points[i]))

    @property
    def n_points(self) -> int:
        return len(self.points)

    def point_index(self, point: Point) -> int:
        return self.points.index(point)

    def zero(self) -> Bits:
        return (0,) * self.n_points

    def one(self) -> Bits:
        return (1,) * self.n_points


@functools.lru_cache(maxsize=512)
def _enumerate_spectrum(p: Presentation) -> FinBoolAlg:
    pts = []
    for bits in itertools.product((0, 1), repeat=len(p.gens)):
        a = dict(zip(p.gens, bits))
        if all(eval_term(r, a) == 0 for r in p.rels):
            pts.append(bits)
    return FinBoolAlg(p, tuple(pts))


def spectrum(p: Presentation, cap: Optional[int] = None) -> FinBoolAlg:
    """Enumerate all assignments and keep those killing every relation.

    The enumeration is pure in the presentation and cached; the cap is
    checked on every call so environment overrides keep taking effect.
    """
    check_cap(len(p.gens), cap)
    return _enumerate_spectrum(p)


def evaluate(t: Term, a: FinBoolAlg) -> Bits:
    """Bit-vector of ``t`` over the spectrum points (the evaluation map)."""
    return tuple(eval_term(t, a.assignment(i)) for i in range(a.n_points))


def minterm(a: FinBoolAlg, i: int) -> Term:
    """Full conjunction selecting exactly point ``i`` of the spectrum."""
    parts = []
    for g, bit in zip(a.source.gens, a.points[i]):
        parts.append(Gen(g) if bit else Not(Gen(g)))
    return meet(parts)


def realize(v: Bits, a: FinBoolAlg) -> Term:
    """A term whose evaluation is ``v``: disjunction of selected minterms.

    Over the empty spectrum this is the empty disjunction 0.
    """
    if len(v) != a.n_points:
        raise ValueError(f"vector length {len(v)} != {a.n_points} points")
    return join([minterm(a, i) for i, bit in enumerate(v) if bit])


@dataclass(frozen=True)
class DualityReport:
    n_gens: int
    n_points: int
    n_elements: int
    bijective: bool
    failures: tuple[Bits, ...] = ()


def check_duality(p: Presentation, cap: Optional[int] = None) -> DualityReport:
    """Exhaustively check that evaluation is a bijection onto 2^points.

    Surjectivity is checked via realize on every bit-vector; injectivity is
    bit-vector equality of canonical elements, so the algebra has exactly
    2^|points| elements when the check passes.
    """
    a = spectrum(p, cap)
    check_cap(a.n_points, cap)
    failures = []
    for v in itertools.product((0, 1), repeat=a.n_points):
        if evaluate(realize(v, a), a) != v:
            failures.append(v)
    return DualityReport(
        n_gens=len(p.gens),
        n_points=a.n_points,
        n_elements=2 ** a.n_points,
        bijective=not failures,
        failures=tuple(failures),
    )


def is_trivial(a: FinBoolAlg) -> bool:
    """True iff the spectrum is empty, i.e. 0 = 1 in the algebra."""
    return a.n_points == 0


@dataclass(frozen=True)
class Morphism:
    """Algebra map determined by generator images, checked well-defined."""

    src: Presentation
    dst: Presentation
    images: Mapping[str, Term]

    def apply(self, t: Term) -> Term:
        return substitute(t, self.images)


def hom(
    src: Presentation,
    images: Mapping[str, Term],
    dst: Presentation,
    cap: Optional[int] = None,
) -> Morphism:
    """Build a morphism, rejecting it if some source relation is not killed."""
    for g in src.gens:
        if g not in images:
            raise UnknownGenerator(g)
    dst_alg = spectrum(dst, cap)
    for idx, r in enumerate(src.rels):
        image = substitute(r, images)
        if any(evaluate(image, dst_alg)):
            raise RelationNotKilled(idx)
    return Morphism(src, dst, dict(images))


def identity(p: Presentation) -> Morphism:
    return Morphism(p, p, {g: Gen(g) for g in p.gens})


def point_map(m: Morphism, cap: Optional[int] = None) -> list[int]:
    """Induced map Sp(dst) -> Sp(src) by precomposition, as point indices."""
    src_alg = spectrum(m.src, cap)
    dst_alg = spectrum(m.dst, cap)
    out = []
    for i in range(dst_alg.n_points):
        a = dst_alg.assignment(i)
        pt = tuple(eval_term(m.images[g], a) for g in m.src.gens)
        out.append(src_alg.point_index(pt))
    return out


@dataclass(frozen=True)
class MorphismReport:
    injective: bool
    kernel_size: int
    kernel_top: Bits  # largest element mapped to 0
    point_map: tuple[int, ...]  # Sp(dst) -> Sp(src), indices into src points
    point_map_surjective: bool
    axiom2_consistent: bool


def analyze_morphism(m: Morphism, cap: Optional[int] = None) -> MorphismReport:
    """Kernel, injectivity and the dual point map, checked for consistency.

    Injectivity is decided by pushing every minterm element through the
    morphism by substitution (an element maps to 0 iff it is a join of
    minterms that map to 0); surjectivity of the point map is computed
    independently by precomposition, and the two must agree.
    """
    src_alg = spectrum(m.src, cap)
    dst_alg = spectrum(m.dst, cap)
    killed = []
    for i in range(src_alg.n_points):
        img = evaluate(m.apply(minterm(src_alg, i)), dst_alg)
        if not any(img):
            killed.append(i)
    kernel_top = tuple(1 if i in killed else 0 for i in range(src_alg.n_points))
    pm = point_map(m, cap)
    surjective = set(pm) == set(range(src_alg.n_points))
    injective = not killed
    return MorphismReport(
        injective=injective,
        kernel_size=2 ** len(killed),
        kernel_top=kernel_top,
        point_map=tuple(pm),
        point_map_surjective=surjective,
        axiom2_consistent=(injective == surjective),
    )


def epi_mono_factor(
    m: Morphism, cap: Optional[int] = None
) -> tuple[Morphism, FinBoolAlg, Morphism]:
    """Factor ``m`` as quotient-then-inclusion.

    The middle algebra is src quotiented by the complement of the image of
    the induced point map; its spectrum is exactly that image.
    """
    src_alg = spectrum(m.src, cap)
    pm = point_map(m, cap)
    image = set(pm)
    cokernel_vec = tuple(0 if i in image else 1 for i in range(src_alg.n_points))
    extra = realize(cokernel_vec, src_alg)
    middle_pres = Presentation.make(m.src.gens, list(m.src.rels) + [extra])
    middle = spectrum(middle_pres, cap)
    epi = hom(m.src, {g: Gen(g) for g in m.src.gens}, middle_pres, cap)
    mono = hom(middle_pres, dict(m.images), m.dst, cap)
    return epi, middle, mono


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


def _binfty_point_roles(a: FinBoolAlg) -> tuple[int, dict[int, int]]:
    """Index of the all-zero point and map point-index -> generator index."""
    zero_idx = None
    onehot: dict[int, int] = {}
    for i, pt in enumerate(a.points):
        support = [j for j, b in enumerate(pt) if b]
        if not support:
            zero_idx = i
        elif len(support) == 1:
            onehot[i] = support[0]
        else:
            raise ValueError("not a binfty spectrum")
    if zero_idx is None:
        raise ValueError("not a binfty spectrum")
    return zero_idx, onehot


def binfty_normal_form(v: Bits, n: int, cap: Optional[int] = None) -> NormalFormBInfty:
    """Classify an element of binfty(n) as Join(I) or MeetNeg(I).

    MeetNeg(I) iff the all-zero point is selected, with I the generator
    indices of the deselected one-hot points; Join(I) otherwise with I the
    indices of the selected ones.
    """
    a = spectrum(binfty(n), cap)
    if len(v) != a.n_points:
        raise ValueError(f"vector length {len(v)} != {a.n_points} points")
    zero_idx, onehot = _binfty_point_roles(a)
    if v[zero_idx]:
        indices = frozenset(g for i, g in onehot.items() if not v[i])
        return NormalFormBInfty("meetneg", indices)
    indices = frozenset(g for i, g in onehot.items() if v[i])
    return NormalFormBInfty("join", indices)


@dataclass(frozen=True)
class LlpoReport:
    stage: int
    injective: bool
    spectrum_map: tuple[int, ...]  # Sp(dst) -> Sp(src) point indices
    spectrum_map_surjective: bool
    decode: tuple[tuple[str, Point], ...]  # per src point: (side, stage-n point)
    decode_consistent: bool


def llpo_product_presentation(n: int) -> Presentation:
    """Presentation of binfty(n) x binfty(n).

    Generators: a marker e for the first factor, then a0.. (first factor,
    below e) and b0.. (second factor, below ~e).
    """
    gens = ["e"] + [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    rels: list[Term] = []
    for i in range(n):
        for j in range(i + 1, n):
            rels.append(And(Gen(f"a{i}"), Gen(f"a{j}")))
            rels.append(And(Gen(f"b{i}"), Gen(f"b{j}")))
    for i in range(n):
        rels.append(And(Gen(f"a{i}"), Not(Gen("e"))))
        rels.append(And(Gen(f"b{i}"), Gen("e")))
    return Presentation.make(gens, rels)


def llpo_split(n: int, cap: Optional[int] = None) -> LlpoReport:
    """Interleaving map binfty(2n) -> binfty(n) x binfty(n) and its dual.

    Even generators go to the first factor, odd ones to the second; the map
    must be injective at every stage, so its dual is a surjection of spectra.
    Decode sends each spectrum point to a side (Left for even-indexed or
    empty support, Right for odd) with the preimage point on that side.
    """
    if n < 1:
        raise ValueError("stage must be >= 1")
    src = binfty(2 * n)
    dst = llpo_product_presentation(n)
    images: dict[str, Term] = {}
    for m in range(2 * n):
        k, parity = divmod(m, 2)
        images[f"g{m}"] = Gen(f"a{k}") if parity == 0 else Gen(f"b{k}")
    f = hom(src, images, dst, cap)
    report = analyze_morphism(f, cap)

    src_alg = spectrum(src, cap)
    pm = report.point_map
    decode: list[tuple[str, Point]] = []
    consistent = True
    dst_alg = spectrum(dst, cap)
    for i, pt in enumerate(src_alg.points):
        support = [j for j, b in enumerate(pt) if b]
        if not support:
            side, beta = "left", (0,) * n
        elif support[0] % 2 == 0:
            side, beta = "left", tuple(1 if 2 * j == support[0] else 0 for j in range(n))
        else:
            side, beta = "right", tuple(1 if 2 * j + 1 == support[0] else 0 for j in range(n))
        decode.append((side, beta))
        # the decoded point, seen as a product-spectrum point, must map back to pt
        if side == "left":
            dst_pt = (1,) + beta + (0,) * n
        else:
            dst_pt = (0,) + (0,) * n + beta
        if pm[dst_alg.point_index(dst_pt)] != i:
            consistent = False
    return LlpoReport(
        stage=n,
        injective=report.injective,
        spectrum_map=pm,
        spectrum_map_surjective=report.point_map_surjective,
        decode=tuple(decode),
        decode_consistent=consistent,
    )


_GIDX = re.compile(r"^g(\d+)$")


@dataclass(frozen=True)
class WlpoReport:
    k: int
    beta: tuple[int, ...]  # assignment to g0..g{k+1}
    gamma: tuple[int, ...]
    value_beta: int
    value_gamma: int
    verdict: str  # "fails_on_beta" | "fails_on_gamma"


def wlpo_counterexample(c: Term) -> WlpoReport:
    """Refute a candidate all-zero decider given by a single term.

    The term only sees generators up to its maximal index k, so the all-zero
    sequence and the one hitting 1 first at k+1 evaluate identically; a
    correct decider would have to separate them.
    """
    indices = []
    for name in generators_of(c):
        m = _GIDX.match(name)
        if m is None:
            raise UnknownGenerator(name)
        indices.append(int(m.group(1)))
    k = max(indices) if indices else -1
    names = [f"g{i}" for i in range(k + 2)]
    beta = {g: 0 for g in names}
    gamma = {g: 0 for g in names}
    gamma[f"g{k + 1}"] = 1
    vb = eval_term(c, beta)
    vg = eval_term(c, gamma)
    verdict = "fails_on_beta" if vb == 1 else "fails_on_gamma"
    return WlpoReport(
        k=k,
        beta=tuple(beta[g] for g in names),
        gamma=tuple(gamma[g] for g in names),
        value_beta=vb,
        value_gamma=vg,
        verdict=verdict,
    )


def minimal_join_witness(
    p: Presentation,
    rels: Sequence[Term],
    bound: int,
    cap: Optional[int] = None,
) -> Optional[int]:
    """Least k <= bound with p quotiented by rels[0..k] trivial, if any."""
    current = list(p.rels)
    for k, r in enumerate(rels[: bound + 1]):
        current.append(r)
        if is_trivial(spectrum(Presentation.make(p.gens, current), cap)):
            return k
    return None


def separate_closed(
    p: Presentation,
    fs: Sequence[Term],
    gs: Sequence[Term],
    cap: Optional[int] = None,
) -> Bits:
    """Decidable separator of two disjoint closed sets.

    F is the set of points killing every f, G the set killing every g.  The
    interleaved sequence f0,g0,f1,g1,... is searched for the least prefix
    whose quotient is trivial; with I,J the f/g indices of that prefix,
    D(x) holds iff x evaluates the join of the selected g's to 1.
    """
    a = spectrum(p, cap)
    f_vecs = [evaluate(f, a) for f in fs]
    g_vecs = [evaluate(g, a) for g in gs]
    in_f = [all(v[i] == 0 for v in f_vecs) for i in range(a.n_points)]
    in_g = [all(v[i] == 0 for v in g_vecs) for i in range(a.n_points)]
    if any(f and g for f, g in zip(in_f, in_g)):
        raise NotDisjoint("the closed sets intersect")

    interleaved: list[tuple[str, Term]] = []
    for i in range(max(len(fs), len(gs))):
        if i < len(fs):
            interleaved.append(("f", fs[i]))
        if i < len(gs):
            interleaved.append(("g", gs[i]))
    prefix: list[Term] = []
    selected_gs: list[Term] = []
    for tag, h in interleaved:
        prefix.append(h)
        if tag == "g":
            selected_gs.append(h)
        quotient = Presentation.make(p.gens, list(p.rels) + prefix)
        if is_trivial(spectrum(quotient, cap)):
            break
    return evaluate(join(selected_gs), a)
