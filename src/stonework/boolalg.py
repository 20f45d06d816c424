"""Finitely presented Boolean algebras and their spectra.

A presentation is a list of named generators plus relation terms, each
relation ``r`` meaning ``r = 0`` in the quotient.  The spectrum of a
presentation is the finite set of 0/1 assignments satisfying every
relation.  A point is kept as its integer code: generator i of n is bit
n-1-i, so ascending codes are the lexicographic order of the bit-strings
under the presentation's generator order, and ``FinBoolAlg.points`` gives
those strings.  The spectrum is found by evaluating each relation once, as
a truth table with one bit per assignment.  Elements of the algebra are
represented canonically as bit-vectors over the spectrum points, so that
equality of elements is equality of vectors.  The duality check certifies
the bijection with one truth table per point, not one per vector.
"""

from __future__ import annotations

import functools
import os
import re
from typing import Mapping, Optional, Sequence

from .errors import (
    BadArgument,
    CapExceeded,
    DuplicateGenerator,
    NotDisjoint,
    RelationNotKilled,
    UnknownGenerator,
)
from .record import record
from .terms import (
    And,
    Gen,
    Not,
    Term,
    check_term,
    eval_term,
    generators_of,
    join,
    meet,
    substitute,
)

DEFAULT_CAP = 20
# the translations from an ASCII digit to its bit and back
BIT_VALUES, DIGITS = bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"\0\1", b"01")
_ONE = re.compile("1")

Bits = tuple[int, ...]


def enumeration_cap() -> int:
    """Generator/level cap; overridable via STONEWORK_CAP (never unlimited)."""
    raw = os.environ.get("STONEWORK_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise BadArgument(f"STONEWORK_CAP must be an integer, got {raw!r}") from None


def check_cap(n: int, stage: str) -> None:
    """Raise CapExceeded, naming ``stage``, when 2^n exceeds 2^cap, the cap
    read from STONEWORK_CAP now."""
    limit = enumeration_cap()
    if n > limit:
        raise CapExceeded(n, limit, stage)


def gen_index(name: str) -> Optional[int]:
    """The index i of a generator named g<i>, i written in decimal digits, or
    None for any other name; the one reader of such names."""
    digits = name[1:]
    if name[:1] != "g" or not digits.isdecimal():
        return None
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads
        raise BadArgument(f"generator index of {len(digits)} digits is out of range") from None


@record
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
            check_term(r, seen)

    @staticmethod
    def make(gens: Sequence[str], rels: Sequence[Term] = ()) -> "Presentation":
        return Presentation(tuple(gens), tuple(rels))


def binfty(n: int) -> Presentation:
    """Stage-n truncation of the at-most-one-hit algebra.

    Generators g0..g{n-1} with relations g_i & g_j = 0 for i < j; the
    spectrum has n+1 points: the all-zero assignment and the n one-hot ones.
    """
    gens = [f"g{i}" for i in range(n)]
    rels = [And(Gen(gens[i]), Gen(gens[j])) for i in range(n) for j in range(i + 1, n)]
    return Presentation.make(gens, rels)


@record
class FinBoolAlg:
    """Spectrum of a presentation: the codes of the relation-satisfying
    points, ascending."""

    source: Presentation
    codes: tuple[int, ...]

    @property
    def n_points(self) -> int:
        return len(self.codes)

    @functools.cached_property
    def index(self) -> dict[int, int]:
        """Each point's position, by its code."""
        return {c: i for i, c in enumerate(self.codes)}

    @functools.cached_property
    def points(self) -> list[str]:
        """The points' bit-strings, generator 0 first: what the reports print."""
        top = 1 << len(self.source.gens)
        return [bin(c | top)[3:] for c in self.codes]

    @functools.cached_property
    def masks(self) -> dict[str, int]:
        """Truth tables of the generators: bit i of masks[g] is g at point i."""
        n = len(self.source.gens)
        digits = "".join(self.points)
        return {g: int(digits[j::n][::-1] or "0", 2) for j, g in enumerate(self.source.gens)}


def _bits_of(v: int, n: int) -> Bits:
    """The low ``n`` bits of ``v``, least significant first."""
    return tuple(format(v | 1 << n, "b")[:0:-1].encode().translate(BIT_VALUES))


def spectrum(p: Presentation) -> FinBoolAlg:
    """All assignments killing every relation, in lexicographic order.

    The generator masks span all 2^n assignments (bit k is the assignment of
    code k, and the cap bounds these tables): generator 0's is the high half,
    and each next one is the last XOR itself shifted right by its runs' new
    length.  Each relation's truth table is cleared from the table of all
    assignments, and one regex scan finds the "1"s that are left.
    """
    check_cap(len(p.gens), f"spectrum of {len(p.gens)} generators")
    masks, run = {}, 1 << len(p.gens)
    full = alive = m = (1 << run) - 1
    for g in p.gens:
        run >>= 1
        masks[g] = m = m ^ m >> run
    for r in p.rels:
        alive &= ~eval_term(r, masks, full)
    return FinBoolAlg(p, tuple(map(re.Match.start, _ONE.finditer(format(alive, "b")[::-1]))))


def evaluate(t: Term, a: FinBoolAlg) -> Bits:
    """Bit-vector of ``t`` over the spectrum points (the evaluation map)."""
    return _bits_of(eval_term(t, a.masks, (1 << a.n_points) - 1), a.n_points)


def minterm(a: FinBoolAlg, i: int) -> Term:
    """Full conjunction selecting exactly point ``i`` of the spectrum."""
    parts = []
    for g, bit in zip(a.source.gens, a.points[i]):
        parts.append(Gen(g) if bit == "1" else Not(Gen(g)))
    return meet(parts)


@record
class DualityReport:
    n_points: int
    n_elements: int
    bijective: bool


def check_duality(p: Presentation) -> DualityReport:
    """Check that evaluation is a bijection onto all 2^points bit-vectors.

    Evaluation is a homomorphism, so the join of the minterms that a vector
    ``v`` selects evaluates to the OR of their truth tables.  Each minterm
    evaluating to its own point's unit vector therefore proves that every
    vector is realized, at the cost of one table per point.  Injectivity is
    bit-vector equality of canonical elements, so the algebra has exactly
    2^points elements when this holds.
    """
    a = spectrum(p)
    check_cap(2 * max(a.n_points - 1, 0).bit_length(), f"duality over {a.n_points} points")  # points^2 table bits
    full = (1 << a.n_points) - 1
    bijective = all(eval_term(minterm(a, i), a.masks, full) == 1 << i for i in range(a.n_points))
    return DualityReport(n_points=a.n_points, n_elements=2 ** a.n_points, bijective=bijective)


@record
class Morphism:
    """Algebra map determined by generator images, checked well-defined.

    It carries the spectra of both ends and the image tables, each computed
    on first use.
    """

    src: Presentation
    dst: Presentation
    images: Mapping[str, Term]

    @functools.cached_property
    def src_alg(self) -> FinBoolAlg:
        return spectrum(self.src)

    @functools.cached_property
    def dst_alg(self) -> FinBoolAlg:
        return spectrum(self.dst)

    @functools.cached_property
    def image_tables(self) -> dict[str, int]:
        """Each source generator's image evaluated over the dst spectrum.
        Evaluation is a homomorphism, so a source term evaluated under these
        tables is the table of its image, with no substitution."""
        a = self.dst_alg
        full = (1 << a.n_points) - 1
        return {g: eval_term(self.images[g], a.masks, full) for g in self.src.gens}


def hom(src: Presentation, images: Mapping[str, Term], dst: Presentation) -> Morphism:
    """Build a morphism, rejecting a missing image, an image that is not a term
    over dst and a source relation that is not killed; each relation is
    evaluated once under the image tables."""
    dst_gens = set(dst.gens)
    for g in src.gens:
        if g not in images:
            raise UnknownGenerator(g)
        check_term(images[g], dst_gens)
    m = Morphism(src, dst, dict(images))
    tables, full = m.image_tables, (1 << m.dst_alg.n_points) - 1
    for idx, r in enumerate(src.rels):
        if eval_term(r, tables, full):
            raise RelationNotKilled(idx)
    return m


def point_map(m: Morphism) -> list[int]:
    """Induced map Sp(dst) -> Sp(src) by precomposition, as point indices."""
    src_alg, n = m.src_alg, m.dst_alg.n_points
    codes = [0] * n
    for g in m.src.gens:  # g's image evaluated at each point is its next bit
        codes = [c << 1 | b for c, b in zip(codes, _bits_of(m.image_tables[g], n))]
    return [src_alg.index[c] for c in codes]


@record
class MorphismReport:
    injective: bool
    kernel_size: int
    kernel_top: Bits  # largest element mapped to 0
    point_map: tuple[int, ...]  # Sp(dst) -> Sp(src), indices into src points
    point_map_surjective: bool
    axiom2_consistent: bool


def analyze_morphism(m: Morphism) -> MorphismReport:
    """Kernel, injectivity and the dual point map, checked for consistency.

    Injectivity is decided by pushing every minterm element through the
    morphism by substitution, one evaluation over the dst spectrum each (an
    element maps to 0 iff it is a join of minterms that map to 0), and
    ``kernel_top`` is read off point by point.  Surjectivity of the point map
    is computed independently, from the image tables, and the two must agree;
    read both off the tables and they would agree by construction.
    """
    src_alg, dst_alg = m.src_alg, m.dst_alg
    masks, full = dst_alg.masks, (1 << dst_alg.n_points) - 1
    images = (substitute(minterm(src_alg, i), m.images) for i in range(src_alg.n_points))
    kernel_top = tuple(int(not eval_term(t, masks, full)) for t in images)
    killed = kernel_top.count(1)
    pm = point_map(m)
    surjective = set(pm) == set(range(src_alg.n_points))
    injective = not killed
    return MorphismReport(
        injective=injective,
        kernel_size=2**killed,
        kernel_top=kernel_top,
        point_map=tuple(pm),
        point_map_surjective=surjective,
        axiom2_consistent=(injective == surjective),
    )


@record
class LlpoReport:
    stage: int
    injective: bool
    spectrum_map_surjective: bool
    decode: tuple[tuple[str, Bits], ...]  # per src point: (side, stage-n point)
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


def llpo_split(n: int) -> LlpoReport:
    """Interleaving map binfty(2n) -> binfty(n) x binfty(n) and its dual.

    Even generators go to the first factor, odd ones to the second; the map
    must be injective at every stage, so its dual is a surjection of spectra.
    Decode sends each spectrum point to a side (Left for even-indexed or
    empty support, Right for odd) with the preimage point on that side.
    """
    if n < 1:
        raise BadArgument(f"stage must be >= 1, got {n}")
    # the product's spectrum is the first one built; check it before its O(n^2) relations
    check_cap(2 * n + 1, f"spectrum of {2 * n + 1} generators")
    src = binfty(2 * n)
    dst = llpo_product_presentation(n)
    images: dict[str, Term] = {}
    for m in range(2 * n):
        k, parity = divmod(m, 2)
        images[f"g{m}"] = Gen(f"a{k}") if parity == 0 else Gen(f"b{k}")
    f = hom(src, images, dst)
    report = analyze_morphism(f)

    src_alg, dst_alg = f.src_alg, f.dst_alg
    pm = report.point_map
    decode: list[tuple[str, Bits]] = []
    consistent = True
    for i, code in enumerate(src_alg.codes):
        first = 2 * n - code.bit_length()  # least generator a nonzero point hits
        side = "right" if code and first % 2 else "left"
        beta = 1 << n - 1 - first // 2 if code else 0
        decode.append((side, _bits_of(beta, n)[::-1]))
        # the decoded point, as a product-spectrum point e a0.. b0.., must map back
        dst_code = 1 << 2 * n | beta << n if side == "left" else beta
        if pm[dst_alg.index[dst_code]] != i:
            consistent = False
    return LlpoReport(
        stage=n,
        injective=report.injective,
        spectrum_map_surjective=report.point_map_surjective,
        decode=tuple(decode),
        decode_consistent=consistent,
    )


@record
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
        if (i := gen_index(name)) is None:
            raise UnknownGenerator(name)
        indices.append(i)
    k = max(indices) if indices else -1
    # beta and gamma differ only at g{k+1}, which the term does not see, and
    # are 0 on all of its own generators
    value = eval_term(c, {f"g{i}": 0 for i in indices})
    check_cap((k + 1).bit_length(), f"wlpo sequences of {k + 2} bits")
    beta = (0,) * (k + 2)
    return WlpoReport(
        k=k,
        beta=beta,
        gamma=beta[:-1] + (1,),
        value_beta=value,
        value_gamma=value,
        verdict="fails_on_beta" if value == 1 else "fails_on_gamma",
    )


def minimal_join_witness(
    p: Presentation,
    rels: Sequence[Term],
    bound: int,
) -> Optional[int]:
    """Least k <= bound with p quotiented by rels[0..k] trivial, if any."""
    if bound < 0 or not rels:
        return None
    return _first_clearing(spectrum(p), rels[: bound + 1])


def _first_clearing(a: FinBoolAlg, rels: Sequence[Term]) -> Optional[int]:
    """Least k with no point of ``a`` killing all of rels[0..k], if any: the
    quotient by them is then trivial.  rels[k] is cleared from the table of
    points one k at a time, so each relation is evaluated once."""
    alive = full = (1 << a.n_points) - 1
    for k, r in enumerate(rels):
        alive &= ~eval_term(r, a.masks, full)
        if not alive:
            return k
    return None


def separate_closed(
    p: Presentation,
    fs: Sequence[Term],
    gs: Sequence[Term],
) -> Bits:
    """Decidable separator of two disjoint closed sets.

    F is the set of points killing every f, G the set killing every g.  The
    interleaved sequence f0,g0,f1,g1,... is searched for the least prefix
    whose quotient is trivial; with I,J the f/g indices of that prefix,
    D(x) holds iff x evaluates the join of the selected g's to 1.  The
    search runs on the spectrum, so each relation of ``p`` is evaluated once.
    """
    a = spectrum(p)
    # a point of both sets kills every f and every g
    if not all(evaluate(join([*fs, *gs]), a)):
        raise NotDisjoint("the closed sets intersect")

    interleaved: list[tuple[str, Term]] = []
    for i in range(max(len(fs), len(gs))):
        if i < len(fs):
            interleaved.append(("f", fs[i]))
        if i < len(gs):
            interleaved.append(("g", gs[i]))
    k = _first_clearing(a, [h for _, h in interleaved])
    prefix = interleaved if k is None else interleaved[: k + 1]
    return evaluate(join([h for tag, h in prefix if tag == "g"]), a)
