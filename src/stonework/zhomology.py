"""Integer chain complexes, Smith normal form and Cech cohomology.

All arithmetic is exact over unbounded integers.  Cochain vectors are
columns and boundary maps act by left multiplication, so a degree-0
cochain space of dimension c0 meets d0 as a (c1 x c0) matrix.  Homology
groups are reported as invariant factors: free rank plus a divisibility
chain of torsion coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvariantViolated, RelationNotPreserved
from .profinite import RelGraph, RelGraphTower


@dataclass(frozen=True)
class IntMatrix:
    nrows: int
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        assert len(self.rows) == self.nrows
        assert all(len(r) == self.ncols for r in self.rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return IntMatrix(len(rows), ncols, rows)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "IntMatrix":
        return IntMatrix(nrows, ncols, tuple((0,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        # accumulate row combinations, skipping zero coefficients
        rows = []
        for r in self.rows:
            acc = [0] * other.ncols
            for coeff, orow in zip(r, other.rows):
                if coeff:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += coeff * b
            rows.append(tuple(acc))
        return IntMatrix(self.nrows, other.ncols, tuple(rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.ncols)]

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        rows = tuple(a + b for a, b in zip(self.rows, other.rows)) if self.nrows else ()
        return IntMatrix(self.nrows, self.ncols + other.ncols, rows)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)


def _diagonalize(
    m: IntMatrix, track_u: bool = False, track_v: bool = False
) -> tuple[list[tuple[int, int, int]], dict[int, dict[int, int]], dict[int, dict[int, int]]]:
    """Sparse unimodular diagonalization (Dumas-Saunders-Villard, 2001).

    Returns the pivots as (row, column, value) in elimination order and,
    when requested, the accumulated row operations U as sparse rows and the
    column operations V as sparse columns: U * m * V is zero away from the
    pivot positions.  A non-unit pivot is made to divide every entry left
    after it, so the absolute pivot values form an ascending divisibility
    chain, the nonzero invariant factors of ``m``.  The never-pivoted
    columns of V generate the kernel lattice.
    """
    rows: dict[int, dict[int, int]] = {}
    colrows: dict[int, set[int]] = {j: set() for j in range(m.ncols)}
    for i, r in enumerate(m.rows):
        entries = {j: x for j, x in enumerate(r) if x}
        if entries:
            rows[i] = entries
            for j in entries:
                colrows[j].add(i)
    urows = {i: {i: 1} for i in range(m.nrows)} if track_u else {}
    vcols = {j: {j: 1} for j in range(m.ncols)} if track_v else {}

    def add_row(dst: int, src: int, k: int) -> None:
        drow = rows.setdefault(dst, {})
        for j, x in rows[src].items():
            val = drow.get(j, 0) + k * x
            if val:
                drow[j] = val
                colrows[j].add(dst)
            elif j in drow:
                del drow[j]
                colrows[j].discard(dst)
        if not drow:
            del rows[dst]
        if track_u:
            _add_scaled(urows[dst], urows[src], k)

    def add_col(dst: int, src: int, k: int) -> None:
        for i in list(colrows[src]):
            row = rows[i]
            val = row.get(dst, 0) + k * row[src]
            if val:
                row[dst] = val
                colrows[dst].add(i)
            elif dst in row:
                del row[dst]
                colrows[dst].discard(i)
        if track_v:
            _add_scaled(vcols[dst], vcols[src], k)

    # a finished pivot's row and column are zero elsewhere, so the entries of
    # the active rows all lie in active columns
    active_rows = set(rows)
    pivots: list[tuple[int, int, int]] = []
    while True:
        # pivot choice: a unit entry with the least fill-in if one exists,
        # otherwise any entry of smallest absolute value
        best = None
        best_key = None
        for i in active_rows & rows.keys():
            for j, x in rows[i].items():
                score = (
                    (0, (len(rows[i]) - 1) * (len(colrows[j]) - 1))
                    if abs(x) == 1
                    else (abs(x), 0)
                )
                if best_key is None or score < best_key:
                    best, best_key = (i, j), score
                    if score == (0, 0):
                        break
            if best_key == (0, 0):
                break
        if best is None:
            break
        r, c = best
        while True:
            # clear column c with row operations (Euclid via role swaps)
            for i in list(colrows[c] - {r}):
                while i != r and c in rows.get(i, {}):
                    q = rows[i][c] // rows[r][c]
                    add_row(i, r, -q)
                    if c in rows.get(i, {}):
                        r, i = i, r
            # clear row r with column operations; only row r is touched
            # because column c is now zero elsewhere
            swapped = False
            for j in [j for j in rows[r] if j != c]:
                while j != c and j in rows[r]:
                    q = rows[r][j] // rows[r][c]
                    add_col(j, c, -q)
                    if j in rows[r]:
                        c, j = j, c
                        swapped = True
            if swapped:
                continue
            # a pivot that does not divide some active entry absorbs that
            # entry's row; clearing again leaves a strictly smaller pivot
            p = rows[r][c]
            offender = None
            if abs(p) != 1:
                offender = next(
                    (
                        i
                        for i in active_rows & rows.keys()
                        if i != r and any(x % p for x in rows[i].values())
                    ),
                    None,
                )
            if offender is None:
                break
            add_row(r, offender, 1)
        pivots.append((r, c, rows[r][c]))
        active_rows.discard(r)
    return pivots, urows, vcols


def _add_scaled(dst: dict[int, int], src: dict[int, int], k: int) -> None:
    """Sparse vector update dst += k * src, dropping zeros."""
    for i, x in src.items():
        val = dst.get(i, 0) + k * x
        if val:
            dst[i] = val
        else:
            dst.pop(i, None)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: unimodular U, V with D = U * m * V.

    The pivot rows and columns are permuted onto the diagonal in elimination
    order, and a negative pivot's row of U is negated.
    """
    pivots, u, v = _diagonalize(m, track_u=True, track_v=True)
    prows = [r for r, _, _ in pivots]
    pcols = [c for _, c, _ in pivots]
    row_order = prows + sorted(set(range(m.nrows)) - set(prows))
    col_order = pcols + sorted(set(range(m.ncols)) - set(pcols))
    sign = {r: -1 if x < 0 else 1 for r, _, x in pivots}
    u_rows = [
        [sign.get(r, 1) * u[r].get(k, 0) for k in range(m.nrows)] for r in row_order
    ]
    v_rows = [[v[c].get(i, 0) for c in col_order] for i in range(m.ncols)]
    diag = [abs(x) for _, _, x in pivots]
    d_rows = [
        [diag[i] if i == j and i < len(diag) else 0 for j in range(m.ncols)]
        for i in range(m.nrows)
    ]
    return (
        IntMatrix.from_rows(u_rows, m.nrows),
        IntMatrix.from_rows(d_rows, m.ncols),
        IntMatrix.from_rows(v_rows, m.ncols),
    )


def snf_invariants(m: IntMatrix) -> list[int]:
    """Diagonal of the Smith form without tracking the transforms."""
    pivots, _, _ = _diagonalize(m)
    return [abs(x) for _, _, x in pivots] + [0] * (min(m.nrows, m.ncols) - len(pivots))


def snf_diagonal(d: IntMatrix) -> list[int]:
    return [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns generating the integer kernel lattice of ``m``."""
    pivots, _, vcols = _diagonalize(m, track_v=True)
    pivoted = {c for _, c, _ in pivots}
    free_cols = [j for j in range(m.ncols) if j not in pivoted]
    rows = tuple(
        tuple(vcols[j].get(i, 0) for j in free_cols) for i in range(m.ncols)
    )
    return IntMatrix(m.ncols, len(free_cols), rows)


def solve_exact(k: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Integer solution X of K X = B; raises if no exact solution exists."""
    u, d, v = snf(k)
    diag = snf_diagonal(d)
    rank = sum(1 for x in diag if x != 0)
    c = u @ b
    y_rows = []
    for i in range(k.ncols):
        row = []
        for j in range(b.ncols):
            if i < rank:
                num = c.rows[i][j]
                if num % diag[i] != 0:
                    raise ValueError("no integer solution")
                row.append(num // diag[i])
            else:
                row.append(0)
        y_rows.append(tuple(row))
    for i in range(rank, k.nrows):
        if any(c.rows[i][j] != 0 for j in range(b.ncols)):
            raise ValueError("no integer solution")
    y = IntMatrix(k.ncols, b.ncols, tuple(y_rows))
    return v @ y


@dataclass(frozen=True)
class AbInvariants:
    """Finitely generated abelian group as free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            assert b % a == 0
        assert all(t > 1 for t in self.torsion)

    @property
    def trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


Z = AbInvariants(1)
TRIVIAL_GROUP = AbInvariants(0)


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
class ChainComplexZ:
    """Three-term integer cochain complex with optional augmentation."""

    d0: IntMatrix  # C0 -> C1
    d1: IntMatrix  # C1 -> C2
    aug: Optional[IntMatrix] = None  # Z -> C0
    labels: tuple[tuple, ...] = ((), (), ())  # basis labels per degree

    def __post_init__(self):
        if self.d1.ncols != self.d0.nrows:
            raise InvariantViolated("d1 and d0 dimensions disagree")
        if not (self.d1 @ self.d0).is_zero():
            raise InvariantViolated("d1 * d0 != 0")
        if self.aug is not None:
            if self.aug.nrows != self.d0.ncols or self.aug.ncols != 1:
                raise InvariantViolated("augmentation has wrong shape")
            if not (self.d0 @ self.aug).is_zero():
                raise InvariantViolated("d0 * aug != 0")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d0.ncols, self.d0.nrows, self.d1.nrows)


@dataclass(frozen=True)
class HomologyResult:
    h0: AbInvariants  # ker d0
    h1: AbInvariants  # ker d1 / im d0
    h0_reduced: Optional[AbInvariants]  # ker d0 / im aug, when aug present
    aug_injective: Optional[bool]
    exact_at: tuple[bool, ...]  # positions: [aug,] C0 (aug only), C1


def homology(c: ChainComplexZ) -> HomologyResult:
    """Cohomology of the three-term complex from Smith invariants.

    The integer kernel of a matrix is a saturated sublattice, so the torsion
    of ker d1 / im d0 agrees with the torsion of the full cokernel of d0,
    which is read off the invariant factors of d0; ranks follow from
    rank-nullity.  The same argument handles ker d0 / im aug.
    """
    c0, c1, _ = c.dims
    inv0 = [x for x in snf_invariants(c.d0) if x != 0]
    rank0 = len(inv0)
    rank1 = sum(1 for x in snf_invariants(c.d1) if x != 0)
    h0 = AbInvariants(rank=c0 - rank0)
    h1 = AbInvariants(
        rank=(c1 - rank1) - rank0,
        torsion=tuple(x for x in inv0 if x > 1),
    )
    h0_reduced = None
    aug_injective = None
    flags: list[bool] = []
    if c.aug is not None:
        entries = [r[0] for r in c.aug.rows]
        g = math.gcd(*entries) if entries else 0
        aug_injective = g != 0
        rank_aug = 1 if aug_injective else 0
        h0_reduced = AbInvariants(
            rank=h0.rank - rank_aug,
            torsion=(g,) if g > 1 else (),
        )
        flags.append(aug_injective)
        flags.append(h0_reduced.trivial)
    flags.append(h1.trivial)
    return HomologyResult(
        h0=h0,
        h1=h1,
        h0_reduced=h0_reduced,
        aug_injective=aug_injective,
        exact_at=tuple(flags),
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


def cech_complex(cov: FiniteCover) -> ChainComplexZ:
    """Cech complex of a finite cover, degenerate tuples included.

    d0 takes differences along the pair; d1 is the alternating sum over the
    three faces of a triple (third term with a plus sign, as the cocycle
    identity requires).
    """
    b0 = _cover_basis(cov, 0)
    b1 = _cover_basis(cov, 1)
    b2 = _cover_basis(cov, 2)
    idx0 = {b: i for i, b in enumerate(b0)}
    idx1 = {b: i for i, b in enumerate(b1)}
    d0 = [[0] * len(b0) for _ in b1]
    for i, (x, (u, v), c) in enumerate(b1):
        d0[i][idx0[(x, (v,), c)]] += 1
        d0[i][idx0[(x, (u,), c)]] -= 1
    d1 = [[0] * len(b1) for _ in b2]
    for i, (x, (u, v, w), c) in enumerate(b2):
        d1[i][idx1[(x, (v, w), c)]] += 1
        d1[i][idx1[(x, (u, w), c)]] -= 1
        d1[i][idx1[(x, (u, v), c)]] += 1
    return ChainComplexZ(
        d0=IntMatrix.from_rows(d0, len(b0)),
        d1=IntMatrix.from_rows(d1, len(b1)),
        labels=(tuple(b0), tuple(b1), tuple(b2)),
    )


def _graph_pairs(g: RelGraph) -> list[tuple]:
    order = {v: i for i, v in enumerate(g.vertices)}
    return sorted(g.related, key=lambda p: (order[p[0]], order[p[1]]))


def _graph_triples(g: RelGraph) -> list[tuple]:
    out = []
    for u, v, w in itertools.product(g.vertices, repeat=3):
        if (u, v) in g.related and (v, w) in g.related and (u, w) in g.related:
            out.append((u, v, w))
    return out


def graph_cech_complex(g: RelGraph) -> ChainComplexZ:
    """Augmented complex Z -> Z^V -> Z^(related pairs) -> Z^(related triples)."""
    b0 = list(g.vertices)
    b1 = _graph_pairs(g)
    b2 = _graph_triples(g)
    idx0 = {v: i for i, v in enumerate(b0)}
    idx1 = {p: i for i, p in enumerate(b1)}
    d0 = [[0] * len(b0) for _ in b1]
    for i, (u, v) in enumerate(b1):
        d0[i][idx0[v]] += 1
        d0[i][idx0[u]] -= 1
    d1 = [[0] * len(b1) for _ in b2]
    for i, (u, v, w) in enumerate(b2):
        d1[i][idx1[(v, w)]] += 1
        d1[i][idx1[(u, w)]] -= 1
        d1[i][idx1[(u, v)]] += 1
    aug = IntMatrix.from_rows([[1]] * len(b0), 1)
    return ChainComplexZ(
        d0=IntMatrix.from_rows(d0, len(b0)),
        d1=IntMatrix.from_rows(d1, len(b1)),
        aug=aug,
        labels=(tuple(b0), tuple(b1), tuple(b2)),
    )


@dataclass(frozen=True)
class CochainMap:
    """Pullback along a graph morphism, from the coarse complex to the fine one."""

    m0: IntMatrix
    m1: IntMatrix
    m2: IntMatrix


def induced_cochain_map(
    fine: ChainComplexZ, coarse: ChainComplexZ, vertex_map: dict
) -> CochainMap:
    """Precomposition on tuples along a relation-preserving vertex map.

    ``vertex_map`` sends fine vertices to coarse vertices; the resulting
    matrices send coarse cochains to fine cochains and commute with the
    boundary maps and the augmentations.
    """
    maps = []
    for degree in range(3):
        fine_basis = fine.labels[degree]
        coarse_basis = coarse.labels[degree]
        coarse_idx = {b: i for i, b in enumerate(coarse_basis)}
        rows = []
        for b in fine_basis:
            mapped = tuple(vertex_map[v] for v in (b if isinstance(b, tuple) else (b,)))
            key = mapped if degree > 0 else mapped[0]
            if key not in coarse_idx:
                raise RelationNotPreserved(f"image tuple {key!r} not in the coarse complex")
            row = [0] * len(coarse_basis)
            row[coarse_idx[key]] = 1
            rows.append(tuple(row))
        maps.append(IntMatrix.from_rows(rows, len(coarse_basis)))
    m0, m1, m2 = maps
    if (m1 @ coarse.d0).rows != (fine.d0 @ m0).rows:
        raise RelationNotPreserved("pullback does not commute with d0")
    if (m2 @ coarse.d1).rows != (fine.d1 @ m1).rows:
        raise RelationNotPreserved("pullback does not commute with d1")
    if fine.aug is not None and coarse.aug is not None:
        if (m0 @ coarse.aug).rows != fine.aug.rows:
            raise RelationNotPreserved("pullback does not commute with the augmentation")
    return CochainMap(m0, m1, m2)


def _covers_kernel(generators: IntMatrix, kernel_rank: int) -> bool:
    """Do the columns generate a saturated kernel lattice of the given rank?

    The columns are assumed to lie inside the kernel; because integer kernels
    are saturated, they generate the whole kernel exactly when their lattice
    has the kernel's rank and unit invariant factors.
    """
    nonzero = [x for x in snf_invariants(generators) if x != 0]
    return len(nonzero) == kernel_rank and all(x == 1 for x in nonzero)


@dataclass(frozen=True)
class LevelCohomology:
    level: int
    dims: tuple[int, int, int]
    h0: AbInvariants
    h1: AbInvariants
    exact_at: tuple[bool, ...]


@dataclass(frozen=True)
class StabilizationReport:
    levels: tuple[LevelCohomology, ...]
    h0_iso: tuple[bool, ...]  # between consecutive levels
    h1_iso: tuple[bool, ...]


def stabilization_report(tower: RelGraphTower, depth: int) -> StabilizationReport:
    """Per-level cohomology plus whether the induced maps are isomorphisms."""
    if depth > len(tower.levels):
        raise ValueError("depth exceeds available levels")
    complexes = [graph_cech_complex(g) for g in tower.levels[:depth]]
    results = []
    for n, cx in enumerate(complexes):
        h = homology(cx)
        results.append(LevelCohomology(n, cx.dims, h.h0, h.h1, h.exact_at))
    h0_iso, h1_iso = [], []
    for n in range(depth - 1):
        coarse, fine = complexes[n], complexes[n + 1]
        cmap = induced_cochain_map(fine, coarse, tower.transitions[n])
        lo, hi = results[n], results[n + 1]
        # kernel ranks at the target level, by rank-nullity from the reports
        z0_hi = hi.h0.rank
        rank0_hi = hi.dims[0] - z0_hi
        z1_hi = hi.h1.rank + rank0_hi
        # a surjective map between groups with equal invariants is an
        # isomorphism (finitely generated abelian groups are Hopfian)
        k0 = kernel_basis(coarse.d0)
        surj0 = _covers_kernel(cmap.m0 @ k0, z0_hi)
        h0_iso.append(lo.h0 == hi.h0 and surj0)
        k1 = kernel_basis(coarse.d1)
        surj1 = _covers_kernel((cmap.m1 @ k1).hstack(fine.d0), z1_hi)
        h1_iso.append(lo.h1 == hi.h1 and surj1)
    return StabilizationReport(tuple(results), tuple(h0_iso), tuple(h1_iso))


def graph_cohomology(g: RelGraph, level: int) -> LevelCohomology:
    """Cohomology of one level of a graph tower, such as the interval's or the circle's."""
    cx = graph_cech_complex(g)
    h = homology(cx)
    return LevelCohomology(level, cx.dims, h.h0, h.h1, h.exact_at)
