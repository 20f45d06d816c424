"""Integer chain complexes, Smith normal form and Cech cohomology.

All arithmetic is exact over unbounded integers.  Cochain vectors are
columns and boundary maps act by left multiplication, so a degree-0
cochain space of dimension c0 meets d0 as a (c1 x c0) matrix.  Homology
groups are reported as invariant factors: free rank plus a divisibility
chain of torsion coefficients.
"""

from __future__ import annotations

import functools
import math
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

from .errors import InvariantViolated, RelationNotPreserved
from .profinite import ONE_TRANSITION_EACH, RelGraph, check_transition
from .record import record

Op = tuple[int, int, int]  # (dst, src, k): add k times line src to line dst


@record
class IntMatrix:
    """Integer matrix stored as sparse rows.

    ``rows[i]`` holds the nonzero entries of row i as (column, value) pairs
    in ascending column order.  The form is canonical, so ``==`` compares
    matrices.
    """

    nrows: int
    ncols: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise InvariantViolated(f"{len(self.rows)} rows for a {self.nrows}x{self.ncols} matrix")
        for r in self.rows:
            prev = -1
            for j, x in r:
                if not prev < j < self.ncols or not x:
                    raise InvariantViolated(f"row {r} is not a sparse row of {self.ncols} columns")
                prev = j

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product, row by row, on one of four paths:

        - an empty row gives an empty row;
        - a one-entry row a * e_k gives row k of ``other``, scaled by a;
        - a two-entry row whose two rows of ``other`` hold one entry each
          (a graph's d0 against ``aug`` or a vertex map's m0) gives those
          two entries as an ascending pair, or their sum when their columns
          agree, dropped when it is 0;
        - any other row sums its scaled rows of ``other`` in a dict, sorted.
        """
        if self.ncols != other.nrows:
            raise InvariantViolated(f"shape mismatch {self.shape} @ {other.shape}")
        orows = other.rows
        rows = []
        for r in self.rows:
            n = len(r)
            if n == 1:  # a multiple of one sorted row of ``other``
                ((k, a),) = r
                row = orows[k]
                rows.append(row if a == 1 else tuple((j, a * b) for j, b in row))
            elif not r:
                rows.append(r)
            elif n == 2 and len(x := orows[r[0][0]]) == 1 == len(y := orows[r[1][0]]):
                (_, a), (_, b) = r
                ((i, u),), ((j, v),) = x, y
                if i < j:
                    rows.append(((i, a * u), (j, b * v)))
                elif j < i:
                    rows.append(((j, b * v), (i, a * u)))
                else:
                    s = a * u + b * v
                    rows.append(((i, s),) if s else ())
            else:
                acc: dict[int, int] = {}
                for k, coeff in r:
                    for j, b in orows[k]:
                        acc[j] = acc.get(j, 0) + coeff * b
                rows.append(_sparse_row(acc))
        return IntMatrix(self.nrows, other.ncols, tuple(rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(self.rows)

    @functools.cached_property
    def _reduction(self) -> tuple[list[tuple[int, int, int]], list[Op], list[Op]]:
        """The one Smith reduction of this matrix, which every reader shares."""
        return _diagonalize(self)

    @functools.cached_property
    def _forest(self) -> Optional[tuple[list[int], list[tuple[int, int, int, int]], list[int]]]:
        """A breadth-first spanning forest of this matrix read as a graph's d0,
        or None unless every row is -e_i + e_j with i < j, as in
        ``graph_cech_complex``.

        Returns each column's component number (components numbered by their
        least column), the tree rows in breadth-first order as (row, parent,
        child, sign), and the other rows in ascending order.  Row ``row``
        reads sign * (y[child] - y[parent]) off a vertex cochain y.  Pairing
        each child with its tree row is the vertex-edge half of a discrete
        Morse matching (Forman, Adv. Math. 134, 1998): the roots and the
        other rows are the critical cells.  A matrix with no rows is its own
        forest: every column is a root.
        """
        if not self.nrows:
            return list(range(self.ncols)), [], []
        nbrs: list[list[tuple[int, int, int]]] = [[] for _ in range(self.ncols)]
        for r, row in enumerate(self.rows):
            if len(row) != 2 or row[0][1] != -1 or row[1][1] != 1:
                return None
            (i, _), (j, _) = row
            nbrs[i].append((r, j, 1))
            nbrs[j].append((r, i, -1))
        comp = [-1] * self.ncols
        tree: list[tuple[int, int, int, int]] = []
        in_tree = bytearray(self.nrows)
        roots = 0
        for s in range(self.ncols):
            if comp[s] >= 0:
                continue
            comp[s] = roots
            queue = [s]
            for u in queue:
                for r, v, sign in nbrs[u]:
                    if comp[v] < 0:
                        comp[v] = roots
                        tree.append((r, u, v, sign))
                        in_tree[r] = 1
                        queue.append(v)
            roots += 1
        return comp, tree, [r for r in range(self.nrows) if not in_tree[r]]


def _sparse_row(entries: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The canonical row of a {column: value} map, zeros dropped."""
    return tuple(sorted(item for item in entries.items() if item[1]))


def _diagonalize(m: IntMatrix) -> tuple[list[tuple[int, int, int]], list[Op], list[Op]]:
    """Sparse unimodular diagonalization (Dumas-Saunders-Villard, 2001).

    Returns the pivots as (row, column, value) in elimination order, then
    the row and the column operations (dst, src, k) in the order applied,
    each adding k times line src to line dst.  With U and V their products,
    U * m * V is zero away from the pivots.  A non-unit pivot is made to
    divide every entry left after it, so the absolute pivot values form an
    ascending divisibility chain, the nonzero invariant factors of ``m``.
    The never-pivoted columns of V generate the kernel lattice.

    Pivots follow Markowitz's rule: a unit entry with the least fill-in
    bound (row length - 1) * (column count - 1) if one exists, otherwise an
    entry of least absolute value.  They come from a lazy heap of items
    (key, row, column) that holds, for every active row, at least one item
    keyed at or below the least key among the row's entries.  A popped item
    is used only while its entry still has that key; otherwise its row goes
    back in at its current least key.  An elimination step can lower keys
    only in the rows it changes and in the rows of a column that loses an
    entry, so after each pivot only those rows are pushed again.
    """
    rows = {i: dict(r) for i, r in enumerate(m.rows) if r}
    colrows: dict[int, set[int]] = {j: set() for j in range(m.ncols)}
    for i, r in rows.items():
        for j in r:
            colrows[j].add(i)
    rowops: list[Op] = []
    colops: list[Op] = []
    # the rows changed and the columns that lost an entry since the last pivot
    changed: set[int] = set()
    thinned: set[int] = set()

    def add_row(dst: int, src: int, k: int) -> None:
        drow = rows[dst]
        for j, x in rows[src].items():
            val = drow.get(j, 0) + k * x
            if val:
                drow[j] = val
                colrows[j].add(dst)
            elif j in drow:
                del drow[j]
                colrows[j].discard(dst)
                thinned.add(j)
        changed.add(dst)
        if not drow:
            del rows[dst]
        rowops.append((dst, src, k))

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
                thinned.add(dst)
            changed.add(i)
        colops.append((dst, src, k))

    # every unit key lies below ``big``, every non-unit key above it
    big = m.nrows * m.ncols

    def best(i: int) -> tuple[int, int, int]:
        """(key, i, j) for an entry of row i with the least key."""
        row = rows[i]
        fill = len(row) - 1
        least = col = None
        for j, x in row.items():
            k = fill * (len(colrows[j]) - 1) if x == 1 or x == -1 else big + abs(x)
            if least is None or k < least:
                least, col = k, j
        return least, i, col

    # a finished pivot's row leaves ``rows``, so ``rows`` holds exactly the
    # active rows, and their entries all lie in active columns.  0 bounds the
    # key of a one-entry row, which saves a call to ``best`` for each of them
    heap = [best(i) if len(r) > 1 else (0, i, *r) for i, r in rows.items()]
    heapify(heap)
    pivots: list[tuple[int, int, int]] = []
    while heap:
        k, r, c = heappop(heap)
        row = rows.get(r)
        if row is None:
            continue
        x = row.get(c)
        # the entry's key as ``best`` computes it, without a call per pop
        if x is None or k != (
            (len(row) - 1) * (len(colrows[c]) - 1) if x == 1 or x == -1 else big + abs(x)
        ):
            heappush(heap, best(r))
            continue
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
                    (i for i in rows if i != r and any(x % p for x in rows[i].values())),
                    None,
                )
            if offender is None:
                break
            add_row(r, offender, 1)
        pivots.append((r, c, rows.pop(r)[c]))
        colrows[c].clear()
        for j in thinned:
            changed |= colrows[j]
        for i in changed & rows.keys():
            heappush(heap, best(i))
        changed.clear()
        thinned.clear()
    return pivots, rowops, colops


def _replay(vectors: list[dict[int, int]], ops: Iterable[Op]) -> list[dict[int, int]]:
    """Apply vectors[dst] += k * vectors[src] for each op (dst, src, k) in turn."""
    for dst, src, k in ops:
        v = vectors[dst]
        for j, x in vectors[src].items():
            val = v.get(j, 0) + k * x
            if val:
                v[j] = val
            elif j in v:  # a zero multiple leaves an absent entry absent
                del v[j]
    return vectors


def _v_columns(m: IntMatrix, cols: Sequence[int]) -> IntMatrix:
    """V * I[:, cols] as rows, V the product E1 * E2 * ... of ``m``'s column
    operations: V * x applies them last first, each as x[src] += k * x[dst]."""
    pos = {j: k for k, j in enumerate(cols)}
    vectors = [{pos[j]: 1} if j in pos else {} for j in range(m.ncols)]
    _replay(vectors, ((src, dst, k) for dst, src, k in reversed(m._reduction[2])))
    return IntMatrix(m.ncols, len(cols), tuple(map(_sparse_row, vectors)))


def snf_invariants(m: IntMatrix) -> list[int]:
    """Diagonal of the Smith form, read off the pivots alone, or without a
    reduction for one row or one column (its one factor is the entries'
    gcd) and for a graph's d0, which is totally unimodular: its rank is the
    number of tree rows of its spanning forest, and each factor is 1."""
    if min(m.shape) == 1:
        return [math.gcd(*(x for row in m.rows for _, x in row))]
    if m._forest is not None:
        factors = [1] * len(m._forest[1])
    else:
        factors = [abs(x) for _, _, x in m._reduction[0]]
    return factors + [0] * (min(m.nrows, m.ncols) - len(factors))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Never-pivoted columns of V: they generate the integer kernel lattice of
    ``m``.  A graph's d0 has one column per component instead, its indicator."""
    if m._forest is not None:
        comp = m._forest[0]
        return IntMatrix(m.ncols, m.ncols - len(m._forest[1]), tuple(((k, 1),) for k in comp))
    pivoted = {c for _, c, _ in m._reduction[0]}
    return _v_columns(m, [j for j in range(m.ncols) if j not in pivoted])


@record
class AbInvariants:
    """Finitely generated abelian group as free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if any(t <= 1 for t in self.torsion) or any(b % a for a, b in zip(self.torsion, self.torsion[1:])):
            raise InvariantViolated(f"torsion {self.torsion} is not a divisibility chain of factors > 1")

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


@record
class ChainComplexZ:
    """Three-term integer cochain complex with its augmentation."""

    d0: IntMatrix  # C0 -> C1
    d1: IntMatrix  # C1 -> C2
    aug: IntMatrix  # Z -> C0

    def __post_init__(self):
        if self.d1.ncols != self.d0.nrows:
            raise InvariantViolated("d1 and d0 dimensions disagree")
        if not (self.d1 @ self.d0).is_zero():
            raise InvariantViolated("d1 * d0 != 0")
        if self.aug.nrows != self.d0.ncols or self.aug.ncols != 1:
            raise InvariantViolated("augmentation has wrong shape")
        if not (self.d0 @ self.aug).is_zero():
            raise InvariantViolated("d0 * aug != 0")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d0.ncols, self.d0.nrows, self.d1.nrows)


@record
class HomologyResult:
    h0: AbInvariants  # ker d0
    h1: AbInvariants  # ker d1 / im d0
    exact_at: tuple[bool, ...]  # positions: aug, C0, C1


def homology(c: ChainComplexZ) -> HomologyResult:
    """Cohomology of the three-term complex from Smith invariants.

    The integer kernel of a matrix is a saturated sublattice, so the torsion
    of ker d1 / im d0 agrees with the torsion of the full cokernel of d0,
    which is read off the invariant factors of d0; ranks follow from
    rank-nullity.  The same argument gives ker d0 / im aug as
    Z^(rank - 1) + Z/g when the augmentation's entries have gcd g != 0, and
    as ker d0 when g = 0.
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
    g = math.gcd(*(x for r in c.aug.rows for _, x in r))
    return HomologyResult(h0=h0, h1=h1, exact_at=(g != 0, g <= 1 and h0.rank == g, h1.trivial))


def graph_cech_complex(g: RelGraph) -> ChainComplexZ:
    """Augmented oriented complex Z -> Z^V -> Z^(edges) -> Z^(triangles).

    Simplices are named by positions in ``g.vertices``: degree 1 has one
    basis element per related pair i < j and degree 2 one per pairwise
    related triple i < j < k, both in lexicographic order.  This complex is
    chain-homotopy equivalent to the ordered one on all related tuples,
    repeats included (Munkres, Elements of Algebraic Topology, section 13).
    It stops at triangles, which is enough for H0 and H1: a graph with
    4-cliques, such as the king's graph, needs no degree-3 simplex for them.
    """
    n, adj = len(g.vertices), g.adjacent
    # the neighbour lists ascend, so edges, triangles and their faces come out sorted
    edges = [(i, j) for i, row in enumerate(adj) for j in row if i < j]
    triangles = [(i, j, k) for i, j in edges for k in adj[j] if j < k and k in adj[i]]
    at = {e: m for m, e in enumerate(edges)} if triangles else {}
    d1 = tuple(((at[i, j], 1), (at[i, k], -1), (at[j, k], 1)) for i, j, k in triangles)
    return ChainComplexZ(
        d0=IntMatrix(len(edges), n, tuple(((i, -1), (j, 1)) for i, j in edges)),
        d1=IntMatrix(len(triangles), len(edges), d1),
        aug=IntMatrix(n, 1, (((0, 1),),) * n),
    )


def induced_cochain_map(fine: ChainComplexZ, coarse: ChainComplexZ, image: Sequence[int]) -> IntMatrix:
    """Pullback m1 of oriented 1-cochains along a relation-preserving vertex map.

    Fine vertex i goes to coarse position image[i]; the pullbacks m0, m1 and
    m2 send coarse cochains to fine cochains, and each is checked to commute
    with the boundary maps and the augmentations, though only m1 is
    returned.  In degree q = 1, 2, row s of fine.d_(q-1) @ m_(q-1) is zero
    when simplex s's image repeats a vertex, and otherwise plus or minus the
    row of coarse.d_(q-1) with the same columns, which belongs to the
    simplex the image sorts to: that simplex and the sign make row s of m_q.
    """
    if not all(0 <= p < coarse.d0.ncols for p in image):
        raise RelationNotPreserved("the vertex map leaves the coarse vertices")
    maps = [IntMatrix(len(image), coarse.d0.ncols, tuple(((p, 1),) for p in image))]
    for q, (fd, cd) in enumerate(((fine.d0, coarse.d0), (fine.d1, coarse.d1)), 1):
        pulled = fd @ maps[-1]
        at = {tuple(j for j, _ in r): m for m, r in enumerate(cd.rows)}
        rows = []
        for r in pulled.rows:
            if not r:  # the image repeats a vertex
                rows.append(())
                continue
            m = at.get(tuple(j for j, _ in r))
            if m is None:
                raise RelationNotPreserved(f"no degree-{q} coarse simplex has the coboundary {r}")
            rows.append(((m, r[0][1] // cd.rows[m][0][1]),))
        maps.append(IntMatrix(len(rows), cd.nrows, tuple(rows)))
        if maps[-1] @ cd != pulled:
            raise RelationNotPreserved(f"pullback does not commute with d{q - 1}")
    m0, m1, _ = maps
    if m0 @ coarse.aug != fine.aug:
        raise RelationNotPreserved("pullback does not commute with the augmentation")
    return m1


def _covers_kernel(g: IntMatrix, kernel_rank: int) -> bool:
    """Do the columns of g generate a saturated kernel lattice of the given rank?

    The columns are assumed to lie inside the kernel; because integer kernels
    are saturated, they generate the whole kernel exactly when their lattice
    has the kernel's rank and unit invariant factors.
    """
    nonzero = [x for x in snf_invariants(g) if x != 0]
    return len(nonzero) == kernel_rank and all(x == 1 for x in nonzero)


def _h1_representatives(cx: ChainComplexZ) -> IntMatrix:
    """Generators of the cocycles that vanish on the tree rows of d0's forest.

    C1 = im d0 + N is a direct sum, N the cochains that vanish on the tree
    rows, so these cocycles map isomorphically onto H1: they are the kernel
    of d1 restricted to the other rows' columns, extended by 0.
    """
    _, _, cotree = cx.d0._forest
    at = {e: k for k, e in enumerate(cotree)}
    restricted = tuple(tuple((at[j], x) for j, x in row if j in at) for row in cx.d1.rows)
    k = kernel_basis(IntMatrix(cx.d1.nrows, len(cotree), restricted))
    rows = [()] * cx.d0.nrows
    for e, row in zip(cotree, k.rows):
        rows[e] = row
    return IntMatrix(cx.d0.nrows, k.ncols, tuple(rows))


def _project_off_tree(x: IntMatrix, d0: IntMatrix) -> IntMatrix:
    """Each column of x minus the coboundary d0 y that clears it on the tree
    rows of d0's forest, read on the other rows.

    The potentials y follow the tree from each root, where y is 0: a tree
    row (row, parent, child, sign) sets y[child] = y[parent] + sign * x[row].
    """
    _, tree, cotree = d0._forest
    columns = [[0] * x.nrows for _ in range(x.ncols)]
    for r, row in enumerate(x.rows):
        for c, v in row:
            columns[c][r] = v
    out: list[list[tuple[int, int]]] = [[] for _ in cotree]
    for c, col in enumerate(columns):
        y = [0] * d0.ncols
        for r, parent, child, sign in tree:
            y[child] = y[parent] + sign * col[r]
        for k, e in enumerate(cotree):
            (i, _), (j, _) = d0.rows[e]
            val = col[e] - y[j] + y[i]
            if val:
                out[k].append((c, val))
    return IntMatrix(len(cotree), x.ncols, tuple(map(tuple, out)))


@record
class LevelCohomology:
    level: int
    dims: tuple[int, int, int]  # of the ordered complex, see _level_cohomology
    h0: AbInvariants
    h1: AbInvariants
    exact_at: tuple[bool, ...]


def _level_cohomology(level: int, cx: ChainComplexZ) -> LevelCohomology:
    """The cohomology of an oriented graph complex with V vertices, E edges
    and T triangles, reporting the dims (V, V + 2E, V + 6E + 6T) of the
    ordered complex on all related tuples, repeats included."""
    v, e, t = cx.dims
    h = homology(cx)
    return LevelCohomology(level, (v, v + 2 * e, v + 6 * e + 6 * t), h.h0, h.h1, h.exact_at)


@record
class StabilizationReport:
    levels: tuple[LevelCohomology, ...]
    h0_iso: tuple[bool, ...]  # between consecutive levels
    h1_iso: tuple[bool, ...]


def stabilization_report(levels: Iterable[RelGraph], transitions: Iterable[Sequence[int]]) -> StabilizationReport:
    """Per-level cohomology plus whether the induced maps are isomorphisms,
    two levels at a time.

    Graph n and transition n - 1, the position in level n - 1 of the image
    of each vertex of level n, are read only when the walk reaches level n;
    a graph is dropped once its complex is built, and a complex once the map
    to the level above it is checked.  The walk checks that there is one
    transition between each pair of adjacent levels and, by
    ``profinite.check_transition``, that each is a total map by position;
    ``induced_cochain_map`` checks that it keeps every related pair."""
    results, h0_iso, h1_iso = [], [], []
    transitions = iter(transitions)
    coarse = None
    for n, fine in enumerate(map(graph_cech_complex, levels)):
        results.append(_level_cohomology(n, fine))
        if coarse is not None:
            image, lo, hi = next(transitions, None), results[-2], results[-1]
            if image is None:
                raise InvariantViolated(ONE_TRANSITION_EACH)
            check_transition(n - 1, image, fine.d0.ncols, coarse.d0.ncols)
            # m1 maps im d0 into im d0, so coarse H1 covers fine H1 exactly when
            # the coarse representatives, pulled back and projected onto the fine
            # cochains that vanish on tree rows, generate the fine representatives
            pulled = induced_cochain_map(fine, coarse, image) @ _h1_representatives(coarse)
            pulled = _project_off_tree(pulled, fine.d0)
            # a surjective map between groups with equal invariants is an
            # isomorphism (finitely generated abelian groups are Hopfian).  Each
            # fine component maps into one coarse component, and the pullbacks of
            # the coarse component indicators generate the fine ones exactly when
            # no two fine components land in the same coarse component
            comp = coarse.d0._forest[0]
            h0_iso.append(lo.h0 == hi.h0 and len({comp[p] for p in image}) == hi.h0.rank)
            h1_iso.append(lo.h1 == hi.h1 and _covers_kernel(pulled, hi.h1.rank))
        coarse = fine
    if next(transitions, None) is not None:
        raise InvariantViolated(ONE_TRANSITION_EACH)
    return StabilizationReport(tuple(results), tuple(h0_iso), tuple(h1_iso))


def graph_cohomology(g: RelGraph, level: int) -> LevelCohomology:
    """Cohomology of one level of a graph tower, such as the interval's or the circle's."""
    return _level_cohomology(level, graph_cech_complex(g))
