"""Integer matrices, Smith normal form and graph/cover cohomology."""

import itertools
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    circle_tower,
    dense,
    graph_from_pairs,
    graph_triples_exhaustive,
    interval_tower,
    ordered_bases,
    ordered_graph_complex,
    ordered_stabilization_report,
    oriented_bases,
    pair_relations,
    rational_rank,
    rel_graphs,
    signed_pullback,
    square_graph,
    square_tower,
)
from lemmas import (
    FiniteCover,
    RelGraphTower,
    TRIVIAL_GROUP,
    Z,
    _coboundary,
    cech_complex,
    equality_graph,
    from_rows,
    hstack,
    identity_matrix,
    quotient_invariants,
    snf,
    snf_diagonal,
    solve_exact,
    zero_matrix,
)
from stonework import zhomology
from stonework.errors import InvariantViolated, RelationNotPreserved
from stonework.interval import circle_graph, interval_graph, restrict_graph_map
from stonework.profinite import RelGraph
from stonework.zhomology import (
    AbInvariants,
    ChainComplexZ,
    IntMatrix,
    graph_cech_complex,
    graph_cohomology,
    homology,
    induced_cochain_map,
    kernel_basis,
    snf_invariants,
    stabilization_report,
)


def det(m: IntMatrix) -> Fraction:
    """Determinant over the rationals (test-side oracle)."""
    assert m.nrows == m.ncols
    n = m.nrows
    rows = [[Fraction(x) for x in r] for r in dense(m)]
    out = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            out = -out
        out *= rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return out


matrix_strategy = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        ).map(from_rows)
    )
)

# rows of matrices whose Euclid steps log operations with a zero multiple
ZERO_MULTIPLE_OPS = ([[0, -8, 0, 0, -2], [0, -9, 0, 0, -2]], [[-6, 1, -4], [-6, -8, 4], [-7, 3, -6]])


def determinantal_invariants(m: IntMatrix) -> list[int]:
    """Invariant factors s_k = d_k / d_(k-1), d_k the gcd of all k x k minors."""
    size = min(m.nrows, m.ncols)
    entries = dense(m)
    out = []
    prev = 1
    for k in range(1, size + 1):
        d = 0
        for rs in itertools.combinations(range(m.nrows), k):
            for cs in itertools.combinations(range(m.ncols), k):
                minor = from_rows([[entries[i][j] for j in cs] for i in rs])
                d = math.gcd(d, int(det(minor)))
        if d == 0:
            # every larger minor vanishes too
            return out + [0] * (size - len(out))
        out.append(d // prev)
        prev = d
    return out


small_matrix_strategy = st.integers(1, 4).flatmap(
    lambda nr: st.integers(1, 4).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-40, 40), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        ).map(from_rows)
    )
)


def tie_heavy_matrices(max_size: int) -> st.SearchStrategy[IntMatrix]:
    """Sparse matrices whose entries are mostly +-1 with an occasional +-2:
    many pivot keys tie, keys go stale as fill-in grows, and a +-2 pivot
    has to absorb a row it does not divide."""
    entries = st.sampled_from((0,) * 10 + (1, -1) * 3 + (2, -2))
    return st.integers(1, max_size).flatmap(
        lambda nr: st.integers(1, max_size).flatmap(
            lambda nc: st.lists(
                st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr
            ).map(from_rows)
        )
    )


@st.composite
def sparse_factors(draw) -> tuple[IntMatrix, IntMatrix]:
    """Pairs of mostly zero matrices that can be multiplied, each side 0-5."""
    entries = st.sampled_from((0,) * 6 + (1, -1, 2, -3))

    def matrix(nrows: int, ncols: int) -> IntMatrix:
        rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
        return from_rows(rows, ncols)

    nrows, inner, ncols = (draw(st.integers(0, 5)) for _ in range(3))
    return matrix(nrows, inner), matrix(inner, ncols)


# two-entry rows against two one-entry rows: the product's columns come out
# ascending, descending, equal and cancelling, equal and summing to 5, and
# with non-unit coefficients on both sides
TWO_ENTRY_PRODUCTS = tuple(
    (from_rows(a), from_rows(b))
    for a, b in (
        ([[2, 3]], [[0, 5, 0], [0, 0, -7]]),
        ([[2, 3]], [[0, 0, -7], [0, 5, 0]]),
        ([[-1, 1], [1, 0]], [[1], [1]]),
        ([[2, 3]], [[0, 1], [0, 1]]),
        ([[0, -2, 3]], [[1, 0], [0, 5], [-4, 0]]),
    )
)


class TestIntMatrix:
    def test_matmul(self):
        a = from_rows([[1, 2], [3, 4]])
        b = from_rows([[0, 1], [1, 0]])
        assert a @ b == from_rows([[2, 1], [4, 3]])

    def test_matmul_by_one_entry_rows(self):
        # rows with one entry copy or scale a row of the right factor
        a = from_rows([[0, -3], [1, 0], [0, 0]])
        b = from_rows([[0, 2, 5], [7, 0, -1]])
        assert a @ b == from_rows([[-21, 0, 3], [0, 2, 5], [0, 0, 0]])

    @given(sparse_factors())
    @settings(max_examples=300, deadline=None)
    @example(TWO_ENTRY_PRODUCTS[0])
    @example(TWO_ENTRY_PRODUCTS[1])
    @example(TWO_ENTRY_PRODUCTS[2])
    @example(TWO_ENTRY_PRODUCTS[3])
    @example(TWO_ENTRY_PRODUCTS[4])
    def test_matmul_matches_the_dense_product(self, factors):
        a, b = factors
        left, right = dense(a), dense(b)
        product = [[sum(x * right[k][j] for k, x in enumerate(row)) for j in range(b.ncols)] for row in left]
        assert a @ b == from_rows(product, b.ncols)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(InvariantViolated):
            zero_matrix(2, 3) @ zero_matrix(2, 3)

    def test_identity_and_zero(self):
        assert identity_matrix(2) == from_rows([[1, 0], [0, 1]])
        assert zero_matrix(2, 1) == from_rows([[0], [0]])
        assert zero_matrix(2, 1).is_zero()

    def test_hstack(self):
        a = from_rows([[1], [2]])
        b = from_rows([[3], [4]])
        assert hstack(a, b) == from_rows([[1, 3], [2, 4]])

    def test_rows_are_sparse(self):
        m = from_rows([[0, 3, 0], [0, 0, 0], [-1, 0, 2]])
        assert m.rows == (((1, 3),), (), ((0, -1), (2, 2)))

    @pytest.mark.parametrize(
        "nrows, ncols, rows",
        [
            (2, 2, (((0, 1), (1, 2)),)),  # one row short
            (2, 2, (((2, 1),), ())),  # column past the last
            (2, 2, (((-1, 1),), ())),  # negative column
            (2, 2, (((1, 1), (0, 2)), ())),  # columns descend
            (2, 2, (((0, 1), (0, 2)), ())),  # column repeated
            (2, 2, (((0, 0),), ())),  # stored zero
        ],
    )
    def test_wrong_shape_is_an_invariant_violation(self, nrows, ncols, rows):
        with pytest.raises(InvariantViolated):
            IntMatrix(nrows, ncols, rows)

    def test_ragged_dense_rows_are_an_invariant_violation(self):
        with pytest.raises(InvariantViolated):
            from_rows([[1, 2], [3]])


class TestRationalRank:
    def test_examples(self):
        assert rational_rank(identity_matrix(3)) == 3
        assert rational_rank(zero_matrix(2, 5)) == 0
        assert rational_rank(from_rows([[1, 2], [2, 4]])) == 1


class TestSnf:
    def test_worked_example(self):
        m = from_rows([[2, 4], [6, 8]])
        u, d, v = snf(m)
        assert snf_diagonal(d) == [2, 4]
        assert u @ m @ v == d

    def test_identity(self):
        _, d, _ = snf(identity_matrix(3))
        assert snf_diagonal(d) == [1, 1, 1]

    def test_zero_matrix(self):
        _, d, _ = snf(zero_matrix(2, 3))
        assert snf_diagonal(d) == [0, 0]

    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    def test_decomposition_properties(self, m: IntMatrix):
        u, d, v = snf(m)
        assert u @ m @ v == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = snf_diagonal(d)
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        # zeros trail the nonzero invariants, which form a divisibility chain
        assert diag[: len(nonzero)] == nonzero
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert len(nonzero) == rational_rank(m)
        # off-diagonal entries vanish
        for i, row in enumerate(dense(d)):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0

    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    @example(from_rows(ZERO_MULTIPLE_OPS[0]))
    @example(from_rows(ZERO_MULTIPLE_OPS[1]))
    def test_invariants_match_tracked_form(self, m: IntMatrix):
        _, d, _ = snf(m)
        assert snf_invariants(m) == sorted(
            x for x in snf_diagonal(d) if x != 0
        ) + [0] * sum(1 for x in snf_diagonal(d) if x == 0)


    @given(st.lists(st.integers(-40, 40) | st.just(0), max_size=6), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example([], True)
    @example([], False)
    @example([0, 0, 0], False)
    @example([0, -6, 0, 4], True)
    def test_one_line_invariant_is_the_gcd(self, entries, as_row):
        m = from_rows([entries]) if as_row else from_rows([[x] for x in entries], 1)
        pivots = zhomology._diagonalize(m)[0]
        reduced = [abs(x) for _, _, x in pivots] + [0] * (min(m.shape) - len(pivots))
        assert snf_invariants(m) == reduced
        assert reduced == ([math.gcd(*entries)] if entries else [])

    def test_determinantal_divisors_example(self):
        # d1 = 2, d2 = 24: invariants (2, 12), not the (4, 6) on the diagonal
        m = from_rows([[4, 0], [0, 6]])
        assert determinantal_invariants(m) == [2, 12]
        assert snf_invariants(m) == [2, 12]

    @given(small_matrix_strategy)
    @settings(max_examples=150, deadline=None)
    def test_invariants_match_determinantal_divisors(self, m: IntMatrix):
        expected = determinantal_invariants(m)
        assert snf_invariants(m) == expected
        _, d, _ = snf(m)
        assert snf_diagonal(d) == expected


class TestTieHeavySmith:
    """Pivot order does not change what the Smith reduction returns."""

    @given(tie_heavy_matrices(14))
    @settings(max_examples=80, deadline=None)
    def test_decomposition(self, m: IntMatrix):
        u, d, v = snf(m)
        assert u @ m @ v == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = snf_diagonal(d)
        nonzero = [x for x in diag if x != 0]
        assert diag[: len(nonzero)] == nonzero
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert len(nonzero) == rational_rank(m)
        assert snf_invariants(m) == diag

    @given(tie_heavy_matrices(5))
    @settings(max_examples=80, deadline=None)
    def test_invariants_match_determinantal_divisors(self, m: IntMatrix):
        assert snf_invariants(m) == determinantal_invariants(m)

    @given(tie_heavy_matrices(14))
    @settings(max_examples=80, deadline=None)
    def test_kernel_is_saturated(self, m: IntMatrix):
        snf(m)
        snf_invariants(m)
        k = kernel_basis(m)
        assert k == kernel_basis(IntMatrix(m.nrows, m.ncols, m.rows))
        assert (m @ k).is_zero()
        assert k.ncols == m.ncols - rational_rank(m)
        if k.ncols:
            assert all(x == 1 for x in snf_invariants(k) if x != 0)
            assert rational_rank(k) == k.ncols


def smith_invariants(m: IntMatrix) -> list[int]:
    """The invariant factors read off ``m``'s Smith reduction, whatever its rows."""
    pivots = m._reduction[0]
    return [abs(x) for _, _, x in pivots] + [0] * (min(m.shape) - len(pivots))


def covers_by_smith(g: IntMatrix, kernel_rank: int) -> bool:
    """``_covers_kernel`` with the invariants taken from a Smith reduction."""
    nonzero = [x for x in smith_invariants(g) if x != 0]
    return len(nonzero) == kernel_rank and all(x == 1 for x in nonzero)


def graph_of_edges(n: int, edges) -> RelGraph:
    """The reflexive symmetric relation on 0..n-1 with the given edges."""
    pairs = {(v, v) for v in range(n)} | {p for u, v in edges for p in ((u, v), (v, u))}
    return graph_from_pairs(range(n), pairs)


def component_numbers(g: RelGraph) -> list[int]:
    """Each vertex's component, numbered in the order of their least vertices."""
    comp = [-1] * len(g.vertices)
    count = 0
    for s in range(len(comp)):
        if comp[s] < 0:
            stack = [s]
            while stack:
                u = stack.pop()
                if comp[u] < 0:
                    comp[u] = count
                    stack.extend(g.adjacent[u])
            count += 1
    return comp


# isolated vertices, several components, triangles, and no edges at all
# (rowless d0s with 0, 1 and 4 columns)
FOREST_EXAMPLES = (
    graph_of_edges(0, ()),
    graph_of_edges(1, ()),
    graph_of_edges(4, ()),
    graph_of_edges(6, ((0, 1), (1, 2), (0, 2), (4, 5))),
    graph_of_edges(7, ((0, 3), (3, 5), (5, 0), (1, 6), (2, 6), (1, 2), (5, 6))),
    graph_of_edges(5, itertools.combinations(range(5), 2)),
)


@st.composite
def graph_towers(draw, max_vertices: int = 10) -> RelGraphTower:
    """Towers of up to three levels: each level below the top is the image
    of the one above under a random vertex map, with the image relation."""
    levels = [draw(rel_graphs(max_vertices))]
    transitions = []
    for _ in range(draw(st.integers(1, 2))):
        g = levels[0]
        f = [draw(st.integers(0, 3)) for _ in g.vertices]
        image = draw(st.permutations(sorted(set(f))))
        pos = {v: k for k, v in enumerate(image)}
        pairs = {(f[i], f[j]) for i, row in enumerate(g.adjacent) for j in row}
        levels.insert(0, graph_from_pairs(image, pairs))
        transitions.insert(0, tuple(pos[v] for v in f))
    return RelGraphTower(tuple(levels), tuple(transitions))


@st.composite
def graph_maps(draw, max_vertices: int = 7) -> RelGraphTower:
    """Two-level towers whose transition is any relation-preserving vertex map
    into a drawn coarse graph, so it need not reach every coarse vertex or
    component: the fine relation keeps the drawn pairs whose images are related."""
    coarse = draw(rel_graphs(max_vertices).filter(lambda g: len(g.vertices) > 0))
    vertices, drawn = draw(pair_relations(max_vertices))
    f = {v: draw(st.integers(0, len(coarse.vertices) - 1)) for v in vertices}
    fine = graph_from_pairs(vertices, {(u, v) for u, v in drawn if f[v] in coarse.adjacent[f[u]]})
    return RelGraphTower((coarse, fine), (tuple(f[v] for v in vertices),))


class TestForestMatchesSmith:
    """A graph's d0 is read off a spanning forest; the Smith reduction agrees."""

    @given(rel_graphs(max_vertices=10))
    @settings(max_examples=150, deadline=None)
    @example(FOREST_EXAMPLES[0])
    @example(FOREST_EXAMPLES[1])
    @example(FOREST_EXAMPLES[2])
    @example(FOREST_EXAMPLES[3])
    @example(FOREST_EXAMPLES[4])
    @example(FOREST_EXAMPLES[5])
    def test_invariants_and_kernel(self, g: RelGraph):
        d0 = graph_cech_complex(g).d0
        comp, tree, cotree = d0._forest
        assert comp == component_numbers(g)
        assert sorted([r for r, *_ in tree] + cotree) == list(range(d0.nrows))
        assert len(tree) == d0.ncols - len(set(comp))
        assert snf_invariants(d0) == smith_invariants(d0)
        k = kernel_basis(d0)
        assert (d0 @ k).is_zero()
        # the forest's kernel and the Smith kernel generate the same lattice
        pivoted = {c for _, c, _ in d0._reduction[0]}
        smith = zhomology._v_columns(d0, [j for j in range(d0.ncols) if j not in pivoted])
        assert k.ncols == smith.ncols
        if k.ncols:
            solve_exact(k, smith)
            solve_exact(smith, k)

    @given(graph_maps())
    @settings(max_examples=200, deadline=None)
    def test_maps_into_a_graph_match_ordered_oracle(self, tower: RelGraphTower):
        # the h0 check compares component labels; the oracle reduces a lattice
        assert stabilization_report(tower.levels, tower.transitions) == ordered_stabilization_report(tower)

    @given(graph_towers())
    @settings(max_examples=100, deadline=None)
    def test_stabilization_matches_ordered_oracle(self, tower: RelGraphTower):
        assert stabilization_report(tower.levels, tower.transitions) == ordered_stabilization_report(tower)
        # the oracle's d0 has a zero row per vertex, so it is reduced by Smith
        for g in tower.levels:
            if g.vertices:
                assert ordered_graph_complex(g).d0._forest is None


def check_projection(cx: ChainComplexZ, gens: IntMatrix) -> None:
    """Cocycles gens and d0 cover ker d1 exactly when the projections of gens
    onto the cochains that vanish on tree rows cover those cocycles."""
    assert (cx.d1 @ gens).is_zero()
    rank0 = rational_rank(cx.d0)
    projected = zhomology._project_off_tree(gens, cx.d0)
    assert projected.shape == (cx.d0.nrows - rank0, gens.ncols)
    for rank in range(gens.ncols + 2):
        expected = covers_by_smith(hstack(gens, cx.d0), rank + rank0)
        assert zhomology._covers_kernel(projected, rank) == expected


class TestProjectionOffTheTree:
    @given(rel_graphs(max_vertices=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_stacked_reduction(self, g: RelGraph, data):
        cx = graph_cech_complex(g)
        # random integer combinations of cocycles and coboundaries
        cocycles = hstack(kernel_basis(cx.d1), cx.d0)
        ncols = data.draw(st.integers(0, 3))
        entries = st.lists(st.sampled_from((0, 0, 1, -1, 2, -3)), min_size=ncols, max_size=ncols)
        coeffs = [data.draw(entries) for _ in range(cocycles.ncols)]
        check_projection(cx, cocycles @ from_rows(coeffs, ncols))

    def test_two_loops(self):
        # the figure eight 0-1-2-3-0 and 0-4-5-6-0, with no triangles; edges
        # (0, 1) and (0, 4) are rows 0 and 2, one on each loop
        g = graph_of_edges(7, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)))
        cx = graph_cech_complex(g)
        assert homology(cx).h1 == AbInvariants(2)
        one, four = ([int(e == k) for k in range(cx.d0.nrows)] for e in (0, 2))
        for columns, covers in (([one, four], True), ([one], False), ([one, [2 * x for x in four]], False)):
            gens = from_rows([list(r) for r in zip(*columns)])
            check_projection(cx, gens)
            assert zhomology._covers_kernel(zhomology._project_off_tree(gens, cx.d0), 2) is covers


class TestKernel:
    def test_kernel_of_difference_map(self):
        m = from_rows([[1, -1]])
        k = kernel_basis(m)
        assert k.shape == (2, 1)
        assert (m @ k).is_zero()

    def test_full_rank_matrix_has_trivial_kernel(self):
        assert kernel_basis(identity_matrix(3)).shape == (3, 0)

    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    @example(from_rows(ZERO_MULTIPLE_OPS[0]))
    @example(from_rows(ZERO_MULTIPLE_OPS[1]))
    @example(zero_matrix(0, 3))  # rowless: its own forest
    def test_kernel_properties(self, m: IntMatrix):
        snf(m)
        assert snf_invariants(m) == smith_invariants(m)
        k = kernel_basis(m)
        assert k == kernel_basis(IntMatrix(m.nrows, m.ncols, m.rows))
        assert (m @ k).is_zero()
        assert k.ncols == m.ncols - rational_rank(m)
        # the basis is primitive: the generated lattice is saturated
        if k.ncols:
            assert all(x == 1 for x in snf_invariants(k) if x != 0)
            assert rational_rank(k) == k.ncols


class TestSolveExact:
    def test_solvable(self):
        k = from_rows([[2, 0], [0, 3]])
        b = from_rows([[4], [9]])
        x = solve_exact(k, b)
        assert k @ x == b

    def test_divisibility_obstruction(self):
        k = from_rows([[2]])
        b = from_rows([[3]])
        with pytest.raises(ValueError):
            solve_exact(k, b)

    def test_inconsistent(self):
        k = from_rows([[1], [1]])
        b = from_rows([[0], [1]])
        with pytest.raises(ValueError):
            solve_exact(k, b)


class TestQuotientInvariants:
    def test_cyclic_quotient(self):
        rel = from_rows([[2], [0]])
        assert quotient_invariants(2, rel) == AbInvariants(1, (2,))

    def test_trivial_relations(self):
        assert quotient_invariants(3, zero_matrix(3, 0)) == AbInvariants(3)

    def test_wrong_height(self):
        with pytest.raises(ValueError):
            quotient_invariants(1, zero_matrix(2, 1))


class TestAbInvariants:
    def test_str(self):
        assert str(AbInvariants(0)) == "0"
        assert str(Z) == "Z"
        assert str(AbInvariants(2, (2, 4))) == "Z^2 + Z/2 + Z/4"

    def test_trivial(self):
        assert TRIVIAL_GROUP.trivial
        assert not Z.trivial

    @pytest.mark.parametrize("torsion", [(1,), (0, 2), (2, 3), (4, 2)])
    def test_bad_torsion_is_an_invariant_violation(self, torsion):
        with pytest.raises(InvariantViolated):
            AbInvariants(0, torsion)


class TestChainComplex:
    def test_zero_differentials(self):
        c = ChainComplexZ(zero_matrix(2, 2), zero_matrix(0, 2), zero_matrix(2, 1))
        h = homology(c)
        assert h.h0 == AbInvariants(2)
        assert h.h1 == AbInvariants(2)

    def test_non_complex_rejected(self):
        d0 = from_rows([[1], [0]])
        d1 = from_rows([[1, 0]])
        with pytest.raises(InvariantViolated):
            ChainComplexZ(d0, d1, zero_matrix(1, 1))

    def test_bad_augmentation_rejected(self):
        d0 = from_rows([[1, -1]])
        d1 = zero_matrix(0, 1)
        aug = from_rows([[1], [2]])
        with pytest.raises(InvariantViolated):
            ChainComplexZ(d0, d1, aug=aug)

    def test_torsion_in_h1(self):
        # Z --2--> Z --0--> 0 gives h1 = Z/2
        d0 = from_rows([[2]])
        d1 = zero_matrix(0, 1)
        h = homology(ChainComplexZ(d0, d1, zero_matrix(1, 1)))
        assert h.h0 == TRIVIAL_GROUP
        assert h.h1 == AbInvariants(0, (2,))

    @pytest.mark.parametrize("d0, aug, exact", [  # the gcd g of aug and the rank of ker d0 vary
        ([[1]], [[0]], (False, True, True)),  # g = 0, ker d0 = 0
        ([], [[0]], (False, False, True)),  # g = 0, ker d0 = Z
        ([], [[2]], (True, False, True)),  # ker d0 / im aug = Z/2
    ])
    def test_exactness_at_the_augmentation(self, d0, aug, exact):
        c = ChainComplexZ(from_rows(d0, len(aug)), zero_matrix(0, len(d0)), aug=from_rows(aug))
        assert homology(c).exact_at == exact


class TestGraphComplex:
    def test_path_graph_contractible(self):
        h = homology(graph_cech_complex(interval_graph(2)))
        assert h.h0 == Z
        assert h.h1 == TRIVIAL_GROUP
        assert h.exact_at == (True, True, True)

    def test_four_cycle_has_a_loop(self):
        pairs = set()
        for v in range(4):
            pairs.add((v, v))
            pairs.add((v, (v + 1) % 4))
            pairs.add(((v + 1) % 4, v))
        g = graph_from_pairs(range(4), pairs)
        h = homology(graph_cech_complex(g))
        assert h.h0 == Z
        assert h.h1 == Z

    def test_equality_graph_components(self):
        h = homology(graph_cech_complex(equality_graph(range(3))))
        assert h.h0 == AbInvariants(3)
        assert h.h1 == TRIVIAL_GROUP
        # three components: the constants do not exhaust ker d0
        assert h.exact_at == (True, False, True)

    @given(rel_graphs())
    @settings(max_examples=150, deadline=None)
    def test_bases_match_exhaustive_scan(self, g: RelGraph):
        related = g.related
        pairs = [p for p in itertools.product(g.vertices, repeat=2) if p in related]
        triples = graph_triples_exhaustive(g)
        assert ordered_bases(g) == (tuple((v,) for v in g.vertices), pairs, triples)
        # the oriented bases keep the tuples whose positions strictly ascend
        pos = {v: i for i, v in enumerate(g.vertices)}

        def ascending(tuples: list) -> list:
            positions = (tuple(pos[v] for v in t) for t in tuples)
            return [t for t in positions if all(a < b for a, b in zip(t, t[1:]))]

        b0, b1, b2 = [(i,) for i in range(len(g.vertices))], ascending(pairs), ascending(triples)
        assert oriented_bases(g) == (b0, b1, b2)
        # d0 and d1 are the alternating face sums over those position tuples
        cx = graph_cech_complex(g)
        assert cx.d0 == _coboundary(b1, b0)
        assert cx.d1 == _coboundary(b2, b1)

    @given(rel_graphs(max_vertices=7))
    @settings(max_examples=150, deadline=None)
    def test_oriented_matches_ordered_complex(self, g: RelGraph):
        ordered = ordered_graph_complex(g)
        oriented = graph_cech_complex(g)
        # h0, h1 with its torsion, the reduced h0 and every exactness flag
        assert homology(oriented) == homology(ordered)
        assert graph_cohomology(g, 0).dims == ordered.dims

    @pytest.mark.parametrize("tower", [interval_tower, circle_tower])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_stabilization_matches_ordered_oracle(self, tower, depth):
        t = tower(depth)
        assert stabilization_report(t.levels, t.transitions) == ordered_stabilization_report(t)

    @given(rel_graphs(max_vertices=7))
    @settings(max_examples=60, deadline=None)
    def test_ranks_follow_rank_nullity(self, g: RelGraph):
        cx = graph_cech_complex(g)
        c0, c1, _ = cx.dims
        rank0, rank1 = rational_rank(cx.d0), rational_rank(cx.d1)
        h = homology(cx)
        assert h.h0.rank == c0 - rank0
        assert h.h1.rank == (c1 - rank1) - rank0

    def test_interval_level_two_dimensions(self):
        # the ordered counts are reported; the oriented matrices are smaller
        assert graph_cohomology(interval_graph(2), 2).dims == (4, 10, 22)
        cx = graph_cech_complex(interval_graph(2))
        assert cx.dims == (4, 3, 0)
        assert cx.aug.shape == (4, 1)


class TestCoverComplex:
    def test_single_point_base_dimensions(self):
        cov = FiniteCover(("x",), (("a", "b"),))
        cx = cech_complex(cov)
        assert cx.dims == (2, 4, 8)

    def test_two_point_base_dimensions(self):
        cov = FiniteCover(("S", "T"), (("x",), ("a", "b")))
        assert cech_complex(cov).dims == (3, 5, 9)

    def test_fiber_powers_dimensions(self):
        cov = FiniteCover(("S", "T"), (("x",), ("a", "b")), "fiber-powers")
        assert cech_complex(cov).dims == (5, 9, 17)

    def test_degree_one_exactness(self):
        for spec in ("trivial", "fiber-powers"):
            cov = FiniteCover(("S", "T"), (("x",), ("a", "b", "c")), spec)
            h = homology(cech_complex(cov))
            assert h.h1 == TRIVIAL_GROUP

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            FiniteCover(("S",), (("x",),), "nonsense")
        with pytest.raises(ValueError):
            FiniteCover(("S", "T"), (("x",),))


class TestInducedMaps:
    def test_identity_map(self):
        cx = graph_cech_complex(interval_graph(1))
        assert induced_cochain_map(cx, cx, tuple(range(cx.dims[0]))) == identity_matrix(cx.dims[1])

    def test_non_preserving_map_rejected(self):
        fine = graph_cech_complex(interval_graph(2))
        coarse = graph_cech_complex(equality_graph(range(2)))
        with pytest.raises(RelationNotPreserved):
            induced_cochain_map(fine, coarse, tuple(k // 2 for k in range(4)))
        for image in ((0, 1, 1, 2), (0, 0, 1, -1)):
            with pytest.raises(RelationNotPreserved, match="leaves the coarse vertices"):
                induced_cochain_map(fine, coarse, image)

    def test_degree_two_and_augmentation_checks_reject(self):
        # hand-built coarse complexes: the triangle's d1 row is missing, or
        # the augmentation is doubled, so m2 or m0 cannot commute
        fine = graph_cech_complex(graph_from_pairs(range(3), itertools.product(range(3), repeat=2)))
        with pytest.raises(RelationNotPreserved, match="no degree-2 coarse simplex"):
            induced_cochain_map(fine, ChainComplexZ(fine.d0, zero_matrix(0, 3), fine.aug), (0, 1, 2))
        with pytest.raises(RelationNotPreserved, match="augmentation"):
            induced_cochain_map(fine, ChainComplexZ(fine.d0, fine.d1, from_rows([[2]] * 3)), (0, 1, 2))

    def test_reflection_negates_the_loop_class(self):
        pairs = {(v, w) for v in range(4) for w in range(4) if (v - w) % 4 in (0, 1, 3)}
        cx = graph_cech_complex(graph_from_pairs(range(4), pairs))
        assert [tuple(j for j, _ in r) for r in cx.d0.rows] == [(0, 1), (0, 3), (1, 2), (2, 3)]
        m1 = induced_cochain_map(cx, cx, tuple(-v % 4 for v in range(4)))
        assert dense(m1) == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
        # the loop 0 -> 1 -> 2 -> 3 -> 0 pairs with the generator to 1
        loop = from_rows([[1, -1, 1, 1]])
        assert (loop @ cx.d0).is_zero()
        gen = from_rows([[1], [0], [0], [0]])
        assert dense(loop @ gen) == [[1]]
        assert dense(loop @ m1 @ gen) == [[-1]]
        # the pulled-back generator plus the generator is a coboundary
        pulled = [x for x, in dense(m1 @ gen)]
        solve_exact(cx.d0, from_rows([[x + y] for x, y in zip(pulled, [1, 0, 0, 0])]))

    def test_collapsed_simplices_give_zero_rows(self):
        fine = graph_from_pairs((0, 1, 2), itertools.product(range(3), repeat=2))
        coarse = interval_graph(1)
        m1 = induced_cochain_map(graph_cech_complex(fine), graph_cech_complex(coarse), (0, 1, 1))
        # edges (0, 1), (0, 2), (1, 2); the last collapses, as does the triangle
        assert m1.rows == (((0, 1),), ((0, 1),), ())
        _, oracle_m1, m2 = signed_pullback(fine, coarse, (0, 1, 1))
        assert oracle_m1 == m1 and m2.rows == ((),)

    @given(rel_graphs(max_vertices=7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_maps_onto_the_image_relation_commute(self, g: RelGraph, data):
        f = {v: data.draw(st.integers(0, 3)) for v in g.vertices}
        image = data.draw(st.permutations(sorted(set(f.values()))))
        coarse = graph_from_pairs(image, {(f[u], f[v]) for u, v in g.related})
        positions = tuple(image.index(f[v]) for v in g.vertices)
        # raises unless the signed pullback commutes with d0, d1 and the augmentation
        m1 = induced_cochain_map(graph_cech_complex(g), graph_cech_complex(coarse), positions)
        assert m1 == signed_pullback(g, coarse, positions)[1]

    def test_functoriality_of_restriction(self):
        cx = [graph_cech_complex(interval_graph(n)) for n in range(3)]
        a = induced_cochain_map(cx[1], cx[0], (0, 0))
        b = induced_cochain_map(cx[2], cx[1], (0, 0, 1, 1))
        composed = induced_cochain_map(cx[2], cx[0], (0, 0, 0, 0))
        assert b @ a == composed


class TestLevelCohomology:
    def test_interval_levels_are_contractible(self):
        for n in (0, 1, 3):
            lc = graph_cohomology(interval_graph(n), n)
            assert lc.h0 == Z
            assert lc.h1 == TRIVIAL_GROUP
            assert lc.exact_at == (True, True, True)

    def test_circle_level_one_not_yet_a_circle(self):
        lc = graph_cohomology(circle_graph(1), 1)
        assert (lc.h0, lc.h1) == (Z, TRIVIAL_GROUP)

    def test_circle_levels_two_plus(self):
        for n in (2, 3):
            lc = graph_cohomology(circle_graph(n), n)
            assert (lc.h0, lc.h1) == (Z, Z)


class TestSquareGraph:
    """The product of two interval graphs: contractible, with triangles."""

    @pytest.mark.parametrize("n", range(4))
    def test_small_levels_match_ordered_complex(self, n):
        g = square_graph(n)
        h = homology(graph_cech_complex(g))
        assert (h.h0, h.h1) == (Z, TRIVIAL_GROUP)
        assert h == homology(ordered_graph_complex(g))

    @pytest.mark.parametrize("depth", range(1, 5))
    def test_stabilization_matches_ordered_oracle(self, depth):
        t = square_tower(depth)
        rep = stabilization_report(t.levels, t.transitions)
        assert rep == ordered_stabilization_report(t)
        assert rep.h0_iso == rep.h1_iso == (True,) * (depth - 1)
        # triangles first survive a transition from depth 3 on: the oracle's
        # m2 has 4 nonzero rows at level 2 -> 1 and 36 at level 3 -> 2, and
        # induced_cochain_map checks the degree-2 square on each
        m2_rows = 0
        for n, image in enumerate(t.transitions):
            coarse, fine = t.levels[n], t.levels[n + 1]
            _, m1, m2 = signed_pullback(fine, coarse, image)
            assert induced_cochain_map(graph_cech_complex(fine), graph_cech_complex(coarse), image) == m1
            m2_rows += sum(1 for r in m2.rows if r)
        assert m2_rows == {1: 0, 2: 0, 3: 4, 4: 40}[depth]


class TestStabilization:
    def test_interval_tower_stable_everywhere(self):
        rep = stabilization_report(map(interval_graph, range(5)), map(restrict_graph_map, range(4)))
        assert rep.h0_iso == (True,) * 4
        assert rep.h1_iso == (True,) * 4

    def test_circle_tower_h1_stabilizes_at_level_two(self):
        rep = stabilization_report(map(circle_graph, range(5)), map(restrict_graph_map, range(4)))
        assert rep.h0_iso == (True,) * 4
        # the wrap pair only becomes a genuine loop at level 2
        assert rep.h1_iso[1] is False
        assert rep.h1_iso[2:] == (True, True)
        assert [lc.h1 for lc in rep.levels] == [TRIVIAL_GROUP, TRIVIAL_GROUP, Z, Z, Z]

    def test_constant_tower(self):
        g = interval_graph(1)
        t = RelGraphTower((g, g), (tuple(range(len(g.vertices))),))
        rep = stabilization_report(t.levels, t.transitions)
        assert rep.h0_iso == (True,)
        assert rep.h1_iso == (True,)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_maps_that_miss_h1_are_not_isomorphisms(self, n):
        # equal invariants Z and Z, but degree 2 and degree 0 maps are not onto
        for image in (tuple(k % 2**n for k in range(2 ** (n + 1))), (0,) * 2 ** (n + 1)):
            tower = RelGraphTower((circle_graph(n), circle_graph(n + 1)), (image,))
            rep = stabilization_report(tower.levels, tower.transitions)
            assert [lc.h1 for lc in rep.levels] == [Z, Z]
            assert rep.h0_iso == (True,)
            assert rep.h1_iso == (False,)
            assert rep == ordered_stabilization_report(tower)

    def test_components_that_merge_are_not_an_isomorphism(self):
        # both fine components land in the coarse component {0, 1}, and the
        # coarse component {2} is missed: H0 is Z^2 at both levels, but the
        # induced map has rank 1, so equal ranks alone would say iso
        coarse = RelGraph((0, 1, 2), ((0, 1), (0, 1), (2,)))
        fine = RelGraph((0, 1), ((0,), (1,)))
        tower = RelGraphTower((coarse, fine), ((0, 1),))
        rep = stabilization_report(tower.levels, tower.transitions)
        assert [lc.h0 for lc in rep.levels] == [AbInvariants(2), AbInvariants(2)]
        assert rep.h0_iso == (False,)
        assert rep == ordered_stabilization_report(tower)

    @staticmethod
    def reductions(monkeypatch, tower) -> tuple[list, list]:
        """The matrices that ``stabilization_report`` hands to ``_diagonalize``,
        and the complexes it builds."""
        reduced, complexes = [], []

        def diagonalize(m, *args, **kwargs):
            reduced.append(m)
            return real_diagonalize(m, *args, **kwargs)

        def complex_of(g):
            complexes.append(real_complex(g))
            return complexes[-1]

        real_diagonalize, real_complex = zhomology._diagonalize, zhomology.graph_cech_complex
        monkeypatch.setattr(zhomology, "_diagonalize", diagonalize)
        monkeypatch.setattr(zhomology, "graph_cech_complex", complex_of)
        stabilization_report(tower.levels, tower.transitions)
        return reduced, complexes

    def test_circle_tower_reduces_nothing(self, monkeypatch):
        # every d0 is read off its forest, and a circle level's d1 and its
        # restriction to the non-tree edges have no rows, so they are forests
        # too; the h0 check compares component labels, and the h1 check's
        # matrices have one row from level 2 on and no rows below
        reduced, complexes = self.reductions(monkeypatch, circle_tower(5))
        assert len(complexes) == 5
        assert reduced == []

    def test_square_tower_reduces_d1_and_its_restrictions(self, monkeypatch):
        reduced, complexes = self.reductions(monkeypatch, square_tower(4))
        assert [cx.dims for cx in complexes] == [(1, 0, 0), (4, 6, 4), (16, 42, 36), (64, 210, 196)]
        # level by level, homology reduces d1 once (level 0's has no rows);
        # then the transition from the level below reduces the coarse d1
        # restricted to the coarse non-tree edges (E - V + 1 columns; level
        # 0's has no rows) and the projected representatives: E - V + 1 fine
        # rows and no column, as the square has no H1
        shapes = [(4, 6), (3, 0), (36, 42), (4, 3), (27, 0), (196, 210), (36, 27), (147, 0)]
        assert [m.shape for m in reduced] == shapes
        assert all(m is cx.d1 for m, cx in zip((reduced[0], reduced[2], reduced[5]), complexes[1:]))
        for m, cx in ((reduced[3], complexes[1]), (reduced[6], complexes[2])):
            cotree = cx.d0._forest[2]
            rows = (tuple((cotree.index(j), x) for j, x in row if j in cotree) for row in cx.d1.rows)
            assert m == IntMatrix(cx.d1.nrows, len(cotree), tuple(rows))
        assert all(m.is_zero() for m in (reduced[1], reduced[4], reduced[7]))

    @pytest.mark.parametrize("tower", [circle_tower(6), square_tower(4)], ids=["circle", "square"])
    def test_at_most_two_complexes_are_alive(self, monkeypatch, tower):
        # each level's complex is dropped once its map to the next level is checked
        alive, most = [], []

        def complex_of(g):
            cx = real_complex(g)
            alive.append(weakref.ref(cx))
            most.append(sum(r() is not None for r in alive))
            return cx

        real_complex = zhomology.graph_cech_complex
        monkeypatch.setattr(zhomology, "graph_cech_complex", complex_of)
        stabilization_report(tower.levels, tower.transitions)
        assert len(alive) == len(tower.levels) and max(most) == 2
