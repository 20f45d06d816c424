"""Integer matrices, Smith normal form and graph/cover cohomology."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_rank
from stonework.errors import InvariantViolated, RelationNotPreserved
from stonework.interval import circle_graph, circle_tower, interval_graph, interval_tower
from stonework.profinite import RelGraph, equality_graph
from stonework.zhomology import (
    AbInvariants,
    ChainComplexZ,
    FiniteCover,
    IntMatrix,
    TRIVIAL_GROUP,
    Z,
    cech_complex,
    graph_cech_complex,
    graph_cohomology,
    homology,
    induced_cochain_map,
    kernel_basis,
    quotient_invariants,
    snf,
    snf_diagonal,
    snf_invariants,
    solve_exact,
    stabilization_report,
)


def det(m: IntMatrix) -> Fraction:
    """Determinant over the rationals (test-side oracle)."""
    assert m.nrows == m.ncols
    n = m.nrows
    rows = [[Fraction(x) for x in r] for r in m.rows]
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
        ).map(IntMatrix.from_rows)
    )
)


def determinantal_invariants(m: IntMatrix) -> list[int]:
    """Invariant factors s_k = d_k / d_(k-1), d_k the gcd of all k x k minors."""
    size = min(m.nrows, m.ncols)
    out = []
    prev = 1
    for k in range(1, size + 1):
        d = 0
        for rs in itertools.combinations(range(m.nrows), k):
            for cs in itertools.combinations(range(m.ncols), k):
                minor = IntMatrix.from_rows([[m.rows[i][j] for j in cs] for i in rs])
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
        ).map(IntMatrix.from_rows)
    )
)


class TestIntMatrix:
    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).rows == ((2, 1), (4, 3))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.zero(2, 3) @ IntMatrix.zero(2, 3)

    def test_identity_and_zero(self):
        assert IntMatrix.identity(2).rows == ((1, 0), (0, 1))
        assert IntMatrix.zero(2, 1).rows == ((0,), (0,))
        assert IntMatrix.zero(2, 1).is_zero()

    def test_hstack(self):
        a = IntMatrix.from_rows([[1], [2]])
        b = IntMatrix.from_rows([[3], [4]])
        assert a.hstack(b).rows == ((1, 3), (2, 4))

    def test_columns(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a.column(1) == (2, 4)
        assert a.columns() == [(1, 3), (2, 4)]


class TestRationalRank:
    def test_examples(self):
        assert rational_rank(IntMatrix.identity(3)) == 3
        assert rational_rank(IntMatrix.zero(2, 5)) == 0
        assert rational_rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1


class TestSnf:
    def test_worked_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        u, d, v = snf(m)
        assert snf_diagonal(d) == [2, 4]
        assert (u @ m @ v).rows == d.rows

    def test_identity(self):
        _, d, _ = snf(IntMatrix.identity(3))
        assert snf_diagonal(d) == [1, 1, 1]

    def test_zero_matrix(self):
        _, d, _ = snf(IntMatrix.zero(2, 3))
        assert snf_diagonal(d) == [0, 0]

    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    def test_decomposition_properties(self, m: IntMatrix):
        u, d, v = snf(m)
        assert (u @ m @ v).rows == d.rows
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
        for i, row in enumerate(d.rows):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0

    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    def test_invariants_match_tracked_form(self, m: IntMatrix):
        _, d, _ = snf(m)
        assert snf_invariants(m) == sorted(
            x for x in snf_diagonal(d) if x != 0
        ) + [0] * sum(1 for x in snf_diagonal(d) if x == 0)


    def test_determinantal_divisors_example(self):
        # d1 = 2, d2 = 24: invariants (2, 12), not the (4, 6) on the diagonal
        m = IntMatrix.from_rows([[4, 0], [0, 6]])
        assert determinantal_invariants(m) == [2, 12]
        assert snf_invariants(m) == [2, 12]

    @given(small_matrix_strategy)
    @settings(max_examples=150, deadline=None)
    def test_invariants_match_determinantal_divisors(self, m: IntMatrix):
        expected = determinantal_invariants(m)
        assert snf_invariants(m) == expected
        _, d, _ = snf(m)
        assert snf_diagonal(d) == expected


class TestKernel:
    def test_kernel_of_difference_map(self):
        m = IntMatrix.from_rows([[1, -1]])
        k = kernel_basis(m)
        assert k.shape == (2, 1)
        assert (m @ k).is_zero()

    def test_full_rank_matrix_has_trivial_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)).shape == (3, 0)

    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    def test_kernel_properties(self, m: IntMatrix):
        k = kernel_basis(m)
        assert (m @ k).is_zero()
        assert k.ncols == m.ncols - rational_rank(m)
        # the basis is primitive: the generated lattice is saturated
        if k.ncols:
            assert all(x == 1 for x in snf_invariants(k) if x != 0)
            assert rational_rank(k) == k.ncols


class TestSolveExact:
    def test_solvable(self):
        k = IntMatrix.from_rows([[2, 0], [0, 3]])
        b = IntMatrix.from_rows([[4], [9]])
        x = solve_exact(k, b)
        assert (k @ x).rows == b.rows

    def test_divisibility_obstruction(self):
        k = IntMatrix.from_rows([[2]])
        b = IntMatrix.from_rows([[3]])
        with pytest.raises(ValueError):
            solve_exact(k, b)

    def test_inconsistent(self):
        k = IntMatrix.from_rows([[1], [1]])
        b = IntMatrix.from_rows([[0], [1]])
        with pytest.raises(ValueError):
            solve_exact(k, b)


class TestQuotientInvariants:
    def test_cyclic_quotient(self):
        rel = IntMatrix.from_rows([[2], [0]])
        assert quotient_invariants(2, rel) == AbInvariants(1, (2,))

    def test_trivial_relations(self):
        assert quotient_invariants(3, IntMatrix.zero(3, 0)) == AbInvariants(3)

    def test_wrong_height(self):
        with pytest.raises(ValueError):
            quotient_invariants(1, IntMatrix.zero(2, 1))


class TestAbInvariants:
    def test_str(self):
        assert str(AbInvariants(0)) == "0"
        assert str(Z) == "Z"
        assert str(AbInvariants(2, (2, 4))) == "Z^2 + Z/2 + Z/4"

    def test_trivial(self):
        assert TRIVIAL_GROUP.trivial
        assert not Z.trivial


class TestChainComplex:
    def test_zero_differentials(self):
        c = ChainComplexZ(IntMatrix.zero(2, 2), IntMatrix.zero(0, 2))
        h = homology(c)
        assert h.h0 == AbInvariants(2)
        assert h.h1 == AbInvariants(2)

    def test_non_complex_rejected(self):
        d0 = IntMatrix.from_rows([[1], [0]])
        d1 = IntMatrix.from_rows([[1, 0]])
        with pytest.raises(InvariantViolated):
            ChainComplexZ(d0, d1)

    def test_bad_augmentation_rejected(self):
        d0 = IntMatrix.from_rows([[1, -1]])
        d1 = IntMatrix.zero(0, 1)
        aug = IntMatrix.from_rows([[1], [2]])
        with pytest.raises(InvariantViolated):
            ChainComplexZ(d0, d1, aug=aug)

    def test_torsion_in_h1(self):
        # Z --2--> Z --0--> 0 gives h1 = Z/2
        d0 = IntMatrix.from_rows([[2]])
        d1 = IntMatrix.zero(0, 1)
        h = homology(ChainComplexZ(d0, d1))
        assert h.h0 == TRIVIAL_GROUP
        assert h.h1 == AbInvariants(0, (2,))


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
        g = RelGraph(tuple(range(4)), frozenset(pairs))
        h = homology(graph_cech_complex(g))
        assert h.h0 == Z
        assert h.h1 == Z

    def test_equality_graph_components(self):
        h = homology(graph_cech_complex(equality_graph(range(3))))
        assert h.h0 == AbInvariants(3)
        assert h.h1 == TRIVIAL_GROUP
        # three components: the constants do not exhaust ker d0
        assert h.exact_at == (True, False, True)

    def test_interval_level_two_dimensions(self):
        cx = graph_cech_complex(interval_graph(2))
        assert cx.dims == (4, 10, 22)
        assert cx.aug is not None and cx.aug.shape == (4, 1)


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
        cm = induced_cochain_map(cx, cx, {v: v for v in interval_graph(1).vertices})
        assert cm.m0.rows == IntMatrix.identity(cx.dims[0]).rows
        assert cm.m1.rows == IntMatrix.identity(cx.dims[1]).rows

    def test_non_preserving_map_rejected(self):
        fine = graph_cech_complex(interval_graph(2))
        coarse = graph_cech_complex(equality_graph(range(2)))
        with pytest.raises(RelationNotPreserved):
            induced_cochain_map(fine, coarse, {k: k // 2 for k in range(4)})

    def test_functoriality_of_restriction(self):
        cx = [graph_cech_complex(interval_graph(n)) for n in range(3)]
        t0 = {k: k // 2 for k in range(2)}
        t1 = {k: k // 2 for k in range(4)}
        a = induced_cochain_map(cx[1], cx[0], t0)
        b = induced_cochain_map(cx[2], cx[1], t1)
        composed = induced_cochain_map(cx[2], cx[0], {k: k // 4 for k in range(4)})
        assert (b.m0 @ a.m0).rows == composed.m0.rows
        assert (b.m1 @ a.m1).rows == composed.m1.rows


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


class TestStabilization:
    def test_interval_tower_stable_everywhere(self):
        rep = stabilization_report(interval_tower(5), 5)
        assert rep.h0_iso == (True,) * 4
        assert rep.h1_iso == (True,) * 4

    def test_circle_tower_h1_stabilizes_at_level_two(self):
        rep = stabilization_report(circle_tower(5), 5)
        assert rep.h0_iso == (True,) * 4
        # the wrap pair only becomes a genuine loop at level 2
        assert rep.h1_iso[1] is False
        assert rep.h1_iso[2:] == (True, True)
        assert [lc.h1 for lc in rep.levels] == [TRIVIAL_GROUP, TRIVIAL_GROUP, Z, Z, Z]

    def test_constant_tower(self):
        from stonework.profinite import RelGraphTower

        g = interval_graph(1)
        t = RelGraphTower((g, g), ({v: v for v in g.vertices},))
        rep = stabilization_report(t, 2)
        assert rep.h0_iso == (True,)
        assert rep.h1_iso == (True,)

    def test_depth_bound(self):
        with pytest.raises(ValueError):
            stabilization_report(interval_tower(2), 5)
