"""Towers of finite truncations, closed sub-towers and relation graphs."""

import random
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import code_of, graph_from_pairs, pair_relations, point_of, restriction_diagram
from lemmas import (
    ClosedTower,
    RelGraphTower,
    SquareNotCommuting,
    bound_levelwise_nat_map,
    closed_from_decidables,
    connected_component,
    constraint_emptiness_witness,
    equality_graph,
    is_totally_disconnected,
    levelwise_factor,
    points_at_depth,
)
from stonework.boolalg import FinBoolAlg, Presentation
from stonework.errors import BadArgument, InvariantViolated, RelationNotPreserved, StoneworkError
from stonework.profinite import (
    CountablePresentation,
    FAMILIES,
    RelGraph,
    SeqDiagram,
    pairwise_meet_zero_family,
    spectrum_tower,
)
from stonework.terms import And, Gen, ONE
from stonework.zhomology import stabilization_report

CANTOR = CountablePresentation()
ATMOSTONE = CountablePresentation(family=pairwise_meet_zero_family)
# a graph tower is checked by ``stabilization_report``'s walk, which leaves the
# pairs to ``induced_cochain_map``, and by the oracle tower, which checks them itself
GRAPH_TOWER_CHECKS = {"walk": stabilization_report, "oracle": RelGraphTower}
ONE_EACH = "need one transition between each pair of adjacent levels"


def cantor_diagram(depth: int) -> SeqDiagram:
    return spectrum_tower(CANTOR, depth)


class TestInvariants:
    """Shape checks raise errors, which ``python -O`` keeps, not asserts."""

    def test_seq_diagram_needs_one_transition_per_step(self):
        with pytest.raises(InvariantViolated):
            SeqDiagram(levels=((0,), (0,)), transitions=())

    def test_closed_tower_needs_a_selected_set_per_level(self):
        with pytest.raises(InvariantViolated):
            ClosedTower(cantor_diagram(2), selected=(frozenset(),))

    def test_rel_graph_tower_needs_one_transition_per_step(self):
        g = equality_graph([0])
        for check in GRAPH_TOWER_CHECKS.values():
            for transitions in ((), ((0,), (0,))):
                with pytest.raises(InvariantViolated, match=f"^{ONE_EACH}$"):
                    check((g, g), transitions)


class TestFamilies:
    def test_registry(self):
        assert FAMILIES["none"] is None
        assert FAMILIES["pairwise-meet-zero"] is pairwise_meet_zero_family

    def test_pairwise_enumeration_order(self):
        got = [pairwise_meet_zero_family(i) for i in range(4)]
        g = Gen
        assert got == [
            And(g("g0"), g("g1")),
            And(g("g0"), g("g2")),
            And(g("g1"), g("g2")),
            And(g("g0"), g("g3")),
        ]

    def test_pairwise_enumeration_covers_all_pairs(self):
        # pairs (a, b) with a < b in the order of (b, a), through every pair below g60
        seen = [pairwise_meet_zero_family(i) for i in range(60 * 59 // 2)]
        expected = [And(Gen(f"g{a}"), Gen(f"g{b}")) for b in range(60) for a in range(b)]
        assert seen == expected


class TestTruncationTower:
    def test_cantor_level_sizes_double(self):
        t = spectrum_tower(CANTOR, 3)
        assert [len(level) for level in t.levels] == [2, 4, 8]

    def test_atmostone_levels_eventually_match_stage_counts(self):
        # once the schedule has delivered all pairs among g0..gk, the level
        # is the stage-(k+1) algebra with k+2 points
        t = spectrum_tower(ATMOSTONE, 3)
        sizes = [len(level) for level in t.levels]
        assert sizes[0] == 3  # g0,g1 with one relation
        assert sizes[2] == 4  # g0,g1,g2 with all three relations

    def test_explicit_relation_one_gives_empty_levels(self):
        t = spectrum_tower(CountablePresentation(explicit_rels=(ONE,)), 2)
        assert [len(level) for level in t.levels] == [0, 0]

    def test_relation_schedule_explicit_before_family(self):
        p = CountablePresentation(
            explicit_rels=(Gen("g0"),), family=pairwise_meet_zero_family
        )
        assert p.relation(0) == Gen("g0")
        assert p.relation(1) == And(Gen("g0"), Gen("g1"))
        assert CountablePresentation().relation(5) is None


class TestSpectrumTower:
    def test_transitions_restrict_assignments(self):
        d = cantor_diagram(3)
        assert [len(level) for level in d.levels] == [2, 4, 8]
        for n, tr in enumerate(d.transitions):
            for pt, i in zip(d.levels[n + 1], tr, strict=True):
                assert point_of(d.levels[n][i], n + 1) == point_of(pt, n + 2)[: n + 1]

    def test_empty_levels(self):
        d = spectrum_tower(CountablePresentation(explicit_rels=(ONE,)), 2)
        assert d.levels == ((), ())

    def test_non_decimal_digit_is_not_a_countable_generator(self):
        # U+1369 is a digit to str.isdigit, which int() does not read, but not a decimal one
        p = CountablePresentation(explicit_rels=(Gen("g\u1369"),))
        with pytest.raises(BadArgument, match="^countable presentations use generators g0,g1,...; got 'g\u1369'$"):
            spectrum_tower(p, 1)

    def test_points_at_depth_counts_chains(self):
        d = cantor_diagram(3)
        chains = points_at_depth(d, 2)
        assert len(chains) == 8
        for chain in chains:
            top = point_of(chain[2], 3)
            assert point_of(chain[0], 1) == top[:1] and point_of(chain[1], 2) == top[:2]

    def test_points_at_depth_out_of_range(self):
        with pytest.raises(ValueError):
            points_at_depth(cantor_diagram(2), 5)

    def test_transition_totality_validated(self):
        with pytest.raises(InvariantViolated, match="^transition 0 maps 1 of 2 vertices$"):
            SeqDiagram((("a",), ("x", "y")), ((0,),))

    def test_restriction_outside_the_lower_spectrum_is_rejected(self):
        # the lower level kills g0, but the upper level keeps points with g0 = 1:
        # the restriction oracle that spectrum_tower is checked against refuses it
        lower = FinBoolAlg(Presentation.make(["g0"], [Gen("g0")]), (0,))
        upper = FinBoolAlg(Presentation.make(["g0", "g1"], []), (0, 1, 2, 3))
        with pytest.raises(InvariantViolated, match="^transition 0 has a position outside level 0$"):
            restriction_diagram((lower, upper))


class TestClosedTower:
    def test_full_subsets_stay_full(self):
        d = cantor_diagram(3)
        c = closed_from_decidables(d, [set(level) for level in d.levels])
        assert all(len(s) == len(level) for s, level in zip(c.selected, d.levels))
        assert constraint_emptiness_witness(c.base, c.selected) is None

    def test_top_singleton_projects_down(self):
        d = cantor_diagram(3)
        subsets = [set(d.levels[0]), set(d.levels[1]), {code_of((0, 1, 0))}]
        c = closed_from_decidables(d, subsets)
        assert c.selected[2] == frozenset({code_of((0, 1, 0))})
        assert c.selected[1] == frozenset({code_of((0, 1))})
        assert c.selected[0] == frozenset({code_of((0,))})

    def test_forward_pass_drops_unsupported_points(self):
        # empty a middle level: everything above and below must go
        d = cantor_diagram(3)
        c = closed_from_decidables(d, [set(d.levels[0]), set(), set(d.levels[2])])
        assert c.selected == (frozenset(), frozenset(), frozenset())

    def test_saturation_invariant_enforced(self):
        d = cantor_diagram(2)
        with pytest.raises(ValueError):
            ClosedTower(d, (frozenset(), frozenset({code_of((0, 0))})))

    def test_saturation_is_idempotent(self):
        rng = random.Random(5)
        d = cantor_diagram(4)
        for _ in range(20):
            subsets = [
                {p for p in level if rng.random() < 0.7} for level in d.levels
            ]
            c = closed_from_decidables(d, subsets)
            again = closed_from_decidables(d, [set(s) for s in c.selected])
            assert again.selected == c.selected
            assert all(s <= frozenset(t) for s, t in zip(c.selected, subsets))


class TestEmptinessWitness:
    def test_contradictory_bit_constraints(self):
        # level 0 pins the first bit to 0, level 1 additionally pins it to 1
        d = cantor_diagram(3)
        subsets = [
            {p for p in d.levels[0] if point_of(p, 1)[0] == 0},
            {p for p in d.levels[1] if point_of(p, 2)[0] == 0 and point_of(p, 2)[0] == 1},
            set(d.levels[2]),
        ]
        assert constraint_emptiness_witness(d, subsets) == 1

    def test_no_constraints_means_no_witness(self):
        d = cantor_diagram(3)
        assert constraint_emptiness_witness(d, [set(l) for l in d.levels]) is None

    def test_witness_is_least_level(self):
        d = cantor_diagram(4)
        subsets = [set(d.levels[0]), set(d.levels[1]), set(), set()]
        assert constraint_emptiness_witness(d, subsets) == 2

    def test_agrees_with_chain_enumeration(self):
        rng = random.Random(9)
        d = cantor_diagram(4)
        for _ in range(30):
            subsets = [
                {p for p in level if rng.random() < 0.6} for level in d.levels
            ]
            got = constraint_emptiness_witness(d, subsets)
            expected = None
            for k in range(len(d.levels)):
                chains = [
                    c for c in points_at_depth(d, k)
                    if all(c[n] in subsets[n] for n in range(k + 1))
                ]
                if not chains:
                    expected = k
                    break
            assert got == expected


class TestLevelwiseFactor:
    def test_identity_factorization(self):
        d = cantor_diagram(3)
        maps = [{p: p for p in level} for level in d.levels]
        fact = levelwise_factor(d, d, maps)
        assert fact.middle.levels == d.levels
        assert fact.mono == tuple({p: p for p in level} for level in d.levels)

    def test_collapse_to_point(self):
        d = cantor_diagram(2)
        one = SeqDiagram((("*",), ("*",)), ((0,),))
        maps = [{p: "*" for p in level} for level in d.levels]
        fact = levelwise_factor(d, one, maps)
        assert fact.middle.levels == (("*",), ("*",))

    def test_middle_is_the_image(self):
        d = cantor_diagram(2)
        # drop the second bit: level 1 maps onto the duplicated first bit
        dst = d
        maps = [
            {p: p for p in d.levels[0]},
            {p: code_of((point_of(p, 2)[0], 0)) for p in d.levels[1]},
        ]
        fact = levelwise_factor(d, dst, maps)
        assert {point_of(p, 2) for p in fact.middle.levels[1]} == {(0, 0), (1, 0)}

    def test_non_commuting_square_rejected(self):
        d = cantor_diagram(2)
        maps = [
            {code_of((0,)): code_of((1,)), code_of((1,)): code_of((1,))},  # level 0 constant 1
            {p: p for p in d.levels[1]},  # level 1 identity
        ]
        with pytest.raises(SquareNotCommuting):
            levelwise_factor(d, d, maps)


class TestRelGraphs:
    def test_reflexivity_enforced(self):
        with pytest.raises(InvariantViolated):
            RelGraph((0, 1), ((0,), ()))

    def test_symmetry_enforced(self):
        with pytest.raises(InvariantViolated):
            RelGraph((0, 1), ((0, 1), (1,)))

    def test_repeated_vertex_rejected(self):
        # a connected graph listed as (0, 0, 1) once gave h0 = Z^2
        with pytest.raises(InvariantViolated, match="repeated vertex"):
            RelGraph((0, 0, 1), ((0, 1, 2), (0, 1, 2), (0, 1, 2)))

    def test_equality_graph_components_are_singletons(self):
        g = equality_graph(range(4))
        for v in range(4):
            assert connected_component(g, v) == frozenset({v})

    def test_two_cliques(self):
        pairs = {(a, b) for a in (0, 1) for b in (0, 1)}
        pairs |= {(a, b) for a in (2, 3) for b in (2, 3)}
        g = graph_from_pairs((0, 1, 2, 3), pairs)
        assert connected_component(g, 0) == frozenset({0, 1})
        assert connected_component(g, 3) == frozenset({2, 3})

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            connected_component(equality_graph([0]), 7)

    def test_tower_transition_must_preserve_relation(self):
        lower = equality_graph([0, 1])
        pairs = {(a, b) for a in (0, 1) for b in (0, 1)}
        upper = graph_from_pairs((0, 1), pairs)
        for check in GRAPH_TOWER_CHECKS.values():
            with pytest.raises(RelationNotPreserved):
                check((lower, upper), ((0, 1),))

    def test_totally_disconnected(self):
        levels = tuple(equality_graph(range(k + 1)) for k in range(3))
        transitions = tuple(tuple(min(v, k) for v in range(k + 2)) for k in range(2))
        t = RelGraphTower(levels, transitions)
        assert is_totally_disconnected(t, 3)

    def test_not_totally_disconnected(self):
        pairs = frozenset({(0, 0), (1, 1), (0, 1), (1, 0)})
        blob = graph_from_pairs((0, 1), pairs)
        t = RelGraphTower((blob,), ())
        assert not is_totally_disconnected(t, 1)

    def test_depth_out_of_range(self):
        t = RelGraphTower((equality_graph([0]),), ())
        with pytest.raises(ValueError):
            is_totally_disconnected(t, 2)

    def test_transition_leaving_the_lower_level_is_rejected(self):
        levels = (equality_graph([0]), equality_graph([0, 1]))
        for image in ((0, 5), (0, -1)):
            with pytest.raises(InvariantViolated, match=r"^transition 0 has a position outside level 0$"):
                stabilization_report(levels, (image,))
        for image in ((0,), (0, 0, 0)):
            with pytest.raises(InvariantViolated, match=rf"^transition 0 maps {len(image)} of 2 vertices$"):
                stabilization_report(levels, (image,))
        # a later transition is named by its own index
        with pytest.raises(InvariantViolated, match=r"^transition 1 has a position outside level 1$"):
            stabilization_report((*levels, equality_graph([0])), ((0, 0), (2,)))

    def test_one_neighbour_list_per_vertex(self):
        g = equality_graph([0, 1])
        for adjacent in (g.adjacent[:1], g.adjacent + ((2,),)):
            with pytest.raises(InvariantViolated, match="neighbour lists for 2 vertices"):
                RelGraph(g.vertices, adjacent)


def walk_failure(levels, transitions) -> Optional[tuple[type, str]]:
    """The class and message of the error ``stabilization_report`` raises, if any."""
    try:
        stabilization_report(levels, transitions)
    except StoneworkError as e:
        return type(e), str(e)
    return None


# ways to spoil vertex i's neighbour list; j is another position
MALFORMED = {
    "not reflexive": lambda row, i, j, n: tuple(k for k in row if k != i),
    "past the end": lambda row, i, j, n: row + (n,),
    "negative": lambda row, i, j, n: (-1,) + row,
    "descending": lambda row, i, j, n: row[::-1],
    "repeated": lambda row, i, j, n: tuple(sorted(row + (i,))),
    "one-sided": lambda row, i, j, n: tuple(sorted(set(row) ^ {j})),
}


class TestNeighbourTuples:
    """Neighbour tuples against the ordered-pair form of the same relation."""

    @given(pair_relations())
    @settings(max_examples=150, deadline=None)
    def test_related_round_trips_the_pairs(self, drawn):
        vertices, pairs = drawn
        g = graph_from_pairs(vertices, pairs)
        assert g.related == pairs
        assert graph_from_pairs(g.vertices, g.related) == g

    @given(pair_relations())
    @settings(max_examples=150, deadline=None)
    def test_components_match_a_search_over_pairs(self, drawn):
        vertices, pairs = drawn
        g = graph_from_pairs(vertices, pairs)
        for v in vertices:
            seen, frontier = {v}, {v}
            while frontier:
                frontier = {w for u, w in pairs if u in frontier} - seen
                seen |= frontier
            assert connected_component(g, v) == frozenset(seen)
        singletons = pairs == {(v, v) for v in vertices}
        assert is_totally_disconnected(RelGraphTower((g,), ()), 1) == singletons

    @given(pair_relations(max_vertices=5), pair_relations(max_vertices=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_tower_check_matches_pair_lookups(self, low, up, data):
        lower, upper = graph_from_pairs(*low), graph_from_pairs(*up)
        size = len(lower.vertices)
        # -1 and size may be drawn too, which leave the lower level
        outside = data.draw(st.booleans())
        assume(size or outside or not upper.vertices)
        positions = st.integers(-1, size) if outside else st.integers(0, size - 1)
        tr = tuple(data.draw(positions) for _ in upper.vertices)
        levels = (lower, upper)
        # too few transitions fail at once; too many fail the oracle at once,
        # and the walk as the one it needs does, or after it if that one passes
        for check in GRAPH_TOWER_CHECKS.values():
            with pytest.raises(InvariantViolated, match=f"^{ONE_EACH}$"):
                check(levels, ())
        with pytest.raises(InvariantViolated, match=f"^{ONE_EACH}$"):
            RelGraphTower(levels, (tr, tr))
        one = walk_failure(levels, (tr,))
        assert walk_failure(levels, (tr, tr)) == (one or (InvariantViolated, ONE_EACH))
        if not all(0 <= p < size for p in tr):
            for check in GRAPH_TOWER_CHECKS.values():
                with pytest.raises(InvariantViolated, match=r"^transition 0 has a position outside level 0$"):
                    check(levels, (tr,))
            return
        image = dict(zip(upper.vertices, (lower.vertices[p] for p in tr)))
        preserved = all((image[u], image[v]) in low[1] for u, v in up[1])
        for check in GRAPH_TOWER_CHECKS.values():
            try:
                check(levels, (tr,))
            except RelationNotPreserved:
                assert not preserved
            else:
                assert preserved

    @pytest.mark.parametrize("kind", MALFORMED)
    @given(pair_relations(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_malformed_neighbour_list_is_rejected(self, kind, drawn, data):
        g = graph_from_pairs(*drawn)
        n = len(g.vertices)
        assume(n > 1)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assume(j != i and (kind != "descending" or len(g.adjacent[i]) > 1))
        adjacent = list(g.adjacent)
        adjacent[i] = MALFORMED[kind](adjacent[i], i, j, n)
        with pytest.raises(InvariantViolated):
            RelGraph(g.vertices, tuple(adjacent))


class TestBoundNatMap:
    def test_bound_is_one_plus_max(self):
        k, values = bound_levelwise_nat_map(["a", "b", "c"], {"a": 5, "b": 2, "c": 7}.get)
        assert k == 8
        assert values == {"a": 5, "b": 2, "c": 7}

    def test_constant_zero(self):
        k, _ = bound_levelwise_nat_map([0, 1], lambda v: 0)
        assert k == 1

    def test_empty_level(self):
        k, values = bound_levelwise_nat_map([], lambda v: v)
        assert (k, values) == (0, {})
