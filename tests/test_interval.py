"""Dyadics, bit words, nearness, graph towers and interval unions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import circle_tower, interval_tower, near_companion
from lemmas import (
    OutOfRange,
    all_words,
    bit_loop_value,
    complement_open_union,
    contains,
    cs_fiber,
    cs_value,
    dyadic_abs,
    dyadic_sub,
    near,
)
from stonework.errors import CapExceeded, InvariantViolated
from stonework.interval import (
    BitWord,
    D0,
    D1,
    Dyadic,
    circle_graph,
    closed_union,
    complement_closed_union,
    decidable_image,
    interval_graph,
    restrict_graph_map,
)


def W(text: str) -> BitWord:
    return BitWord.parse(text)


class TestDyadic:
    def test_normalization(self):
        assert Dyadic(2, 2) == Dyadic(1, 1)
        assert Dyadic(4, 2) == Dyadic(1, 0)
        assert Dyadic(0, 5) == Dyadic(0, 0)

    def test_ordering_across_denominators(self):
        assert Dyadic(1, 2) < Dyadic(3, 3)  # 1/4 < 3/8
        assert Dyadic(1, 1) <= Dyadic(2, 2)
        assert not Dyadic(3, 2) < Dyadic(1, 1)

    def test_arithmetic(self):
        assert dyadic_sub(Dyadic(3, 2), Dyadic(1, 2)) == Dyadic(1, 1)
        assert dyadic_abs(dyadic_sub(Dyadic(-1, 3), Dyadic(1, 3))) == Dyadic(1, 2)

    def test_str(self):
        assert str(Dyadic(5, 3)) == "5/2^3"
        assert str(D0) == "0"
        assert str(D1) == "1"

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvariantViolated):
            Dyadic(1, -1)

    @given(st.integers(-(2**40), 2**40), st.integers(0, 90), st.integers(0, 90))
    def test_normalization_agrees_with_fractions(self, m, zeros, e):
        # m << zeros has at least ``zeros`` trailing zero bits to shift out; when
        # e is smaller, the exponent runs out first and an even numerator stays
        d = Dyadic(m << zeros, e)
        assert Fraction(d.num, 2**d.exp) == Fraction(m << zeros, 2**e)
        assert d.num % 2 == 1 or d.exp == 0

    @given(st.integers(-64, 64), st.integers(0, 6), st.integers(-64, 64), st.integers(0, 6))
    def test_agrees_with_fractions(self, a, e, b, f):
        x, y = Dyadic(a, e), Dyadic(b, f)
        fx, fy = Fraction(a, 2**e), Fraction(b, 2**f)
        assert (x < y) == (fx < fy)
        assert Fraction(dyadic_sub(x, y).num, 2 ** dyadic_sub(x, y).exp) == fx - fy


class TestBitWord:
    def test_parse_and_str(self):
        assert W("101").bits == (1, 0, 1)
        assert str(W("0010")) == "0010"
        assert W("").bits == ()

    def test_value_bit_zero_most_significant(self):
        assert W("101").value == 5
        assert W("011").value == 3
        assert W("").value == 0

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_value_agrees_with_bit_loop(self, bits):
        assert BitWord(tuple(bits)).value == bit_loop_value(bits)

    def test_bad_bits_rejected(self):
        with pytest.raises(InvariantViolated):
            BitWord((0, 2))

    def test_all_words(self):
        ws = all_words(2)
        assert [str(w) for w in ws] == ["00", "01", "10", "11"]


class TestCsValue:
    def test_examples(self):
        assert cs_value(W("101")) == Dyadic(5, 3)
        assert cs_value(W("11")) == Dyadic(3, 2)
        assert cs_value(W("")) == D0
        assert cs_value(W("0000")) == D0

    def test_range(self):
        for w in all_words(4):
            v = cs_value(w)
            assert D0 <= v and v < D1


class TestNearness:
    def test_near_examples(self):
        assert near(2, W("01"), W("10"))
        assert near(2, W("00"), W("01"))
        assert not near(2, W("00"), W("11"))
        assert near(3, W("011"), W("100"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            near(3, W("01"), W("010"))
        with pytest.raises(ValueError):
            near_companion(2, W("01"), W("010"))

    def test_companion_witness_examples(self):
        # 011 and 100 are the two truncations below the witness u = (empty)
        assert near_companion(3, W("011"), W("100"))
        assert near_companion(3, W("010"), W("011"))
        assert not near_companion(3, W("000"), W("111"))

    def test_companion_reflexive(self):
        for w in all_words(3):
            assert near_companion(3, w, w)

    def test_equivalence_exhaustive_small(self):
        for n in range(0, 6):
            for s in all_words(n):
                for t in all_words(n):
                    assert near(n, s, t) == near_companion(n, s, t)

    def test_near_not_transitive(self):
        assert near(2, W("00"), W("01")) and near(2, W("01"), W("10"))
        assert not near(2, W("00"), W("10"))

    @given(st.integers(0, 6), st.integers(0, 63), st.integers(0, 63))
    def test_near_matches_dyadic_distance(self, n, a, b):
        a, b = a % (2**n), b % (2**n)
        s = BitWord(tuple((a >> (n - 1 - i)) & 1 for i in range(n)))
        t = BitWord(tuple((b >> (n - 1 - i)) & 1 for i in range(n)))
        lhs = near(n, s, t)
        rhs = dyadic_abs(dyadic_sub(cs_value(s), cs_value(t))) <= Dyadic(1, n)
        assert lhs == rhs


class TestGraphs:
    def test_interval_graph_level_one_is_complete(self):
        g = interval_graph(1)
        assert len(g.related) == 4

    def test_interval_graph_level_two_pair_count(self):
        assert len(interval_graph(2).related) == 10

    def test_circle_graph_level_two_adds_wrap_pair(self):
        assert len(circle_graph(2).related) == 12

    def test_circle_graph_level_one_equals_interval(self):
        assert circle_graph(1).related == interval_graph(1).related

    def test_circle_neighbors_wrap(self):
        g = circle_graph(3)
        assert g.adjacent[0] == (0, 1, 7)

    def test_restrict_map_drops_last_bit(self):
        assert restrict_graph_map(1) == (0, 0, 1, 1)

    def test_towers_validate_relation_preservation(self):
        interval_tower(5)
        circle_tower(5)

    def test_two_step_restriction_composes(self):
        m1 = restrict_graph_map(1)
        m2 = restrict_graph_map(2)
        for k in range(8):
            assert m1[m2[k]] == k // 4

    def test_level_cap(self, monkeypatch):
        with pytest.raises(CapExceeded):
            interval_graph(25)
        monkeypatch.setenv("STONEWORK_CAP", "5")
        assert len(interval_graph(5).vertices) == 32
        with pytest.raises(CapExceeded):
            interval_graph(6)

    def test_restriction_cap_names_its_level(self, monkeypatch):
        monkeypatch.setenv("STONEWORK_CAP", "5")
        assert len(restrict_graph_map(4)) == 32
        with pytest.raises(CapExceeded, match=r"^graph map from level 6: enumeration over 2\^6 exceeds cap 2\^5$"):
            restrict_graph_map(5)


class TestIntervalUnions:
    def test_cylinder_image_examples(self):
        u = decidable_image([W("01")])
        assert u.parts == ((Dyadic(1, 2), Dyadic(1, 1)),)
        assert str(u) == "[1/2^2, 1/2^1]"
        u = decidable_image([W("1")])
        assert u.parts == ((Dyadic(1, 1), D1),)
        u = decidable_image([W("")])
        assert u.parts == ((D0, D1),)

    def test_decidable_image_merges_adjacent(self):
        u = decidable_image([W("0"), W("1")])
        assert u.parts == ((D0, D1),)

    def test_decidable_image_disjoint_parts(self):
        u = decidable_image([W("00"), W("10")])
        assert u.parts == (
            (D0, Dyadic(1, 2)),
            (Dyadic(1, 1), Dyadic(3, 2)),
        )

    def test_decidable_image_empty(self):
        assert decidable_image([]).parts == ()

    def test_full_word_set_covers_interval(self):
        for n in range(1, 6):
            assert decidable_image(all_words(n)).parts == ((D0, D1),)

    def test_union_normalization_invariants(self):
        u = closed_union([(Dyadic(1, 1), Dyadic(3, 2)), (D0, Dyadic(1, 2))])
        assert u.parts == ((D0, Dyadic(1, 2)), (Dyadic(1, 1), Dyadic(3, 2)))
        with pytest.raises(InvariantViolated):
            # unsorted, overlapping parts may not be constructed directly
            type(u)("closed", ((Dyadic(1, 1), D1), (D0, Dyadic(3, 2))))

    def test_union_sorts_mixed_exponents_by_value(self):
        # ordered by value, not by (num, exp): 3/4 after 1/8, 5/8 after 1/2
        parts = [
            (Dyadic(3, 2), D1),
            (Dyadic(1, 3), Dyadic(3, 4)),
            (Dyadic(1, 1), Dyadic(5, 3)),
            (D0, Dyadic(1, 4)),
            (Dyadic(5, 3), Dyadic(3, 2)),
            (Dyadic(1, 4), Dyadic(1, 3)),
        ]
        for order in itertools.permutations(parts):
            u = closed_union(order)
            assert u.parts == ((D0, Dyadic(3, 4)), (Dyadic(1, 1), D1))
        spaced = closed_union([(Dyadic(3, 2), D1), (Dyadic(1, 3), Dyadic(3, 4)), (D0, Dyadic(1, 4))])
        assert spaced.parts == ((D0, Dyadic(1, 4)), (Dyadic(1, 3), Dyadic(3, 4)), (Dyadic(3, 2), D1))

    def test_contains_closed_endpoints(self):
        u = decidable_image([W("01")])
        assert contains(u, Dyadic(1, 2))
        assert contains(u, Dyadic(1, 1))
        assert contains(u, Dyadic(3, 3))
        assert not contains(u, Dyadic(5, 3))

    def test_complement_of_middle_interval(self):
        u = closed_union([(Dyadic(1, 2), Dyadic(1, 1))])
        c = complement_closed_union(u)
        assert c.kind == "open"
        assert c.parts == ((D0, Dyadic(1, 2)), (Dyadic(1, 1), D1))
        assert str(c) == "[0, 1/2^2) u (1/2^1, 1]"
        # relative openness: 0 and 1 are inside, the finite endpoints are not
        assert contains(c, D0) and contains(c, D1)
        assert not contains(c, Dyadic(1, 2)) and not contains(c, Dyadic(1, 1))
        assert contains(c, Dyadic(1, 3)) and contains(c, Dyadic(3, 2))

    def test_complement_of_everything_and_nothing(self):
        assert complement_closed_union(closed_union([(D0, D1)])).parts == ()
        empty = closed_union([])
        assert complement_closed_union(empty).parts == ((D0, D1),)

    def test_double_complement_round_trip(self):
        u = decidable_image([W("00"), W("10")])
        back = complement_open_union(complement_closed_union(u))
        assert back.kind == "closed"
        assert back.parts == u.parts

    def test_kind_checked(self):
        u = closed_union([(D0, D1)])
        with pytest.raises(ValueError):
            complement_open_union(u)
        with pytest.raises(InvariantViolated):
            complement_closed_union(complement_closed_union(u))


class TestFibers:
    def test_endpoints_have_single_expansion(self):
        (f,) = cs_fiber(D0)
        assert (f.prefix.bits, f.repeat) == ((), 0)
        (f,) = cs_fiber(D1)
        assert (f.prefix.bits, f.repeat) == ((), 1)

    def test_half_has_two_expansions(self):
        low, high = cs_fiber(Dyadic(1, 1))
        assert str(low) == "10..."
        assert str(high) == "01..."

    def test_three_quarters(self):
        low, high = cs_fiber(Dyadic(3, 2))
        assert str(low) == "110..."
        assert str(high) == "101..."

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            cs_fiber(Dyadic(3, 1))
        with pytest.raises(OutOfRange):
            cs_fiber(Dyadic(-1, 2))

    @given(st.integers(0, 63), st.integers(0, 6), st.integers(0, 10))
    def test_truncations_approach_the_value(self, k, n, m):
        k = k % (2**n) if n else 0
        d = Dyadic(k, n)
        for f in cs_fiber(d):
            w = f.truncate(m)
            # |cs(truncation) - d| <= 1/2^m
            assert dyadic_abs(dyadic_sub(cs_value(w), d)) <= Dyadic(1, m)

    def test_truncations_at_depth_n_are_near(self):
        # the two expansions of an interior dyadic truncate to near words
        for n in range(1, 6):
            for k in range(1, 2**n, 2):
                low, high = cs_fiber(Dyadic(k, n))
                assert near(n, low.truncate(n), high.truncate(n))
