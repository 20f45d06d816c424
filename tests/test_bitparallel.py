"""Truth-table evaluation checked against one-assignment-at-a-time brute force.

``eval_term`` evaluates a term on every assignment at once; spectra,
``evaluate``, ``point_map`` and tower transitions are built on it.  Each is
compared here with ``eval_term_reference`` run on one assignment at a time.
The code scan of ``spectrum`` and the level-by-level towers are compared
with the table scan and the from-scratch truncations of ``conftest``; the
incremental trivializing prefix with one rebuilt presentation per prefix;
and ``hom`` and ``analyze_morphism``, which read cached image tables, with
a morphism report computed from scratch.  ``digit_rows``, which writes the
points' bit-strings a generator column at a time, is compared with one
formatted string per code.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    code_of,
    codes_by_compress,
    eval_term_reference,
    morphism_report_by_substitution,
    point_of,
    presentations,
    restrict_per_bit,
    restriction_diagram,
    term_strategy,
    tower_point_by_point,
    truncation_tower,
    truncations_from_scratch,
    witness_from_scratch,
)
from lemmas import Or, evaluate, free, in_index_order
from stonework.boolalg import (
    Presentation,
    analyze_morphism,
    digit_rows,
    hom,
    minimal_join_witness,
    point_map,
    spectrum,
)
from stonework.errors import RelationNotKilled
from stonework.profinite import FAMILIES, CountablePresentation, spectrum_tower
from stonework.terms import And, Gen, Not, ONE, ZERO, eval_term, join, meet, substitute

GENS = [f"g{i}" for i in range(8)]


def assignments(gens):
    return [dict(zip(gens, bits)) for bits in itertools.product((0, 1), repeat=len(gens))]


def brute_spectrum(p: Presentation) -> list[tuple]:
    return [
        bits
        for bits in itertools.product((0, 1), repeat=len(p.gens))
        if all(eval_term_reference(r, dict(zip(p.gens, bits))) == 0 for r in p.rels)
    ]


def terms_over(n: int, max_depth: int = 4):
    return term_strategy(GENS[:n], max_depth=max_depth)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), terms_over(n))))
def test_eval_term_matches_reference_on_every_assignment(case):
    n, t = case
    rows = assignments(GENS[:n])
    masks = {g: sum(a[g] << k for k, a in enumerate(rows)) for g in GENS[:n]}
    table = eval_term(t, masks, (1 << len(rows)) - 1)
    for k, a in enumerate(rows):
        assert (table >> k) & 1 == eval_term_reference(t, a)
        assert eval_term(t, a) == eval_term_reference(t, a)


@settings(max_examples=80, deadline=None)
@given(presentations(), st.data())
def test_spectrum_and_evaluate_match_brute_force(p, data):
    a = spectrum(p)
    points = [point_of(c, len(p.gens)) for c in a.codes]
    assert points == brute_spectrum(p)
    t = data.draw(terms_over(len(p.gens)))
    assert evaluate(t, a) == "".join(str(eval_term_reference(t, dict(zip(p.gens, pt)))) for pt in points)


@settings(max_examples=60, deadline=None)
@given(presentations(), st.integers(0, 4), st.data())
def test_point_map_matches_brute_force(dst, m, data):
    src_gens = [f"s{i}" for i in range(m)]
    images = {g: data.draw(terms_over(len(dst.gens), 3)) for g in src_gens}
    dst_points = brute_spectrum(dst)
    # keep the candidate source relations that the images send to 0
    candidates = data.draw(st.lists(term_strategy(src_gens, max_depth=3), max_size=3))
    rels = [
        r
        for r in candidates
        if all(
            eval_term_reference(substitute(r, images), dict(zip(dst.gens, pt))) == 0
            for pt in dst_points
        )
    ]
    src = Presentation.make(src_gens, rels)
    src_points = brute_spectrum(src)
    expected = []
    for pt in dst_points:
        a = dict(zip(dst.gens, pt))
        expected.append(src_points.index(tuple(eval_term_reference(images[g], a) for g in src_gens)))
    assert point_map(hom(src, images, dst)) == expected


@settings(max_examples=100, deadline=None)
@given(presentations(max_gens=5), st.data())
def test_incremental_witness_matches_prefix_rebuild(p, data):
    seq = data.draw(st.lists(terms_over(len(p.gens), 3), max_size=6))
    bound = data.draw(st.integers(-3, len(seq) + 2))
    assert minimal_join_witness(p, seq, bound) == witness_from_scratch(p, seq, bound)


@settings(max_examples=100, deadline=None)
@given(presentations(max_gens=4), st.integers(0, 4), st.booleans(), st.data())
def test_morphism_report_matches_substitution(dst, m, trivial, data):
    if trivial:  # a relation 1 empties the dst spectrum, so every point is killed
        dst = Presentation.make(dst.gens, [*dst.rels, ONE])
    src_gens = [f"s{i}" for i in range(m)]
    images = {g: data.draw(terms_over(len(dst.gens), 3)) for g in src_gens}
    dst_alg = spectrum(dst)
    candidates = data.draw(st.lists(term_strategy(src_gens, max_depth=3), max_size=3))
    unkilled = [i for i, r in enumerate(candidates) if "1" in evaluate(substitute(r, images), dst_alg)]
    if unkilled:
        with pytest.raises(RelationNotKilled) as e:
            hom(Presentation.make(src_gens, candidates), images, dst)
        assert e.value.index == unkilled[0]
    rels = [r for i, r in enumerate(candidates) if i not in unkilled]
    f = hom(Presentation.make(src_gens, rels), images, dst)
    assert analyze_morphism(f) == morphism_report_by_substitution(f)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 16), st.data())
def test_evaluation_commutes_with_substitution(m, n, width, data):
    # eval(substitute(t, images), M) == eval(t, {g: eval(images[g], M)}): what image tables rest on
    full = (1 << width) - 1
    masks = {g: data.draw(st.integers(0, full)) for g in GENS[:n]}
    src_gens = [f"s{i}" for i in range(m)]
    images = {g: data.draw(terms_over(n, 3)) for g in src_gens}
    t = data.draw(term_strategy(src_gens))
    tables = {g: eval_term(images[g], masks, full) for g in src_gens}
    assert eval_term(substitute(t, images), masks, full) == eval_term(t, tables, full)


@settings(max_examples=60, deadline=None)
@given(st.lists(terms_over(6, 3), max_size=5), st.integers(0, 5))
def test_tower_transitions_match_brute_force(rels, depth):
    p = CountablePresentation(explicit_rels=tuple(rels))
    tower = truncation_tower(p, depth)
    diagram = in_index_order(spectrum_tower(p, depth), p)
    assert diagram.levels == tuple(level.codes for level in tower)
    for n, (lower, upper) in enumerate(zip(tower, tower[1:])):
        images = {g: Gen(g) for g in lower.source.gens}
        hom(lower.source, images, upper.source)  # each inclusion kills the lower relations
        assert [point_of(c, len(upper.source.gens)) for c in upper.codes] == brute_spectrum(upper.source)
        for code, i in zip(upper.codes, diagram.transitions[n], strict=True):
            a = dict(zip(upper.source.gens, point_of(code, len(upper.source.gens))))
            image = code_of(eval_term_reference(images[g], a) for g in lower.source.gens)
            assert image in lower.codes
            assert lower.codes[i] == image


@settings(max_examples=80, deadline=None)
@given(
    st.lists(term_strategy([f"g{i}" for i in range(10)], max_depth=3), max_size=8),
    st.sampled_from(sorted(FAMILIES)),
    st.integers(0, 8),
)
@example([], "pairwise-meet-zero", 8)
@example([And(Gen("g0"), Gen("g6")), And(Gen("g1"), Not(Gen("g2"))), Or(Gen("g3"), Gen("g4"))], "none", 8)
def test_tower_matches_the_from_scratch_oracle(rels, family, depth):
    p = CountablePresentation(explicit_rels=tuple(rels), family=FAMILIES[family])
    oracle = truncations_from_scratch(p, depth)
    diagram = in_index_order(spectrum_tower(p, depth), p)
    assert diagram.levels == tuple(codes_by_compress(q) for q in oracle)
    for n, (lower, upper) in enumerate(zip(oracle, oracle[1:])):
        codes = diagram.levels[n]
        images = [codes[i] for i in diagram.transitions[n]]
        assert images == [restrict_per_bit(c, upper, lower) for c in diagram.levels[n + 1]]


def ninf(count: int) -> list:
    """g(i+1) & ~g(i) for i < count: the sequences that stay at 1 once they hit it"""
    return [And(Gen(f"g{i + 1}"), Not(Gen(f"g{i}"))) for i in range(count)]


# new generators below an old one: g0 & g6 first, then g1..g5 arrive under g6
FAR = [
    And(Gen("g0"), Gen("g6")), And(Gen("g1"), Not(Gen("g2"))), Or(Gen("g3"), Gen("g4")), And(Not(Gen("g5")), Gen("g7")),
]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([ZERO, ONE]), term_strategy([f"g{i}" for i in range(12)], max_depth=3)),
        max_size=10,
    ),
    st.sampled_from(sorted(FAMILIES)),
    st.integers(0, 10),
)
@example([ZERO], "none", 4)
@example([ONE], "pairwise-meet-zero", 4)
@example([ZERO, ONE, ZERO], "none", 5)
@example([And(Gen("g9"), Gen("g3")), Gen("g1")], "none", 6)  # g1, g2 come in below g3 and g9
@example(FAR, "pairwise-meet-zero", 10)
def test_fibred_tower_matches_the_cube_oracle(rels, family, depth):
    p = CountablePresentation(explicit_rels=tuple(rels), family=FAMILIES[family])
    assert in_index_order(spectrum_tower(p, depth), p) == restriction_diagram(truncation_tower(p, depth))


# the deepest level has 20 generators, as many as the cube enumerates at the default
# cap, except for cantor, whose level of 16 already holds all 2^16 assignments
@pytest.mark.parametrize("rels, family, depth", [
    ([], "pairwise-meet-zero", 20),
    (ninf(19), "none", 19),
    (FAR, "none", 20),
    (FAR, "pairwise-meet-zero", 20),
    ([], "none", 16),
], ids=["pmz", "ninf", "far", "far-pmz", "cantor"])
def test_fibred_tower_matches_the_cube_oracle_up_to_the_cap(rels, family, depth):
    p = CountablePresentation(explicit_rels=tuple(rels), family=FAMILIES[family])
    assert in_index_order(spectrum_tower(p, depth), p) == restriction_diagram(truncation_tower(p, depth))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(term_strategy([f"g{i}" for i in range(12)], max_depth=3), max_size=10),
    st.sampled_from(sorted(FAMILIES)),
    st.integers(0, 10),
)
@example(FAR, "none", 7)  # the tower-far golden
@example(FAR, "pairwise-meet-zero", 10)
@example([And(Gen("g9"), Gen("g3")), Gen("g1")], "none", 6)
def test_each_level_extends_its_parents_codes(rels, family, depth):
    # a point's code is its parent's followed by the bits of the k generators its level adds
    p = CountablePresentation(explicit_rels=tuple(rels), family=FAMILIES[family])
    diagram = spectrum_tower(p, depth)
    widths = [len(q.gens) for q in truncations_from_scratch(p, depth)]
    for codes in diagram.levels:
        assert all(a < b for a, b in zip(codes, codes[1:]))
    for n, image in enumerate(diagram.transitions):
        k = widths[n + 1] - widths[n]
        assert [c >> k for c in diagram.levels[n + 1]] == [diagram.levels[n][i] for i in image]


def equal(a: str, b: str, flip: bool):
    """The relation that holds when ``a`` equals ``b``, or ``~b`` when ``flip``."""
    x, y = Gen(a), Not(Gen(b)) if flip else Gen(b)
    return Or(And(x, Not(y)), And(y, Not(x)))


# levels of more than 64 generators, whose codes do not fit a machine word
@pytest.mark.parametrize("rels, depth", [
    (ninf(100), 100),
    ([And(Gen("g0"), Gen("g80")), *ninf(100)[1:]], 100),  # g1..g79 come in below g80
    ([equal(f"g{i + 1}", f"g{i}", False) for i in range(100)], 100),
    # g(3j) is g0 and every other generator its complement, so bits 1 and 64 below
    # g0's differ from it; g0 is read from bit 64 up at level 64 on, and from bit
    # 127 at level 127
    ([equal(f"g{i + 1}", "g0", (i + 1) % 3 != 0) for i in range(130)], 130),
], ids=["ninf", "ninf-below-g80", "constant", "alternating"])
def test_wide_towers_match_the_point_by_point_oracle(rels, depth):
    p = CountablePresentation(explicit_rels=tuple(rels))
    diagram = spectrum_tower(p, depth)
    assert max(diagram.levels[-1]).bit_length() > 64
    assert in_index_order(diagram, p) == tower_point_by_point(p, depth)


@pytest.mark.parametrize("n", range(13))
def test_generator_masks_match_the_table_scan(n):
    # the relation ~g keeps exactly the codes where g is 1: each spectrum reads back g's mask
    gens = [f"g{i}" for i in range(n)]
    for g in gens:
        p = Presentation.make(gens, [Not(Gen(g))])
        assert spectrum(p).codes == codes_by_compress(p)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("table", ["none", "full", "bit 0", "top bit"])
def test_code_scan_edge_cases(n, table):
    gens = GENS[:n]
    rels = {
        "none": [ONE],
        "full": [],
        "bit 0": [join([Gen(g) for g in gens])],  # only the all-zero point
        "top bit": [Not(meet([Gen(g) for g in gens]))],  # only the all-one point
    }[table]
    p = Presentation.make(gens, rels)
    expected = {"none": (), "full": tuple(range(2**n)), "bit 0": (0,), "top bit": (2**n - 1,)}
    assert spectrum(p).codes == codes_by_compress(p) == expected[table]


def test_no_generators():
    a = spectrum(free(0))
    assert a.codes == (code_of(()),)
    assert evaluate(ONE, a) == "1"
    assert evaluate(ZERO, a) == "0"
    assert point_map(hom(free(0), {}, free(2))) == [0, 0, 0, 0]


def test_relation_one_empties_the_spectrum():
    a = spectrum(Presentation.make(["g0", "g1"], [ONE]))
    assert a.codes == ()
    assert evaluate(Or(Gen("g1"), ONE), a) == ""
    assert evaluate(ZERO, a) == ""


def test_relation_zero_keeps_every_assignment():
    a = spectrum(Presentation.make(["g0", "g1"], [ZERO]))
    assert tuple(point_of(c, 2) for c in a.codes) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert evaluate(And(Gen("g0"), Not(Gen("g1"))), a) == "0010"


def test_deep_term_does_not_hit_the_recursion_limit():
    t = Gen("g0")
    for _ in range(5000):
        t = Not(t)
    assert evaluate(t, spectrum(free(1))) == "01"
    assert eval_term(Not(t), {"g0": 1}) == 0


# the JSON report's separator at depth 1, and codes past one 64-bit word
@settings(max_examples=300)
@given(
    st.integers(0, 70).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), max_size=40))),
    st.sampled_from(["", " ", '",\n    "']),
)
@example((0, []), " ")
@example((70, [2**70 - 1, 2**64, 2**64 - 1, 0]), "")
def test_digit_rows_match_one_string_per_code(case, sep):
    n, codes = case
    rows = [format(c | 1 << n, "b")[1:] for c in codes]  # n digits, also for n = 0
    assert digit_rows(codes, n, sep) == sep.join(rows) + (sep if rows else "")
