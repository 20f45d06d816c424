"""End-to-end acceptance checks: exhaustive and randomized, all exact.

Every check compares library output against an independent oracle computed
inside the test (brute force, rational elimination, or exhaustive
enumeration), with zero tolerance.
"""

import itertools
import random
from fractions import Fraction

from conftest import (
    code_of,
    dense,
    interleaving_pullback,
    near_companion,
    point_of,
    random_term,
    rational_rank,
    witness_from_scratch,
)
from lemmas import (
    FiniteCover,
    Or,
    TRIVIAL_GROUP,
    Z,
    all_words,
    binfty_normal_form,
    cech_complex,
    closed_from_decidables,
    complement_open_union,
    constraint_emptiness_witness,
    contains,
    cs_value,
    from_rows,
    near,
    points_at_depth,
    snf,
    snf_diagonal,
)
from stonework.boolalg import (
    Presentation,
    analyze_morphism,
    binfty,
    check_duality,
    evaluate,
    hom,
    llpo_product_presentation,
    llpo_split,
    minimal_join_witness,
    separate_closed,
    spectrum,
    wlpo_counterexample,
)
from stonework.errors import RelationNotKilled
from stonework.interval import (
    BitWord,
    circle_graph,
    decidable_image,
    complement_closed_union,
    interval_graph,
    restrict_graph_map,
)
from stonework.profinite import SeqDiagram
from stonework.terms import And, Gen, Not, ONE, Term, ZERO
from stonework.zhomology import (
    IntMatrix,
    graph_cech_complex,
    homology,
    level_cohomology,
    stabilization_report,
)


def _semantic_terms(gens: list[str], depth: int) -> list[Term]:
    """One representative term per truth table, grown by grammar depth.

    Deduplication by truth table is sound for duality checking because a
    presentation's spectrum depends only on the zero sets of its relations.
    """
    assignments = list(itertools.product((0, 1), repeat=len(gens)))

    def table(t: Term) -> tuple[int, ...]:
        from stonework.terms import eval_term

        return tuple(eval_term(t, dict(zip(gens, a))) for a in assignments)

    seen: dict[tuple[int, ...], Term] = {}
    layer: list[Term] = [ZERO, ONE] + [Gen(g) for g in gens]
    for t in layer:
        seen.setdefault(table(t), t)
    for _ in range(depth):
        current = list(seen.values())
        new: list[Term] = [Not(t) for t in current]
        new.extend(And(a, b) for a, b in itertools.combinations(current, 2))
        new.extend(Or(a, b) for a, b in itertools.combinations(current, 2))
        for t in new:
            seen.setdefault(table(t), t)
    return list(seen.values())


def test_01_duality_holds_for_every_small_presentation():
    # exhaustive over <= 3 generators, <= 2 relations from the depth-<=3
    # grammar (one representative per distinct truth table)
    checked = 0
    for k in range(0, 4):
        gens = [f"g{i}" for i in range(k)]
        terms = _semantic_terms(gens, 3)
        rel_lists = [()]
        rel_lists += [(t,) for t in terms]
        rel_lists += list(itertools.combinations_with_replacement(terms, 2))
        for rels in rel_lists:
            rep = check_duality(Presentation.make(gens, list(rels)))
            assert rep.bijective, (gens, rels)
            assert rep.n_elements == 2**rep.n_points
            checked += 1
    assert checked >= 1500


def test_02_injectivity_always_matches_dual_surjectivity():
    rng = random.Random(20240)
    checked = 0
    while checked < 500:
        k_src, k_dst = rng.randint(1, 4), rng.randint(1, 4)
        src_gens = [f"g{i}" for i in range(k_src)]
        dst_gens = [f"g{i}" for i in range(k_dst)]
        src = Presentation.make(
            src_gens, [random_term(rng, src_gens, 3) for _ in range(rng.randint(0, 2))]
        )
        dst = Presentation.make(
            dst_gens, [random_term(rng, dst_gens, 3) for _ in range(rng.randint(0, 2))]
        )
        images = {g: random_term(rng, dst_gens, 3) for g in src_gens}
        try:
            m = hom(src, images, dst)
        except RelationNotKilled:
            continue
        rep = analyze_morphism(m)
        assert rep.axiom2_consistent
        assert rep.injective == rep.point_map_surjective
        checked += 1
    assert checked == 500


def test_03_stagewise_normal_forms_classify_and_round_trip():
    for n in range(0, 11):
        a = spectrum(binfty(n))
        assert a.n_points == n + 1
        seen = set()
        for v in itertools.product((0, 1), repeat=a.n_points):
            nf = binfty_normal_form(v, n)
            key = (nf.kind, nf.indices)
            assert key not in seen  # classification is unique
            seen.add(key)
            assert evaluate(nf.to_term(), a) == v  # and round-trips
        assert len(seen) == 2 ** (n + 1)


def test_04_interleaving_split_is_injective_with_exact_decode():
    for n in range(1, 9):
        rep = llpo_split(n)
        assert rep.injective
        assert rep.spectrum_map_surjective
        assert rep.decode_consistent
        # independent decode oracle: each source point must be recovered by
        # restricting its decoded side/point along the interleaving map
        src = spectrum(binfty(2 * n))
        dst = spectrum(llpo_product_presentation(n))
        for i, (side, beta) in enumerate(rep.decode):
            if side == "left":
                dst_pt = (1,) + beta + (0,) * n
            else:
                dst_pt = (0,) + (0,) * n + beta
            assert code_of(dst_pt) in dst.codes
            assert code_of(interleaving_pullback(dst_pt, n)) == src.codes[i]
        images = {code_of(interleaving_pullback(point_of(c, 2 * n + 1), n)) for c in dst.codes}
        assert images == set(src.codes)


def test_05_every_candidate_zero_decider_is_refuted():
    rng = random.Random(505)
    gens = [f"g{i}" for i in range(6)]
    for _ in range(100):
        c = random_term(rng, gens, 4)
        rep = wlpo_counterexample(c)
        # the two probe sequences evaluate identically...
        assert rep.value_beta == rep.value_gamma
        # ...while exactly one of them is all-zero
        assert all(b == 0 for b in rep.beta)
        assert sum(rep.gamma) == 1 and rep.gamma[-1] == 1
        assert rep.verdict in ("fails_on_beta", "fails_on_gamma")


def _random_diagram(rng: random.Random, depth: int) -> SeqDiagram:
    levels = []
    for n in range(depth):
        levels.append(tuple(f"v{n}_{i}" for i in range(rng.randint(1, 4))))
    transitions = []
    for n in range(depth - 1):
        transitions.append(tuple(rng.randrange(len(levels[n])) for _ in levels[n + 1]))
    return SeqDiagram(tuple(levels), tuple(transitions))


def test_06_minimal_prefix_and_emptiness_match_brute_force():
    rng = random.Random(606)
    # minimal trivializing prefix vs. testing every prefix
    for _ in range(100):
        k = rng.randint(1, 3)
        gens = [f"g{i}" for i in range(k)]
        p = Presentation.make(
            gens, [random_term(rng, gens, 2) for _ in range(rng.randint(0, 1))]
        )
        seq = [random_term(rng, gens, 2) for _ in range(6)]
        bound = len(seq) - 1
        assert minimal_join_witness(p, seq, bound) == witness_from_scratch(p, seq, bound)

    # emptiness witness vs. exhaustive chain intersection
    for _ in range(60):
        d = _random_diagram(rng, rng.randint(1, 6))
        subsets = [
            {x for x in level if rng.random() < 0.6} for level in d.levels
        ]
        def least_failing_level(sets) -> int | None:
            for k in range(len(d.levels)):
                chains = [
                    c
                    for c in points_at_depth(d, k)
                    if all(c[n] in sets[n] for n in range(k + 1))
                ]
                if not chains:
                    return k
            return None

        # raw constraints: least level through which no chain survives
        assert constraint_emptiness_witness(d, subsets) == least_failing_level(subsets)
        # saturated closed tower: same question against its selected sets
        tower = closed_from_decidables(d, subsets)
        assert constraint_emptiness_witness(tower.base, tower.selected) == least_failing_level(tower.selected)


def test_07_separator_contains_f_and_misses_g():
    rng = random.Random(707)
    done = 0
    while done < 100:
        k = rng.randint(1, 4)
        gens = [f"g{i}" for i in range(k)]
        p = Presentation.make(
            gens, [random_term(rng, gens, 2) for _ in range(rng.randint(0, 1))]
        )
        a = spectrum(p)
        fs = [random_term(rng, gens, 3) for _ in range(rng.randint(1, 3))]
        gs = [random_term(rng, gens, 3) for _ in range(rng.randint(1, 3))]
        f_vecs = [evaluate(f, a) for f in fs]
        g_vecs = [evaluate(g, a) for g in gs]
        in_f = [all(v[i] == 0 for v in f_vecs) for i in range(a.n_points)]
        in_g = [all(v[i] == 0 for v in g_vecs) for i in range(a.n_points)]
        if any(f and g for f, g in zip(in_f, in_g)):
            continue
        d = separate_closed(p, fs, gs)
        assert all(d[i] == 1 for i in range(a.n_points) if in_f[i])  # F inside D
        assert all(d[i] == 0 for i in range(a.n_points) if in_g[i])  # G outside D
        done += 1


def _companion_pairs(n: int) -> set:
    """All ordered word pairs sharing a common witness prefix, enumerated once.

    This iterates the same witness space the pairwise search walks (every
    prefix u with its two completions), so membership here is exactly the
    companion relation; factoring the enumeration keeps the full n = 8 sweep
    inside the time budget.
    """
    pairs = set()
    for m in range(n + 1):
        for u in itertools.product((0, 1), repeat=m):
            p0 = (u + (0,) + (1,) * n)[:n]
            p1 = (u + (1,) + (0,) * n)[:n]
            for s in (p0, p1):
                for t in (p0, p1):
                    pairs.add((s, t))
    return pairs


def test_08_adjacency_equals_common_witness_nearness():
    # direct function-level agreement, exhaustive through n = 6
    for n in range(0, 7):
        words = all_words(n)
        witnessed = _companion_pairs(n)
        for s in words:
            for t in words:
                c = near_companion(n, s, t)
                assert c == near(n, s, t)
                assert c == ((s.bits, t.bits) in witnessed)
    # n = 7, 8: the witness relation is enumerated once and compared
    # exhaustively; the pairwise search is spot-checked against it
    rng = random.Random(808)
    for n in (7, 8):
        words = all_words(n)
        witnessed = _companion_pairs(n)
        for s in words:
            sv = s.value
            for t in words:
                assert (abs(sv - t.value) <= 1) == ((s.bits, t.bits) in witnessed)
        for _ in range(300):
            s, t = rng.choice(words), rng.choice(words)
            assert near_companion(n, s, t) == ((s.bits, t.bits) in witnessed)


def test_09_cylinder_images_match_pointwise_brute_force():
    probes = []
    for u in all_words(10):
        d = cs_value(u)
        probes.append((d, Fraction(d.num, 2**d.exp)))

    def oracle(words: list[BitWord], x: Fraction) -> bool:
        for w in words:
            lo = Fraction(w.value, 2**w.length)
            if lo <= x <= lo + Fraction(1, 2**w.length):
                return True
        return False

    def check(words: list[BitWord]) -> None:
        u = decidable_image(words)
        # normalized: ordered parts with genuine gaps
        for (lo, hi), (lo2, _) in zip(u.parts, u.parts[1:]):
            assert hi < lo2
        for d, x in probes:
            assert contains(u, d) == oracle(words, x)
        # complement of complement restores the original
        assert complement_open_union(complement_closed_union(u)).parts == u.parts

    # every single-word cylinder with word length <= 6
    for n in range(0, 7):
        for w in all_words(n):
            check([w])
    # random multi-word decidable sets
    rng = random.Random(909)
    pool = [w for n in range(1, 7) for w in all_words(n)]
    for _ in range(50):
        check(rng.sample(pool, rng.randint(1, 6)))


def test_10_degree_one_exactness_on_random_covers():
    rng = random.Random(1010)
    for _ in range(200):
        base_size = rng.randint(1, 4)
        base = tuple(f"U{i}" for i in range(base_size))
        fibers = tuple(
            tuple(f"s{i}_{j}" for j in range(rng.randint(1, 4)))
            for i in range(base_size)
        )
        for spec in ("trivial", "fiber-powers"):
            cov = FiniteCover(base, fibers, spec)
            h = homology(cech_complex(cov))
            assert h.h1 == TRIVIAL_GROUP, (base, fibers, spec)


def test_11_interval_is_contractible_at_every_level():
    for n in range(0, 9):
        lc = level_cohomology(n, graph_cech_complex(interval_graph(n)))
        assert lc.h0 == Z
        assert lc.h1 == TRIVIAL_GROUP
        # full augmented exactness: injective augmentation, no reduced h0,
        # no h1
        assert lc.exact_at == (True, True, True)


def test_12_circle_cohomology_stabilizes_from_level_two():
    for n in range(2, 9):
        lc = level_cohomology(n, graph_cech_complex(circle_graph(n)))
        assert (lc.h0, lc.h1) == (Z, Z)
    rep = stabilization_report(map(circle_graph, range(9)), map(restrict_graph_map, range(8)))
    assert [lc.h1 for lc in rep.levels[2:]] == [Z] * 7
    for n in range(2, 8):
        assert rep.h0_iso[n]
        assert rep.h1_iso[n]


def _det(m: IntMatrix) -> Fraction:
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


def test_13_smith_form_on_random_matrices():
    rng = random.Random(1313)
    for _ in range(500):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = from_rows(
            [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
        )
        u, d, v = snf(m)
        assert u @ m @ v == d
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1
        diag = snf_diagonal(d)
        nonzero = [x for x in diag if x != 0]
        assert all(x > 0 for x in nonzero)
        assert diag[: len(nonzero)] == nonzero  # zeros trail
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert len(nonzero) == rational_rank(m)
