"""Finite Boolean algebras: spectra, duality, morphisms, and the stage ops."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    code_of,
    duality_failures_exhaustive,
    interleaving_pullback,
    point_of,
    presentations,
    random_term,
    witness_from_scratch,
)
from lemmas import Or, binfty_normal_form, epi_mono_factor, free, identity, one_element, realize, zero_element
from stonework import boolalg, cli
from stonework.boolalg import (
    DEFAULT_CAP,
    Presentation,
    analyze_morphism,
    binfty,
    check_duality,
    enumeration_cap,
    evaluate,
    gen_index,
    hom,
    llpo_product_presentation,
    llpo_split,
    minimal_join_witness,
    minterm,
    point_map,
    separate_closed,
    spectrum,
    wlpo_counterexample,
)
from stonework.errors import (
    BadArgument,
    CapExceeded,
    DuplicateGenerator,
    NotDisjoint,
    RelationNotKilled,
    UnknownGenerator,
)
from stonework.terms import And, Gen, Not, ONE, ZERO, eval_term, substitute

G0, G1, G2 = Gen("g0"), Gen("g1"), Gen("g2")


class TestPresentation:
    def test_duplicate_generator_rejected(self):
        with pytest.raises(DuplicateGenerator):
            Presentation.make(["g0", "g0"])

    def test_relation_over_unknown_generator_rejected(self):
        with pytest.raises(UnknownGenerator):
            Presentation.make(["g0"], [G1])


class TestSpectrum:
    def test_empty_presentation_has_one_point(self):
        a = spectrum(Presentation.make([]))
        assert a.codes == (code_of(()),)

    def test_free_two_generators_lex_order(self):
        a = spectrum(free(2))
        assert tuple(point_of(c, 2) for c in a.codes) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_relation_one_kills_everything(self):
        a = spectrum(Presentation.make(["g0"], [ONE]))
        assert a.codes == ()
        assert a.n_points == 0

    def test_binfty_points_are_zero_and_one_hots(self):
        a = spectrum(binfty(3))
        assert tuple(point_of(c, 3) for c in a.codes) == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert a.n_points == 4

    def test_complementary_relations_trivialize(self):
        a = spectrum(Presentation.make(["g0"], [G0, Not(G0)]))
        assert a.n_points == 0

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("STONEWORK_CAP", "4")
        assert spectrum(free(4)).n_points == 16
        with pytest.raises(CapExceeded) as e:
            spectrum(free(5))
        assert (e.value.needed, e.value.cap) == (5, 4)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("STONEWORK_CAP", "2")
        assert enumeration_cap() == 2
        with pytest.raises(CapExceeded):
            spectrum(free(3))
        monkeypatch.delenv("STONEWORK_CAP")
        assert enumeration_cap() == DEFAULT_CAP

    def test_changed_cap_takes_effect_on_next_call(self, monkeypatch):
        p = free(4)
        spectrum(p)
        monkeypatch.setenv("STONEWORK_CAP", "3")
        with pytest.raises(CapExceeded):
            spectrum(p)
        monkeypatch.setenv("STONEWORK_CAP", "4")
        assert spectrum(p).n_points == 16


class TestEvaluateRealize:
    def test_generator_column_over_free_two(self):
        a = spectrum(free(2))
        assert evaluate(G0, a) == (0, 0, 1, 1)
        assert evaluate(G1, a) == (0, 1, 0, 1)
        assert evaluate(ZERO, a) == (0, 0, 0, 0)
        assert evaluate(ONE, a) == (1, 1, 1, 1)

    def test_minterm_selects_exactly_one_point(self):
        a = spectrum(free(3))
        for i in range(a.n_points):
            v = evaluate(minterm(a, i), a)
            assert v == tuple(1 if j == i else 0 for j in range(a.n_points))

    def test_realize_round_trip_exhaustive_free_three(self):
        a = spectrum(free(3))
        for v in itertools.product((0, 1), repeat=a.n_points):
            assert evaluate(realize(v, a), a) == v

    def test_realize_over_empty_spectrum(self):
        a = spectrum(Presentation.make(["g0"], [ONE]))
        assert realize((), a) == ZERO

    def test_realize_length_mismatch(self):
        a = spectrum(free(1))
        with pytest.raises(ValueError):
            realize((0, 1, 0), a)

    @given(st.integers(0, 2**5 - 1))
    def test_realize_round_trip_binfty4(self, bits: int):
        a = spectrum(binfty(4))
        v = tuple((bits >> i) & 1 for i in range(a.n_points))
        assert evaluate(realize(v, a), a) == v


class TestDuality:
    def test_free_two(self):
        rep = check_duality(free(2))
        assert (rep.n_points, rep.n_elements) == (4, 16)
        assert rep.bijective

    def test_binfty_two(self):
        rep = check_duality(binfty(2))
        assert (rep.n_points, rep.n_elements) == (3, 8)
        assert rep.bijective

    def test_trivial_algebra(self):
        rep = check_duality(Presentation.make(["g0"], [ONE]))
        assert (rep.n_points, rep.n_elements) == (0, 1)
        assert rep.bijective

    @settings(max_examples=100, deadline=None)
    @given(presentations(max_gens=3))
    def test_certificate_agrees_with_exhaustive_check(self, p):
        # up to 3 generators: spectra of up to 8 points, 256 vectors
        rep = check_duality(p)
        assert rep.bijective == (duality_failures_exhaustive(spectrum(p)) == ())

    @pytest.mark.parametrize("point", range(4))
    @pytest.mark.parametrize("wrong", [
        lambda a, i, real: ZERO,
        lambda a, i, real: ONE,
        lambda a, i, real: real(a, (i + 1) % 4),
        lambda a, i, real: Or(real(a, i), real(a, (i + 1) % 4)),
    ])
    def test_wrong_minterm_is_caught(self, monkeypatch, point, wrong):
        real = boolalg.minterm
        for target in ("stonework.boolalg.minterm", "lemmas.minterm"):  # realize builds on the corrupted minterm too
            monkeypatch.setattr(target, lambda a, i: wrong(a, i, real) if i == point else real(a, i))
        assert check_duality(free(2)).bijective is False
        assert duality_failures_exhaustive(spectrum(free(2)))

    @pytest.mark.parametrize("p, points, needed", [
        (free(0), 1, 0),
        (free(1), 2, 2),
        (binfty(2), 3, 4),
        (free(2), 4, 4),
        (binfty(4), 5, 6),
        (free(5), 32, 10),
    ])
    def test_cap_bounds_the_certificate(self, monkeypatch, p, points, needed):
        # points tables of points bits each: 2^needed bits, not 2^points vectors
        monkeypatch.setenv("STONEWORK_CAP", str(needed))
        rep = check_duality(p)
        assert (rep.n_points, rep.bijective) == (points, True)
        if needed:
            monkeypatch.setenv("STONEWORK_CAP", str(needed - 1))
            with pytest.raises(CapExceeded) as e:
                check_duality(p)
            assert (e.value.needed, e.value.cap) == (needed, needed - 1)
            assert str(e.value).startswith(f"duality over {points} points: ")

    def test_failure_walk_is_capped_by_the_points(self, monkeypatch, tmp_path, capsys):
        # 8 points: the certificate needs 2^6 bits, and a wrong minterm walks
        # none of the 2^8 vectors, so it fails the check and does not hit the cap
        monkeypatch.setenv("STONEWORK_CAP", "7")
        assert check_duality(free(3)).bijective
        monkeypatch.setattr(boolalg, "minterm", lambda a, i: ZERO)
        assert check_duality(free(3)).bijective is False
        path = tmp_path / "free3.txt"
        path.write_text("gens: g0 g1 g2\nrels:\n", encoding="utf-8")
        assert cli.main(["duality", str(path)]) == cli.EXIT_PROPERTY_FAILED
        assert capsys.readouterr().out.endswith("CHECK FAILED\n")


class TestMorphisms:
    def test_hom_requires_all_images(self):
        with pytest.raises(UnknownGenerator):
            hom(free(2), {"g0": G0}, free(1))

    def test_hom_rejects_an_image_outside_dst_that_no_relation_uses(self):
        with pytest.raises(UnknownGenerator, match="'x'"):
            hom(Presentation.make(["g0", "g1"], [G0]), {"g0": G0, "g1": Gen("x")}, free(1))

    @pytest.mark.parametrize("image", ["1", "g0", "h0"])
    def test_hom_rejects_a_bare_str_image(self, image):
        # a str iterates as one-character tokens, so "1" would read as ONE
        with pytest.raises(TypeError, match="not a term"):
            hom(free(1), {"g0": image}, free(1))

    def test_hom_rejects_unkilled_relation(self):
        with pytest.raises(RelationNotKilled) as exc:
            hom(binfty(2), {"g0": G0, "g1": G0}, free(1))
        assert exc.value.index == 0

    def test_identity_analysis(self):
        rep = analyze_morphism(identity(free(2)))
        assert rep.injective
        assert rep.kernel_size == 1
        assert rep.point_map == (0, 1, 2, 3)
        assert rep.point_map_surjective
        assert rep.axiom2_consistent

    def test_quotient_map_kernel(self):
        # free(g0) -> free(g0)/(g0 = 0): kernel is {0, g0}
        src = free(1)
        dst = Presentation.make(["g0"], [G0])
        m = hom(src, {"g0": G0}, dst)
        rep = analyze_morphism(m)
        assert not rep.injective
        assert rep.kernel_size == 2
        assert rep.kernel_top == (0, 1)  # the element g0, i.e. true at point (1,)
        assert not rep.point_map_surjective
        assert rep.axiom2_consistent

    def test_inclusion_into_larger_free_algebra(self):
        m = hom(free(1), {"g0": G0}, free(2))
        rep = analyze_morphism(m)
        assert rep.injective
        assert rep.point_map_surjective
        assert rep.axiom2_consistent

    def test_point_map_is_precomposition(self):
        m = hom(free(1), {"g0": And(G0, G1)}, free(2))
        src_alg, dst_alg = spectrum(free(1)), spectrum(free(2))
        pm = point_map(m)
        for i, code in enumerate(dst_alg.codes):
            expected = (eval_term(And(G0, G1), dict(zip(dst_alg.source.gens, point_of(code, 2)))),)
            assert src_alg.codes[pm[i]] == code_of(expected)

    def test_epi_mono_factor_diagonal(self):
        # g1 |-> g0 collapses free(2) onto the diagonal subalgebra
        m = hom(free(2), {"g0": G0, "g1": G0}, free(1))
        epi, middle, mono = epi_mono_factor(m)
        assert {point_of(c, 2) for c in middle.codes} == {(0, 0), (1, 1)}
        # epi is surjective on algebras: its point map is injective
        pm_epi = point_map(epi)
        assert len(set(pm_epi)) == len(pm_epi)
        # mono is injective on algebras: its point map is surjective
        assert analyze_morphism(mono).injective
        assert analyze_morphism(mono).point_map_surjective
        # composite equals the original on generators, as elements of dst
        dst_alg = spectrum(m.dst)
        for g in m.src.gens:
            composite = substitute(epi.images[g], mono.images)
            assert evaluate(composite, dst_alg) == evaluate(m.images[g], dst_alg)

    def test_epi_mono_factor_to_trivial(self):
        m = hom(free(1), {"g0": ZERO}, Presentation.make([]))
        _, middle, _ = epi_mono_factor(m)
        assert middle.n_points == 1

    def test_axiom2_on_random_morphisms(self):
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            k_src, k_dst = rng.randint(1, 3), rng.randint(1, 3)
            src_gens = [f"g{i}" for i in range(k_src)]
            dst_gens = [f"g{i}" for i in range(k_dst)]
            src = Presentation.make(
                src_gens,
                [random_term(rng, src_gens, 2) for _ in range(rng.randint(0, 2))],
            )
            dst = Presentation.make(
                dst_gens,
                [random_term(rng, dst_gens, 2) for _ in range(rng.randint(0, 2))],
            )
            images = {g: random_term(rng, dst_gens, 2) for g in src_gens}
            try:
                m = hom(src, images, dst)
            except RelationNotKilled:
                continue
            assert analyze_morphism(m).axiom2_consistent
            checked += 1


class TestMorphismEvaluations:
    """``hom`` evaluates each image and each relation once, under the image
    tables and with no substitution; ``analyze_morphism`` substitutes and
    evaluates each source minterm once."""

    @pytest.mark.parametrize("src", [free(8), binfty(8)], ids=["free", "binfty"])
    def test_every_point_killed(self, monkeypatch, src):
        evaluated, substituted = [], []
        real_eval, real_substitute = boolalg.eval_term, boolalg.substitute
        monkeypatch.setattr(boolalg, "eval_term", lambda t, *rest: evaluated.append(t) or real_eval(t, *rest))
        monkeypatch.setattr(boolalg, "substitute", lambda *args: substituted.append(args) or real_substitute(*args))
        dst = Presentation.make(["h0", "h1"], [ONE])  # empty spectrum
        images = {g: Gen(f"h{i % 2}") for i, g in enumerate(src.gens)}
        m = hom(src, images, dst)
        assert evaluated == [ONE, *images.values(), *src.rels]
        assert substituted == []
        evaluated.clear()
        rep = analyze_morphism(m)
        minterms = [minterm(m.src_alg, i) for i in range(m.src_alg.n_points)]
        assert substituted == [(t, images) for t in minterms]
        assert evaluated == [*src.rels, *(substitute(t, images) for t in minterms)]
        assert rep.kernel_top == (1,) * len(minterms)
        assert (rep.kernel_size, rep.point_map) == (2 ** len(minterms), ())


class TestBinftyNormalForm:
    def test_zero_and_one(self):
        a = spectrum(binfty(3))
        nf = binfty_normal_form(zero_element(a), 3)
        assert (nf.kind, nf.indices) == ("join", frozenset())
        nf = binfty_normal_form(one_element(a), 3)
        assert (nf.kind, nf.indices) == ("meetneg", frozenset())

    def test_generator_is_singleton_join(self):
        a = spectrum(binfty(3))
        nf = binfty_normal_form(evaluate(G0, a), 3)
        assert (nf.kind, nf.indices) == ("join", frozenset({0}))

    def test_negated_generator_is_singleton_meetneg(self):
        a = spectrum(binfty(3))
        nf = binfty_normal_form(evaluate(Not(G1), a), 3)
        assert (nf.kind, nf.indices) == ("meetneg", frozenset({1}))

    def test_join_of_two_generators(self):
        a = spectrum(binfty(3))
        nf = binfty_normal_form(evaluate(Or(G0, G1), a), 3)
        assert (nf.kind, nf.indices) == ("join", frozenset({0, 1}))

    def test_round_trip_exhaustive_small_stages(self):
        for n in range(0, 6):
            a = spectrum(binfty(n))
            for v in itertools.product((0, 1), repeat=a.n_points):
                nf = binfty_normal_form(v, n)
                assert evaluate(nf.to_term(), a) == v

    def test_normal_forms_are_distinct(self):
        n = 4
        a = spectrum(binfty(n))
        seen = set()
        for v in itertools.product((0, 1), repeat=a.n_points):
            nf = binfty_normal_form(v, n)
            key = (nf.kind, nf.indices)
            assert key not in seen
            seen.add(key)

    def test_str(self):
        a = spectrum(binfty(2))
        assert str(binfty_normal_form(evaluate(Or(G0, G1), a), 2)) == "Join{0,1}"
        assert str(binfty_normal_form(one_element(a), 2)) == "MeetNeg{}"

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            binfty_normal_form((0, 0), 3)


class TestSpectrumReuse:
    """A morphism computes the spectrum of each end once, whoever asks."""

    @pytest.fixture
    def spectrum_calls(self, monkeypatch):
        calls = []
        real = boolalg.spectrum
        monkeypatch.setattr(boolalg, "spectrum", lambda p: calls.append(p) or real(p))
        return calls

    def test_llpo_split(self, spectrum_calls):
        llpo_split(3)
        assert spectrum_calls == [llpo_product_presentation(3), binfty(6)]

    def test_parsed_morphism(self, spectrum_calls):
        from stonework.cli import parse_morphism_file

        m = parse_morphism_file(
            "src-gens: g0 g1\nsrc-rels: g0 & g1\ndst-gens: h0 h1\ndst-rels:\n"
            "map: g0 -> h0 & h1, g1 -> ~h0\n"
        )
        analyze_morphism(m)
        assert spectrum_calls == [m.dst, m.src]


class TestLlpo:
    def test_product_presentation_spectrum(self):
        a = spectrum(llpo_product_presentation(1))
        # e with a0 <= e, b0 <= ~e: points (e, a0, b0)
        assert {point_of(c, 3) for c in a.codes} == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)}

    def test_stage_one_split(self):
        rep = llpo_split(1)
        assert rep.injective
        assert rep.spectrum_map_surjective
        assert rep.decode_consistent
        # 4 product points onto the 3 points of binfty(2)
        dst = spectrum(llpo_product_presentation(1))
        assert dst.n_points == 4
        images = {interleaving_pullback(point_of(c, 3), 1) for c in dst.codes}
        assert images == {point_of(c, 2) for c in spectrum(binfty(2)).codes}

    def test_decode_sides(self):
        rep = llpo_split(2)
        src = spectrum(binfty(4))
        for (side, beta), code in zip(rep.decode, src.codes):
            pt = point_of(code, 4)
            support = [j for j, b in enumerate(pt) if b]
            if not support:
                assert side == "left" and beta == (0, 0)
            elif support[0] % 2 == 0:
                assert side == "left" and beta[support[0] // 2] == 1
            else:
                assert side == "right" and beta[support[0] // 2] == 1

    def test_stage_zero_rejected(self):
        with pytest.raises(ValueError):
            llpo_split(0)


class TestWlpo:
    def test_single_generator(self):
        rep = wlpo_counterexample(G0)
        assert rep.k == 0
        assert rep.beta == (0, 0)
        assert rep.gamma == (0, 1)
        assert rep.value_beta == rep.value_gamma == 0
        assert rep.verdict == "fails_on_gamma"

    def test_constant_one(self):
        rep = wlpo_counterexample(ONE)
        assert rep.k == -1
        assert rep.beta == (0,)
        assert rep.gamma == (1,)
        assert rep.value_beta == 1
        assert rep.verdict == "fails_on_beta"

    def test_join_of_two(self):
        rep = wlpo_counterexample(Or(G0, G1))
        assert rep.k == 1
        assert rep.value_beta == rep.value_gamma == 0
        assert rep.verdict == "fails_on_gamma"

    def test_refutation_core_on_random_terms(self):
        # the candidate cannot see index k+1, so beta and gamma agree
        rng = random.Random(11)
        gens = [f"g{i}" for i in range(6)]
        for _ in range(50):
            t = random_term(rng, gens, 4)
            rep = wlpo_counterexample(t)
            assert rep.value_beta == rep.value_gamma
            assert rep.gamma[-1] == 1 and all(b == 0 for b in rep.beta)
            # the two k+2-bit sequences, evaluated in full
            names = [f"g{i}" for i in range(rep.k + 2)]
            assert rep.beta == (0,) * len(names) and rep.gamma == rep.beta[:-1] + (1,)
            assert rep.value_beta == eval_term(t, dict.fromkeys(names, 0))
            assert rep.value_gamma == eval_term(t, {**dict.fromkeys(names, 0), names[-1]: 1})

    def test_sequences_longer_than_two_to_the_cap_are_refused(self, monkeypatch):
        monkeypatch.setenv("STONEWORK_CAP", "3")
        assert len(wlpo_counterexample(Gen("g6")).gamma) == 8
        with pytest.raises(CapExceeded, match="^wlpo sequences of 9 bits: enumeration over 2\\^4 exceeds cap 2\\^3$"):
            wlpo_counterexample(Gen("g7"))

    def test_non_canonical_index_is_unknown(self):
        with pytest.raises(UnknownGenerator, match="'g007'"):
            wlpo_counterexample(Gen("g007"))

    def test_non_indexed_generator_rejected(self):
        with pytest.raises(UnknownGenerator):
            wlpo_counterexample(Gen("x"))

    def test_non_decimal_digit_is_unknown(self):
        # U+1369 is a digit to str.isdigit but not a decimal one
        with pytest.raises(UnknownGenerator, match="^unknown generator 'g\u1369'$"):
            wlpo_counterexample(Gen("g\u1369"))


class TestGenIndex:
    @pytest.mark.parametrize("name, index", [("g0", 0), ("g12", 12), ("g007", 7), ("g\uff13", 3)])
    def test_g_then_decimal_digits(self, name, index):
        assert gen_index(name) == index

    @pytest.mark.parametrize("name", ["g", "x1", "G1", "g-1", "g 1", "g1a", "g\u1369", "g\u00b2", ""])
    def test_any_other_name_is_none(self, name):
        assert gen_index(name) is None

    def test_index_past_int_digits_is_out_of_range(self):
        with pytest.raises(BadArgument, match="^generator index of 5000 digits is out of range$"):
            gen_index("g" + "1" * 5000)


class TestMinimalJoinWitness:
    def test_immediate_trivialization(self):
        assert minimal_join_witness(free(1), [ONE], 10) == 0

    def test_complement_pair(self):
        assert minimal_join_witness(free(1), [G0, Not(G0)], 10) == 1

    def test_never_trivial(self):
        assert minimal_join_witness(free(1), [ZERO] * 5, 10) is None

    def test_bound_respected(self):
        assert minimal_join_witness(free(1), [ZERO, ZERO, ONE], 1) is None
        assert minimal_join_witness(free(1), [ZERO, ZERO, ONE], 2) == 2

    @pytest.mark.parametrize(
        "p, seq, bound, expected",
        [
            (free(1), [G0, Not(G0)], 0, None),
            (free(1), [ONE], 0, 0),
            (free(1), [G0, Not(G0)], 2, 1),
            (free(1), [G0, Not(G0)], 10, 1),
            (free(1), [ZERO, ONE, ZERO], -2, None),  # rels[: bound + 1] would read rels[:-1]
            (free(2), [], 3, None),
            (Presentation.make(["g0"], [ONE]), [ZERO, ZERO], 1, 0),
            (Presentation.make(["g0"], [ONE]), [], 1, None),
            (free(1), [ONE, Gen("x")], 1, 0),  # the unknown generator is never reached
        ],
        ids=["bound-0", "bound-0-hit", "bound-len", "bound-past-len", "negative", "empty-seq",
             "trivial-p", "trivial-p-empty-seq", "unknown-after-witness"],
    )
    def test_edge_cases_match_prefix_rebuild(self, p, seq, bound, expected):
        assert minimal_join_witness(p, seq, bound) == witness_from_scratch(p, seq, bound) == expected

    def test_unknown_generator_before_witness_raises(self):
        for witness in (minimal_join_witness, witness_from_scratch):
            with pytest.raises(UnknownGenerator, match="'x'"):
                witness(free(1), [ZERO, Gen("x"), ONE], 5)


class TestSeparateClosed:
    def test_complement_pair(self):
        # F = {x : x(g0) = 0}, G = {x : x(g0) = 1}; D must contain F, avoid G
        d = separate_closed(free(1), [G0], [Not(G0)])
        assert d == (1, 0)

    def test_whole_space_against_empty(self):
        d = separate_closed(free(1), [ZERO], [ONE])
        assert d == (1, 1)

    def test_intersecting_sets_rejected(self):
        with pytest.raises(NotDisjoint):
            separate_closed(free(1), [G0], [G0])

    def test_each_relation_of_p_is_evaluated_once(self, monkeypatch, tmp_path):
        # the spectrum and the prefix search share one cleared table
        evaluated = []
        real_eval = boolalg.eval_term
        monkeypatch.setattr(boolalg, "eval_term", lambda t, *rest: evaluated.append(t) or real_eval(t, *rest))
        f = tmp_path / "sep.txt"
        f.write_text("gens: g0 g1 g2\nrels: g0 & g1, g1 & ~g2\nfs: g0, g2\ngs: ~g0\n")
        rels = (And(G0, G1), And(G1, Not(G2)))
        assert cli.main(["--json", "separate", str(f)]) == cli.EXIT_OK
        assert [t for t in evaluated if t in rels] == list(rels)
        evaluated.clear()
        assert separate_closed(Presentation.make(["g0", "g1", "g2"], rels), [G0, G2], [Not(G0)]) == (1, 1, 1, 0, 0)
        assert [t for t in evaluated if t in rels] == list(rels)

    def test_separator_properties_on_random_pairs(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            k = rng.randint(1, 3)
            gens = [f"g{i}" for i in range(k)]
            p = Presentation.make(
                gens, [random_term(rng, gens, 2) for _ in range(rng.randint(0, 1))]
            )
            a = spectrum(p)
            fs = [random_term(rng, gens, 2) for _ in range(rng.randint(1, 3))]
            gs = [random_term(rng, gens, 2) for _ in range(rng.randint(1, 3))]
            f_vecs = [evaluate(f, a) for f in fs]
            g_vecs = [evaluate(g, a) for g in gs]
            in_f = [all(v[i] == 0 for v in f_vecs) for i in range(a.n_points)]
            in_g = [all(v[i] == 0 for v in g_vecs) for i in range(a.n_points)]
            if any(f and g for f, g in zip(in_f, in_g)):
                continue
            d = separate_closed(p, fs, gs)
            for i in range(a.n_points):
                if in_f[i]:
                    assert d[i] == 1
                if in_g[i]:
                    assert d[i] == 0
            done += 1
