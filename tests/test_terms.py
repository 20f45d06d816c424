"""Terms as postfix token tuples: constructors, parser, printer, validation
and JSON round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import term_from_json, term_strategy, term_to_json
from lemmas import Or, parse_term_list_by_chunks, render
from stonework.boolalg import Presentation
from stonework.errors import ParseError, UnknownGenerator
from stonework.terms import (
    And,
    Gen,
    Not,
    ONE,
    Term,
    ZERO,
    check_term,
    eval_term,
    generators_of,
    join,
    meet,
    parse_gen_list,
    parse_term,
    parse_term_list,
    substitute,
)

G0, G1, G2 = Gen("g0"), Gen("g1"), Gen("g2")

# tokens, whitespace, and characters that start no token
_PIECES = ["g0", "g1", "x", "0", "1", "&", "|", "~", "(", ")", ",", " ", "\t", "\n", "\xa0", "\x1c", "@", "é", "-", ">"]
# known and unknown names, the operators, parentheses and commas, spaces and
# a character that starts no token
_LIST_PIECES = ["g0", "g1", "x", "0", "1", "~", "&", "|", "(", ")", ",", ",", " ", " ", "@"]


class TestParser:
    def test_precedence_not_binds_tightest_then_and(self):
        # ~g0 & g1 | g2 reads as ((~g0) & g1) | g2
        assert parse_term("~g0 & g1 | g2") == Or(And(Not(G0), G1), G2)

    def test_parens_and_constants(self):
        assert parse_term("(g0 | g1) & ~1") == And(Or(G0, G1), Not(ONE))
        assert parse_term("0") == ZERO
        assert parse_term("1") == ONE

    def test_trailing_operator_rejected(self):
        with pytest.raises(ParseError):
            parse_term("g0 &")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ParseError):
            parse_term("(g0 | g1")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_term("g0 @ g1")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_term("")

    def test_generators_outside_gens_rejected_where_they_stand(self):
        assert parse_term("g0 & ~g1", gens=["g0", "g1"]) == And(G0, Not(G1))
        with pytest.raises(ParseError) as e:
            parse_term("0 & bogus", 4, gens=["g0"])
        assert "'bogus'" in str(e.value) and (e.value.line, e.value.column) == (4, 5)
        with pytest.raises(ParseError):
            parse_term_list("g0, g1", gens=["g0"])

    def test_nested_negation(self):
        assert parse_term("~~g0") == Not(Not(G0))

    def test_term_list(self):
        assert parse_term_list("g0 , g1 & g2") == [G0, And(G1, G2)]
        assert parse_term_list("") == []
        assert parse_term_list("   ") == []

    def test_gen_list(self):
        assert parse_gen_list("g0 g1 g2") == ["g0", "g1", "g2"]
        assert parse_gen_list("") == []

    def test_gen_list_duplicate(self):
        with pytest.raises(ParseError) as e:
            parse_gen_list("g0 g1 g0", 3, 6)
        assert "duplicate generator 'g0'" in str(e.value)
        assert (e.value.line, e.value.column) == (3, 13)

    def test_gen_list_bad_identifier(self):
        with pytest.raises(ParseError):
            parse_gen_list("g0 9x")

    @pytest.mark.parametrize("text, message, column", [
        ("g0 ) @", "trailing input ')'", 4),
        ("g0 & @", "unexpected character '@'", 6),
        ("(g0 | ", "unexpected end of input", 7),
        ("(g0 g1", "expected ')'", 5),
        ("g0 & )", "unexpected token ')'", 6),
        # positions are found again by scanning, so pin them where tokens nest,
        # after whitespace that \S skips, and at the end of input
        ("((g0 & (g1 | @)))", "unexpected character '@'", 14),
        ("(~(g0 | \xe9) & g1)", "unexpected character '\xe9'", 9),
        ("g0 &\xa0\x1c  \t#", "unexpected character '#'", 10),
        ("g0 |\xa0\xa0\x1c\t|", "unexpected token '|'", 9),
        ("~(g0 &", "unexpected end of input", 7),
        ("g0 | \xa0\x1c ", "unexpected end of input", 9),
        ("(g0 & (g1 | g0)", "expected ')'", 16),
    ])
    def test_leftmost_error_is_reported(self, text, message, column):
        with pytest.raises(ParseError) as e:
            parse_term(text)
        assert str(e.value) == f"{message} (line 1, column {column})"

    @pytest.mark.parametrize("text, line, offset, message", [
        ("g0 & g1, ~(g0 | @)", 3, 5, "unexpected character '@' (line 3, column 22)"),
        ("g0, g1 &\xa0", 2, 9, "unexpected end of input (line 2, column 19)"),
        ("g0 | g1, (g1 g0)", 1, 4, "expected ')' (line 1, column 18)"),
    ])
    def test_error_in_a_later_list_term_counts_from_the_offset(self, text, line, offset, message):
        with pytest.raises(ParseError) as e:
            parse_term_list(text, line, offset)
        assert str(e.value) == message

    @settings(max_examples=500)
    @given(
        st.lists(st.sampled_from(_LIST_PIECES), max_size=16).map("".join),
        st.integers(1, 5),
        st.integers(0, 9),
    )
    def test_term_list_matches_a_parse_per_chunk(self, text, line, offset):
        for gens in (None, ["g0", "g1"]):
            outcomes = []
            for parse in (parse_term_list, parse_term_list_by_chunks):
                try:
                    outcomes.append(parse(text, line, offset, gens))
                except ParseError as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1], (text, gens)

    @given(
        st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
        st.sampled_from([None, [], ["g0", "g1"]]),
        st.integers(1, 5),
        st.integers(0, 9),
    )
    def test_any_text_parses_or_fails_inside_itself(self, text, gens, line, offset):
        try:
            t = parse_term(text, line, offset, gens)
        except ParseError as e:
            assert e.line == line and offset + 1 <= e.column <= offset + len(text) + 1
        else:
            assert parse_term(render(t)) == t


class TestPrinter:
    def test_str_inserts_needed_parens(self):
        t = And(Or(G0, G1), Not(G2))
        assert render(t) == "(g0 | g1) & ~g2"
        assert render(And(G0, And(G1, G2))) == "g0 & (g1 & g2)"
        assert render(Or(Or(G0, G1), And(G1, G2))) == "g0 | g1 | g1 & g2"
        assert parse_term(render(t)) == t

    @given(term_strategy(["g0", "g1", "g2"]))
    def test_parse_str_round_trip(self, t: Term):
        assert parse_term(render(t)) == t

    def test_str_of_deep_terms(self):
        negations = G0
        for _ in range(5000):
            negations = Not(negations)
        assert render(negations) == "~" * 5000 + "g0"
        nested = G0
        for _ in range(3000):
            nested = Or(G1, And(G2, nested))
        assert render(nested).startswith("g1 | g2 & (g1 | g2 & (")
        nested_parens = parse_term("(" * 1000 + "g0 | g1" + ")" * 1000)
        assert nested_parens == Or(G0, G1)
        for t in (negations, nested, Not(nested), meet([G0] * 3000)):
            assert parse_term(render(t)) == t

    def test_repr_of_deep_terms(self):
        # a term prints as its tuple of postfix tokens
        assert repr(Not(Not(G0))) == "('g0', '~', '~')"
        assert repr(And(G0, Or(G1, ONE))) == "('g0', 'g1', '1', '|', '&')"
        negations = G0
        for _ in range(5000):
            negations = Not(negations)
        assert repr(negations) == "('g0', " + "'~', " * 4999 + "'~')"


class TestEquality:
    """Terms compare and hash as token tuples, with term_to_json as the reference."""

    @given(term_strategy(["g0", "g1"]), term_strategy(["g0", "g1"]))
    def test_equal_iff_same_structure(self, a: Term, b: Term):
        assert (a == b) == (term_to_json(a) == term_to_json(b))
        if a == b:
            assert hash(a) == hash(b)

    @given(term_strategy(["g0", "g1", "g2"]))
    def test_rebuilt_term_is_equal_and_hashes_equal(self, t: Term):
        copy = term_from_json(term_to_json(t))
        assert copy == t and hash(copy) == hash(t)
        assert {t: 1}[copy] == 1

    def test_order_and_operator_matter(self):
        distinct = [And(G0, G1), And(G1, G0), Or(G0, G1), Not(Not(G0)), G0, ZERO, ONE, Not(ZERO)]
        for i, a in enumerate(distinct):
            for b in distinct[i + 1:]:
                assert a != b
        assert G0 != "g0" and G0 == ("g0",)

    def test_deep_terms_compare_and_hash(self):
        deep = [parse_term("~" * 5000 + "g0"), parse_term(" & ".join(["g0"] * 3000))]
        for t in deep:
            copy = substitute(t, {"g0": G0})
            assert copy == t and hash(copy) == hash(t)
        assert deep[0] != deep[1]


class TestEval:
    def test_truth_table_of_core_ops(self):
        a = {"g0": 1, "g1": 0}
        assert eval_term(G0, a) == 1
        assert eval_term(Not(G0), a) == 0
        assert eval_term(And(G0, G1), a) == 0
        assert eval_term(Or(G0, G1), a) == 1
        assert eval_term(ZERO, a) == 0
        assert eval_term(ONE, a) == 1

    def test_empty_join_is_zero_empty_meet_is_one(self):
        assert join([]) == ZERO
        assert meet([]) == ONE
        assert join([G0]) == G0
        assert meet([G0]) == G0

    def test_generators_of(self):
        assert generators_of(And(G0, Or(G1, Not(G0)))) == {"g0", "g1"}
        assert generators_of(ONE) == set()

    def test_substitute(self):
        t = substitute(And(G0, G1), {"g0": Not(G2), "g1": ONE})
        assert t == And(Not(G2), ONE)

    def test_unknown_generator_named_is_the_leftmost(self):
        # both folds read the tokens in reading order, so they meet 'x' first
        t = And(Gen("x"), Gen("y"))
        with pytest.raises(UnknownGenerator, match="'x'"):
            eval_term(t, {})
        with pytest.raises(UnknownGenerator, match="'x'"):
            substitute(t, {})
        with pytest.raises(UnknownGenerator, match="'y'"):
            check_term(t, {"x"})

    @pytest.mark.parametrize("bad", [
        5,  # not a tuple
        And(G0, (5,)),  # a token neither a name nor a marker
        Not(Or(G1, ("a b",))),  # likewise, nested
        ("g0", "&"),  # an operator short of operands
        ("g0", "g1"),  # operands left over
        (),  # no value at all
        "g0",  # a bare str, whose characters are not tokens
    ], ids=["int", "operand", "nested", "underflow", "leftover", "empty", "str"])
    def test_non_terms_rejected(self, bad):
        with pytest.raises(TypeError, match="not a term"):
            check_term(bad, {"g0", "g1"})
        with pytest.raises(TypeError, match="not a term"):
            Presentation.make(["g0", "g1"], [bad])

    @pytest.mark.parametrize("bad", ["g1", 5, None, ["g1"]])
    def test_constructors_refuse_operands_that_are_not_terms(self, bad):
        # a bare str is a sequence too, but it never splices in as tokens
        for build in (Not, lambda x: And(G0, x), lambda x: Or(x, G0), lambda x: And(x, x)):
            with pytest.raises(TypeError):
                Presentation.make(["g0", "g1"], [build(bad)])

    @pytest.mark.parametrize("name", ["", "a b", "0", "1", "~", "&", "|", "9x", 5, ("g0",)])
    def test_gen_takes_identifiers_only(self, name):
        with pytest.raises(TypeError, match="not a generator name"):
            Gen(name)

    @pytest.mark.parametrize("bad", [
        And(G0, (["g1"],)),
        Not(Or(G1, ({"g0"},))),
        (["g0"],),
    ], ids=["operand", "nested", "name"])
    def test_malformed_terms_neither_hash_nor_validate(self, bad):
        # an unhashable token: the tuple cannot hash, and no reader accepts it
        checks = (
            hash,
            generators_of,
            lambda t: eval_term(t, {"g0": 1, "g1": 0}),
            lambda t: substitute(t, {"g0": G0, "g1": G1}),
        )
        for check in checks:
            with pytest.raises(TypeError):
                check(bad)
        with pytest.raises(TypeError, match="not a term"):
            check_term(bad, {"g0", "g1"})
        with pytest.raises(TypeError, match="not a term"):
            Presentation.make(["g0", "g1"], [bad])

    @given(term_strategy(["g0", "g1"]))
    def test_substitution_identity(self, t: Term):
        assert substitute(t, {"g0": G0, "g1": G1}) == t

    @given(term_strategy(["g0", "g1"]))
    def test_double_negation_semantics(self, t: Term):
        for b0 in (0, 1):
            for b1 in (0, 1):
                a = {"g0": b0, "g1": b1}
                assert eval_term(Not(Not(t)), a) == eval_term(t, a)


class TestJson:
    def test_shapes(self):
        assert term_to_json(ZERO) == "0"
        assert term_to_json(ONE) == "1"
        assert term_to_json(G0) == "g0"
        assert term_to_json(Not(G0)) == ["~", "g0"]
        assert term_to_json(And(G0, G1)) == ["&", "g0", "g1"]
        assert term_from_json(["|", "g0", ["~", "1"]]) == Or(G0, Not(ONE))

    @given(term_strategy(["g0", "g1", "g2"]))
    def test_round_trip(self, t: Term):
        assert term_from_json(term_to_json(t)) == t

    def test_singletons(self):
        assert ZERO == ("0",) == parse_term("0") and term_to_json(ZERO) == "0"
        assert ONE == ("1",) == parse_term("1") and term_to_json(ONE) == "1"
