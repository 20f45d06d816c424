"""File formats, subcommand dispatch, exit codes and report determinism."""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import parse_tower_file
from stonework import boolalg, cli, interval, zhomology
from stonework.cli import (
    COMMANDS,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PROPERTY_FAILED,
    EXIT_USAGE,
    main,
    parse_morphism_file,
    parse_presentation,
)
from stonework.errors import ParseError
from stonework.profinite import SeqDiagram
from stonework.terms import And, Gen, Not
from test_golden import CASES as GOLDEN_CASES, FILES as GOLDEN_FILES, case_argv


class TestPresentationFormat:
    def test_basic(self):
        p = parse_presentation("gens: g0 g1\nrels: g0 & g1\n")
        assert p.gens == ("g0", "g1")
        assert p.rels == (And(Gen("g0"), Gen("g1")),)

    def test_empty_rels(self):
        p = parse_presentation("gens: g0\nrels:\n")
        assert p.rels == ()

    def test_comments_and_blanks_ignored(self):
        p = parse_presentation("# free algebra\n\ngens: g0\n\nrels:\n")
        assert p.gens == ("g0",)

    def test_missing_gens_line(self):
        with pytest.raises(ParseError):
            parse_presentation("rels: g0\n")

    def test_missing_rels_line(self):
        with pytest.raises(ParseError):
            parse_presentation("gens: g0\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_presentation("gens: g0\ngens: g1\nrels:\n")

    def test_line_without_colon(self):
        with pytest.raises(ParseError):
            parse_presentation("gens g0\nrels:\n")

    def test_multiple_relations_comma_separated(self):
        p = parse_presentation("gens: g0 g1\nrels: g0 & g1 , ~g0\n")
        assert p.rels == (And(Gen("g0"), Gen("g1")), Not(Gen("g0")))


class TestErrorColumns:
    """Columns count from the start of the line, not of the value or chunk."""

    def test_bad_token_in_rels(self):
        with pytest.raises(ParseError) as e:
            parse_presentation("gens: g0\nrels: g0 & )\n")
        assert (e.value.line, e.value.column) == (2, 12)

    def test_bad_token_in_a_later_chunk(self):
        with pytest.raises(ParseError) as e:
            parse_presentation("gens: g0\nrels:  g0 , g0 | & g0\n")
        assert (e.value.line, e.value.column) == (2, 18)

    def test_unknown_generator_in_map_image(self):
        with pytest.raises(ParseError) as e:
            parse_morphism_file("src-gens: a\ndst-gens: b\nmap: a -> b & c\n")
        assert (e.value.line, e.value.column) == (3, 15)

    def test_unknown_generator_in_rels(self):
        with pytest.raises(ParseError) as e:
            parse_presentation("gens: g0\nrels: g0 , g0 & g7\n")
        assert "'g7'" in str(e.value) and (e.value.line, e.value.column) == (2, 17)

    def test_duplicate_generator_in_gens(self, capsys, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("gens: g0 g1  g0\nrels:\n")
        assert main(["spectrum", str(f)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: duplicate generator 'g0' (line 1, column 14)\n"

    def test_duplicate_generator_in_src_gens(self):
        with pytest.raises(ParseError) as e:
            parse_morphism_file("dst-gens: c\nsrc-gens: a b a\nmap: a -> c, b -> c\n")
        assert "duplicate generator 'a'" in str(e.value)
        assert (e.value.line, e.value.column) == (2, 15)

    @pytest.mark.parametrize("text, at", [
        ("src-gens: a\nsrc-rels: a & b\ndst-gens: b\nmap: a -> b\n", (2, 15)),
        ("src-gens: a\ndst-gens: b\ndst-rels: b | a\nmap: a -> b\n", (3, 15)),
    ], ids=["src-rels", "dst-rels"])
    def test_unknown_generator_in_side_rels(self, text, at):
        # src-rels and dst-rels may name only their own side's generators
        with pytest.raises(ParseError) as e:
            parse_morphism_file(text)
        assert "unknown generator" in str(e.value) and (e.value.line, e.value.column) == at

    def test_unknown_generator_in_seq(self, capsys, tmp_path):
        f = tmp_path / "markov.txt"
        f.write_text("gens: g0\nrels:\nseq: g0 , ~g9\n")
        assert main(["markov", str(f), "--bound", "3"]) == EXIT_USAGE
        assert "'g9' (line 3, column 12)" in capsys.readouterr().err


class TestMorphismFormat:
    def test_basic(self):
        m = parse_morphism_file(
            "src-gens: g0\nsrc-rels:\ndst-gens: h0 h1\ndst-rels:\n"
            "map: g0 -> h0 & h1\n"
        )
        assert m.src.gens == ("g0",)
        assert m.dst.gens == ("h0", "h1")
        assert m.images["g0"] == And(Gen("h0"), Gen("h1"))

    def test_missing_map_line(self):
        with pytest.raises(ParseError):
            parse_morphism_file("src-gens: g0\ndst-gens: h0\n")

    def test_malformed_map_entry(self):
        with pytest.raises(ParseError):
            parse_morphism_file("src-gens: g0\ndst-gens: h0\nmap: g0 = h0\n")

    def test_error_reports_its_line(self):
        with pytest.raises(ParseError) as e:
            parse_morphism_file(
                "# two algebras\nsrc-gens: g0\nsrc-rels:\ndst-gens: h0\ndst-rels:\n"
                "map: g0 -> h0 &\n"
            )
        assert e.value.line == 6

    def test_generator_mapped_twice(self):
        with pytest.raises(ParseError) as e:
            parse_morphism_file("src-gens: g0\ndst-gens: h0 h1\nmap: g0 -> h0, g0 -> h1\n")
        assert e.value.line == 3

    def test_source_generator_without_image(self):
        with pytest.raises(ParseError) as e:
            parse_morphism_file("src-gens: g0 g1\ndst-gens: h0\nmap: g0 -> h0\n")
        assert e.value.line == 3

    def test_map_entry_for_unknown_source_generator(self):
        with pytest.raises(ParseError) as e:
            parse_morphism_file("src-gens: g0\ndst-gens: h0\nmap: g0 -> h0, g9 -> h0\n")
        assert e.value.line == 3

    def test_image_naming_unknown_target_generator(self):
        # checked when parsing, so a term that never needs the name still fails
        with pytest.raises(ParseError) as e:
            parse_morphism_file("src-gens: s0\ndst-gens: d0\n\nmap: s0 -> 0 & bogus\n")
        assert e.value.line == 4
        assert "'bogus'" in str(e.value)


class TestTowerFormat:
    def test_family_selection(self):
        cp = parse_tower_file("family: pairwise-meet-zero\n")
        assert cp.family is not None
        assert cp.explicit_rels == ()

    def test_default_family_is_none(self):
        cp = parse_tower_file("rels: g0 & g1\n")
        assert cp.family is None
        assert len(cp.explicit_rels) == 1

    def test_unknown_family(self):
        with pytest.raises(ParseError):
            parse_tower_file("family: mystery\n")


@pytest.fixture
def pres_file(tmp_path):
    f = tmp_path / "pres.txt"
    f.write_text("gens: g0 g1\nrels: g0 & g1\n")
    return str(f)


class TestExitCodes:
    def test_spectrum_ok(self, capsys, pres_file):
        assert main(["spectrum", pres_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3 points" in out
        assert "00 01 10" in out

    def test_duality_ok(self, capsys, pres_file):
        assert main(["duality", pres_file]) == EXIT_OK
        assert "bijective: True" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["spectrum", str(tmp_path / "nope.txt")]) == EXIT_USAGE

    def test_bad_syntax_is_usage_error(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("gens: g0\nrels: g0 &\n")
        assert main(["duality", str(f)]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_cap_exceeded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STONEWORK_CAP", "1")
        assert main(["duality", str(self._free2(tmp_path))]) == EXIT_CAP

    @pytest.mark.parametrize(
        "cap, argv, stage",
        [
            ("1", ["spectrum", "FREE2"], "spectrum of 2 generators: enumeration over 2^2 exceeds cap 2^1"),
            ("2", ["duality", "FREE2"], "duality over 4 points: enumeration over 2^4 exceeds cap 2^2"),
            ("2", ["cohomology", "circle", "--level", "3"], "circle graph at level 3: enumeration over 2^3"),
            ("2", ["stabilize", "interval", "--depth", "4"], "interval graph at level 3: enumeration over 2^3"),
        ],
    )
    def test_cap_message_names_the_stage(self, capsys, tmp_path, monkeypatch, cap, argv, stage):
        monkeypatch.setenv("STONEWORK_CAP", cap)
        argv = [str(self._free2(tmp_path)) if a == "FREE2" else a for a in argv]
        assert main(argv) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {stage}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, stage",
        [
            (["llpo", "--stage", str(10**20)], f"spectrum of {2 * 10**20 + 1} generators: enumeration over 2^{2 * 10**20 + 1}"),
            (["wlpo", "g99999999999"], "wlpo sequences of 100000000001 bits: enumeration over 2^37"),
        ],
    )
    def test_huge_argument_hits_the_cap_at_once(self, capsys, monkeypatch, argv, stage):
        monkeypatch.delenv("STONEWORK_CAP", raising=False)
        start = time.perf_counter()
        assert main(argv) == EXIT_CAP
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"error: {stage} exceeds cap 2^20\n")

    @pytest.mark.parametrize("command", ["spectrum", "morphism"])
    def test_40000_generators_reach_the_cap_in_linear_time(self, capsys, monkeypatch, tmp_path, command):
        # the duplicate check, each relation's and image's name lookups and the
        # map's source check are set lookups: list scans took 20 s on this file
        monkeypatch.delenv("STONEWORK_CAP", raising=False)
        names = [f"g{i}" for i in range(40000)]
        gens, rels = " ".join(names), ", ".join(f"{a} & {b}" for a, b in zip(names[::2], names[1::2]))
        text = {
            "spectrum": f"gens: {gens}\nrels: {rels}\n",
            "morphism": f"src-gens: {gens}\nsrc-rels: {rels}\ndst-gens: {gens}\n"
            f"map: {', '.join(f'{g} -> ~{g}' for g in names)}\n",
        }[command]
        f = tmp_path / "wide.txt"
        f.write_text(text)
        start = time.perf_counter()
        assert main([command, str(f)]) == EXIT_CAP
        assert time.perf_counter() - start < 5
        assert capsys.readouterr() == (
            "",
            "error: spectrum of 40000 generators: enumeration over 2^40000 exceeds cap 2^20\n",
        )

    def test_failed_tower_check_is_one_line(self, capsys, tmp_path, monkeypatch):
        # level 1's second point maps to position 1 of a one-point level 0: no total transition
        diagram = lambda p, depth: SeqDiagram(((0,), (0, 1)), ((0, 1),))
        monkeypatch.setattr(cli.profinite, "spectrum_tower", diagram)
        f = tmp_path / "tower.txt"
        f.write_text("family: none\ndepth: 2\n")
        assert main(["tower", str(f)]) == EXIT_PROPERTY_FAILED
        assert capsys.readouterr() == ("", "error: transition 0 has a position outside level 0\n")

    def test_ninf_tower_of_depth_1000_runs_within_a_second(self, capsys, monkeypatch, tmp_path):
        # level n has the n + 3 sequences 1..10..0 of n + 2 bits; the cube enumeration
        # of each level's generators stopped at depth 20 with exit 3
        monkeypatch.delenv("STONEWORK_CAP", raising=False)
        f = tmp_path / "ninf.txt"
        f.write_text(GOLDEN_FILES["tower-ninf"])
        start = time.perf_counter()
        assert main(["--json", "tower", str(f)]) == EXIT_OK
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["level_sizes"] == [n + 2 for n in range(1, 1001)]

    @pytest.mark.parametrize("cap, text, stage", [
        (None, f"rels: g0 , {' & '.join(f'g{i}' for i in range(1, 22))}\ndepth: 3\n",
         "tower level 1 (1 x 2^21 candidates): enumeration over 2^21"),
        # level 0 keeps all 8 points of g0, g1, g2; level 1 adds g3 and g4
        ("4", "rels: 0 & g1 & g2 , g3 & g4\ndepth: 2\n", "tower level 1 (8 x 2^2 candidates): enumeration over 2^5"),
        # 2^(n + 1) points at level n < 19, then 2^19 at every level: levels 0..18 keep
        # 2^20 - 2 points, and the 981 levels to come count at least 1 each
        (None, f"rels: {' , '.join(['0'] * 19 + [f'~g{i}' for i in range(19, 999)])}\ndepth: 1000\n",
         "tower of depth 1000 at level 18 (1049555 points held): enumeration over 2^21"),
        # every level is empty and counts as 1
        (None, "rels: 1\ndepth: 1048577\n", "tower of depth 1048577 at level 0 (1048577 points held): enumeration over 2^21"),
    ], ids=["new-generators", "points", "total", "depth"])
    def test_tower_over_the_cap_names_its_level(self, capsys, monkeypatch, tmp_path, cap, text, stage):
        # the cap bounds one level's candidates, its lower level's points times its new
        # assignments, and the points of the whole tower, an empty level counting as 1
        if cap is None:
            monkeypatch.delenv("STONEWORK_CAP", raising=False)
        else:
            monkeypatch.setenv("STONEWORK_CAP", cap)
        f = tmp_path / "tower.txt"
        f.write_text(text)
        start = time.perf_counter()
        assert main(["tower", str(f)]) == EXIT_CAP
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"error: {stage} exceeds cap 2^{cap or 20}\n")

    def test_failed_graph_tower_check_is_one_line(self, capsys, monkeypatch):
        # a transition that sends a vertex to position 5 of a one-vertex level,
        # and one that maps one of the two vertices of level 1
        for image, message in (((0, 5), "has a position outside level 0"), ((0,), "maps 1 of 2 vertices")):
            monkeypatch.setattr(cli.interval, "restrict_graph_map", lambda n: image)
            assert main(["stabilize", "interval", "--depth", "2"]) == EXIT_PROPERTY_FAILED
            assert capsys.readouterr() == ("", f"error: transition 0 {message}\n")

    @pytest.mark.parametrize("space, depth", [("circle", 1_000_000), ("interval", 22)])
    def test_stabilize_past_the_cap_builds_no_graph(self, capsys, monkeypatch, space, depth):
        # the deepest level is checked before the walk builds a graph or a complex
        monkeypatch.delenv("STONEWORK_CAP", raising=False)
        start = time.perf_counter()
        assert main(["stabilize", space, "--depth", str(depth)]) == EXIT_CAP
        assert time.perf_counter() - start < 1
        stage = f"{space} graph at level {depth - 1}: enumeration over 2^{depth - 1} exceeds cap 2^20"
        assert capsys.readouterr() == ("", f"error: {stage}\n")

    def test_size_beyond_memory_under_a_high_cap_exits_3(self, capsys, monkeypatch):
        # the cap admits 10**20 + 2 bits, which no tuple can hold; nothing is allocated
        monkeypatch.setenv("STONEWORK_CAP", "100")
        assert main(["wlpo", "g99999999999999999999"]) == EXIT_CAP
        assert capsys.readouterr() == (
            "",
            "error: wlpo ran out of memory "
            "(OverflowError(\"cannot fit 'int' into an index-sized integer\"))\n",
        )

    def test_duality_cap_is_the_certificate_size(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("STONEWORK_CAP", raising=False)
        f = tmp_path / "free.txt"
        f.write_text("gens: g0 g1 g2 g3 g4\nrels:\n")
        assert main(["--json", "duality", str(f)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["n_points"], report["bijective"]) == (32, True)
        f.write_text(f"gens: {' '.join(f'g{i}' for i in range(11))}\nrels:\n")
        assert main(["duality", str(f)]) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duality over 2048 points: enumeration over 2^22 exceeds cap 2^20\n"

    def test_non_integer_cap_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STONEWORK_CAP", "abc")
        assert main(["spectrum", str(self._free2(tmp_path))]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "STONEWORK_CAP" in err

    @staticmethod
    def _free2(tmp_path):
        f = tmp_path / "free2.txt"
        f.write_text("gens: g0 g1\nrels:\n")
        return f

    def test_morphism_ok(self, capsys, tmp_path):
        f = tmp_path / "mor.txt"
        f.write_text(
            "src-gens: g0\nsrc-rels:\ndst-gens: h0 h1\ndst-rels:\n"
            "map: g0 -> h0 & h1\n"
        )
        assert main(["morphism", str(f)]) == EXIT_OK
        assert "matches dual surjectivity: True" in capsys.readouterr().out

    def test_kernel_too_large_to_print_hits_the_cap(self, capsys, tmp_path):
        # every one of 4 096 points is killed: 2^4096 has 1 234 digits, over
        # the lowest int-to-str limit Python allows (640)
        f = tmp_path / "mor.txt"
        gens = [f"s{i}" for i in range(12)]
        f.write_text(
            f"src-gens: {' '.join(gens)}\nsrc-rels:\ndst-gens: x\ndst-rels: x, ~x\n"
            f"map: {', '.join(f'{g} -> 0' for g in gens)}\n"
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            codes = [main(argv + ["morphism", str(f)]) for argv in ([], ["--json"])]
        finally:
            sys.set_int_max_str_digits(limit)
        assert codes == [EXIT_CAP, EXIT_CAP]
        message = "error: kernel of 4096 killed points: enumeration over 2^4096 exceeds cap 2^2126\n"
        assert capsys.readouterr() == ("", message * 2)

    def test_morphism_unkilled_relation_fails(self, tmp_path):
        f = tmp_path / "mor.txt"
        f.write_text(
            "src-gens: g0 g1\nsrc-rels: g0 & g1\ndst-gens: h0\ndst-rels:\n"
            "map: g0 -> h0, g1 -> h0\n"
        )
        assert main(["morphism", str(f)]) == EXIT_PROPERTY_FAILED

    def test_llpo(self, capsys):
        assert main(["llpo", "--stage", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "injective: True" in out

    def test_wlpo(self, capsys):
        assert main(["wlpo", "g0 | g1"]) == EXIT_OK
        assert "index 1" in capsys.readouterr().out

    def test_markov(self, capsys, tmp_path):
        f = tmp_path / "markov.txt"
        f.write_text("gens: g0\nrels:\nseq: g0 , ~g0\n")
        assert main(["markov", str(f), "--bound", "5"]) == EXIT_OK
        assert "prefix within bound 5: 1" in capsys.readouterr().out

    def test_separate_ok(self, capsys, tmp_path):
        f = tmp_path / "sep.txt"
        f.write_text("gens: g0 g1\nrels:\nfs: g0\ngs: ~g0\n")
        assert main(["separate", str(f)]) == EXIT_OK
        assert "1100" in capsys.readouterr().out

    def test_markov_without_gens_is_usage_error(self, tmp_path):
        f = tmp_path / "markov.txt"
        f.write_text("rels:\nseq: 0 , 1\n")
        assert main(["markov", str(f), "--bound", "5"]) == EXIT_USAGE

    def test_separate_without_rels_is_usage_error(self, tmp_path):
        f = tmp_path / "sep.txt"
        f.write_text("gens: g0\nfs: g0\ngs: ~g0\n")
        assert main(["separate", str(f)]) == EXIT_USAGE

    def test_separate_term_naming_unknown_generator_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "sep.txt"
        f.write_text("gens: g0\nrels:\nfs: g0\ngs: ~g0 , 0 & bogus\n")
        assert main(["separate", str(f)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'bogus'" in err and "line 4" in err

    def test_file_not_utf8_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "pres.txt"
        f.write_bytes(b"gens: g0\nrels: g0 \xff\n")
        assert main(["spectrum", str(f)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "0xff" in err and "line 2, column 10" in err

    # lines are counted after CR LF and CR are read as LF, and columns in
    # characters, as for every other parse error: the \xc3\xa9 of an "é" is one
    @pytest.mark.parametrize("data, place", [
        (b"gens: g0 g1\r\nrels: g0 & g1\r\nseq: g0, g1 \xff\r\n", "line 3, column 13"),
        (b"gens: g0\r\n\r\nrels: ab\xc3\xa9 \xffx\r\n", "line 3, column 11"),
        (b"gens: g0\rrels: g0 \xff\r", "line 2, column 10"),
    ], ids=["crlf", "crlf-multibyte", "cr"])
    def test_byte_not_utf8_is_placed_by_its_characters(self, capsys, tmp_path, data, place):
        f = tmp_path / "pres.txt"
        f.write_bytes(data)
        assert main(["spectrum", str(f)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: byte 0xff is not UTF-8 ({place})\n"

    def test_crlf_and_cr_line_ends_read_as_lf(self, capsys, tmp_path):
        text = "# three points\ngens: g0 g1\n\nrels: g0 & g1\n"
        outputs = set()
        for end in ("\n", "\r\n", "\r"):
            f = tmp_path / "pres.txt"
            f.write_bytes(text.replace("\n", end).encode())
            for argv in (["spectrum", str(f)], ["--json", "spectrum", str(f)]):
                assert main(argv) == EXIT_OK
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1
        assert "spectrum has 3 points" in outputs.pop()

    @pytest.mark.parametrize(
        "argv",
        [
            ["llpo", "--stage", "0"],
            ["interval-image", "--cylinders", "12"],
            ["cohomology", "interval", "--level", "-1"],
            ["stabilize", "circle", "--depth", "-1"],
            ["wlpo", "g" + "1" * 5000],
        ],
    )
    def test_out_of_range_argument_is_usage_error(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_negative_markov_bound_is_usage_error(self, tmp_path):
        f = tmp_path / "markov.txt"
        f.write_text("gens: g0\nrels:\nseq: g0 , ~g0\n")
        assert main(["markov", str(f), "--bound", "-2"]) == EXIT_USAGE

    def test_tower_generator_outside_g0_g1_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "tower.txt"
        f.write_text("rels: g0 & h0\ndepth: 2\n")
        assert main(["tower", str(f)]) == EXIT_USAGE
        assert "'h0'" in capsys.readouterr().err

    def test_tower_generator_index_past_int_digits_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "tower.txt"
        f.write_text(f"rels: g{'1' * 5000}\ndepth: 1\n")
        assert main(["tower", str(f)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: generator index of 5000 digits is out of range\n"

    def test_negative_tower_depth_is_usage_error(self, tmp_path):
        f = tmp_path / "tower.txt"
        f.write_text("family: none\ndepth: -1\n")
        assert main(["tower", str(f)]) == EXIT_USAGE

    def test_separate_intersecting_fails(self, tmp_path):
        f = tmp_path / "sep.txt"
        f.write_text("gens: g0\nrels:\nfs: g0\ngs: g0\n")
        assert main(["separate", str(f)]) == EXIT_PROPERTY_FAILED

    def test_tower_depth_from_file(self, capsys, tmp_path):
        f = tmp_path / "tower.txt"
        f.write_text("family: pairwise-meet-zero\ndepth: 3\n")
        assert main(["tower", str(f)]) == EXIT_OK
        assert "[3, 5, 4]" in capsys.readouterr().out

    def test_tower_depth_flag_overrides(self, capsys, tmp_path):
        f = tmp_path / "tower.txt"
        f.write_text("family: none\n")
        assert main(["tower", str(f), "--depth", "2"]) == EXIT_OK
        assert "[2, 4]" in capsys.readouterr().out

    def test_tower_non_integer_depth_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "tower.txt"
        f.write_text("family: none\ndepth: x\n")
        assert main(["tower", str(f)]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_tower_without_depth_is_usage_error(self, tmp_path):
        f = tmp_path / "tower.txt"
        f.write_text("family: none\n")
        assert main(["tower", str(f)]) == EXIT_USAGE

    def test_cohomology(self, capsys):
        assert main(["cohomology", "interval", "--level", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "h0 = Z, h1 = 0" in out
        assert main(["cohomology", "circle", "--level", "2"]) == EXIT_OK
        assert "h0 = Z, h1 = Z" in capsys.readouterr().out

    @pytest.mark.parametrize("space, h1, exact", [
        ("circle", {"rank": 1, "torsion": []}, [True, True, False]),
        ("interval", {"rank": 0, "torsion": []}, [True, True, True]),
    ])
    def test_cohomology_level_ten(self, capsys, space, h1, exact):
        assert main(["--json", "cohomology", space, "--level", "10"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["dims"][0] == 1024
        assert report["h0"] == {"rank": 1, "torsion": []}
        assert (report["h1"], report["exact"]) == (h1, exact)

    def test_interval_image(self, capsys):
        assert main(["interval-image", "--cylinders", "01"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[1/2^2, 1/2^1]" in out
        assert "[0, 1/2^2) u (1/2^1, 1]" in out

    def test_word_too_long_to_print_hits_the_cap(self, capsys):
        # the word's lower endpoint (2^15000 - 1)/2^15000 has a numerator of
        # 4 516 digits, over Python's default int-to-str limit (4 300); a
        # limit of 0 means no limit
        word = "1" * 15000
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            codes = [main(argv + ["interval-image", "--cylinders", word]) for argv in ([], ["--json"])]
            sys.set_int_max_str_digits(0)
            unlimited = main(["interval-image", "--cylinders", word])
        finally:
            sys.set_int_max_str_digits(limit)
        assert codes == [EXIT_CAP, EXIT_CAP] and unlimited == EXIT_OK
        out, err = capsys.readouterr()
        message = "error: interval-image word of 15000 bits: enumeration over 2^15000 exceeds cap 2^14284\n"
        assert err == message * 2 and "Traceback" not in err
        assert out.startswith("image of 1 cylinders: [") and out.count("\n") == 2

    def test_million_bit_word_hits_the_cap_at_once(self, capsys):
        # the word's value and the dyadics at its ends are each read in one call,
        # so the time is linear in the word's length
        word = "1" + "0" * 10**6
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            start = time.perf_counter()
            assert main(["interval-image", "--cylinders", word]) == EXIT_CAP
            assert time.perf_counter() - start < 1
        finally:
            sys.set_int_max_str_digits(limit)
        stage = "interval-image word of 1000001 bits: enumeration over 2^1000001 exceeds cap 2^14284"
        assert capsys.readouterr() == ("", f"error: {stage}\n")

    def test_stabilize(self, capsys):
        assert main(["stabilize", "circle", "--depth", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "h1 induced maps iso: [True, False, True]" in out

    def test_stabilize_holds_at_most_two_graphs(self, capsys, monkeypatch):
        # each graph is built as the walk reaches its level and dropped once its
        # complex is built; looked up on the module, as the benchmark's tracer wraps it
        alive, most = weakref.WeakSet(), []

        def graph(n):
            g = real_graph(n)
            alive.add(g)
            most.append(len(alive))
            return g

        real_graph = interval.circle_graph
        monkeypatch.setattr(interval, "circle_graph", graph)
        assert main(["--json", "stabilize", "circle", "--depth", "8"]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["levels"]) == len(most) == 8
        assert max(most) <= 2

    @pytest.mark.parametrize("space", ["interval", "circle"])
    def test_cohomology_drops_its_graph_before_homology(self, capsys, monkeypatch, space):
        # the graph is needed only to build the complex; the forests and the
        # Smith reductions run without it
        built, alive_at_homology = [], []

        def graph(n):
            g = real_graph(n)
            built.append(weakref.ref(g))
            return g

        def homology(cx):
            alive_at_homology.append([ref() is not None for ref in built])
            return real_homology(cx)

        real_graph, real_homology = getattr(interval, f"{space}_graph"), zhomology.homology
        monkeypatch.setattr(interval, f"{space}_graph", graph)
        monkeypatch.setattr(zhomology, "homology", homology)
        assert main(["cohomology", space, "--level", "5"]) == EXIT_OK
        assert "h0 = Z" in capsys.readouterr().out
        assert alive_at_homology == [[False]]


# quotes, backslashes, control and non-ASCII characters, lone surrogates
_REPORT_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'), st.characters(exclude_categories=())))
_REPORT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _REPORT_TEXT,
    st.integers(2**64, 10**30).flatmap(lambda n: st.sampled_from([n, -n])),
)
_REPORT_VALUES = st.recursive(
    _REPORT_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(_REPORT_TEXT, inner, max_size=5),
        # the one-join lists, and ints mixed with the bools they must not absorb
        st.lists(st.integers(), max_size=5),
        st.lists(_REPORT_TEXT, max_size=5),
        st.lists(st.one_of(st.booleans(), st.integers(-2, 2)), max_size=5),
    ),
    max_leaves=30,
)


class TestReportEncoder:
    @given(_REPORT_VALUES)
    def test_matches_json_dumps_with_indent_2(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    # a string list is one join when no item needs an escape
    @pytest.mark.parametrize(
        "value",
        [["0", "12", "345"], [""], *(["ab", f"c{ch}d", "e"] for ch in ('"', "\\", "\x00", "\xe9", "\ud800"))],
        ids=repr,
    )
    def test_string_lists_match_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {3}, {"a": [True, 0.0]}, [[()]]], ids=repr)
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


def _argv_corpus(file: str) -> list[list[str]]:
    """Help, usage errors and valid calls, before and after each subcommand."""
    corpus = [
        [], ["--json"], ["-h"], ["--help"], ["--js"], ["--bogus"], ["frobnicate"],
        ["--json", "frobnicate"], ["--bogus", "spectrum", file], ["--", "spectrum", file],
        ["spectrum", file], ["--json", "duality", file], ["duality", file, "--js"],
        ["--js", "spectrum", file], ["--json", "--json", "spectrum", file], ["spectrum", file, "extra"],
        ["llpo", "--stage", "2"], ["llpo", "--stage", "x"], ["llpo", "--stage=1", "--json"],
        ["wlpo", "g0 & g3"], ["cohomology", "torus", "--level", "2"],
        ["interval-image", "--cylinders", "01,1"], ["tower", file, "--depth"],
    ]
    for command in COMMANDS:
        name = command.name
        corpus += [
            [name, "--help"], ["-h", name], ["--json", name, "-h"], [name],
            [name, "--bogus"], ["--bogus", name], [name, "--js"], ["--js", name],
        ]
    return corpus


def _recording(init, built):
    """An ArgumentParser.__init__ that records the prog of each parser built."""
    def record(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    return record


# the fast path's oracle alphabet: every name, flag and choice, the argv forms
# it must leave to the full parser, ints argparse's int() reads and junk
_WORDS = sorted({
    *(word for command in COMMANDS for name, spec in command.args for word in (name, *spec.get("choices", ()))),
    *(command.name for command in COMMANDS),
    "--json", "--js", "-h", "--help", "--", "--stage=1", "-1", "-", "",
    "0", "3", " 4 ", "1_0", "+2", "00", "x", "g0 & g1", "pres.txt", "01,1",
})
_VALUES = ["2", " 4 ", "1_0", "+2", "x", "circle", "interval", "", "pres.txt", "-1", "--json"]


def _calls(command) -> st.SearchStrategy[list[str]]:
    """argv for one subcommand: each of its arguments with a value that is
    often valid, its positionals in order, its flags before or after them
    and at times one more word of the whole alphabet somewhere."""
    def argument(name, spec):
        value = st.sampled_from([*spec.get("choices", ()), *_VALUES])
        if not name.startswith("-"):
            return value.map(lambda v: ("", [v]))
        pair = value.map(lambda v: (name, [name, v]))
        return pair if spec.get("required") else st.one_of(st.just(("", [])), pair)

    def assemble(arguments, flags_first, extra, at):
        pieces = sorted(arguments, key=lambda a: bool(a[0]) != flags_first)
        words = [command.name] + [w for _, words in pieces for w in words]
        return words[:at] + extra + words[at:]

    return st.builds(
        assemble,
        st.tuples(*(argument(name, spec) for name, spec in command.args)),
        st.booleans(),
        st.lists(st.sampled_from(_WORDS), max_size=1),
        st.integers(0, 5),
    )


class TestLazyParser:
    """main reads a plain call straight off COMMANDS, and every result
    matches the full parser's."""

    def test_corpus_matches_the_full_parser(self, capsys, monkeypatch, pres_file):
        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        corpus = _argv_corpus(pres_file)
        lazy = [run(argv) for argv in corpus]
        monkeypatch.setattr(cli, "_plain_call", lambda argv: None)
        for argv, got in zip(corpus, lazy):
            assert got == run(argv), argv
        assert {code for code, _, _ in lazy} == {EXIT_OK, EXIT_USAGE}

    def test_only_help_and_errors_build_the_parser(self, capsys, monkeypatch, pres_file):
        built = []
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", _recording(argparse.ArgumentParser.__init__, built))
        assert main(["--json", "spectrum", pres_file]) == EXIT_OK
        assert built == []
        assert main(["spectrum", "--help"]) == EXIT_OK
        assert "stonework spectrum" in capsys.readouterr().out
        assert built == ["stonework", *(f"stonework {command.name}" for command in COMMANDS)]

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from(_WORDS), max_size=6),
        st.builds(list.__add__, st.lists(st.just("--json"), max_size=1), st.sampled_from(COMMANDS).flatmap(_calls)),
    ))
    def test_plain_call_is_what_the_full_parser_makes(self, argv):
        args = cli._plain_call(argv)
        if args is not None:
            assert vars(args) == vars(cli.build_parser().parse_args(argv)), argv


def _fuzz_values(name: str, spec: dict, paths: list[str]) -> st.SearchStrategy[str]:
    """Values for one argument: often valid for it, often not."""
    junk = st.text(alphabet="01g x,-_=&|~()", max_size=8)
    if spec.get("type") is int:
        return st.one_of(
            st.integers(-1, 9).map(str),
            st.integers(-1, 9).map(lambda n: f" {n:+}"),
            st.integers(-(10**40), 10**40).map(str),
            st.integers(10**9, 10**40).map(lambda n: format(n, "_")),
            junk,
        )
    if "choices" in spec:
        return st.one_of(st.sampled_from(spec["choices"]), junk)
    if name == "file":
        return st.one_of(st.sampled_from(paths), junk)
    if name == "term":
        return st.one_of(
            st.sampled_from(["g0 & ~g2 | g3", "1", "~(g0 | g1)", "g007", "x"]),
            st.integers(0, 10**40).map(lambda n: f"g{n}"),
            st.tuples(st.integers(0, 9), st.integers(10**6, 10**40)).map(lambda p: f"g{p[0]} & ~g{p[1]}"),
            junk,
        )
    return st.text(alphabet="01, x", max_size=10)  # --cylinders


@st.composite
def _fuzz_argv(draw, files):
    """A subcommand, each argument given or left out, flags as --flag value
    or --flag=value, and at times words of the parser alphabet."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command.name]
    for name, spec in command.args:
        if draw(st.integers(0, 9)) == 0:
            continue
        value = draw(_fuzz_values(name, spec, files.get(command.name, [])))
        if not name.startswith("-"):
            argv.append(value)
        elif draw(st.integers(0, 3)) == 0:
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    extra = draw(st.lists(st.sampled_from(_WORDS), max_size=2)) if draw(st.integers(0, 3)) == 0 else []
    at = draw(st.integers(0, len(argv)))
    return draw(st.lists(st.just("--json"), max_size=1)) + argv[:at] + extra + argv[at:]


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory) -> dict[str, list[str]]:
    """Paths of the golden input files, by the subcommand that reads them."""
    root = tmp_path_factory.mktemp("inputs")
    for name, text in GOLDEN_FILES.items():
        (root / name).write_text(text)
    files: dict[str, list[str]] = {}
    for argv in GOLDEN_CASES.values():
        files.setdefault(argv[0], []).extend(str(root / a[1:]) for a in argv if a.startswith("@"))
    return files


class TestArgvFuzz:
    """Every argv and STONEWORK_CAP ends in exit 0-3 with at most one line
    of error from the program, or argparse's usage block and its one error
    line, and never a traceback.  Caps of 0-8 keep each call fast."""

    @settings(max_examples=300, deadline=None)
    # two parts caps of 0-8 to one part junk, which is never an integer
    @given(data=st.data(), cap=st.one_of(*[st.integers(0, 8).map(str)] * 2, st.text(alphabet=" x-_.", max_size=4)))
    def test_every_call_ends_in_a_contract_exit(self, golden_inputs, data, cap):
        argv = data.draw(_fuzz_argv(golden_inputs), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mp.setenv("STONEWORK_CAP", cap)
            code = main(argv)
        assert code in {EXIT_OK, EXIT_PROPERTY_FAILED, EXIT_USAGE, EXIT_CAP}
        lines = err.getvalue().splitlines()
        assert not any("Traceback" in line for line in lines)
        if lines and lines[0].startswith("usage: "):
            assert code == EXIT_USAGE
            assert [": error: " in line for line in lines] == [False] * (len(lines) - 1) + [True]
        else:
            assert len(lines) <= 1


# the "key:" fragments of the golden input files, and characters to insert
_FILE_KEYS = sorted({line.partition(":")[0] + ":" for text in GOLDEN_FILES.values() for line in text.splitlines()})
_FILE_PIECES = st.one_of(st.sampled_from(_FILE_KEYS), st.text(alphabet="g01 x,:&|~()->#\n\té@", min_size=1, max_size=3))
# argv of each golden case that reads a file
_FILE_CASES = sorted(tuple(argv) for argv in GOLDEN_CASES.values() if any(a.startswith("@") for a in argv))


@st.composite
def _mutated_file(draw) -> tuple[list[str], str]:
    """A golden case that reads a file, and that file's text after one to
    four insertions, deletions or replacements of characters or key fragments."""
    argv = list(draw(st.sampled_from(_FILE_CASES)))
    text = GOLDEN_FILES[next(a[1:] for a in argv if a.startswith("@"))]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        cut = 0 if kind == "insert" else draw(st.integers(1, 4))
        text = text[:at] + ("" if kind == "delete" else draw(_FILE_PIECES)) + text[at + cut:]
    return argv, text


class TestFileFuzz:
    """Every mutated golden input file, under STONEWORK_CAP 0-8, ends in exit
    0-3 with at most one line of error and never a traceback; exit 1 means a
    check failed, in the report or as a relation not killed or closed sets
    that intersect."""

    @settings(max_examples=300, deadline=None)
    @given(case=_mutated_file(), cap=st.integers(0, 8))
    def test_every_mutated_file_ends_in_a_contract_exit(self, tmp_path_factory, case, cap):
        argv, text = case
        path = tmp_path_factory.getbasetemp() / "mutated.txt"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mp.setenv("STONEWORK_CAP", str(cap))
            code = main(argv)
        assert code in {EXIT_OK, EXIT_PROPERTY_FAILED, EXIT_USAGE, EXIT_CAP}
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1 and not any("Traceback" in line for line in lines)
        if code == EXIT_PROPERTY_FAILED:
            failed_check = out.getvalue().endswith("CHECK FAILED\n")
            refused = len(lines) == 1 and re.fullmatch(
                r"error: (relation \d+ is not sent to 0|the closed sets intersect)", lines[0]
            )
            assert failed_check or refused, (argv, text, lines)


class TestHashSeed:
    """An error naming one of several bad generators names the first one
    read, whatever PYTHONHASHSEED orders sets by."""

    @pytest.mark.parametrize("argv, text", [
        (["wlpo", "x & y"], None),
        (["tower", "@"], "family: none\nrels: a & b\ndepth: 2\n"),
        (["morphism", "@"], "src-gens: a0\nsrc-rels: x & y\ndst-gens: b0\nmap: a0 -> b0\n"),
    ], ids=["wlpo", "tower", "morphism"])
    def test_stderr_is_the_same_under_every_hash_seed(self, tmp_path, argv, text):
        if text is not None:
            (tmp_path / "input.txt").write_text(text, encoding="utf-8")
        argv = [str(tmp_path / "input.txt") if a == "@" else a for a in argv]
        src = str(Path(cli.__file__).resolve().parents[1])
        errs = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from stonework.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == EXIT_USAGE
            errs.add(proc.stderr)
        assert len(errs) == 1 and re.search(r"'[xa]'", errs.pop())


class TestEmptySpectra:
    """No generators: the one point is the empty assignment, printed as ""."""

    @pytest.mark.parametrize(
        "rels, text, points",
        [
            ("", "presentation with 0 generators, 0 relations\nspectrum has 1 points: \n", [""]),
            ("1", "presentation with 0 generators, 1 relations\nspectrum has 0 points: (none)\n", []),
        ],
    )
    def test_no_generators(self, capsys, tmp_path, rels, text, points):
        f = tmp_path / "empty.txt"
        f.write_text(f"gens:\nrels: {rels}\n")
        assert main(["spectrum", str(f)]) == EXIT_OK
        assert capsys.readouterr().out == text
        assert main(["--json", "spectrum", str(f)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["gens"], report["n_points"], report["points"]) == ([], len(points), points)


class TestJsonReports:
    def test_flag_before_subcommand(self, capsys, pres_file):
        assert main(["--json", "spectrum", pres_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "spectrum"
        assert report["points"] == ["00", "01", "10"]

    def test_flag_after_subcommand(self, capsys, pres_file):
        assert main(["spectrum", pres_file, "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_points"] == 3

    def test_reports_are_deterministic(self, capsys):
        assert main(["--json", "cohomology", "circle", "--level", "3"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["--json", "cohomology", "circle", "--level", "3"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_group_serialization(self, capsys):
        assert main(["--json", "cohomology", "circle", "--level", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["h0"] == {"rank": 1, "torsion": []}
        assert report["h1"] == {"rank": 1, "torsion": []}
        assert report["exact"] == [True, True, False]

    def test_wlpo_json(self, capsys):
        assert main(["--json", "wlpo", "1"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == -1
        assert report["verdict"] == "fails_on_beta"


class TestFailedCheck:
    """A checked property that fails prints its report and exits 1."""

    @pytest.fixture(autouse=True)
    def failing_duality(self, monkeypatch):
        report = boolalg.DualityReport(n_points=3, n_elements=8, bijective=False)
        monkeypatch.setattr(boolalg, "check_duality", lambda p: report)

    def test_text_report_ends_with_check_failed(self, capsys, pres_file):
        assert main(["duality", pres_file]) == EXIT_PROPERTY_FAILED
        captured = capsys.readouterr()
        assert captured.out == (
            "spectrum: 3 points; algebra has 8 elements\n"
            "evaluation map bijective: False\n"
            "CHECK FAILED\n"
        )
        assert captured.err == ""

    def test_json_report_is_printed_bare(self, capsys, pres_file):
        assert main(["--json", "duality", pres_file]) == EXIT_PROPERTY_FAILED
        out = capsys.readouterr().out
        assert "CHECK FAILED" not in out
        report = json.loads(out)
        assert report["command"] == "duality"
        assert (report["n_points"], report["n_elements"], report["bijective"]) == (3, 8, False)


class TestCyclicCollector:
    """``main`` pauses the cyclic collector while a command runs, since
    commands build no reference cycles, and gives the caller's setting back."""

    @pytest.fixture(autouse=True)
    def keep_setting(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["llpo", "--stage", "1"], EXIT_OK),
            (["morphism", "UNKILLED"], EXIT_PROPERTY_FAILED),
            (["frobnicate"], EXIT_USAGE),
            (["spectrum", "MISSING"], EXIT_USAGE),
            (["wlpo", "g99999999999"], EXIT_CAP),
        ],
    )
    def test_setting_is_restored(self, tmp_path, monkeypatch, enabled, argv, code):
        monkeypatch.delenv("STONEWORK_CAP", raising=False)
        unkilled = tmp_path / "mor.txt"
        unkilled.write_text(
            "src-gens: g0 g1\nsrc-rels: g0 & g1\ndst-gens: h0\ndst-rels:\nmap: g0 -> h0, g1 -> h0\n"
        )
        paths = {"UNKILLED": str(unkilled), "MISSING": str(tmp_path / "nope.txt")}
        (gc.enable if enabled else gc.disable)()
        assert main([paths.get(a, a) for a in argv]) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_commands_make_no_cycles(self, tmp_path, capsys, name):
        argv = ["--json", *case_argv(name, tmp_path)]
        gc.disable()
        gc.collect()
        assert main(argv) == EXIT_OK
        assert gc.collect() == 0


def truth_tables(n: int) -> tuple[list[int], int]:
    """Generator i's table over the 2^n assignments in lexicographic order
    (g0 most significant, as spectra list points), and the all-ones table."""
    size = 1 << n
    return [sum(1 << a for a in range(size) if a >> (n - 1 - i) & 1) for i in range(n)], (1 << size) - 1


def surviving_points(n: int, tables: list[int]) -> list[str]:
    """Assignments, as bit strings, at which every relation's table is 0."""
    alive = truth_tables(n)[1]
    for t in tables:
        alive &= ~t
    return [format(a, f"0{n}b") for a in range(1 << n) if alive >> a & 1]


class TestLongTerms:
    """Relations far deeper than the recursion limit, checked against truth tables."""

    def test_spectrum_of_a_600_operand_relation(self, capsys, tmp_path):
        names = [f"g{i % 3}" for i in range(600)]
        f = tmp_path / "long.txt"
        f.write_text(f"gens: g0 g1 g2\nrels: {' & '.join(names)}\n")
        masks, full = truth_tables(3)
        table = full
        for name in names:
            table &= masks[int(name[1:])]
        assert main(["--json", "spectrum", str(f)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["points"] == surviving_points(3, [table])

    def test_spectrum_of_5001_nested_negations(self, capsys, tmp_path):
        f = tmp_path / "deep.txt"
        f.write_text("gens: g0 g1\nrels: " + "~" * 5001 + "g0\n")
        masks, full = truth_tables(2)
        table = masks[0]
        for _ in range(5001):
            table ^= full
        assert main(["--json", "spectrum", str(f)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["points"] == surviving_points(2, [table])

    def test_spectrum_of_1000_nested_parentheses(self, capsys, tmp_path):
        masks, full = truth_tables(3)
        deep, table = "g1", masks[1]
        for i in range(1000):
            deep, table = f"(~{deep} | g{i % 2})", (full ^ table) | masks[i % 2]
        f = tmp_path / "parens.txt"
        f.write_text(f"gens: g0 g1 g2\nrels: {'(' * 1000}g2{')' * 1000}, {deep}\n")
        assert main(["--json", "spectrum", str(f)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["points"] == surviving_points(3, [masks[2], table])

    def test_markov_on_a_700_operand_sequence_term(self, capsys, tmp_path):
        names = [f"~g{i % 2}" for i in range(700)]
        f = tmp_path / "markov.txt"
        f.write_text(f"gens: g0 g1\nrels:\nseq: {' | '.join(names)} , g0\n")
        masks, full = truth_tables(2)
        first = 0
        for name in names:
            first |= full ^ masks[int(name[2:])]
        prefixes = [[first], [first, masks[0]]]
        expected = next(k for k, rels in enumerate(prefixes) if not surviving_points(2, rels))
        assert main(["--json", "markov", str(f), "--bound", "5"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["witness"] == expected

    def test_morphism_with_a_3000_operand_source_relation(self, capsys, tmp_path):
        names = [f"a{i % 2}" for i in range(3000)]
        f = tmp_path / "mor.txt"
        f.write_text(
            f"src-gens: a0 a1\nsrc-rels: {' & '.join(names)}\n"
            "dst-gens: b0 b1\ndst-rels: b0 & b1\nmap: a0 -> b0, a1 -> b1\n"
        )
        masks, full = truth_tables(2)
        table = full
        for name in names:
            table &= masks[int(name[1:])]
        src = surviving_points(2, [table])
        dst = surviving_points(2, [masks[0] & masks[1]])
        # the images are the generators, so a target point restricts to itself
        point_map = [src.index(p) for p in dst]
        assert main(["--json", "morphism", str(f)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["point_map"] == point_map
        assert report["point_map_surjective"] == report["injective"] == (sorted(point_map) == list(range(len(src))))
