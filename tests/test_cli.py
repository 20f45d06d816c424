"""File formats, subcommand dispatch, exit codes and report determinism."""

import json

import pytest

from stonework.boolalg import Presentation
from stonework.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PROPERTY_FAILED,
    EXIT_USAGE,
    main,
    parse_morphism_file,
    parse_presentation,
    parse_tower_file,
)
from stonework.errors import ParseError
from stonework.terms import And, Gen, Not


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

    def test_interval_image(self, capsys):
        assert main(["interval-image", "--cylinders", "01"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[1/2^2, 1/2^1]" in out
        assert "[0, 1/2^2) u (1/2^1, 1]" in out

    def test_stabilize(self, capsys):
        assert main(["stabilize", "circle", "--depth", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "h1 induced maps iso: [True, False, True]" in out


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
