"""Byte-for-byte JSON reports of every subcommand on fixed inputs.

Each case runs ``stonework --json`` in-process and compares its stdout with
``tests/golden/<case>.json``.  The goldens pin the reports across refactors:
a change that alters any of them changes what a user sees.
"""

from pathlib import Path

import pytest

from stonework.cli import EXIT_OK, build_parser, main

GOLDEN = Path(__file__).parent / "golden"

# input file contents, written to a temporary directory per case
FILES = {
    "pres": "gens: g0 g1 g2 g3\nrels: g0 & g1 , g2 & ~g3\n",
    "binfty": "gens: g0 g1 g2\nrels: g0 & g1 , g0 & g2 , g1 & g2\n",
    "morphism": (
        "src-gens: a0 a1\nsrc-rels: a0 & a1\n"
        "dst-gens: b0 b1 b2\ndst-rels: b0 & b1 , b0 & b2 , b1 & b2\n"
        "map: a0 -> b0 | b2, a1 -> b1\n"
    ),
    "markov": "gens: g0 g1 g2\nrels: g0 & g1\nseq: g2 , g0 & ~g2 , ~g0 & ~g2 , g1\n",
    "separate": "gens: g0 g1 g2\nrels: g1 & g2\nfs: g0 , g1 & ~g2\ngs: ~g0 , g2 & ~g1\n",
    "tower-pmz": "family: pairwise-meet-zero\ndepth: 6\n",
    "tower-rels": "family: none\nrels: g0 & g1 , g1 & ~g2 , g2 & g3\ndepth: 4\n",
}

# case name -> argv after --json; "@name" stands for the path of FILES[name]
CASES = {
    "spectrum": ["spectrum", "@pres"],
    "duality": ["duality", "@binfty"],
    "morphism": ["morphism", "@morphism"],
    "llpo": ["llpo", "--stage", "3"],
    "wlpo": ["wlpo", "g0 & ~g2 | g3"],
    "markov": ["markov", "@markov", "--bound", "4"],
    "separate": ["separate", "@separate"],
    "tower-pmz": ["tower", "@tower-pmz"],
    "tower-rels": ["tower", "@tower-rels", "--depth", "3"],
    "cohomology-interval-3": ["cohomology", "interval", "--level", "3"],
    "cohomology-circle-6": ["cohomology", "circle", "--level", "6"],
    "interval-image": ["interval-image", "--cylinders", "01,0010,111,1"],
    "stabilize-interval-4": ["stabilize", "interval", "--depth", "4"],
    "stabilize-circle-5": ["stabilize", "circle", "--depth", "5"],
}


def case_argv(name: str, tmp_path: Path) -> list[str]:
    argv = []
    for arg in CASES[name]:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.txt"
            path.write_text(FILES[arg[1:]], encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    return argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    assert main(["--json", *case_argv(name, tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_every_subcommand_has_a_golden():
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    assert set(sub.choices) == {argv[0] for argv in CASES.values()}
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(CASES)
