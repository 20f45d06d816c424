"""Byte-for-byte reports of every subcommand on fixed inputs.

Each case runs ``stonework`` in-process, with and without ``--json``, and
compares its stdout with ``tests/golden/<case>.json`` and
``tests/golden/<case>.txt``.  The goldens pin the reports across refactors:
a change that alters any of them changes what a user sees.
"""

from pathlib import Path

import pytest

from stonework import cli
from stonework.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

# input file contents, written to a temporary directory per case
FILES = {
    "pres": "gens: g0 g1 g2 g3\nrels: g0 & g1 , g2 & ~g3\n",
    "binfty": "gens: g0 g1 g2\nrels: g0 & g1 , g0 & g2 , g1 & g2\n",
    "no-gens": "gens:\nrels:\n",
    "empty": "gens: g0 g1 g2\nrels: g0 & g1 , ~g0 , ~g1 & g2 , ~g2\n",
    "twelve": (
        "gens: g0 g1 g2 g3 g4 g5 g6 g7 g8 g9 g10 g11\n"
        "rels: g0 & g1 , g2 & ~g3 , g4 & g5 & g6 , ~g7 & ~g8 , g9 & ~g10 | g10 & ~g9 ,"
        " g11 & g0 , ~(g2 | g4) & g11 , g1 & g3 & ~g5\n"
    ),
    "morphism": (
        "src-gens: a0 a1\nsrc-rels: a0 & a1\n"
        "dst-gens: b0 b1 b2\ndst-rels: b0 & b1 , b0 & b2 , b1 & b2\n"
        "map: a0 -> b0 | b2, a1 -> b1\n"
    ),
    "markov": "gens: g0 g1 g2\nrels: g0 & g1\nseq: g2 , g0 & ~g2 , ~g0 & ~g2 , g1\n",
    "separate": "gens: g0 g1 g2\nrels: g1 & g2\nfs: g0 , g1 & ~g2\ngs: ~g0 , g2 & ~g1\n",
    "tower-pmz": "family: pairwise-meet-zero\ndepth: 6\n",
    "tower-rels": "family: none\nrels: g0 & g1 , g1 & ~g2 , g2 & g3\ndepth: 4\n",
    # a relation on a far generator: lower levels lack middle generators
    "tower-far": "family: none\nrels: g0 & g6 , g1 & ~g2 , g3 | g4 , ~g5 & g7\ndepth: 7\n",
    # the sequences that hit 1 at most once and stay there: level n has n + 3 points
    "tower-ninf": f"family: none\nrels: {' , '.join(f'g{i + 1} & ~g{i}' for i in range(1000))}\ndepth: 1000\n",
    "sixteen": (
        "gens: g0 g1 g2 g3 g4 g5 g6 g7 g8 g9 g10 g11 g12 g13 g14 g15\n"
        "rels: g0 & g1 , g2 & g3 , g4 & g5 , g6 & g7 , g8 & g9 , g10 & g11 , g12 & g13 , g14 & g15 ,"
        " g0 | g2 | g4 | g6 , ~g8 & ~g10 , g1 & g3 & ~g5 , g7 & g15 , g9 & ~g11 & g13 , ~(g12 | g14) & g1\n"
    ),
}

# case name -> argv after --json; "@name" stands for the path of FILES[name]
CASES = {
    "spectrum": ["spectrum", "@pres"],
    "spectrum-no-gens": ["spectrum", "@no-gens"],
    "spectrum-empty": ["spectrum", "@empty"],
    "spectrum-12": ["spectrum", "@twelve"],
    "spectrum-16": ["spectrum", "@sixteen"],
    "duality": ["duality", "@binfty"],
    "morphism": ["morphism", "@morphism"],
    "llpo": ["llpo", "--stage", "3"],
    "wlpo": ["wlpo", "g0 & ~g2 | g3"],
    "markov": ["markov", "@markov", "--bound", "4"],
    "separate": ["separate", "@separate"],
    "tower-pmz": ["tower", "@tower-pmz"],
    "tower-pmz-16": ["tower", "@tower-pmz", "--depth", "16"],
    "tower-rels": ["tower", "@tower-rels", "--depth", "3"],
    "tower-far": ["tower", "@tower-far"],
    "tower-far-14": ["tower", "@tower-far", "--depth", "14"],
    "tower-ninf-19": ["tower", "@tower-ninf", "--depth", "19"],
    "tower-ninf-1000": ["tower", "@tower-ninf"],
    "cohomology-interval-3": ["cohomology", "interval", "--level", "3"],
    "cohomology-circle-6": ["cohomology", "circle", "--level", "6"],
    "cohomology-interval-8": ["cohomology", "interval", "--level", "8"],
    "cohomology-circle-8": ["cohomology", "circle", "--level", "8"],
    "cohomology-interval-12": ["cohomology", "interval", "--level", "12"],
    "cohomology-circle-12": ["cohomology", "circle", "--level", "12"],
    "cohomology-circle-14": ["cohomology", "circle", "--level", "14"],
    "cohomology-interval-16": ["cohomology", "interval", "--level", "16"],
    "cohomology-circle-16": ["cohomology", "circle", "--level", "16"],
    "interval-image": ["interval-image", "--cylinders", "01,0010,111,1"],
    "stabilize-interval-4": ["stabilize", "interval", "--depth", "4"],
    "stabilize-interval-10": ["stabilize", "interval", "--depth", "10"],
    "stabilize-interval-12": ["stabilize", "interval", "--depth", "12"],
    "stabilize-interval-14": ["stabilize", "interval", "--depth", "14"],
    "stabilize-interval-16": ["stabilize", "interval", "--depth", "16"],
    "stabilize-circle-5": ["stabilize", "circle", "--depth", "5"],
    "stabilize-circle-8": ["stabilize", "circle", "--depth", "8"],
    "stabilize-circle-10": ["stabilize", "circle", "--depth", "10"],
    "stabilize-circle-12": ["stabilize", "circle", "--depth", "12"],
    "stabilize-circle-14": ["stabilize", "circle", "--depth", "14"],
    "stabilize-circle-16": ["stabilize", "circle", "--depth", "16"],
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_matches_golden(name, tmp_path, capsys):
    assert main(case_argv(name, tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_every_subcommand_has_a_golden():
    assert {c.name for c in cli.COMMANDS} == {argv[0] for argv in CASES.values()}
    for suffix in ("json", "txt"):
        assert {p.stem for p in GOLDEN.glob(f"*.{suffix}")} == set(CASES)
