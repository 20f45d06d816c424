"""Command-line front end: parsers for the text formats and dispatch.

Exit codes: 0 = computed and all internal checks passed; 1 = a checked
property failed; 2 = parse or usage error; 3 = enumeration cap exceeded.
Reports are deterministic: identical inputs give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional, Sequence

from . import boolalg, interval, profinite, zhomology
from .errors import (
    BadSetting,
    CapExceeded,
    DuplicateGenerator,
    NotDisjoint,
    ParseError,
    RelationNotKilled,
    StoneworkError,
    UnknownGenerator,
)
from .terms import Term, parse_gen_list, parse_term, parse_term_list

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _key_lines(text: str) -> dict[str, tuple[str, int]]:
    """Split a file into "key: value" entries, ignoring blanks and comments."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, _, value = line.partition(":")
        key = key.strip()
        if key in out:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        out[key] = (value.strip(), lineno)
    return out


def _require(entries: dict, key: str) -> tuple[str, int]:
    """Value and line number of a key the file must have."""
    if key not in entries:
        raise ParseError(f"missing '{key}:' line", 1, 1)
    return entries[key]


def _presentation(entries: dict) -> boolalg.Presentation:
    gens = parse_gen_list(*_require(entries, "gens"))
    rels = parse_term_list(*_require(entries, "rels"))
    return boolalg.Presentation.make(gens, rels)


def parse_presentation(text: str) -> boolalg.Presentation:
    """Parse the two-line presentation format (gens: ... / rels: ...)."""
    return _presentation(_key_lines(text))


def parse_morphism_file(text: str) -> boolalg.Morphism:
    entries = _key_lines(text)
    src, dst = (
        boolalg.Presentation.make(
            parse_gen_list(*_require(entries, f"{side}-gens")),
            parse_term_list(*entries.get(f"{side}-rels", ("", 1))),
        )
        for side in ("src", "dst")
    )
    value, line = _require(entries, "map")
    images: dict[str, Term] = {}
    for chunk in value.split(","):
        if not chunk.strip():
            continue
        if "->" not in chunk:
            raise ParseError("map entries look like 'gen -> expr'", line, 1)
        name, _, expr = chunk.partition("->")
        name = name.strip()
        if name not in src.gens:
            raise ParseError(f"map entry for unknown source generator {name!r}", line, 1)
        if name in images:
            raise ParseError(f"source generator {name!r} is mapped twice", line, 1)
        images[name] = parse_term(expr, line)
    missing = [g for g in src.gens if g not in images]
    if missing:
        raise ParseError(f"source generator {missing[0]!r} has no image", line, 1)
    return boolalg.hom(src, images, dst)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _group_json(g: zhomology.AbInvariants) -> dict:
    return {"rank": g.rank, "torsion": list(g.torsion)}


class CommandFailure(Exception):
    """A checked property failed; carries the report for rendering."""

    def __init__(self, report: dict, lines: list[str]):
        self.report = report
        self.lines = lines


def _bits(v: Sequence[int]) -> str:
    return "".join(str(b) for b in v)


def cmd_spectrum(args) -> tuple[dict, list[str]]:
    text = open(args.file).read()
    p = parse_presentation(text)
    alg = boolalg.spectrum(p)
    points = [_bits(pt) for pt in alg.points]
    report = {
        "command": "spectrum",
        "input": _digest(text),
        "gens": list(p.gens),
        "n_points": alg.n_points,
        "points": points,
    }
    lines = [
        f"presentation with {len(p.gens)} generators, {len(p.rels)} relations",
        f"spectrum has {alg.n_points} points: {' '.join(points) if points else '(none)'}",
    ]
    return report, lines


def cmd_duality(args) -> tuple[dict, list[str]]:
    text = open(args.file).read()
    p = parse_presentation(text)
    rep = boolalg.check_duality(p)
    report = {
        "command": "duality",
        "input": _digest(text),
        "n_points": rep.n_points,
        "n_elements": rep.n_elements,
        "bijective": rep.bijective,
    }
    lines = [
        f"spectrum: {rep.n_points} points; algebra has {rep.n_elements} elements",
        f"evaluation map bijective: {rep.bijective}",
    ]
    if not rep.bijective:
        raise CommandFailure(report, lines)
    return report, lines


def cmd_morphism(args) -> tuple[dict, list[str]]:
    text = open(args.file).read()
    m = parse_morphism_file(text)
    rep = boolalg.analyze_morphism(m)
    report = {
        "command": "morphism",
        "input": _digest(text),
        "injective": rep.injective,
        "kernel_size": rep.kernel_size,
        "kernel_top": _bits(rep.kernel_top),
        "point_map": list(rep.point_map),
        "point_map_surjective": rep.point_map_surjective,
        "axiom2_consistent": rep.axiom2_consistent,
    }
    lines = [
        f"injective: {rep.injective} (kernel size {rep.kernel_size})",
        f"dual point map surjective: {rep.point_map_surjective}",
        f"injectivity matches dual surjectivity: {rep.axiom2_consistent}",
    ]
    if not rep.axiom2_consistent:
        raise CommandFailure(report, lines)
    return report, lines


def cmd_llpo(args) -> tuple[dict, list[str]]:
    rep = boolalg.llpo_split(args.stage)
    report = {
        "command": "llpo",
        "input": _digest(str(args.stage)),
        "stage": rep.stage,
        "injective": rep.injective,
        "spectrum_map_surjective": rep.spectrum_map_surjective,
        "decode": [
            {"side": side, "point": _bits(beta)} for side, beta in rep.decode
        ],
        "decode_consistent": rep.decode_consistent,
    }
    lines = [
        f"stage {rep.stage}: interleaving map injective: {rep.injective}",
        f"spectrum surjection: {rep.spectrum_map_surjective}; "
        f"decode consistent: {rep.decode_consistent}",
    ]
    if not (rep.injective and rep.spectrum_map_surjective and rep.decode_consistent):
        raise CommandFailure(report, lines)
    return report, lines


def cmd_wlpo(args) -> tuple[dict, list[str]]:
    c = parse_term(args.term)
    rep = boolalg.wlpo_counterexample(c)
    report = {
        "command": "wlpo",
        "input": _digest(args.term),
        "k": rep.k,
        "beta": _bits(rep.beta),
        "gamma": _bits(rep.gamma),
        "value_beta": rep.value_beta,
        "value_gamma": rep.value_gamma,
        "verdict": rep.verdict,
    }
    lines = [
        f"candidate sees generators up to index {rep.k}",
        f"c(beta) = {rep.value_beta}, c(gamma) = {rep.value_gamma}: {rep.verdict}",
    ]
    return report, lines


def cmd_markov(args) -> tuple[dict, list[str]]:
    text = open(args.file).read()
    entries = _key_lines(text)
    p = _presentation(entries)
    seq = parse_term_list(*_require(entries, "seq"))
    k = boolalg.minimal_join_witness(p, seq, args.bound)
    report = {
        "command": "markov",
        "input": _digest(text),
        "bound": args.bound,
        "witness": k,
    }
    lines = [
        f"minimal trivializing prefix within bound {args.bound}: "
        + ("none" if k is None else str(k))
    ]
    return report, lines


def cmd_separate(args) -> tuple[dict, list[str]]:
    text = open(args.file).read()
    entries = _key_lines(text)
    p = _presentation(entries)
    fs = parse_term_list(*_require(entries, "fs"))
    gs = parse_term_list(*_require(entries, "gs"))
    d = boolalg.separate_closed(p, fs, gs)
    report = {
        "command": "separate",
        "input": _digest(text),
        "separator": _bits(d),
    }
    lines = [f"decidable separator D (bit per spectrum point): {_bits(d)}"]
    return report, lines


def parse_tower_file(text: str) -> profinite.CountablePresentation:
    entries = _key_lines(text)
    family_name = entries.get("family", ("none", 0))[0]
    if family_name not in profinite.FAMILIES:
        raise ParseError(f"unknown family {family_name!r}", entries["family"][1], 1)
    rels = parse_term_list(*entries.get("rels", ("", 1)))
    return profinite.CountablePresentation(
        explicit_rels=tuple(rels),
        family=profinite.FAMILIES[family_name],
    )


def cmd_tower(args) -> tuple[dict, list[str]]:
    text = open(args.file).read()
    cp = parse_tower_file(text)
    entries = _key_lines(text)
    depth = args.depth
    if depth is None and "depth" in entries:
        value, line = entries["depth"]
        try:
            depth = int(value)
        except ValueError:
            raise ParseError(f"depth must be an integer, got {value!r}", line, 1) from None
    if depth is None:
        raise ParseError("no depth given (file 'depth:' line or --depth)", 1, 1)
    tower = profinite.truncation_tower(cp, depth)
    diagram = profinite.spectrum_tower(tower)
    sizes = [len(level) for level in diagram.levels]
    report = {
        "command": "tower",
        "input": _digest(text),
        "depth": depth,
        "level_sizes": sizes,
    }
    lines = [f"tower of depth {depth}; spectrum sizes per level: {sizes}"]
    return report, lines


def cmd_cohomology(args) -> tuple[dict, list[str]]:
    # looked up by name on the module at call time, so a wrapper installed on
    # interval.<space>_graph (as the benchmark's tracer does) sees the call
    graph = getattr(interval, f"{args.space}_graph")(args.level)
    rep = zhomology.graph_cohomology(graph, args.level)
    report = {
        "command": "cohomology",
        "input": _digest(f"{args.space}:{args.level}"),
        "space": args.space,
        "level": rep.level,
        "dims": list(rep.dims),
        "h0": _group_json(rep.h0),
        "h1": _group_json(rep.h1),
        "exact": list(rep.exact_at),
    }
    lines = [
        f"{args.space} at level {rep.level}: dims {rep.dims}",
        f"h0 = {rep.h0}, h1 = {rep.h1}",
        f"augmented complex exact at: {list(rep.exact_at)}",
    ]
    if rep.h0.torsion or rep.h1.torsion:
        lines.append("warning: torsion appeared where none was expected")
    if args.space == "interval" and not all(rep.exact_at):
        raise CommandFailure(report, lines)
    return report, lines


def cmd_interval_image(args) -> tuple[dict, list[str]]:
    words = [interval.BitWord.parse(w) for w in args.cylinders.split(",") if w.strip()]
    image = interval.decidable_image(words)
    complement = interval.complement_closed_union(image)
    report = {
        "command": "interval-image",
        "input": _digest(args.cylinders),
        "image": [[str(lo), str(hi)] for lo, hi in image.parts],
        "complement": [[str(lo), str(hi)] for lo, hi in complement.parts],
    }
    lines = [
        f"image of {len(words)} cylinders: {image}",
        f"relative complement: {complement}",
    ]
    return report, lines


def cmd_stabilize(args) -> tuple[dict, list[str]]:
    tower = getattr(interval, f"{args.space}_tower")(args.depth)
    rep = zhomology.stabilization_report(tower, args.depth)
    report = {
        "command": "stabilize",
        "input": _digest(f"{args.space}:{args.depth}"),
        "space": args.space,
        "levels": [
            {
                "level": lc.level,
                "dims": list(lc.dims),
                "h0": _group_json(lc.h0),
                "h1": _group_json(lc.h1),
            }
            for lc in rep.levels
        ],
        "h0_iso": list(rep.h0_iso),
        "h1_iso": list(rep.h1_iso),
    }
    lines = [f"{args.space} tower through depth {args.depth}:"]
    for lc in rep.levels:
        lines.append(f"  level {lc.level}: h0 = {lc.h0}, h1 = {lc.h1}")
    lines.append(f"h0 induced maps iso: {list(rep.h0_iso)}")
    lines.append(f"h1 induced maps iso: {list(rep.h1_iso)}")
    return report, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stonework",
        description="finite-stage Boolean algebra, tower and cohomology computations",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    # also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
    # --json from being clobbered by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit the JSON report",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="enumerate the spectrum of a presentation")
    p.add_argument("file")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("duality", parents=[common], help="exhaustive finite Stone duality check")
    p.add_argument("file")
    p.set_defaults(fn=cmd_duality)

    p = sub.add_parser("morphism", parents=[common], help="analyze a morphism between presentations")
    p.add_argument("file")
    p.set_defaults(fn=cmd_morphism)

    p = sub.add_parser("llpo", parents=[common], help="stage-n interleaving split and decode")
    p.add_argument("--stage", type=int, required=True)
    p.set_defaults(fn=cmd_llpo)

    p = sub.add_parser("wlpo", parents=[common], help="refute a candidate all-zero decider term")
    p.add_argument("term")
    p.set_defaults(fn=cmd_wlpo)

    p = sub.add_parser("markov", parents=[common], help="minimal trivializing prefix of a relation sequence")
    p.add_argument("file")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(fn=cmd_markov)

    p = sub.add_parser("separate", parents=[common], help="decidable separator of two disjoint closed sets")
    p.add_argument("file")
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("tower", parents=[common], help="truncation tower of a countable presentation")
    p.add_argument("file")
    p.add_argument("--depth", type=int)
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("cohomology", parents=[common], help="graph cohomology of the interval or circle")
    p.add_argument("space", choices=["interval", "circle"])
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("interval-image", parents=[common], help="image of cylinder sets in [0,1]")
    p.add_argument("--cylinders", required=True, help="comma-separated bit-strings")
    p.set_defaults(fn=cmd_interval_image)

    p = sub.add_parser("stabilize", parents=[common], help="cohomology stabilization across a tower")
    p.add_argument("space", choices=["interval", "circle"])
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=cmd_stabilize)

    return parser


def _emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        report, lines = args.fn(args)
    except CommandFailure as f:
        _emit(f.report, f.lines + ["CHECK FAILED"], args.json)
        return EXIT_PROPERTY_FAILED
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, BadSetting, DuplicateGenerator, UnknownGenerator, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (RelationNotKilled, NotDisjoint) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    except StoneworkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    _emit(report, lines, args.json)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
