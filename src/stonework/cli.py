"""Command-line front end: parsers for the text formats and dispatch.

Exit codes: 0 = computed and all internal checks passed; 1 = a checked
property failed; 2 = parse or usage error; 3 = enumeration cap exceeded or
memory ran out.
Reports are deterministic: identical inputs give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from . import boolalg, errors, interval, profinite, zhomology
from .terms import Term, parse_gen_list, parse_term, parse_term_list

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# the first class an error is an instance of gives its exit code; a size
# within STONEWORK_CAP can still be more than memory or an index can hold
EXIT_CODES = (
    (errors.CapExceeded, EXIT_CAP),
    (MemoryError, EXIT_CAP),
    (OverflowError, EXIT_CAP),
    (errors.ParseError, EXIT_USAGE),
    (errors.BadArgument, EXIT_USAGE),
    (errors.DuplicateGenerator, EXIT_USAGE),
    (errors.UnknownGenerator, EXIT_USAGE),
    (OSError, EXIT_USAGE),
    (errors.StoneworkError, EXIT_PROPERTY_FAILED),  # RelationNotKilled, NotDisjoint, ...
)

# a cmd_* function returns the text that the report's "input" digest covers, the
# other report fields, the text lines, and whether the checked property held
Result = tuple[str, dict, list[str], bool]


def _read(path: str) -> str:
    """Text of an input file, its CR LF and CR line ends read as LF as text
    mode does; bytes that are not UTF-8 are a parse error, placed by line and
    character in that text."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return _lf(fh.readall().decode("utf-8"))
    except UnicodeDecodeError as e:
        # the bytes before the bad one decode, and are placed as any other parse error is
        lines = _lf(e.object[: e.start].decode("utf-8")).split("\n")  # the last one ends at the bad byte
        message = f"byte {e.object[e.start]:#04x} is not UTF-8"
        raise errors.ParseError(message, len(lines), len(lines[-1]) + 1) from None


def _lf(text: str) -> str:
    """``text`` with CR LF and lone CR line ends read as LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _natural(value: int, flag: str) -> int:
    """A count argument, such as --level, which must not be negative."""
    if value < 0:
        raise errors.BadArgument(f"{flag} must be >= 0, got {value}")
    return value


def _key_lines(text: str) -> dict[str, tuple[str, int, int]]:
    """Split a file into "key: value" entries, ignoring blanks and comments;
    each is the value, its line and the number of characters before it."""
    out: dict[str, tuple[str, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise errors.ParseError("expected 'key: value'", lineno, 1)
        key, _, value = raw.partition(":")
        key = key.strip()
        if key in out:
            raise errors.ParseError(f"duplicate key {key!r}", lineno, 1)
        value = value.lstrip()
        out[key] = (value.rstrip(), lineno, len(raw) - len(value))
    return out


def _require(entries: dict, key: str) -> tuple[str, int, int]:
    """Value, line number and column offset of a key the file must have."""
    if key not in entries:
        raise errors.ParseError(f"missing '{key}:' line", 1, 1)
    return entries[key]


def _presentation(entries: dict) -> boolalg.Presentation:
    gens = parse_gen_list(*_require(entries, "gens"))
    rels = parse_term_list(*_require(entries, "rels"), gens)
    return boolalg.Presentation.make(gens, rels)


def parse_presentation(text: str) -> boolalg.Presentation:
    """Parse the two-line presentation format (gens: ... / rels: ...)."""
    return _presentation(_key_lines(text))


def parse_morphism_file(text: str) -> boolalg.Morphism:
    entries = _key_lines(text)
    src, dst = (
        boolalg.Presentation.make(
            gens := parse_gen_list(*_require(entries, f"{side}-gens")),
            parse_term_list(*entries.get(f"{side}-rels", ("", 1, 0)), gens),
        )
        for side in ("src", "dst")
    )
    value, line, col = _require(entries, "map")
    src_names, dst_names = set(src.gens), set(dst.gens)
    images: dict[str, Term] = {}
    for chunk in value.split(","):
        name, arrow, expr = chunk.partition("->")
        at = col + len(name) - len(name.lstrip()) + 1  # the entry's column
        expr_col = col + len(name) + len(arrow)
        col += len(chunk) + 1
        if not chunk.strip():
            continue
        if not arrow:
            raise errors.ParseError("map entries look like 'gen -> expr'", line, at)
        name = name.strip()
        if name not in src_names:
            raise errors.ParseError(f"map entry for unknown source generator {name!r}", line, at)
        if name in images:
            raise errors.ParseError(f"source generator {name!r} is mapped twice", line, at)
        images[name] = parse_term(expr, line, expr_col, dst_names)
    missing = [g for g in src.gens if g not in images]
    if missing:
        raise errors.ParseError(f"source generator {missing[0]!r} has no image", line, 1)
    return boolalg.hom(src, images, dst)


def _countable(entries: dict) -> profinite.CountablePresentation:
    family_name, line, col = entries.get("family", ("none", 0, 0))
    if family_name not in profinite.FAMILIES:
        raise errors.ParseError(f"unknown family {family_name!r}", line, col + 1)
    rels = parse_term_list(*entries.get("rels", ("", 1, 0)))
    return profinite.CountablePresentation(
        explicit_rels=tuple(rels),
        family=profinite.FAMILIES[family_name],
    )


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def _json(v, indent: str = "\n") -> str:
    """``json.dumps(v, indent=2)`` for the types a report holds: dict with str
    keys, list, str, int, bool and None; any other type is a TypeError."""
    cls = type(v)
    if cls in _SCALARS:
        return _SCALARS[cls](v)
    inner = indent + "  "
    if cls is dict:
        body = f",{inner}".join(f"{_quote(k)}: {_json(x, inner)}" for k, x in v.items())
        return f"{{{inner}{body}{indent}}}" if body else "{}"
    if cls is not list:
        raise TypeError(f"a report holds no {cls.__name__}")
    kinds = set(map(type, v))  # a list of one scalar type is one join, and no bool passes for an int
    write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    if write is _quote and len(_quote(joined := "".join(v))) == len(joined) + 2:
        body = '"' + f'",{inner}"'.join(v) + '"'  # no string needs an escape: quote each as it is
    else:
        body = f",{inner}".join(map(write, v) if write else (_json(x, inner) for x in v))
    return f"[{inner}{body}{indent}]" if body else "[]"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _group_json(g: zhomology.AbInvariants) -> dict:
    return {"rank": g.rank, "torsion": list(g.torsion)}


def _level_json(lc: zhomology.LevelCohomology) -> dict:
    return {"level": lc.level, "dims": list(lc.dims), "h0": _group_json(lc.h0), "h1": _group_json(lc.h1)}


def _bits(v: Sequence[int]) -> str:
    return bytes(v).translate(boolalg.DIGITS).decode()


def cmd_spectrum(args) -> Result:
    text = _read(args.file)
    p = parse_presentation(text)
    alg = boolalg.spectrum(p)
    points = alg.points
    fields = {"gens": list(p.gens), "n_points": alg.n_points, "points": points}
    lines = [
        f"presentation with {len(p.gens)} generators, {len(p.rels)} relations",
        f"spectrum has {alg.n_points} points: {' '.join(points) if points else '(none)'}",
    ]
    return text, fields, lines, True


def cmd_duality(args) -> Result:
    text = _read(args.file)
    rep = boolalg.check_duality(parse_presentation(text))
    fields = {"n_points": rep.n_points, "n_elements": rep.n_elements, "bijective": rep.bijective}
    lines = [
        f"spectrum: {rep.n_points} points; algebra has {rep.n_elements} elements",
        f"evaluation map bijective: {rep.bijective}",
    ]
    return text, fields, lines, rep.bijective


def cmd_morphism(args) -> Result:
    text = _read(args.file)
    rep = boolalg.analyze_morphism(parse_morphism_file(text))
    try:
        str(rep.kernel_size)
    except ValueError:  # 2^k has more digits than sys.get_int_max_str_digits() allows
        k, printable = rep.kernel_size.bit_length() - 1, (10 ** sys.get_int_max_str_digits()).bit_length() - 1
        raise errors.CapExceeded(k, printable, f"kernel of {k} killed points") from None
    fields = {
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
    return text, fields, lines, rep.axiom2_consistent


def cmd_llpo(args) -> Result:
    rep = boolalg.llpo_split(args.stage)
    fields = {
        "stage": rep.stage,
        "injective": rep.injective,
        "spectrum_map_surjective": rep.spectrum_map_surjective,
        "decode": [{"side": side, "point": _bits(beta)} for side, beta in rep.decode],
        "decode_consistent": rep.decode_consistent,
    }
    lines = [
        f"stage {rep.stage}: interleaving map injective: {rep.injective}",
        f"spectrum surjection: {rep.spectrum_map_surjective}; "
        f"decode consistent: {rep.decode_consistent}",
    ]
    ok = rep.injective and rep.spectrum_map_surjective and rep.decode_consistent
    return str(args.stage), fields, lines, ok


def cmd_wlpo(args) -> Result:
    rep = boolalg.wlpo_counterexample(parse_term(args.term))
    fields = {
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
    return args.term, fields, lines, True


def cmd_markov(args) -> Result:
    text = _read(args.file)
    entries = _key_lines(text)
    p = _presentation(entries)
    seq = parse_term_list(*_require(entries, "seq"), p.gens)
    k = boolalg.minimal_join_witness(p, seq, _natural(args.bound, "--bound"))
    witness = "none" if k is None else str(k)
    lines = [f"minimal trivializing prefix within bound {args.bound}: {witness}"]
    return text, {"bound": args.bound, "witness": k}, lines, True


def cmd_separate(args) -> Result:
    text = _read(args.file)
    entries = _key_lines(text)
    p = _presentation(entries)
    fs = parse_term_list(*_require(entries, "fs"), p.gens)
    gs = parse_term_list(*_require(entries, "gs"), p.gens)
    separator = _bits(boolalg.separate_closed(p, fs, gs))
    lines = [f"decidable separator D (bit per spectrum point): {separator}"]
    return text, {"separator": separator}, lines, True


def cmd_tower(args) -> Result:
    text = _read(args.file)
    entries = _key_lines(text)
    cp = _countable(entries)
    depth = args.depth
    if depth is None and "depth" in entries:
        value, line, col = entries["depth"]
        try:
            depth = int(value)
        except ValueError:
            raise errors.ParseError(f"depth must be an integer, got {value!r}", line, col + 1) from None
    if depth is None:
        raise errors.ParseError("no depth given (file 'depth:' line or --depth)", 1, 1)
    diagram = profinite.spectrum_tower(cp, _natural(depth, "depth"))
    sizes = [len(level) for level in diagram.levels]
    lines = [f"tower of depth {depth}; spectrum sizes per level: {sizes}"]
    return text, {"depth": depth, "level_sizes": sizes}, lines, True


def cmd_cohomology(args) -> Result:
    # looked up by name on the module at call time, so a wrapper installed on
    # interval.<space>_graph (as the benchmark's tracer does) sees the call;
    # no name holds the graph, so it is freed once its complex is built
    graph = getattr(interval, f"{args.space}_graph")
    cx = zhomology.graph_cech_complex(graph(_natural(args.level, "--level")))
    rep = zhomology.level_cohomology(args.level, cx)
    exact = list(rep.exact_at)
    fields = {"space": args.space, **_level_json(rep), "exact": exact}
    lines = [
        f"{args.space} at level {rep.level}: dims {rep.dims}",
        f"h0 = {rep.h0}, h1 = {rep.h1}",
        f"augmented complex exact at: {exact}",
    ]
    if rep.h0.torsion or rep.h1.torsion:
        lines.append("warning: torsion appeared where none was expected")
    ok = args.space != "interval" or all(rep.exact_at)
    return f"{args.space}:{args.level}", fields, lines, ok


def cmd_interval_image(args) -> Result:
    words = [interval.BitWord.parse(w) for w in args.cylinders.split(",") if w.strip()]
    image = interval.decidable_image(words)
    complement = interval.complement_closed_union(image)
    try:
        fields = {
            "image": [[str(lo), str(hi)] for lo, hi in image.parts],
            "complement": [[str(lo), str(hi)] for lo, hi in complement.parts],
        }
    except ValueError:  # a numerator over sys.get_int_max_str_digits(); it has no more bits than the longest word
        n, printable = max(w.length for w in words), (10 ** sys.get_int_max_str_digits()).bit_length() - 1
        raise errors.CapExceeded(n, printable, f"interval-image word of {n} bits") from None
    lines = [
        f"image of {len(words)} cylinders: {image}",
        f"relative complement: {complement}",
    ]
    return args.cylinders, fields, lines, True


def cmd_stabilize(args) -> Result:
    depth = _natural(args.depth, "--depth")
    # the deepest level first, so a tower past the cap builds nothing; the
    # graphs are looked up as in cmd_cohomology, and built as the walk reads them
    boolalg.check_cap(depth - 1, f"{args.space} graph at level {depth - 1}")
    graph = getattr(interval, f"{args.space}_graph")
    rep = zhomology.stabilization_report(map(graph, range(depth)), map(interval.restrict_graph_map, range(depth - 1)))
    fields = {
        "space": args.space,
        "levels": [_level_json(lc) for lc in rep.levels],
        "h0_iso": list(rep.h0_iso),
        "h1_iso": list(rep.h1_iso),
    }
    lines = [f"{args.space} tower through depth {args.depth}:"]
    for lc in rep.levels:
        lines.append(f"  level {lc.level}: h0 = {lc.h0}, h1 = {lc.h1}")
    lines.append(f"h0 induced maps iso: {fields['h0_iso']}")
    lines.append(f"h1 induced maps iso: {fields['h1_iso']}")
    return f"{args.space}:{args.depth}", fields, lines, True


class Command(NamedTuple):
    name: str
    help: str
    args: tuple  # (name or flag, add_argument keywords) pairs
    run: Callable[..., Result]


FILE = ("file", {})
SPACE = ("space", {"choices": ["interval", "circle"]})
CYLINDERS = ("--cylinders", {"required": True, "help": "comma-separated bit-strings"})
INT = {"type": int, "required": True}


COMMANDS = (
    Command("spectrum", "enumerate the spectrum of a presentation", (FILE,), cmd_spectrum),
    Command("duality", "exhaustive finite Stone duality check", (FILE,), cmd_duality),
    Command("morphism", "analyze a morphism between presentations", (FILE,), cmd_morphism),
    Command("llpo", "stage-n interleaving split and decode", (("--stage", INT),), cmd_llpo),
    Command("wlpo", "refute a candidate all-zero decider term", (("term", {}),), cmd_wlpo),
    Command("markov", "minimal trivializing prefix of a relation sequence", (FILE, ("--bound", INT)), cmd_markov),
    Command("separate", "decidable separator of two disjoint closed sets", (FILE,), cmd_separate),
    Command("tower", "truncation tower of a countable presentation", (FILE, ("--depth", {"type": int})), cmd_tower),
    Command("cohomology", "graph cohomology of the interval or circle", (SPACE, ("--level", INT)), cmd_cohomology),
    Command("interval-image", "image of cylinder sets in [0,1]", (CYLINDERS,), cmd_interval_image),
    Command("stabilize", "cohomology stabilization across a tower", (SPACE, ("--depth", INT)), cmd_stabilize),
)


_BY_NAME = {command.name: command for command in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="stonework",
        description="finite-stage Boolean algebra, tower and cohomology computations",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        # also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
        # --json from being clobbered by the subparser default
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="emit the JSON report")
        for name, spec in command.args:
            p.add_argument(name, **spec)
        p.set_defaults(run=command.run)
    return parser


def _plain_call(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser()`` gives a plain call (``--json``
    anywhere, the subcommand, its positionals in order, each of its flags at
    most once as ``--flag value``), read off ``COMMANDS``; None for any other
    argv, such as help, ``--flag=value`` or a bad int, whose message is the
    full parser's to give."""
    args = argparse.Namespace(json=False)
    command, given, words = None, {}, iter(argv)
    for word in words:
        if word == "--json":
            args.json = True
        elif command is None:
            command = _BY_NAME.get(word)
            if command is None:
                return None
            specs = dict(command.args)
            positionals = iter([name for name in specs if name[0] != "-"])
        elif word.startswith("-"):
            value = next(words, "-")
            if word not in specs or word in given or value.startswith("-"):
                return None
            given[word] = value
        elif (name := next(positionals, None)) is None:
            return None
        else:
            given[name] = word
    if command is None:
        return None
    args.subcommand, args.run = command.name, command.run
    for name, spec in command.args:
        value = given.get(name)
        if value is not None:
            try:
                value = spec.get("type", str)(value)  # the call argparse makes
            except ValueError:
                return None
            if value not in spec.get("choices", [value]):
                return None
        elif spec.get("required", name[0] != "-"):
            return None
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_call(argv) or build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    # commands build only acyclic tuples and lists, which reference counting
    # frees, so the cyclic collector's passes would find nothing and cost a
    # large share of a big graph command; it is paused while the command
    # runs, and the caller's setting is restored after
    collecting = gc.isenabled()
    gc.disable()
    try:
        source, fields, lines, ok = args.run(args)
    except tuple(cls for cls, _ in EXIT_CODES) as e:
        oom = isinstance(e, (MemoryError, OverflowError))
        print(f"error: {args.subcommand} ran out of memory ({e!r})" if oom else f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(e, cls))
    finally:
        if collecting:
            gc.enable()
    if args.json:
        print(_json({"command": args.subcommand, "input": _digest(source), **fields}))
    else:
        for line in lines if ok else [*lines, "CHECK FAILED"]:
            print(line)
    return EXIT_OK if ok else EXIT_PROPERTY_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
