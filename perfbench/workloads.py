"""Seeded job lists for the three benchmark workloads.

A job is one ``stonework`` CLI command: its subcommand, its arguments, the
text of its input file (if it takes one) and a ``spec`` that tells the
oracle what the command was asked.  Terms are kept as small tuples so that
the oracle can evaluate them without going through ``stonework``:

    ("v", i)      generator i        ("~", t)       negation
    ("&", a, b)   meet               ("|", a, b)    join
    ("0",), ("1",) constants

Every non-tower job names its generators with a prefix unique to the job,
so no two jobs of one pass hand ``boolalg``'s spectrum cache an equal
presentation; a tower must use g0, g1, ... and each tower job gets its own
relations.  Size ladders are fixed per workload and only the contents (and
the job order) depend on the seed, so the work per pass is close to
seed-independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import oracle

WORKLOADS = ("spectra", "algebra-ops", "cohomology")


@dataclass(frozen=True)
class Job:
    command: str
    args: tuple[str, ...]
    text: Optional[str]
    spec: tuple

    def argv(self, path: Optional[str]) -> list[str]:
        head = ["--json", self.command]
        return head + ([path] if self.text is not None else []) + list(self.args)


def render(t, names) -> str:
    op = t[0]
    if op == "v":
        return names[t[1]]
    if op in ("0", "1"):
        return op
    if op == "~":
        return "~" + _atom(t[1], names)
    return f"{_atom(t[1], names)} {op} {_atom(t[2], names)}"


def _atom(t, names) -> str:
    text = render(t, names)
    return f"({text})" if t[0] in ("&", "|") else text


def meet_of(terms):
    out = terms[0]
    for t in terms[1:]:
        out = ("&", out, t)
    return out


def join_of(terms):
    if not terms:
        return ("0",)
    out = terms[0]
    for t in terms[1:]:
        out = ("|", out, t)
    return out


def _clause(rng: random.Random, variables, size: int, lead: Optional[int] = None, signed=False):
    """Meet of ``size`` literals; unless ``signed``, the first is positive, so 0...0 survives."""
    picks = [lead] if lead is not None else []
    pool = [v for v in variables if v != lead]
    picks += rng.sample(pool, size - len(picks))
    lits = [("~", ("v", v)) if rng.random() < 0.5 else ("v", v) for v in picks]
    if not signed:
        lits[0] = ("v", picks[0])
    return meet_of(lits)


def _clauses(rng, n: int, count: int):
    # clause sizes alternate 2, 3 so every seed sees the same size mix
    return [_clause(rng, range(n), 2 + i % 2) for i in range(count)]


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _prefix(k: int) -> str:
    """Letters-only prefix unique to job k (a, b, ..., z, ba, bb, ...)."""
    out = ""
    while True:
        out = chr(ord("a") + k % 26) + out
        k //= 26
        if k == 0:
            return out + "x"


def _terms_line(terms, names) -> str:
    return ", ".join(render(t, names) for t in terms)


def _presentation_text(names, rels, extra: str = "") -> str:
    return f"gens: {' '.join(names)}\nrels: {_terms_line(rels, names)}\n{extra}"


class _JobList:
    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.jobs: list[Job] = []

    def prefix(self) -> str:
        return _prefix(len(self.jobs))

    def add(self, command, args=(), text=None, spec=()):
        self.jobs.append(Job(command, tuple(args), text, spec))

    def spectrum(self, n: int, rels) -> None:
        names = _names(self.prefix(), n)
        self.add("spectrum", text=_presentation_text(names, rels), spec=(names, rels))

    def binfty(self, n: int) -> None:
        rels = [("&", ("v", i), ("v", j)) for i in range(n) for j in range(i + 1, n)]
        self.spectrum(n, rels)

    def tower(self, family: str, rels, depth: int) -> None:
        names = _names("g", depth + 1)
        text = f"family: {family}\nrels: {_terms_line(rels, names)}\ndepth: {depth}\n"
        self.add("tower", text=text, spec=(family, rels, depth))

    def local_tower(self, depth: int) -> None:
        """Relation i mentions g(i+1) and earlier generators only.

        Level n then has n + 2 generators.  Of a few candidate clauses for
        each relation the one whose level size is nearest GROWTH times the
        level below is kept, so the level sizes (whose squares set the cost
        of the current tower code) hardly depend on the seed.
        """
        masks, full = oracle.var_masks(depth + 1)
        live, size, rels = full, 1 << (depth + 1), []
        for i in range(depth):
            # a level-i count is the popcount over the full width, halved for
            # each generator above g(i+1)
            target = min(size * GROWTH, 2 * size) * (1 << (depth - i - 1))
            best = None
            for _ in range(CANDIDATES):
                c = _clause(self.rng, range(i + 2), min(2 + i % 2, i + 2), lead=i + 1)
                left = live & ~oracle.truth_table(c, masks, full)
                miss = abs(bin(left).count("1") - target)
                if best is None or miss < best[0]:
                    best = (miss, c, left)
            _, c, live = best
            rels.append(c)
            size = bin(live).count("1") >> (depth - i - 1)
        self.tower("none", rels, depth)

    def duality(self, n: int, points: int) -> None:
        rels = _rels_with_points(self.rng, n, points)
        names = _names(self.prefix(), n)
        self.add("duality", text=_presentation_text(names, rels), spec=(n, rels))

    def morphism(self, k: int, m: int, join_map: bool) -> None:
        """binfty(k) -> binfty(m) sending generators to disjoint joins."""
        targets = list(range(m))
        self.rng.shuffle(targets)
        if join_map:
            cuts = sorted(self.rng.randint(0, m) for _ in range(k - 1))
            bounds = [0] + cuts + [m]
            parts = [targets[bounds[i]:bounds[i + 1]] for i in range(k)]
        else:
            parts = [[t] for t in targets[:k]]
        images = [join_of([("v", t) for t in sorted(p)]) for p in parts]
        src_rels = [("&", ("v", i), ("v", j)) for i in range(k) for j in range(i + 1, k)]
        dst_rels = [("&", ("v", i), ("v", j)) for i in range(m) for j in range(i + 1, m)]
        pre = self.prefix()
        src, dst = _names(pre + "s", k), _names(pre + "t", m)
        text = (
            f"src-gens: {' '.join(src)}\nsrc-rels: {_terms_line(src_rels, src)}\n"
            f"dst-gens: {' '.join(dst)}\ndst-rels: {_terms_line(dst_rels, dst)}\n"
            "map: " + ", ".join(f"{s} -> {render(t, dst)}" for s, t in zip(src, images)) + "\n"
        )
        self.add("morphism", text=text, spec=(k, src_rels, m, dst_rels, images))

    def markov(self, n: int) -> None:
        rng = self.rng
        rels = _clauses(rng, n, rng.randint(0, 2))
        seq = [_clause(rng, range(n), rng.randint(1, 2), signed=True) for _ in range(rng.randint(6, 10))]
        bound = rng.randint(2, len(seq) - 1)
        names = _names(self.prefix(), n)
        text = _presentation_text(names, rels, f"seq: {_terms_line(seq, names)}\n")
        self.add("markov", args=("--bound", str(bound)), text=text, spec=(n, rels, seq, bound))

    def separate(self, n: int) -> None:
        rng = self.rng
        rels = _clauses(rng, n, rng.randint(0, 2))
        # F lies in {x = 0} and G in {x = 1}, so the closed sets are disjoint
        x = rng.randrange(n)
        fs = [("v", x)] + _clauses(rng, n, rng.randint(0, 2))
        gs = [("~", ("v", x))] + _clauses(rng, n, rng.randint(0, 2))
        rng.shuffle(fs)
        rng.shuffle(gs)
        names = _names(self.prefix(), n)
        extra = f"fs: {_terms_line(fs, names)}\ngs: {_terms_line(gs, names)}\n"
        self.add("separate", text=_presentation_text(names, rels, extra), spec=(n, rels, fs, gs))

    def unique(self, make) -> None:
        """Add the job ``make()`` returns, drawing again while it repeats an input."""
        seen = {(j.command, j.args, j.text) for j in self.jobs}
        job = make()
        while (job.command, job.args, job.text) in seen:
            job = make()
        self.jobs.append(job)

    def wlpo(self) -> Job:
        k = self.rng.randint(0, 8)
        term = _random_term(self.rng, k, depth=3)
        return Job("wlpo", (render(term, _names("g", k + 1)),), None, (term,))

    def interval_image(self) -> Job:
        rng = self.rng
        words = [
            "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 5))
        ]
        return Job("interval-image", ("--cylinders", ",".join(words)), None, (words,))


def _random_term(rng: random.Random, k: int, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return ("v", rng.randint(0, k))
    op = rng.choice("~&|")
    if op == "~":
        return ("~", _random_term(rng, k, depth - 1))
    return (op, _random_term(rng, k, depth - 1), _random_term(rng, k, depth - 1))


def _rels_with_points(rng: random.Random, n: int, points: int):
    """Clause relations over n generators leaving exactly ``points`` points."""
    masks, full = oracle.var_masks(n)
    rels: list = []
    alive = full
    tries = 0
    while bin(alive).count("1") > points + 4 and tries < 200:
        tries += 1
        c = _clause(rng, range(n), rng.randint(2, 3))
        left = alive & ~oracle.truth_table(c, masks, full)
        if bin(left).count("1") >= points:
            rels.append(c)
            alive = left
    # finish with minterms, each killing one surviving assignment
    survivors = oracle.set_bits(alive)
    for a in rng.sample(survivors, len(survivors) - points):
        bits = [(a >> (n - 1 - i)) & 1 for i in range(n)]
        rels.append(meet_of([("v", i) if b else ("~", ("v", i)) for i, b in enumerate(bits)]))
    return rels


GROWTH = 1.6  # level-size growth per level of a local tower
CANDIDATES = 16

# Size ladders per pass.  A pass is kept to a few seconds so that a run
# repeats it often enough for each job's fastest time to be steady.  Six 13-
# and six 14-generator spectra put a run of equal-cost jobs at the median and
# at the tail rank of the 33 spectra jobs, so neither lands on a step between
# job sizes.  The smoke ladders keep every
# job kind but make each job small, so a broken harness fails within seconds.
SPECTRA = {
    "random": [11] * 4 + [12] * 4 + [13] * 6 + [14] * 6 + [15] * 2,
    "binfty": [11, 12, 13, 14],
    "pmz": [13],
    "local": [9, 10, 11, 12, 13, 14],
}
SPECTRA_SMOKE = {"random": [6, 7], "binfty": [5], "pmz": [6], "local": [5]}

ALGEBRA = {
    "duality": [(8, p) for p in (6, 7, 8, 9, 10) for _ in range(6)],
    "morphism": 50,
    "llpo": [1, 2, 3, 4, 5],
    "small": 50,
}
ALGEBRA_SMOKE = {"duality": [(4, 3)], "morphism": 2, "llpo": [1], "small": 1}

# Levels stop at 7: the p50 and tail jobs of this mix take 5-20 ms, and a
# level-8 job (1.5 s each) would cut the passes a run gets, and with them
# the repeats each job's fastest time is taken from, by three quarters.
# The 26 jobs put the median inside the four level-4 jobs and the tail rank
# inside the four level-5 jobs, not on a step between levels.
COHOMOLOGY = {"cohomology": range(1, 8), "stabilize": range(2, 8)}
COHOMOLOGY_SMOKE = {"cohomology": range(2, 4), "stabilize": range(2, 4)}


def build(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The job list of one pass; the same seed always gives the same list."""
    b = _JobList(seed, workload)
    rng = b.rng
    if workload == "spectra":
        sizes = SPECTRA_SMOKE if smoke else SPECTRA
        for n in sizes["random"]:
            b.spectrum(n, _clauses(rng, n, n))
        for n in sizes["binfty"]:
            b.binfty(n)
        for d in sizes["pmz"]:
            b.tower("pairwise-meet-zero", [], d)
        for d in sizes["local"]:
            b.local_tower(d)
    elif workload == "algebra-ops":
        sizes = ALGEBRA_SMOKE if smoke else ALGEBRA
        for n, points in sizes["duality"]:
            b.duality(n, points)
        for i in range(sizes["morphism"]):
            k = rng.randint(2, 5)
            b.morphism(k, rng.randint(k, 8), join_map=i % 2 == 1)
        for stage in sizes["llpo"]:
            b.add("llpo", args=("--stage", str(stage)), spec=(stage,))
        for _ in range(sizes["small"]):
            b.markov(rng.randint(5, 8))
            b.separate(rng.randint(5, 8))
            b.unique(b.wlpo)
            b.unique(b.interval_image)
            n = rng.randint(4, 8)
            b.spectrum(n, _clauses(rng, n, n // 2))
    elif workload == "cohomology":
        sizes = COHOMOLOGY_SMOKE if smoke else COHOMOLOGY
        for command, flag in (("cohomology", "--level"), ("stabilize", "--depth")):
            for space in ("interval", "circle"):
                for n in sizes[command]:
                    b.add(command, args=(space, flag, str(n)), spec=(space, n))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    jobs = b.jobs
    # shuffling after generation keeps generator prefixes unique per job
    rng.shuffle(jobs)
    return jobs
