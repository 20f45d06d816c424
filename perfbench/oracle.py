"""Independent oracle for every job's JSON report.

Relations are evaluated as truth tables: generator i of n is the integer
whose bit ``a`` is bit ``n-1-i`` of ``a``, so bit ``a`` of a term's table is
its value at the a-th assignment in lexicographic order (g0 most
significant), which is the order ``stonework`` lists spectrum points in.
Nothing here calls ``stonework``; cohomology answers come from the known
topology (the interval is (Z, 0) and exact, the circle is (Z, Z) from level
2 on) and from cell counts taken over neighbour lists.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def var_masks(n: int) -> tuple[list[int], int]:
    size = 1 << n
    full = (1 << size) - 1
    masks = []
    for i in range(n):
        half = 1 << (n - 1 - i)
        period = 2 * half
        block = ((1 << half) - 1) << half
        masks.append(block * (full // ((1 << period) - 1)))
    return masks, full


def truth_table(t, masks, full) -> int:
    op = t[0]
    if op == "v":
        return masks[t[1]]
    if op == "0":
        return 0
    if op == "1":
        return full
    if op == "~":
        return full & ~truth_table(t[1], masks, full)
    a, b = truth_table(t[1], masks, full), truth_table(t[2], masks, full)
    return a & b if op == "&" else a | b


def set_bits(x: int) -> list[int]:
    return [a for a, c in enumerate(bin(x)[:1:-1]) if c == "1"]


def alive(n: int, rels) -> int:
    """Table of the assignments that send every relation to 0."""
    masks, full = var_masks(n)
    out = full
    for r in rels:
        out &= ~truth_table(r, masks, full)
    return out


def points(n: int, rels) -> list[int]:
    return set_bits(alive(n, rels))


def _bits(a: int, n: int) -> str:
    return format(a, f"0{n}b") if n else ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _vars(t) -> set[int]:
    return {t[1]} if t[0] == "v" else set().union(*(_vars(s) for s in t[1:]))


# -- per-command expected reports -------------------------------------------


def _spectrum(job):
    names, rels = job.spec
    pts = [_bits(a, len(names)) for a in points(len(names), rels)]
    return {"gens": names, "n_points": len(pts), "points": pts}


def _duality(job):
    n, rels = job.spec
    k = len(points(n, rels))
    return {"n_points": k, "n_elements": 2**k, "bijective": True}


def _morphism(job):
    k, src_rels, m, dst_rels, images = job.spec
    src = points(k, src_rels)
    dst = points(m, dst_rels)
    masks, full = var_masks(m)
    tables = [truth_table(t, masks, full) for t in images]
    index = {a: i for i, a in enumerate(src)}
    pm = []
    for d in dst:
        image = sum(((tab >> d) & 1) << (k - 1 - i) for i, tab in enumerate(tables))
        pm.append(index[image])
    hit = set(pm)
    killed = [i for i in range(len(src)) if i not in hit]
    return {
        "injective": not killed,
        "kernel_size": 2 ** len(killed),
        "kernel_top": "".join("0" if i in hit else "1" for i in range(len(src))),
        "point_map": pm,
        "point_map_surjective": not killed,
        "axiom2_consistent": True,
    }


def _llpo(job):
    (n,) = job.spec
    # binfty(2n) in lexicographic order: 0...0, then one-hots from g(2n-1) down to g0
    decode = [{"side": "left", "point": "0" * n}]
    for j in range(2 * n - 1, -1, -1):
        hot = ["0"] * n
        hot[j // 2] = "1"
        decode.append({"side": "left" if j % 2 == 0 else "right", "point": "".join(hot)})
    return {
        "stage": n,
        "injective": True,
        "spectrum_map_surjective": True,
        "decode": decode,
        "decode_consistent": True,
    }


def _wlpo(job):
    (term,) = job.spec
    k = max(_vars(term), default=-1)
    # beta is the all-zero assignment (index 0), gamma sets only g(k+1) (index 1)
    table = truth_table(term, *var_masks(k + 2))
    vb, vg = table & 1, (table >> 1) & 1
    return {
        "k": k,
        "beta": _bits(0, k + 2),
        "gamma": _bits(1, k + 2),
        "value_beta": vb,
        "value_gamma": vg,
        "verdict": "fails_on_beta" if vb == 1 else "fails_on_gamma",
    }


def _markov(job):
    n, rels, seq, bound = job.spec
    live = alive(n, rels)
    masks, full = var_masks(n)
    for k, r in enumerate(seq[: bound + 1]):
        live &= ~truth_table(r, masks, full)
        if not live:
            return {"bound": bound, "witness": k}
    return {"bound": bound, "witness": None}


def _separate(job):
    n, rels, fs, gs = job.spec
    masks, full = var_masks(n)
    base = alive(n, rels)
    interleaved = []
    for i in range(max(len(fs), len(gs))):
        interleaved += [("f", fs[i])] if i < len(fs) else []
        interleaved += [("g", gs[i])] if i < len(gs) else []
    live, chosen = base, 0
    for tag, h in interleaved:
        tab = truth_table(h, masks, full)
        live &= ~tab
        if tag == "g":
            chosen |= tab
        if not live:
            break
    pts = set_bits(base)
    sep = "".join(str((chosen >> a) & 1) for a in pts)
    # brute-force property: the separator holds on F and fails on G
    in_f = alive(n, list(rels) + list(fs))
    in_g = alive(n, list(rels) + list(gs))
    for i, a in enumerate(pts):
        if ((in_f >> a) & 1 and sep[i] != "1") or ((in_g >> a) & 1 and sep[i] != "0"):
            raise AssertionError("oracle separator does not separate F from G")
    return {"separator": sep}


def _dyadic(x: Fraction) -> str:
    exp = x.denominator.bit_length() - 1
    return str(x.numerator) if exp == 0 else f"{x.numerator}/2^{exp}"


def _interval_image(job):
    (words,) = job.spec
    parts = sorted(
        (Fraction(int(w, 2), 2 ** len(w)), Fraction(int(w, 2) + 1, 2 ** len(w))) for w in words
    )
    merged: list[list[Fraction]] = []
    for lo, hi in parts:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    edges = [Fraction(0)] + [x for part in merged for x in part] + [Fraction(1)]
    gaps = [(a, b) for a, b in zip(edges[::2], edges[1::2]) if a < b]
    return {
        "image": [[_dyadic(lo), _dyadic(hi)] for lo, hi in merged],
        "complement": [[_dyadic(lo), _dyadic(hi)] for lo, hi in gaps],
    }


def graph_dims(space: str, level: int) -> list[int]:
    """Vertices, related pairs and related triples of a level graph."""
    size = 2**level
    nbrs = [{j for j in (i - 1, i, i + 1) if 0 <= j < size} for i in range(size)]
    if space == "circle":
        nbrs[0].add(size - 1)
        nbrs[size - 1].add(0)
    pairs = sum(len(s) for s in nbrs)
    triples = sum(len(nbrs[v] & nbrs[u]) for u in range(size) for v in nbrs[u])
    return [size, pairs, triples]


def _h1(space: str, level: int) -> dict:
    return {"rank": 1 if space == "circle" and level >= 2 else 0, "torsion": []}


_Z = {"rank": 1, "torsion": []}


def _cohomology(job):
    space, level = job.spec
    h1 = _h1(space, level)
    return {
        "space": space,
        "level": level,
        "dims": graph_dims(space, level),
        "h0": _Z,
        "h1": h1,
        "exact": [True, True, h1["rank"] == 0],
    }


def _stabilize(job):
    space, depth = job.spec
    levels = [
        {"level": n, "dims": graph_dims(space, n), "h0": _Z, "h1": _h1(space, n)}
        for n in range(depth)
    ]
    return {
        "space": space,
        "levels": levels,
        "h0_iso": [True] * (depth - 1),
        "h1_iso": [levels[n]["h1"] == levels[n + 1]["h1"] for n in range(depth - 1)],
    }


def _pmz(i: int):
    """i-th pair (a, b), a < b, in (b, a) order: the pairwise-meet-zero family."""
    b = 1
    while i >= b:
        i -= b
        b += 1
    return ("&", ("v", i), ("v", b))


def _renumber(t, index):
    if t[0] == "v":
        return ("v", index[t[1]])
    return (t[0],) + tuple(_renumber(s, index) for s in t[1:])


def _tower(job):
    """Level n: generators g0..gn plus those the first n+1 relations mention."""
    family, explicit, depth = job.spec
    schedule = list(explicit)
    if family == "pairwise-meet-zero":
        schedule += [_pmz(i) for i in range(depth)]
    sizes = []
    for n in range(depth):
        rels = schedule[: n + 1]
        gens = sorted(set(range(n + 1)).union(*(_vars(r) for r in rels)))
        index = {g: i for i, g in enumerate(gens)}
        sizes.append(len(points(len(gens), [_renumber(r, index) for r in rels])))
    return {"depth": depth, "level_sizes": sizes}


_EXPECT = {
    "spectrum": _spectrum,
    "duality": _duality,
    "morphism": _morphism,
    "llpo": _llpo,
    "wlpo": _wlpo,
    "markov": _markov,
    "separate": _separate,
    "interval-image": _interval_image,
    "cohomology": _cohomology,
    "stabilize": _stabilize,
    "tower": _tower,
}


def _input_id(job) -> str:
    if job.text is not None:
        return digest(job.text)
    if job.command in ("cohomology", "stabilize"):
        return digest(f"{job.spec[0]}:{job.spec[1]}")
    return digest(job.args[-1])


def expected_report(job) -> dict:
    return {"command": job.command, "input": _input_id(job), **_EXPECT[job.command](job)}


def check(job, code: int, out: str, err: str):
    """None when the job's report is right, else a one-line reason."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        got = json.loads(out)
    except ValueError:
        return "report is not JSON"
    want = expected_report(job)
    if got == want:
        return None
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k) != want.get(k)]
    return f"report differs from the oracle at {', '.join(bad)}"
