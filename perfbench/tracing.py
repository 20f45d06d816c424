"""Spans at the boundaries between stonework's six modules.

``install`` replaces every binding of a public function of one layer with a
wrapper: the defining module's attribute (reached as ``boolalg.spectrum`` or
by a function-level ``from .interval import interval_graph``) and each name
another layer imported (``from .boolalg import spectrum`` in ``profinite``).
Public methods and ``__post_init__`` of the layers' classes are wrapped on
the class, which every binding of the class shares.  Two kinds of binding are
left alone: ``terms`` recurses through its own globals, and ``cli`` is the
root layer whose job span the benchmark opens itself.

A wrapped call opens a span when it crosses from one layer into another, or
when a per-layer metric is named after the function; other calls inside a
layer pass straight through.  ``terms.eval_term`` is crossed once per
assignment, so it is aggregated into a call counter and a time total on the
calling span instead.  Spans stay in memory until ``write`` at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("cli", "terms", "boolalg", "profinite", "interval", "zhomology")

# functions that open a span even on a call from inside their own layer
NAMED = {
    "boolalg.spectrum",
    "boolalg.check_duality",
    "boolalg.hom",
    "boolalg.analyze_morphism",
    "boolalg.point_map",
    "boolalg.llpo_split",
    "profinite.truncation_tower",
    "profinite.spectrum_tower",
    "interval.interval_graph",
    "interval.circle_graph",
    "zhomology.graph_cech_complex",
    "zhomology.homology",
    "zhomology.kernel_basis",
    "zhomology.induced_cochain_map",
}
LEAF = "terms.eval_term"

# frame fields
_ID, _LAYER, _NAME, _START, _CHILD, _LEAF_CALLS, _LEAF_S = range(7)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.spans: list[tuple] = []  # (id, parent, job, name, start, end, self_s, eval_calls, eval_s)
        self.info: dict[int, dict] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.job = -1
        self.seen: set = set()  # (job, presentation) pairs already enumerated
        self._next = 0

    def open(self, layer: str, name: str) -> list:
        self._next += 1
        frame = [self._next, layer, name, 0.0, 0.0, 0, 0.0]
        self.stack.append(frame)
        frame[_START] = perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame[_START]
        parent = None
        if stack:
            stack[-1][_CHILD] += dur
            parent = stack[-1][_ID]
        self.layer_self[frame[_LAYER]] += dur - frame[_CHILD]
        self.layer_self["terms"] += frame[_LEAF_S]
        self.spans.append((
            frame[_ID], parent, self.job, frame[_NAME], frame[_START], end,
            dur - frame[_CHILD], frame[_LEAF_CALLS], frame[_LEAF_S],
        ))

    def probe(self, frame: list, fn, args, result) -> None:
        """Record counts for a closed span, keeping the probe's time out of every layer."""
        t0 = perf_counter()
        self.info[frame[_ID]] = fn(self, args, result)
        if self.stack:
            self.stack[-1][_CHILD] += perf_counter() - t0

    def write(self, path: str) -> None:
        keys = ("id", "parent", "job", "name", "start", "end", "self_s", "eval_calls", "eval_s")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                row = dict(zip(keys, rec))
                row.update(self.info.get(rec[0], {}))
                fh.write(json.dumps(row) + "\n")


def _spectrum_probe(tracer, args, result):
    p = args[0]
    key = (tracer.job, p)
    new = key not in tracer.seen
    tracer.seen.add(key)
    return {"new": new, "gens": len(p.gens), "points": result.n_points}


def _nnz(m) -> int:
    return sum(1 for row in m.rows for x in row if x)


def _complex_probe(tracer, args, result):
    v = len(args[0].vertices)
    d0, d1 = result.d0, result.d1
    return {
        "scanned": v**3,
        "kept": result.dims[2],
        "dense": d0.nrows * d0.ncols + d1.nrows * d1.ncols,
        "nnz": _nnz(d0) + _nnz(d1),
    }


def _graph_probe(tracer, args, result):
    return {"vertices": len(result.vertices), "pairs": len(result.related)}


PROBES = {
    "boolalg.spectrum": _spectrum_probe,
    "boolalg.check_duality": lambda tracer, args, r: {"vectors": 2**r.n_points},
    "profinite.spectrum_tower": lambda tracer, args, r: {"points": sum(map(len, r.levels))},
    "interval.interval_graph": _graph_probe,
    "interval.circle_graph": _graph_probe,
    "zhomology.graph_cech_complex": _complex_probe,
}


def _span_wrapper(tracer: Tracer, layer: str, qual: str, fn):
    named = qual in NAMED
    probe = PROBES.get(qual)

    def wrapper(*args, **kwargs):
        if not named and tracer.stack[-1][_LAYER] == layer:
            return fn(*args, **kwargs)
        frame = tracer.open(layer, qual)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if probe is not None:
            tracer.probe(frame, probe, args, result)
        return result

    return wrapper


def _leaf_wrapper(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            frame = tracer.stack[-1]
            frame[_CHILD] += dt
            frame[_LEAF_CALLS] += 1
            frame[_LEAF_S] += dt

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every cross-layer binding in the current process."""
    modules = {layer: importlib.import_module(f"stonework.{layer}") for layer in LAYERS}
    owner_of = {mod.__name__: layer for layer, mod in modules.items()}
    wrappers: dict = {}

    def wrapped(layer: str, qual: str, fn):
        if fn not in wrappers:
            if qual == LEAF:
                wrappers[fn] = _leaf_wrapper(tracer, fn)
            else:
                wrappers[fn] = _span_wrapper(tracer, layer, qual, fn)
        return wrappers[fn]

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            owner = owner_of.get(getattr(obj, "__module__", None))
            if owner is None or name.startswith("_"):
                continue
            if inspect.isfunction(obj) and not (owner == layer and layer in ("terms", "cli")):
                setattr(mod, name, wrapped(owner, f"{owner}.{obj.__name__}", obj))
            elif inspect.isclass(obj) and owner == layer:
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr != "__post_init__":
                        continue
                    qual = f"{layer}.{obj.__name__}.{attr}"
                    if isinstance(member, staticmethod):
                        setattr(obj, attr, staticmethod(wrapped(layer, qual, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, attr, wrapped(layer, qual, member))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    spans, info = tracer.spans, tracer.info
    name_of = {rec[0]: rec[3] for rec in spans}
    parent_of = {rec[0]: rec[1] for rec in spans}

    def outermost(*names: str) -> list[tuple]:
        """Spans of ``names`` that no other span of ``names`` encloses."""
        out = []
        for rec in spans:
            if rec[3] in names:
                p = rec[1]
                while p is not None and name_of[p] not in names:
                    p = parent_of[p]
                if p is None:
                    out.append(rec)
        return out

    def seconds(*names: str) -> float:
        return sum((rec[5] - rec[4] for rec in outermost(*names)), 0.0)

    def of(name: str) -> list[dict]:
        return [info[rec[0]] for rec in spans if rec[3] == name]

    def total(recs: list[dict], key: str) -> int:
        return sum(d[key] for d in recs)

    spectra = of("boolalg.spectrum")
    enumerated = [d for d in spectra if d["new"]]
    complexes = of("zhomology.graph_cech_complex")
    graphs = [info[rec[0]] for rec in outermost("interval.interval_graph", "interval.circle_graph")]
    scanned = sum(2 ** d["gens"] for d in enumerated)
    kept = total(enumerated, "points")
    triples, dense = total(complexes, "scanned"), total(complexes, "dense")
    m = {f"{layer}.self_s": tracer.layer_self[layer] for layer in LAYERS}
    m.update({
        "terms.parse_s": seconds("terms.parse_term", "terms.parse_term_list", "terms.parse_gen_list"),
        "terms.eval_calls": sum(rec[7] for rec in spans),
        "terms.substitute_calls": sum(1 for rec in spans if rec[3] == "terms.substitute"),
        "boolalg.spectrum_s": seconds("boolalg.spectrum"),
        "boolalg.spectrum_calls": len(spectra),
        "boolalg.spectrum_distinct": len(enumerated),
        "boolalg.assignments_scanned": scanned,
        "boolalg.points_kept": kept,
        "boolalg.keep_ratio": _ratio(kept, scanned),
        "boolalg.duality_s": seconds("boolalg.check_duality"),
        "boolalg.duality_vectors": total(of("boolalg.check_duality"), "vectors"),
        "boolalg.morphism_s": seconds(
            "boolalg.hom", "boolalg.analyze_morphism", "boolalg.point_map", "boolalg.llpo_split"
        ),
        "profinite.truncation_tower_s": seconds("profinite.truncation_tower"),
        "profinite.spectrum_tower_s": seconds("profinite.spectrum_tower"),
        "profinite.tower_points": total(of("profinite.spectrum_tower"), "points"),
        "interval.graph_vertices": total(graphs, "vertices"),
        "interval.graph_pairs": total(graphs, "pairs"),
        "zhomology.complex_s": seconds("zhomology.graph_cech_complex"),
        "zhomology.triples_scanned": triples,
        "zhomology.triples_kept": total(complexes, "kept"),
        "zhomology.triple_keep_ratio": _ratio(total(complexes, "kept"), triples),
        "zhomology.dense_entries": dense,
        "zhomology.nnz": total(complexes, "nnz"),
        "zhomology.density": _ratio(total(complexes, "nnz"), dense),
        "zhomology.homology_s": seconds("zhomology.homology"),
        "zhomology.kernel_basis_s": seconds("zhomology.kernel_basis"),
        "zhomology.induced_map_s": seconds("zhomology.induced_cochain_map"),
    })
    return m
