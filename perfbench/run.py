"""stonework benchmark: seeded CLI job mixes, checked against an oracle.

    python3 perfbench/run.py --workload {spectra,algebra-ops,cohomology,all} \
        --seed N --seconds S --trace {0,1} [--smoke]

A run repeats passes for S seconds.  Each pass is a fresh interpreter
(``child.py``) that builds the workload's job list from the seed, runs it
through ``stonework.cli.main`` one job at a time (a closed loop with one
client) and checks every report.  A fresh interpreter per pass means the
spectrum cache only ever sees the reuse inside a job, as a CLI user does.

With ``--trace 0`` the run reports the end-to-end metrics.  Times are
given at the reference host speed: each job's wall and CPU time, and each
pass's set-up time, is scaled by the host's speed probed right next to it
(``hostspeed.py``), which takes out the swings a shared host imposes.  Each
job keeps the median of its scaled times over the passes; wall_s and cpu_s
sum them over the job list, job_p50_ms and job_tail_ms are a median and a
tail of them.  Set-up time and peak memory are medians over the passes.  With
``--trace 1`` passes alternate untraced and traced, and the per-layer
metrics are medians over the traced passes.  Every report of every pass
must be byte-identical to the first pass's, traced or not.  ``--smoke``
runs one small pass of each kind; ``--workload all`` runs the three
workloads in turn.  The last stdout line is the JSON result;
the lines before it give every metric with its unit, the spread between
passes, the report digest and the environment.  A copy of the result,
per-pass figures included, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs above it


class BenchError(Exception):
    pass


def _pass(args, traced: bool, deadline: float, spans: Path) -> dict:
    cmd = [sys.executable, "-E", "-s", str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        cmd += ["--traced", "--spans", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k != "STONEWORK_CAP"}
    launch_probe = hostspeed.median_probe()
    launched = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish before the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"a pass exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    summary["setup"] = summary["t_first"] - launched
    # the host's speed while the child started: probes just before the
    # launch and just after the child's set-up
    summary["setup_speed"] = hostspeed.REFERENCE_S / ((launch_probe + summary["setup_probe"]) / 2)
    return summary


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 with fewer than 2 values)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest rank with TAIL_BEYOND jobs beyond it (the slowest
    job when there are fewer), and that rank."""
    ranked = sorted(latencies)
    r = len(ranked) - 1 - (TAIL_BEYOND if len(ranked) > TAIL_BEYOND else 0)
    return ranked[r], r


def _source_id() -> dict:
    """The commit when the checkout is a git repository, and a digest of src/ always."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
    return {"commit": commit, "source_sha256": h.hexdigest()[:16]}


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _at_reference_speed(p: dict, key: str) -> list[float]:
    """A pass's per-job times scaled to the reference host speed."""
    return [t * hostspeed.REFERENCE_S / c for t, c in zip(p[key], p["probes"])]


def _end_to_end(plain: list[dict]) -> tuple[dict, list[str]]:
    # A shared host runs the same job up to 1.9x slower while neighbours load
    # it, for stretches that can outlast a run.  Each job's time is therefore
    # scaled by the host speed probed next to it (hostspeed.py), each job
    # keeps the median of its scaled times over the passes, and wall_s and
    # cpu_s sum those medians over the job list.  Set-up time is scaled the
    # same way; it and memory are medians over the passes.
    per_job = [statistics.median(col) for col in zip(*(_at_reference_speed(p, "latencies") for p in plain))]
    per_job_cpu = [statistics.median(col) for col in zip(*(_at_reference_speed(p, "cpu_times") for p in plain))]
    tail, rank = _tail(per_job)
    walls = [p["wall"] for p in plain]
    speeds = [hostspeed.REFERENCE_S / statistics.median(p["probes"]) for p in plain]
    setups = [p["setup"] * p["setup_speed"] for p in plain]
    rss = [p["rss_kb"] / 1024 for p in plain]
    values = {
        "wall_s": sum(per_job),
        "cpu_s": sum(per_job_cpu),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    k = len(plain)
    notes = {
        "wall_s": f"at reference speed: sum of {len(per_job)} jobs, each its median of {k} passes; "
                  f"as timed, passes took {min(walls):.4f}-{max(walls):.4f} s "
                  f"at host speed {min(speeds):.2f}-{max(speeds):.2f}",
        "cpu_s": f"at reference speed: sum of {len(per_job)} jobs, each its median of {k} passes",
        "job_p50_ms": f"at reference speed: median of {len(per_job)} jobs, each its median of {k} passes",
        "job_tail_ms": f"at reference speed: p{100 * (rank + 1) / len(per_job):.1f} of {len(per_job)} jobs, "
                       f"{len(per_job) - 1 - rank} jobs beyond it",
        "setup_s": f"at reference speed: median of {k} passes, spread {100 * _spread(setups):.1f}%; "
                   f"as timed, median {statistics.median(p['setup'] for p in plain):.4f} s",
        "peak_rss_mb": f"median of {k} passes, spread {100 * _spread(rss):.1f}%",
    }
    return _named("end_to_end", values, notes)


def _per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    # median_low keeps each value one that a traced pass measured
    values = {name: statistics.median_low(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    values["trace_overhead"] = (statistics.median(p["wall"] for p in traced)
                                / statistics.median(p["wall"] for p in plain))
    return _named("per_layer", values, {})


def _named(kind: str, values: dict, notes: dict) -> tuple[dict, list[str]]:
    units = _declared(kind)
    if set(units) != set(values):
        raise BenchError(f"measured metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(units) ^ set(values))}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    lines = [f"{n:<32}{values[n]:>16.6g} {u:<6}{notes.get(n, '')}" for n, u in units.items()]
    return metrics, lines


def run(args) -> tuple[dict, list[str]]:
    if not (ROOT / "src" / "stonework" / "cli.py").is_file():
        raise BenchError(f"no stonework sources under {ROOT / 'src'}")
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    # users run from compiled bytecode; compile it before the first launch
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes: list[dict] = []
    for traced in itertools.cycle([False, True] if args.trace else [False]):
        passes.append(_pass(args, traced, deadline, out_dir / f"{tag}-spans.jsonl"))
        enough = not args.trace or len(passes) >= 2
        if enough and (args.smoke or time.perf_counter() - start >= args.seconds):
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["jobs"] for p in passes)
    reasons = {}
    reference = passes[0]["digests"]
    for i, p in enumerate(passes):
        for k, why in p["failures"]:
            reasons[(i, k)] = why
        for k, (a, b) in enumerate(zip(reference, p["digests"])):
            if a != b:
                reasons.setdefault((i, k), "report differs from the first pass's report")
    failed = len(reasons)
    digests = sorted({p["digest"] for p in passes})

    if args.trace:
        metrics, lines = _per_layer(plain, traced_passes)
    else:
        metrics, lines = _end_to_end(plain)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **_source_id(),
    }
    head = [
        f"stonework benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}{', smoke' if args.smoke else ''}",
        f"environment: python {env['python']}, nproc {env['nproc']}, "
        f"commit {env['commit'] or 'unknown'}, src sha256 {env['source_sha256']}",
        f"passes: {len(plain)} untraced, {len(traced_passes)} traced; "
        f"{passes[0]['jobs']} jobs per pass, one job at a time",
        f"report digest: {' '.join(digests)}"
        + ("" if len(digests) == 1 else "  (passes disagree: output is not deterministic)"),
    ]
    tail = [f"{'fail_ratio':<32}{failed / attempted:>16.6g} {'ratio':<6}{failed} failed of {attempted} attempted"]
    tail += [f"failed: pass {i} job {k}: {why}" for (i, k), why in sorted(reasons.items())[:10]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"result": result, "environment": env, "report_digests": digests,
              "passes": [{k: v for k, v in p.items() if k != "digests"} for p in passes]}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, head + lines + tail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one small pass per kind")
    args = ap.parse_args(argv)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, lines = run(argparse.Namespace(**{**vars(args), "workload": workload}))
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        print(json.dumps(result))
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
