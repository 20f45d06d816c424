"""One pass of a workload in a fresh interpreter.

    python3 -E -s perfbench/child.py --root ROOT --workload W --seed N [--traced] [--smoke] [--spans FILE]

Imports ``stonework`` from ROOT/src, writes the pass's input files under
ROOT/.perfbench/work, runs every job through ``stonework.cli.main`` with its
output captured, then checks each report against the oracle.  Only the jobs
are timed; input generation before them counts as set-up, and the garbage
collection and host-speed probes between jobs and the oracle after them
count nowhere.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed
import oracle
import workloads


def _run_jobs(cli, argvs, tracer):
    """Run each job in turn; return reports, wall latencies, CPU times and
    host-speed probes (the mean of one just before and one just after each job)."""
    reports, latencies, cpu, probes = [], [], [], []
    for k, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        # a CLI user runs each command in a new process, so no job pays for
        # collecting the garbage an earlier job left behind
        gc.collect()
        before = hostspeed.probe()
        t0 = time.perf_counter()
        c0 = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.job = k
                frame = tracer.open("cli", "cli.main")
            try:
                code = cli.main(argv)
            except Exception as e:  # a crash is a failed job, not a failed pass
                code = f"exception {type(e).__name__}: {e}"
            finally:
                if tracer is not None:
                    tracer.close(frame)
        latencies.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        probes.append((before + hostspeed.probe()) / 2)
        reports.append((code, out.getvalue(), err.getvalue()))
    return reports, latencies, cpu, probes


def failures(jobs, reports) -> list[tuple[int, str]]:
    """(job index, reason) for every report the oracle rejects."""
    out = []
    for k, (job, (code, text, err)) in enumerate(zip(jobs, reports)):
        reason = oracle.check(job, code, text, err)
        if reason is not None:
            out.append((k, reason))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import stonework
    import stonework.cli as cli

    if not Path(stonework.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"stonework was imported from {stonework.__file__}, not from {root / 'src'}")

    jobs = workloads.build(args.workload, args.seed, smoke=args.smoke)
    work = root / ".perfbench" / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        argvs = []
        for k, job in enumerate(jobs):
            path = None
            if job.text is not None:
                path = work / f"{k}.txt"
                path.write_text(job.text, encoding="utf-8")
            argvs.append(job.argv(None if path is None else str(path)))
        tracer = None
        if args.traced:
            import tracing  # imported here so untraced set-up stays as a user sees it

            tracer = tracing.Tracer()
            tracing.install(tracer)
        # keep what imports and set-up made out of every collection, so that
        # the collection before each job only walks garbage of earlier jobs
        gc.freeze()
        t_first = time.perf_counter()
        setup_probe = hostspeed.median_probe()
        reports, latencies, cpu, probes = _run_jobs(cli, argvs, tracer)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {
        "traced": args.traced,
        "t_first": t_first,
        "wall": sum(latencies),
        "rss_kb": rss_kb,
        "latencies": latencies,
        "cpu_times": cpu,
        "probes": probes,
        "setup_probe": setup_probe,
        "jobs": len(jobs),
        "failures": failures(jobs, reports),
        "digests": [oracle.digest(text) for _, text, _ in reports],
        "digest": oracle.digest("".join(text for _, text, _ in reports)),
    }
    if tracer is not None:
        summary["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
