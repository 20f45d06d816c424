"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stonework import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int, env=None) -> dict:
    p = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke", env=env)
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for line in p.stdout.splitlines():
        assert "passes disagree" not in line
    return result["metrics"]


# per-layer metrics each workload's smallest pass must still move
EXERCISED = {
    "spectra": ["terms.eval_calls", "boolalg.spectrum_s", "profinite.spectrum_tower_s",
                "profinite.tower_points", "boolalg.keep_ratio"],
    "algebra-ops": ["cli.self_s", "terms.parse_s", "terms.substitute_calls",
                    "boolalg.duality_vectors", "boolalg.morphism_s", "interval.self_s"],
    "cohomology": ["interval.graph_vertices", "profinite.self_s", "zhomology.complex_s",
                   "zhomology.nnz", "zhomology.kernel_basis_s", "zhomology.induced_map_s"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_runs_pass_every_check(workload):
    metrics = _smoke(workload, 0)
    assert all(m["value"] > 0 for m in metrics.values())
    traced = _smoke(workload, 1)
    for name in EXERCISED[workload]:
        assert traced[name]["value"] > 0, name


def test_stonework_cap_in_the_environment_does_not_reach_the_jobs():
    # a cap of 1 would refuse every spectrum job of the smoke pass
    _smoke("spectra", 0, env={**os.environ, "STONEWORK_CAP": "1"})


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_jobs_and_no_two_jobs_share_an_input(workload):
    jobs = workloads.build(workload, 3)
    assert jobs == workloads.build(workload, 3)
    inputs = [(j.command, j.args, j.text) for j in jobs]
    assert len(set(inputs)) == len(inputs)
    if workload != "cohomology":  # cohomology inputs are a fixed ladder, reordered
        assert jobs != workloads.build(workload, 4)


def _run_in_process(jobs, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    argvs = []
    for k, job in enumerate(jobs):
        path = None
        if job.text is not None:
            path = work / f"{k}.txt"
            path.write_text(job.text, encoding="utf-8")
        argvs.append(job.argv(None if path is None else str(path)))
    reports, *_ = child._run_jobs(cli, argvs, None)
    return reports


def test_corrupted_report_is_counted_as_failed():
    jobs = workloads.build("algebra-ops", 2, smoke=True)
    work = ROOT / ".perfbench" / "test-work"
    try:
        reports = _run_in_process(jobs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert child.failures(jobs, reports) == []
    k = next(i for i, j in enumerate(jobs) if j.command == "duality")
    code, text, err = reports[k]
    report = json.loads(text)
    report["n_points"] += 1
    reports[k] = (code, json.dumps(report, indent=2), err)
    reports[0] = (3, "", "error: enumeration over 2^9 exceeds cap 2^8")
    assert sorted(i for i, _ in child.failures(jobs, reports)) == sorted({0, k})


def test_times_are_scaled_to_the_reference_speed():
    def timed_pass(slowdown):
        ref = hostspeed.REFERENCE_S
        return {"latencies": [0.002 * slowdown, 0.05 * slowdown, 0.3 * slowdown],
                "cpu_times": [0.002 * slowdown, 0.04 * slowdown, 0.3 * slowdown],
                "probes": [ref * slowdown] * 3, "wall": 0.352 * slowdown,
                "setup": 0.1 * slowdown, "setup_speed": 1 / slowdown, "rss_kb": 2048}

    quiet, _ = run._end_to_end([timed_pass(1)] * 3)
    # a host slowed 1.9x during two of the three passes reports the same times
    busy, _ = run._end_to_end([timed_pass(1.9), timed_pass(1), timed_pass(1.9)])
    for name, metric in quiet.items():
        assert busy[name]["value"] == pytest.approx(metric["value"]), name
    assert quiet["wall_s"]["value"] == pytest.approx(0.352)
    assert quiet["setup_s"]["value"] == pytest.approx(0.1)


def test_oracle_truth_tables_follow_lexicographic_order():
    masks, full = oracle.var_masks(3)
    # g0 is the most significant bit of the assignment index
    assert oracle.set_bits(masks[0]) == [4, 5, 6, 7]
    assert oracle.set_bits(masks[2]) == [1, 3, 5, 7]
    assert oracle.points(3, [("&", ("v", 0), ("v", 1))]) == [0, 1, 2, 3, 4, 5]


def test_checkout_without_sources_fails_without_a_result():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        p = _bench("--workload", "spectra", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
