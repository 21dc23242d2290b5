"""Smoke tests for the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

They run every workload at --size tiny, untraced and traced, and check the
result line against BENCHMARK.json; they corrupt a reference entry and
expect failed items; and they run the benchmark without the program.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import env  # noqa: E402

env.use_checkout_src()

import compare  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from edgereg import graphs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path: Path, workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny",
           "--out-dir", str(tmp_path)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_emitted_metrics():
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == metrics.PER_LAYER
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    proc = _run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    record = json.loads(next(tmp_path.glob(f"{workload}-seed7-trace{trace}-*.json")).read_text())
    assert record["seed"] == 7 and record["end_to_end"]["failed_frac"]["value"] == 0.0
    assert {"nproc", "python", "git_commit", "source_sha256",
            "loadavg_start", "loadavg_end"} <= set(record["environment"])
    if not trace:
        assert all(record["end_to_end"][m]["value"] > 0 for m in metrics.END_TO_END)
        assert set(record["end_to_end"]) == set(metrics.END_TO_END) | set(metrics.RESULT_ONLY)


def test_traced_sweep_counts_layers(tmp_path):
    proc = _run(tmp_path, "sweep-n6-jobs2", 1)
    assert proc.returncode == 0, proc.stderr
    layer = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    # worker aggregates come back to the parent with each item
    assert layer["homology.betti_calls"]["value"] > 0
    assert layer["suites.worker_cpu_s"]["value"] > 0
    assert layer["trace.spans"]["value"] > 0


def test_betti_sample_depends_only_on_the_seed():
    first = [g.adj for g in workloads.betti_sample(3, 105)]
    assert first == [g.adj for g in workloads.betti_sample(3, 105)]
    distinct = {tuple(g.adj for g in workloads.betti_sample(s, 105)) for s in range(10)}
    assert len(distinct) >= 5
    # proportional to the edge-count strata, within one graph
    frame = [g for g in graphs.enumerate_graphs(7) if not g.is_edgeless()]
    sample = workloads.betti_sample(3, 105)
    for m in range(1, 22):
        share = 105 * sum(g.edge_count() == m for g in frame) / len(frame)
        assert abs(sum(g.edge_count() == m for g in sample) - share) <= 1


def test_corrupted_betti_reference_fails_items():
    ref = workloads.load_reference(workloads.BETTI_REFERENCE)
    bench = workloads.BettiN7(11, "tiny", reference=ref)
    assert all(it.ok for it in bench.run_pass().items)
    bad = copy.deepcopy(ref)
    g6 = bench.inputs[0][0]
    bad["tables"][g6][0][2] += 1
    result = workloads.BettiN7(11, "tiny", reference=bad).run_pass()
    assert sum(not it.ok for it in result.items) == 1


def test_corrupted_sweep_reference_fails_items(tmp_path):
    ref = workloads.load_reference(workloads.SWEEP_REFERENCE)
    bad = copy.deepcopy(ref)
    bad["cache"][0][4] += 1
    result = workloads.Sweep(1, "tiny", tmp_path, reference=bad).run_pass()
    assert all(not it.ok for it in result.items) and result.items
    assert "differ from the reference" in result.extra["problems"][-1]
    result = workloads.Sweep(1, "tiny", tmp_path, reference=ref).run_pass()
    assert all(it.ok for it in result.items) and result.items


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path / "out", "sweep-n6", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_labels():
    assert compare.label([10.0] * 10, [10.2] * 10, "lower", 0.1, "s")[0] == "unchanged"
    assert compare.label([10.0] * 10, [12.0] * 10, "lower", 0.1, "s")[0] == "worse"
    assert compare.label([10.0] * 10, [8.0] * 10, "lower", 0.1, "s")[0] == "improved"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.label(noisy, [11.0, 12.0, 13.0, 14.0], "lower", 0.1, "s")[0] == "unresolved"
    assert compare.label([4446], [4446], "lower", None, "count")[0] == "unchanged"
    assert compare.label([404], [0], "higher", None, "count")[0] == "worse"
