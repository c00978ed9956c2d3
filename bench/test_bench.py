"""Smoke test of the benchmark itself: the smallest rung of every workload,
with tracing off and on, must print every metric named in BENCHMARK.json
and end with the result line.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("exactnum", "cone", "reeb", "euler", "graph", "surgery", "construct", "serial", "cli")


def run_bench(workload, trace, cwd=ROOT, seed=1):
    cmd = SPEC["command"][1:]
    proc = subprocess.run(
        [sys.executable, *cmd, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    return result, lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smallest_rung_prints_every_metric(workload, trace):
    result, lines = result_of(run_bench(workload, trace))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] for line in lines), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_and_counts_repeat(workload):
    first, _ = result_of(run_bench(workload, 1))
    again, _ = result_of(run_bench(workload, 1))
    m = {k: v["value"] for k, v in first["metrics"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["bench.self_s"]
    assert total == pytest.approx(m["trace.op_wall_s"], rel=1e-6)
    for name in m:
        if name.startswith("exactnum.") and not name.endswith("self_s"):
            assert m[name] == again["metrics"][name]["value"], name


def test_frontier_ops_are_recorded_as_failures():
    proc = run_bench("graph-ladder", 0)
    result_of(proc)
    assert "status graph:obstructed-16-s0: {'timeout': 1} [frontier]" in proc.stdout
    proc = run_bench("reeb-euler", 0)
    result_of(proc)
    assert "reeb-pass:obstructed-32-s0: {'error:SearchExhausted'" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
