"""Quick runs of every workload through the benchmark's command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_passes(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_traced_run_reports_every_layer_metric():
    result = result_of(bench("--workload", "large_models", "--seed", "3",
                             "--seconds", "0", "--trace", "1"))
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name in ("certify_s", "census_states_per_s", "exploration.self_s",
                 "kernels.census_s", "regions.self_s", "fairness.self_s",
                 "synthesis.self_s", "tolerance.self_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["kernels.census_states"]["value"] == 6 ** 7 + 2 * 3 ** 11
    for name in ("cli.import_s", "store.stats.hits", "analysis.self_s",
                 "monitoring.drain_s", "jobs.lease_calls"):
        assert metrics[name]["value"] == 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
