"""Smoke test of the benchmark, at a tiny size:

    python -m pytest bench/test_smoke.py

Every workload, traced and untraced, must print every metric that
BENCHMARK.json names with its unit, plus the report metrics, with no
failed op and a correct result.  Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd_root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd_root, "bench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd_root, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = json.loads(
        next(line for line in lines if line.startswith("report "))[7:])
    assert report["metrics"]["failed_frac"] == {"value": 0.0,
                                                "unit": "fraction"}
    assert 0 <= report["metrics"]["max_dev_tol"]["value"] <= 1
    assert ("c3_pull_rms" in report["metrics"]) == (workload == "orders")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    provenance = json.loads(
        next(line for line in lines if line.startswith("provenance "))[11:])
    assert provenance["seed"] == 7 and provenance["src_lines"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
