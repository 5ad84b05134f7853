"""Self-test of the benchmark: tiny runs, parsed exactly as a caller would.

Run from the repository root::

    python3 -m pytest perfbench/test_selftest.py -q

Every workload runs at ``--size tiny`` with tracing off and on. The last
stdout line must be one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and ``metrics`` must hold every
metric ``BENCHMARK.json`` names for that mode, each with its unit.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(workload: str, trace: int, cwd: str = ROOT,
              seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def parse_result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int)
        assert not isinstance(result[key], bool)
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_output_parses(workload: str, trace: int) -> None:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = parse_result(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        value = reported["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        if not trace:
            assert value > 0, metric["name"]


def test_fails_without_program_source(tmp_path) -> None:
    # A directory holding only the benchmark must fail without a result.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_reports_layer_deltas() -> None:
    workload = SPEC["workloads"][0]["name"]
    for seed in (0, 1):
        assert run_bench(workload, 1, seed=seed).returncode == 0
    traces = [
        os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{seed}.json")
        for seed in (0, 1)
    ]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "compare.py"),
         *traces],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "core.merge" in proc.stdout
    assert "merge.merges" in proc.stdout
