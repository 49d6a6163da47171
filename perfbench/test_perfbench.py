"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return proc


def result_of(proc, workload: str, trace: int, seed: int = 3):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = HERE / "out" / f"{workload}-tiny-seed{seed}-trace{trace}.json"
    return result, json.loads(report_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_matches_benchmark_json_and_repeats(workload):
    plain, plain_report = result_of(run(workload, 0), workload, 0)
    traced, traced_report = result_of(run(workload, 1), workload, 1)
    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers
    # Checks read only seed-determined values, so a second run, traced this
    # time, repeats them exactly.
    assert plain_report["verification"] == traced_report["verification"]
    assert plain_report["checks"] == traced_report["checks"]


def test_checkout_without_the_package_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("chain-1e4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
