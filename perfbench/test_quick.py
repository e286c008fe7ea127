"""The benchmark's own tests: each workload once, at its tiny size.

    python3 -m pytest perfbench/test_quick.py
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])["environment"]
    assert env["seed"] == 0 and env["nproc"] >= 1 and env["numpy"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["fail_ratio"] == 0.0
        assert values["trace.spans"] > 0
        assert 0.5 < values["trace.top_level_coverage"] <= 1.0
    else:
        assert values["success_ratio"] == 1.0
        assert all(v > 0 for v in values.values())


def test_metric_tables_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    import run
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert list(run.WORKLOAD_NAMES) == WORKLOADS


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
