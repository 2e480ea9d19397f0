"""Smoke test of the benchmark: every workload at tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks the output contract, not performance: each workload passes
its output checks and prints every metric named in ``BENCHMARK.json``
with its unit, and the runner refuses to run without the package.
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
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert len(info["output_digest"]) == 64
    assert info["host"]["schedulable_cpus"] >= 1
    assert info["commit"]["src_sha256"]


def test_output_digest_repeats():
    first, second = (
        json.loads(run("sim_jobs", 0).stdout.strip().splitlines()[-2])
        for _ in range(2)
    )
    assert first["info"]["output_digest"] == second["info"]["output_digest"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("sim_jobs", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
