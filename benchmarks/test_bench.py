"""Tests of the benchmark harness: tracer wiring and the no-sources failure.

Run from the root of a checkout:  python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_small_invocation(name):
    workload = WORKLOADS[name]
    metrics, passes = run.measure_traced(workload, workload.small_argvs(seed=7), seconds=0)
    assert ["trace" in result for result in passes] == [False, True]
    for result in passes:
        for inv in result["invocations"]:
            assert (inv["rc"], inv["failed"]) == (0, 0), inv
    assert run.trace_problems(passes) == []
    assert set(metrics) == set(run.declared_metrics()["per_layer"])
    for layer in workload.predicts:
        assert metrics[f"{layer}.calls"] > 0, layer
    if name == "basis-deep":
        assert metrics["utmat.mul.calls"] == 0
    plain, traced = ([inv["sha256"] for inv in result["invocations"]] for result in passes)
    assert plain == traced
    assert metrics["verify.checks"] == sum(inv["checks"] for inv in passes[0]["invocations"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "standard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
