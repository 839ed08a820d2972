"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the deterministic counters repeat exactly across two traced runs with
one seed, and that the command refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = Sizes(raster=24, far_raster=12, table_points=4)
DETERMINISTIC = (
    "cli.main.calls",
    "cli.out_bytes",
    "verify.checks",
    "verify.warn",
    "harmonic.phi0_numeric.calls",
    "numerics.integrate.calls",
    "numerics.integrate.evals",
    "numerics.integrate.nonconvergence",
    "numerics.integrate.useful_frac",
    "spaces.theta.points",
    "quotients.classify_grid.cells",
    "svgfig.render.calls",
)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result, lines = run.run(workload, seed=3, seconds=0.1, trace=False, sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(result["metrics"][name]["value"] > 0 for name in got)
    assert any(line.startswith("failed_frac 0.0 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    first, _ = run.run(workload, seed=5, seconds=0.1, trace=True, sizes=TINY)
    second, _ = run.run(workload, seed=5, seconds=0.1, trace=True, sizes=TINY)
    assert {name: m["unit"] for name, m in first["metrics"].items()} == _units("per_layer")
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "verify_all":
        assert first["metrics"]["verify.checks"]["value"] == 63
        assert first["metrics"]["verify.warn"]["value"] == 1
        assert first["metrics"]["numerics.integrate.nonconvergence"]["value"] == 15
    assert first["correct"] and second["correct"]


def test_command_prints_json_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phi_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
