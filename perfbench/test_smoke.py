"""Smoke test for the benchmark: a short run of every workload.

Run from the repository root (about a minute)::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7
# counts that must repeat exactly for a seed; the rest of the per-layer
# metrics are times or ratios of times
EXACT = re.compile(r"\.calls$|^divergence\.(nm_runs|nfev)$|^verify\.sharpmin\.(nm_runs|nfev)$|^quantum\.dual_bytes$")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@lru_cache(maxsize=None)
def run(workload: str, trace: int, repeat: int = 0):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines, name):
    hits = [line.split() for line in lines if line.split()[:1] == [name]]
    assert len(hits) == 1, f"{name} printed {len(hits)} times"
    return float(hits[0][1]), hits[0][2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    lines, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value, printed_unit = _printed(lines, name)
        assert printed_unit == unit and value > 0
    assert _printed(lines, "failed_frac") == (0.0, "ratio")
    for name in ("op_p50_s", "op_tail_s", "setup_s"):
        assert _printed(lines, "wall." + name)[1] == "s"
    assert _printed(lines, "host_slowdown")[0] > 0
    env = next(line for line in lines if line.startswith("env "))
    for key in ("python", "numpy", "scipy", "nproc", "blas_threads", "seed", "commit"):
        assert f" {key}=" in env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first_lines, first = run(workload, 1, 0)
    _, second = run(workload, 1, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name, unit in expected.items():
        assert _printed(first_lines, name)[1] == unit
    exact = [name for name in expected if EXACT.search(name)]
    assert len(exact) >= 10
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_phase_space_cold_builds_every_dual_effect():
    _, result = run("phase_space_cold", 1, 0)
    assert result["metrics"]["quantum.dual_matrix.calls"]["value"] == 49
    _, warm = run("program_warm", 1, 0)
    assert warm["metrics"]["quantum.dual_matrix.calls"]["value"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("bound_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
