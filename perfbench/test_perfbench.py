"""Smoke tests of the benchmark itself, at a tiny size.

Run from the repository root with ``python -m pytest perfbench -q``.
Each workload runs twice per mode with the same seed: every metric in
``BENCHMARK.json`` must be present with its unit, no op may mismatch its
oracle, and the simulated-clock and count metrics must repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics measured on the wall clock (seconds, or shares of
#: op wall time); every other traced metric is a count, a ratio of
#: counts, or simulated time, and must repeat exactly
WALL_LAYER_METRICS = {
    m["name"] for m in SPEC["per_layer"]
    if (m["unit"] == "s" and "sim" not in m["name"])
    or (m["name"].endswith("_share") and not m["name"].startswith("scheduler."))
} | {"trace.overhead_ratio"}
EXACT_END_TO_END = ("sim_io_s", "sim_first_row_mean_s")


def run(workload: str, trace: int, seed: int = 0, cwd: str = ROOT) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_units(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]


def assert_clean(result: dict) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_complete_and_exact(workload):
    first, second = run(workload, 0), run(workload, 0)
    for result in (first, second):
        assert_clean(result)
        assert_units(result, SPEC["end_to_end"])
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    for name in EXACT_END_TO_END:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reconciles_and_repeats(workload):
    first, second = run(workload, 1), run(workload, 1)
    for result in (first, second):
        assert_clean(result)
        assert_units(result, SPEC["per_layer"])
        assert result["metrics"]["op_failure_ratio"]["value"] == 0
    for name in first["metrics"]:
        if name not in WALL_LAYER_METRICS:
            assert first["metrics"][name] == second["metrics"][name], name


def test_out_of_domain_probe_matches_known_count():
    """Q3 with orderdate_before=1998-10-01 at SF 0.1, correlated dates."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "join", "--seed", "0",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    provenance = json.loads(done.stdout.strip().splitlines()[-2])
    assert provenance["probe"]["oracle_rows"] == 138
    error = provenance["probe"]["error"]
    assert error is None or error.startswith("ValueError")


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
