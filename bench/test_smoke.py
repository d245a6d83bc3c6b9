"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit for
every workload, traced and untraced, that every correctness check passes,
and that the command refuses to run in a directory without the source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    run = harness.Run(workload, 3, 0, trace, str(tmp_path), sizes=harness.TINY)
    metrics, attempted, failed = run.execute()

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: unit for k, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(value) for value, _ in metrics.values())
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())
    assert run.errors == []
    assert 0 <= failed <= attempted and attempted >= 1


def test_workloads_and_units_match_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
