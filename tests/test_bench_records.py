"""Every committed `BENCH_*.json` agrees with its own runs.

A perf change commits its benchmark runs beside a summary at the held-out
seed. This checks, for each workload and end-to-end metric that
`BENCHMARK.json` declares, that the summary's quartiles, run count and
pair verdict recompute from the runs it was drawn from, so a summary
cannot drift from its data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
HELD_OUT = 2027
SHARED_KEYS = {
    "change", "command", "machine", "repeat_counts", "run_seconds", "runs", "seeds",
    "summary_at_2027",
}
SIDES = ("parent", "change")


def _load(path):
    return json.loads(path.read_text())


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_shared_keys(path):
    record = _load(path)
    assert SHARED_KEYS <= record.keys(), sorted(SHARED_KEYS - record.keys())
    assert record["seeds"]["held_out"] == HELD_OUT


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("metric", BENCHMARK["end_to_end"], ids=lambda m: m["name"])
def test_summary_recomputes_from_the_runs(path, workload, metric):
    record = _load(path)
    name = metric["name"]
    runs = [
        r for r in record["runs"]
        if r["workload"] == workload and r["seed"] == HELD_OUT and r["side"] in SIDES
    ]
    summary = record["summary_at_2027"][workload][name]
    by_pair = {side: {} for side in SIDES}
    for run in runs:
        assert run["pair_at_2027"] not in by_pair[run["side"]], "a pair repeats a side"
        by_pair[run["side"]][run["pair_at_2027"]] = run[name]
    assert by_pair["parent"].keys() == by_pair["change"].keys(), "unpaired runs"
    for side in SIDES:
        values = list(by_pair[side].values())
        assert len(values) >= 10
        want = dict(zip(("median", "q1", "q3"), np.percentile(values, [50, 25, 75])))
        got = summary[side]
        assert got["n"] == len(values)
        for key, value in want.items():
            assert math.isclose(got[key], value, rel_tol=1e-12), (side, key)
    parent, change = by_pair["parent"], by_pair["change"]
    sign = 1 if metric["better"] == "lower" else -1
    better = sum(sign * (parent[pair] - change[pair]) > 0 for pair in parent)
    assert summary["change_better_in_pairs"] == f"{better}/{len(parent)}"
