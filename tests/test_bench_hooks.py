"""The benchmark's tracer and step clock reach every call point they name.

`bench/tracing.py` times the program by swapping module attributes such as
`streamctc.pipeline.run.finetune_ctc`. A call that bypasses the attribute
(say, a function captured in a table when the module loads) would read as
zero work instead of failing, so this runs the traced `pipeline_short` and
`train_long` workloads at tiny sizes and checks that each span saw calls.
The untraced runs take their latency samples from `stages.adam_step`, so an
update loop that stopped calling that module global would leave the
benchmark's latency metric without samples.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
ADAM = "pipeline.optim.adam_step"


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import tracing

    return harness, tracing


def _execute(harness, workload, traced, tmp_path):
    run = harness.Run(workload, 3, 0, traced, str(tmp_path), sizes=harness.TINY)
    metrics, _, _ = run.execute()
    assert run.errors == []
    return run, metrics


def test_traced_pipeline_reaches_every_call_point(tmp_path, bench):
    harness, tracing = bench
    run, _ = _execute(harness, "pipeline_short", True, tmp_path)
    assert run.missing_hooks == []
    expected = {"pipeline.data.generate_dataset", "lm.train_ngram", "pipeline.run.io", ADAM}
    expected |= {name for _, _, name, _ in tracing.SPANS if name.startswith("pipeline.stages.")}
    silent = sorted(name for name in expected if run.tracer.calls.get(name, 0) == 0)
    assert silent == []


def test_traced_train_long_reaches_the_optimizer(tmp_path, bench):
    harness, _ = bench
    run, _ = _execute(harness, "train_long", True, tmp_path)
    assert run.missing_hooks == []
    assert run.tracer.calls.get(ADAM, 0) > 0


def test_untraced_train_long_times_optimizer_steps(tmp_path, bench):
    harness, _ = bench
    _, metrics = _execute(harness, "train_long", False, tmp_path)
    assert math.isfinite(metrics["latency_p90_ms"][0])
