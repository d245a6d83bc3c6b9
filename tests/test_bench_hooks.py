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

import numpy as np
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
    # the whole recipe reaches every layer, so no span may read as zero work
    expected = {name for _, _, name, _ in tracing.SPANS}
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


def test_tracer_counts_one_batched_ctc_call_per_micro_batch(bench):
    # the tracer counts CTC frames as the rows of `ctc_loss`'s first
    # argument; a micro-batch of three utterances is one call over all
    # their frames
    from streamctc.encoder import EncoderConfig, init_params
    from streamctc.masking import MaskSpec
    from streamctc.pipeline import stages
    from streamctc.pipeline.data import Utterance
    from streamctc.pipeline.optim import TrainConfig

    _, tracing = bench
    rng = np.random.default_rng(5)
    data = [
        Utterance(uid=f"U{i}", features=rng.normal(size=(n, 6)), text="ab")
        for i, n in enumerate((7, 4, 9))
    ]
    config = EncoderConfig(n_layers=2, model_dim=8, n_heads=2, ffn_dim=12, feature_dim=6)
    tracer = tracing.Tracer()
    replacements, missing = tracing.layer_hooks(tracer)
    assert missing == []
    with tracing.patched(replacements):
        stages.finetune_ctc(
            init_params(config, 0), MaskSpec("chunk", chunk_frames=3), data,
            TrainConfig(peak_lr=1e-3, total_updates=1, batch_size=3),
        )
    assert tracer.calls["ctc.ctc_loss"] == 1
    assert tracer.counts["ctc.ctc_loss.frames"] == sum(u.n_frames for u in data)
