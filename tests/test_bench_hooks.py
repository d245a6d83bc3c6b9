"""The benchmark's tracer reaches every call point it names.

`bench/tracing.py` times the program by swapping module attributes such as
`streamctc.pipeline.run.finetune_ctc`. A call that bypasses the attribute
(say, a function captured in a table when the module loads) would read as
zero work instead of failing, so this runs the traced `pipeline_short`
workload at tiny sizes and checks that each span saw calls.
"""

from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_pipeline_reaches_every_call_point(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import tracing

    run = harness.Run("pipeline_short", 3, 0, True, str(tmp_path), sizes=harness.TINY)
    run.execute()
    assert run.errors == []
    assert run.missing_hooks == []
    expected = {"pipeline.data.generate_dataset", "lm.train_ngram", "pipeline.run.io"}
    expected |= {name for _, _, name, _ in tracing.SPANS if name.startswith("pipeline.stages.")}
    silent = sorted(name for name in expected if run.tracer.calls.get(name, 0) == 0)
    assert silent == []
