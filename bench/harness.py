"""The three workloads, their correctness checks, and how a run is measured.

Every workload runs closed-loop in this one process with `jobs=1`: each
call into the program starts when the previous one returns. A workload is
a set-up (inputs made from the seed, done before any timed call) and a
unit of fixed work that is repeated until the time budget is spent. The
program receives only the generated inputs.

  pipeline_short  the whole two-stage recipe (`run_two_stage`) on the
                  default short synthetic task, per-stage updates reduced
  train_long      `finetune_ctc` with the block mask on long utterances
  decode_long     `decode_utterances`, one long utterance per call, beam 8
                  with an order-3 n-gram LM fused through `FusionLm`

See README.md beside this file for why each exists and the layer map.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

from streamctc import encoder, lm
from streamctc.ctc import edit_distance
from streamctc.masking import MaskSpec
from streamctc.pipeline import PipelineConfig, load_dataset, run_two_stage
from streamctc.pipeline import data as pdata
from streamctc.pipeline import stages
from streamctc.vocab import Vocabulary

from tracing import Tracer, layer_hooks, null_span, patched

LONG_TEXT = (16, 24)
BIDIRECTIONAL = MaskSpec(variant="bidirectional")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

STAGE_KEYS = ("S", "T", "KD", "N", "U", "ST")

PER_LAYER_UNITS = {
    "pipeline.optim.adam_step.calls": "count",
    "pipeline.optim.adam_step.s": "s",
    "ctc.ctc_loss.calls": "count",
    "ctc.ctc_loss.s": "s",
    "ctc.ctc_loss.frames": "count",
    "encoder.forward_with_cache.calls": "count",
    "encoder.forward_with_cache.s": "s",
    "encoder.backward.calls": "count",
    "encoder.backward.s": "s",
    "encoder.positions": "count",
    "encoder.real_frame_ratio": "ratio",
    "encoder.forward.calls": "count",
    "encoder.forward.s": "s",
    "ctc.prefix_beam_search.calls": "count",
    "ctc.prefix_beam_search.s": "s",
    "ctc.prefix_beam_search.frames": "count",
    "lm.fusion_logp.calls": "count",
    "lm.fusion_logp.s": "s",
    "lm.fusion_logp.distinct_ratio": "ratio",
    "masking.build_mask.calls": "count",
    "masking.build_mask.s": "s",
    "masking.build_mask.distinct_ratio": "ratio",
    "numerics.ensure_finite.calls": "count",
    "losses.guided_ctc_loss.calls": "count",
    "losses.guided_ctc_loss.s": "s",
    "losses.distillation_loss.calls": "count",
    "losses.distillation_loss.s": "s",
    "losses.guide_mask.s": "s",
    **{f"pipeline.stages.{k}.s": "s" for k in STAGE_KEYS},
    "pipeline.stages.skipped": "count",
    "pipeline.stages.glue.s": "s",
    "pipeline.run.io.s": "s",
    "pipeline.data.generate_dataset.s": "s",
    "lm.train_ngram.s": "s",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much work one run does. `FULL` is what the benchmark measures;
    the smoke test uses `TINY`."""

    pipeline_updates: tuple = (("S", 100), ("T", 100), ("KD", 50), ("N", 300), ("ST", 100))
    pipeline_split: tuple = (24, 24, 16)
    train_split: tuple = (96, 8)
    train_updates: int = 40
    decode_model_updates: int = 200
    decode_utterances: int = 48
    setup_repeats: int = 3
    setup_seconds: float = 1.0
    setup_block_seconds: float = 0.25
    min_repeats: int = 3


FULL = Sizes()
TINY = Sizes(
    pipeline_updates=(("S", 2), ("T", 2), ("KD", 1), ("N", 2), ("ST", 2)),
    pipeline_split=(4, 4, 2),
    train_split=(4, 2),
    train_updates=6,
    decode_model_updates=2,
    decode_utterances=2,
    setup_repeats=1,
    setup_seconds=0.0,
    setup_block_seconds=0.0,
    min_repeats=2,
)


@dataclasses.dataclass
class Outcome:
    """What one repeat of a unit did."""

    wall_s: float
    frames: float
    attempted: int
    failed: int
    token_error_rate: float | None
    identity: object
    latencies_s: list
    errors: list
    stage_s: dict = dataclasses.field(default_factory=dict)
    skipped: int = 0


def _mean_frames(utts) -> float:
    return float(np.mean([u.n_frames for u in utts]))


class StepClock:
    """Times the interval between consecutive optimizer steps of one call
    by stamping each return of `adam_step` where the stages call it. One
    clock read per update; it changes no result."""

    def __init__(self):
        self.intervals = []
        self._last = None

    def hook(self):
        original = stages.adam_step

        def stamped(*args, **kwargs):
            result = original(*args, **kwargs)
            now = time.perf_counter()
            if self._last is not None:
                self.intervals.append(now - self._last)
            self._last = now
            return result

        return patched([(stages, "adam_step", stamped)])


# --- pipeline_short --------------------------------------------------------


class PipelineShort:
    name = "pipeline_short"

    def __init__(self, root, sizes: Sizes):
        self.root = root
        self.sizes = sizes

    def setup(self, seed, span):
        updates = {"pretrain": 0, **dict(self.sizes.pipeline_updates)}
        self.config = PipelineConfig(
            out_dir="", seed=seed, sizes=self.sizes.pipeline_split,
            updates=updates, resume=False,
        )
        vocabulary = Vocabulary.default()
        with span("pipeline.data.generate_dataset"):
            split = pdata.generate_dataset(
                self.config.task(vocabulary), self.config.sizes, vocabulary
            )
        self.split = split
        labeled = _mean_frames(split.labeled)
        pool = _mean_frames(split.labeled + split.unlabeled)
        b = self.config.batch_size
        self.frames = sum(
            n * b * (pool if stage in ("KD", "ST") else labeled)
            for stage, n in self.sizes.pipeline_updates
        )

    def unit(self, span):
        workdir = tempfile.mkdtemp(prefix="pipeline-", dir=self.root)
        try:
            config = dataclasses.replace(self.config, out_dir=workdir)
            clock = StepClock()
            with clock.hook():
                started = time.perf_counter()
                with span("pipeline.run"):
                    reports = run_two_stage(config, jobs=1)
                wall = time.perf_counter() - started
            errors = self._check(workdir, reports)
        finally:
            shutil.rmtree(workdir)
        by_stage = {r.stage.replace("'", ""): r for r in reports}
        skipped = sum(r.skipped for r in reports)
        dropped = int(by_stage["U"].extra.get("dropped", 0))
        b = config.batch_size
        return Outcome(
            wall_s=wall,
            frames=self.frames,
            attempted=sum(n * b for _, n in self.sizes.pipeline_updates)
            + len(self.split.unlabeled),
            failed=skipped + dropped,
            token_error_rate=by_stage["ST"].dev_token_error,
            identity=tuple((r.stage, r.digest) for r in reports),
            latencies_s=clock.intervals,
            errors=errors,
            stage_s={k: by_stage[k].wall_time_s for k in STAGE_KEYS},
            skipped=skipped,
        )

    def _check(self, workdir, reports):
        errors = []
        with open(os.path.join(workdir, "reports", "pipeline.json")) as fh:
            summary = json.load(fh)
        c = summary["conservation"]
        n_lab, n_unl, n_dev = self.config.sizes
        expected = {
            "labeled": n_lab,
            "unlabeled": n_unl,
            "dev": n_dev,
            "kd_consumed": n_lab + n_unl,
            "st_consumed": n_lab + c["pseudo_labeled"],
        }
        for key, want in expected.items():
            if c[key] != want:
                errors.append(f"conservation {key}: {c[key]} != {want}")
        if c["pseudo_labeled"] + c["pseudo_dropped"] != n_unl:
            errors.append("pseudo-labeled plus dropped does not cover the unlabeled set")
        want_updates = sum(n for _, n in self.sizes.pipeline_updates)
        if summary["total_updates"] != want_updates:
            errors.append(f"total_updates {summary['total_updates']} != {want_updates}")
        if [r.stage for r in reports] != ["S", "T", "KD", "N", "U'", "ST"]:
            errors.append("stage reports out of order")
        written = load_dataset(os.path.join(workdir, "data", "labeled.bin"))
        mine = self.split.labeled
        if [(u.uid, u.text) for u in written] != [(u.uid, u.text) for u in mine] or not all(
            np.array_equal(a.features, b.features) for a, b in zip(written, mine)
        ):
            errors.append("labeled set written by the pipeline differs from the seed's")
        return errors


# --- train_long -------------------------------------------------------------


class TrainLong:
    name = "train_long"

    def __init__(self, root, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed, span):
        self.config = PipelineConfig(out_dir="", seed=seed, text_len=LONG_TEXT)
        vocabulary = Vocabulary.default()
        n_train, n_dev = self.sizes.train_split
        with span("pipeline.data.generate_dataset"):
            split = pdata.generate_dataset(
                self.config.task(vocabulary), (n_train, 1, n_dev), vocabulary
            )
        self.train, self.dev = split.labeled, split.dev
        self.init = encoder.init_params(self.config.encoder, seed)
        self.train_config = dataclasses.replace(
            self.config.train_config("S"), total_updates=self.sizes.train_updates
        )
        per_update = min(self.train_config.batch_size, len(self.train))
        self.steps = self.sizes.train_updates * per_update
        self.frames = self.steps * _mean_frames(self.train)
        return encoder.checkpoint_digest(self.init)

    def unit(self, span):
        clock = StepClock()
        with clock.hook():
            started = time.perf_counter()
            model, log = stages.finetune_ctc(
                self.init, self.config.stream, self.train, self.train_config,
                self.dev, Vocabulary.default(),
            )
            wall = time.perf_counter() - started
        errors = []
        if not all(math.isfinite(x) for x in log.losses):
            errors.append("non-finite training loss")
        elif not log.losses[-1] < log.losses[0]:
            errors.append(f"final loss {log.losses[-1]} not below first {log.losses[0]}")
        return Outcome(
            wall_s=wall,
            frames=self.frames,
            attempted=self.steps,
            failed=log.skipped,
            token_error_rate=log.dev_token_error,
            identity=encoder.checkpoint_digest(model),
            latencies_s=clock.intervals,
            errors=errors,
            skipped=log.skipped,
        )


# --- decode_long ------------------------------------------------------------


class DecodeLong:
    name = "decode_long"

    def __init__(self, root, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed, span):
        n_labeled = self.sizes.pipeline_split[0]
        config = PipelineConfig(
            out_dir="", seed=seed,
            updates={"S": 0, "T": 0, "KD": 0, "N": self.sizes.decode_model_updates, "ST": 0},
        )
        vocabulary = Vocabulary.default()
        with span("pipeline.data.generate_dataset"):
            labeled = pdata.generate_dataset(
                config.task(vocabulary), (n_labeled, 1, 1), vocabulary
            ).labeled
        with span("lm.train_ngram"):
            ngram = lm.train_ngram(
                [u.text for u in labeled], config.lm_order, config.lm_smoothing
            )
        with span("setup.decode_model"):
            model, _ = stages.finetune_ctc(
                encoder.init_params(config.encoder, seed), BIDIRECTIONAL, labeled,
                config.train_config("N"), (), vocabulary,
            )
        self.model = model
        self.decode_config = dataclasses.replace(
            config.decode_config(), lm=lm.FusionLm(ngram, vocabulary)
        )
        long_config = dataclasses.replace(config, text_len=LONG_TEXT)
        with span("pipeline.data.generate_dataset"):
            self.utts = pdata.generate_dataset(
                long_config.task(vocabulary), (self.sizes.decode_utterances, 1, 1),
                vocabulary,
            ).labeled
        self.refs = [vocabulary.encode(u.text).tokens for u in self.utts]
        self.frames = float(sum(u.n_frames for u in self.utts))
        return encoder.checkpoint_digest(model)

    def unit(self, span):
        hyps = []
        latencies = []
        failed = 0
        started = time.perf_counter()
        for utt in self.utts:
            t0 = time.perf_counter()
            try:
                top = stages.decode_utterances(self.model, [utt], self.decode_config, jobs=1)[0]
            except Exception:  # a call that raises counts as failed; keep going
                traceback.print_exc(file=sys.stderr)
                failed += 1
                hyps.append(None)
                continue
            latencies.append(time.perf_counter() - t0)
            hyps.append(top.labels.tokens)
        wall = time.perf_counter() - started
        edits = sum(edit_distance(r, h or ()) for r, h in zip(self.refs, hyps))
        return Outcome(
            wall_s=wall,
            frames=self.frames,
            attempted=len(self.utts),
            failed=failed,
            token_error_rate=edits / sum(len(r) for r in self.refs),
            identity=tuple(hyps),
            latencies_s=latencies,
            errors=[],
        )


WORKLOADS = {w.name: w for w in (PipelineShort, TrainLong, DecodeLong)}


# --- measuring a run ----------------------------------------------------------


def _repeat(fn, seconds, min_repeats):
    """Call `fn` at least `min_repeats` times, then stop before a further
    call would be expected to end past `seconds`."""
    times, results = [], []
    started = time.perf_counter()
    while True:
        results.append(fn())
        times.append(results[-1][0])
        if len(times) >= min_repeats and (
            time.perf_counter() - started + statistics.median(times) > seconds
        ):
            return results


def _quantile_ms(samples, q):
    return float(np.percentile(samples, q)) * 1000.0


class Run:
    """One benchmark invocation: set-up, timed repeats, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace, root, sizes=FULL):
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.workload = WORKLOADS[workload](root, sizes)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.errors = []
        self.notes = {}
        self.unit_times = []
        self.setup_times = []
        self.setup_digests = set()

    def _setups(self, repeats, seconds):
        """Set up `repeats` times, and more until `seconds` are spent, adding
        each time to `setup_times`."""
        times = []
        while len(times) < repeats or sum(times) < seconds:
            started = time.perf_counter()
            self.setup_digests.add(self.workload.setup(self.seed, null_span))
            times.append(time.perf_counter() - started)
        self.setup_times.extend(times)

    def _timed_unit(self):
        """One block of set-ups, then one repeat of the unit. Set-ups are
        spread over the whole run this way, so that `setup_s` does not rest
        on the host's speed in its first second."""
        self._setups(1, self.sizes.setup_block_seconds)
        outcome = self.workload.unit(null_span)
        self.errors.extend(outcome.errors)
        return outcome.wall_s, outcome

    def _same_identity(self, outcomes, what):
        if len({repr(o.identity) for o in outcomes}) != 1:
            self.errors.append(f"{what} differ across repeats")

    def execute(self):
        """Returns (metrics dict name -> (value, unit), attempted, failed)."""
        if self.trace:
            return self._traced()
        self._setups(self.sizes.setup_repeats, self.sizes.setup_seconds)
        outcomes = [o for _, o in _repeat(self._timed_unit, self.seconds, self.sizes.min_repeats)]
        self._same_identity(outcomes, "outputs")
        if len(self.setup_digests) != 1:
            self.errors.append("set-up is not deterministic: model digests differ")
        latencies = [x for o in outcomes for x in o.latencies_s]
        self._note_quality(outcomes, latencies)
        values = {
            "setup_s": min(self.setup_times),
            "latency_p90_ms": _quantile_ms(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
        return metrics, sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes)

    def _note_quality(self, outcomes, latencies):
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        ter = outcomes[0].token_error_rate
        self.notes["wall_s"] = (statistics.median(o.wall_s for o in outcomes), "s")
        if latencies:
            self.notes["latency_p50_ms"] = (_quantile_ms(latencies, 50), "ms")
        self.notes["frames_per_s"] = (statistics.median(o.frames / o.wall_s for o in outcomes), "1/s")
        self.notes["token_error_rate"] = (ter, "ratio")
        self.notes["failed_frac"] = (failed / attempted, "ratio")
        self.notes["repeats"] = (len(outcomes), "count")
        self.unit_times = [o.wall_s for o in outcomes]
        self.notes["latency_samples"] = (len(latencies), "count")
        if self.setup_times:
            self.notes["setup_p50_s"] = (statistics.median(self.setup_times), "s")
            self.notes["setup_samples"] = (len(self.setup_times), "count")

    def _traced(self):
        setup_tracer = Tracer()
        self.workload.setup(self.seed, setup_tracer.span)
        tracer = Tracer()
        hooks, self.missing_hooks = layer_hooks(tracer)
        plain, traced = [], []

        def pair():
            plain.append(self.workload.unit(null_span))
            with patched(hooks):
                traced.append(self.workload.unit(tracer.span))
            tracer.end_unit()
            self.errors.extend(plain[-1].errors + traced[-1].errors)
            return traced[-1].wall_s, traced[-1]

        _repeat(pair, self.seconds, 1)
        self._same_identity(plain + traced, "outputs of traced and untraced repeats")
        self._note_quality(traced, [])
        self.tracer, self.setup_tracer = tracer, setup_tracer
        metrics = self._layer_metrics(setup_tracer, tracer, traced, plain)
        attempted = sum(o.attempted for o in plain + traced)
        failed = sum(o.failed for o in plain + traced)
        return metrics, attempted, failed

    def _layer_metrics(self, setup_tracer, tracer, traced, plain):
        """Per-layer values per repeat of the unit, plus one set-up."""
        n = len(traced)

        def span_s(name):
            return setup_tracer.self_s.get(name, 0.0) + tracer.self_s.get(name, 0.0) / n

        def calls(name):
            return setup_tracer.calls.get(name, 0) + tracer.calls.get(name, 0) / n

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name in PER_LAYER_UNITS:
            base, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = calls(base)
            elif field == "s":
                values[name] = span_s(base)
        values["numerics.ensure_finite.calls"] = tracer.counts["numerics.ensure_finite.calls"] / n
        for name in ("ctc.ctc_loss.frames", "ctc.prefix_beam_search.frames", "encoder.positions"):
            values[name] = tracer.counts[name] / n
        values["encoder.real_frame_ratio"] = ratio(
            tracer.counts["encoder.real_frames"], tracer.counts["encoder.positions"]
        )
        for name in ("lm.fusion_logp", "masking.build_mask"):
            values[f"{name}.distinct_ratio"] = ratio(tracer.distinct[name], tracer.calls[name])
        for k in STAGE_KEYS:
            values[f"pipeline.stages.{k}.s"] = statistics.mean(
                o.stage_s.get(k, 0.0) for o in traced
            )
        values["pipeline.stages.skipped"] = statistics.mean(o.skipped for o in traced)
        values["pipeline.stages.glue.s"] = sum(
            span_s(name) for name in list(tracer.self_s) if name.startswith("pipeline.stages.")
        )
        traced_wall = statistics.median(o.wall_s for o in traced)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_frac"] = (
            traced_wall / statistics.median(o.wall_s for o in plain) - 1.0
        )
        return {k: (values[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
