"""Span tracing from outside the program.

The benchmark never edits `src/`. To see into the layers it swaps each
public function for a timing wrapper at the module attribute the program
calls it through (``streamctc.pipeline.stages.ctc_loss``, not
``streamctc.ctc.ctc_loss``), and puts the originals back afterwards.

Spans are aggregated as they close, which keeps memory flat when a decode
makes hundreds of thousands of LM calls: per name the tracer keeps the
call count and the self time (the span's time minus the time of the spans
opened inside it). Counters and distinct-key sets are recorded at
the same boundaries.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict


class Tracer:
    """Span and counter registry for one phase of a run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._distinct = defaultdict(set)
        self.distinct = defaultdict(int)
        self._stack = []

    def _close(self, name, start, children):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.calls[name] += 1
        self.self_s[name] += elapsed - children[0]

    def wrap(self, name, fn, observe=None):
        """`fn` with a span named `name`; `observe(tracer, args, result)`
        runs after each call to record counters."""

        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start, children)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def counting(self, name, fn):
        """`fn` with only a call counter: for hot helpers whose time is
        left in the enclosing span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own call into a layer."""
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, children)

    def see(self, name, key):
        self._distinct[name].add(key)

    def end_unit(self):
        """Close one repeat of the workload: distinct keys are counted per
        repeat, because identical repeats would otherwise dilute them."""
        for name, keys in self._distinct.items():
            self.distinct[name] += len(keys)
        self._distinct.clear()


@contextlib.contextmanager
def null_span(name):
    """`Tracer.span` for an untraced run: records nothing."""
    yield


# --- observers: counters recorded at the wrapped boundaries ---------------


def _frames(name):
    def observe(t, args, result):
        t.counts[name] += int(args[0].shape[0])

    return observe


def _observe_mask(t, args, result):
    t.counts["encoder.positions"] += int(result.allowed.shape[0])
    t.counts["encoder.real_frames"] += int(result.n_frames)
    t.see("masking.build_mask", (result.spec, int(result.n_frames)))


def _observe_lm(t, args, result):
    _, token_id, context_ids = args[:3]
    t.see("lm.fusion_logp", (int(token_id), tuple(context_ids)))


# --- the layer map: (module, attribute, span name, observer) --------------
#
# Each row is a point where the program calls a public function of another
# layer. A function imported into several modules is wrapped at each of
# them, under one span name.

_S = "streamctc.pipeline.stages"
_R = "streamctc.pipeline.run"

SPANS = (
    ("streamctc.encoder", "build_mask", "masking.build_mask", _observe_mask),
    (_S, "forward_with_cache", "encoder.forward_with_cache", None),
    (_S, "backward", "encoder.backward", None),
    (_S, "forward", "encoder.forward", None),
    (_S, "ctc_loss", "ctc.ctc_loss", _frames("ctc.ctc_loss.frames")),
    ("streamctc.losses", "ctc_loss", "ctc.ctc_loss", _frames("ctc.ctc_loss.frames")),
    (_S, "prefix_beam_search", "ctc.prefix_beam_search",
     _frames("ctc.prefix_beam_search.frames")),
    ("streamctc.lm", "FusionLm.logp", "lm.fusion_logp", _observe_lm),
    (_R, "train_ngram", "lm.train_ngram", None),
    (_S, "guided_ctc_loss", "losses.guided_ctc_loss", None),
    (_S, "distillation_loss", "losses.distillation_loss", None),
    (_S, "guide_mask", "losses.guide_mask", None),
    (_S, "adam_step", "pipeline.optim.adam_step", None),
    (_R, "generate_dataset", "pipeline.data.generate_dataset", None),
    (_R, "save_dataset", "pipeline.run.io", None),
    (_R, "load_dataset", "pipeline.run.io", None),
    (_R, "save_lm", "pipeline.run.io", None),
    (_R, "load_lm", "pipeline.run.io", None),
    (_R, "save_checkpoint", "pipeline.run.io", None),
    (_R, "load_checkpoint", "pipeline.run.io", None),
    (_R, "save_stage_report", "pipeline.run.io", None),
    (_R, "load_stage_report", "pipeline.run.io", None),
    # stage functions: their self time is the update loop, gradient
    # accumulation and evaluation glue around the layers above
    (_R, "finetune_ctc", "pipeline.stages.finetune_ctc", None),
    (_R, "train_guided_teacher", "pipeline.stages.train_guided_teacher", None),
    (_R, "distill", "pipeline.stages.distill", None),
    (_R, "pseudo_label", "pipeline.stages.pseudo_label", None),
    (_R, "self_train", "pipeline.stages.self_train", None),
    (_S, "finetune_ctc", "pipeline.stages.finetune_ctc", None),
    (_S, "decode_utterances", "pipeline.stages.decode_utterances", None),
    (_S, "token_error_rate", "pipeline.stages.token_error_rate", None),
)

COUNTED = (
    ("streamctc.numerics", "ensure_finite", "numerics.ensure_finite.calls"),
    ("streamctc.encoder", "ensure_finite", "numerics.ensure_finite.calls"),
    ("streamctc.pipeline.optim", "ensure_finite", "numerics.ensure_finite.calls"),
)


def _resolve(module_name, attr):
    """(owner object, attribute name), or None when the program no longer
    has that call point."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, leaf, getattr(owner, leaf)) for owner, leaf, _ in replacements]
    try:
        for owner, leaf, value in replacements:
            setattr(owner, leaf, value)
        yield
    finally:
        for owner, leaf, value in reversed(saved):
            setattr(owner, leaf, value)


def layer_hooks(tracer):
    """Replacements that route every call point in the layer map through
    `tracer`, plus the call points the program does not have (reported,
    so a moved call shows instead of reading as zero work)."""
    replacements = []
    missing = []
    for module_name, attr, name, observe in SPANS:
        found = _resolve(module_name, attr)
        if found is None:
            missing.append(f"{module_name}.{attr}")
            continue
        owner, leaf = found
        replacements.append((owner, leaf, tracer.wrap(name, getattr(owner, leaf), observe)))
    for module_name, attr, name in COUNTED:
        found = _resolve(module_name, attr)
        if found is None:
            missing.append(f"{module_name}.{attr}")
            continue
        owner, leaf = found
        replacements.append((owner, leaf, tracer.counting(name, getattr(owner, leaf))))
    return replacements, missing
