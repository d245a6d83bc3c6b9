"""Training stages: CTC fine-tuning, guided teacher, distillation,
pseudo-labeling, self-training, and contrastive pre-training.

All training stages share one deterministic update loop: batches are
drawn from a seeded generator, each utterance gets one forward pass, the
stage's objective and one backward pass, gradients are accumulated in
utterance-id order, and samples whose targets cannot fit their frame
count are skipped and counted. Stage outputs are a trained model plus a
log (loss curve, skip count, dev token error, wall time).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ..ctc import (
    DecodeConfig,
    UnsatisfiableTargetError,
    ctc_loss,
    edit_distance,
    greedy_decode,
    min_frames,
    prefix_beam_search,
)
from ..encoder import ModelParams, backward, forward, forward_with_cache
from ..lm import FusionLm, NgramModel
from ..losses import (
    DistillSpec,
    contrastive_loss,
    distillation_loss,
    guide_mask,
    guided_ctc_loss,
)
from ..masking import MaskSpec
from ..vocab import Vocabulary
from .optim import AdamState, TrainConfig, adam_step, tri_stage_lr

BIDIRECTIONAL = MaskSpec(variant="bidirectional")


class MissingArtifactError(RuntimeError):
    """An upstream stage's output is required but absent."""


@dataclass
class TrainLog:
    """What a stage did: per-update mean losses, skipped-sample count,
    dev token error (when a dev set was given), and wall time."""

    losses: list
    skipped: int
    dev_token_error: float | None
    wall_time_s: float
    extra: dict = field(default_factory=dict)


def token_error_rate(params: ModelParams, utts, vocabulary: Vocabulary) -> float:
    """Corpus-level token error of greedy decoding under the model's own
    mask: total edit distance over total reference length."""
    spec = params.mask_spec or BIDIRECTIONAL
    edits = 0
    total = 0
    for utt in utts:
        ref = vocabulary.encode(utt.text).tokens
        post = forward(params, utt.features, spec).posteriorgram
        hyp = greedy_decode(post).tokens
        edits += edit_distance(ref, hyp)
        total += len(ref)
    if total == 0:
        raise ValueError("empty references")
    return edits / total


def dev_posteriors(params: ModelParams, utts) -> list:
    """Posteriorgrams under the model's own mask, in corpus order."""
    spec = params.mask_spec or BIDIRECTIONAL
    return [forward(params, u.features, spec).posteriorgram for u in utts]


def _check_some_satisfiable(data, vocabulary: Vocabulary) -> None:
    for utt in data:
        target = vocabulary.encode(utt.text)
        if min_frames(target) <= utt.n_frames:
            return
    raise UnsatisfiableTargetError(
        f"all {len(data)} training samples have targets longer than their frames"
    )


def _run_updates(params: ModelParams, data, cfg: TrainConfig, objective):
    """The shared loop. Per utterance: a training-mode forward pass under
    `params.mask_spec` (full context when None), then `objective(utt,
    trace, cache)` -> (loss, keyword arguments of `backward`), or
    `UnsatisfiableTargetError` to skip it, then the backward pass. Writes
    each update into `params.flat` in place and returns (losses per
    update, skipped count)."""
    spec = params.mask_spec or BIDIRECTIONAL

    def one_utterance(utt):
        # a frame of its own, so this utterance's activations are freed
        # before the next forward pass allocates its own
        trace, cache = forward_with_cache(params, utt.features, spec, train=True)
        loss, backward_args = objective(utt, trace, cache)
        return loss, backward(params, cache, **backward_args)[0]

    rng = np.random.default_rng(cfg.seed)
    state = AdamState.fresh(params.flat)
    losses = []
    skipped = 0
    n = len(data)
    for step in range(cfg.total_updates):
        lr = tri_stage_lr(step, cfg)
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        batch = sorted((data[int(i)] for i in idx), key=lambda u: u.uid)
        total = None
        loss_sum = 0.0
        ok = 0
        for utt in batch:
            try:
                loss, grad = one_utterance(utt)
            except UnsatisfiableTargetError:
                skipped += 1
                continue
            ok += 1
            loss_sum += loss
            if total is None:
                total = grad
            else:
                total += grad
        if ok == 0:
            losses.append(math.nan)
            continue
        updated, state = adam_step(
            params.flat,
            total / ok,
            state,
            lr,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            eps=cfg.eps,
        )
        params.flat[...] = updated
        losses.append(loss_sum / ok)
    return losses, skipped


def _train(init, spec, data, cfg, prepare, dev=(), vocabulary=None, labeled=True):
    """The frame every training stage shares: check the training set,
    copy `init` under mask `spec`, run the update loop, and log.

    `prepare(work)` runs on the copy inside the timed span and returns
    (objective, extra): `objective` feeds `_run_updates`, and `extra()`
    gives the log's extras once the updates are done. `labeled` stages
    need at least one target that fits its frames."""
    data = list(data)
    if not data:
        raise ValueError("training set is empty")
    if labeled:
        _check_some_satisfiable(data, vocabulary)
    started = time.perf_counter()
    work = init.copy()
    work.mask_spec = spec
    objective, extra = prepare(work)
    losses, skipped = _run_updates(work, data, cfg, objective)
    extras = extra()
    dev_ter = token_error_rate(work, dev, vocabulary) if dev else None
    return work, TrainLog(
        losses=losses,
        skipped=skipped,
        dev_token_error=dev_ter,
        wall_time_s=time.perf_counter() - started,
        extra=extras,
    )


def finetune_ctc(
    init: ModelParams,
    spec: MaskSpec,
    data,
    cfg: TrainConfig,
    dev=(),
    vocabulary: Vocabulary | None = None,
):
    """CTC fine-tuning under an attention mask. Returns (model, log);
    with 0 updates the returned model equals `init` (mask spec aside)."""
    vocabulary = vocabulary or Vocabulary.default()

    def objective(utt, trace, cache):
        loss, d_logpost = ctc_loss(trace.posteriorgram, vocabulary.encode(utt.text))
        return loss, {"grad_logpost": d_logpost}

    return _train(init, spec, data, cfg, lambda work: (objective, dict), dev, vocabulary)


def train_guided_teacher(
    pretrained: ModelParams,
    streaming: ModelParams,
    data,
    alpha: float,
    cfg: TrainConfig,
    dev=(),
    vocabulary: Vocabulary | None = None,
):
    """Train a full-context model whose posteriors are pulled toward the
    frozen streaming model's per-frame spikes. With alpha 0 the run is
    bit-identical to plain CTC fine-tuning."""
    vocabulary = vocabulary or Vocabulary.default()
    if streaming.mask_spec is None:
        raise ValueError("guide model does not record a streaming mask spec")
    data = list(data)

    def prepare(work):
        masks = {
            utt.uid: guide_mask(
                forward(streaming, utt.features, streaming.mask_spec).posteriorgram
            )
            for utt in data
        }

        def objective(utt, trace, cache):
            loss, d_logpost = guided_ctc_loss(
                trace.posteriorgram, vocabulary.encode(utt.text), masks[utt.uid], alpha
            )
            return loss, {"grad_logpost": d_logpost}

        return objective, lambda: {"alpha": alpha}

    return _train(pretrained, BIDIRECTIONAL, data, cfg, prepare, dev, vocabulary)


def distill(
    pretrained: ModelParams,
    teacher: ModelParams,
    spec: MaskSpec,
    data,
    distill_spec: DistillSpec,
    cfg: TrainConfig,
    head_source: ModelParams | None = None,
    dev=(),
    vocabulary: Vocabulary | None = None,
):
    """Train a streaming student to match the teacher's hidden states.

    Labels are never read, so unlabeled utterances are fine. The output
    head is copied from `head_source` (the streaming CTC model) when
    given, making the student decodable without CTC training.
    """
    vocabulary = vocabulary or Vocabulary.default()
    teacher_spec = teacher.mask_spec or BIDIRECTIONAL
    trace_cache = {}

    def teacher_trace(utt):
        if utt.uid not in trace_cache:
            trace_cache[utt.uid] = forward(teacher, utt.features, teacher_spec)
        return trace_cache[utt.uid]

    def objective(utt, trace, cache):
        loss, grad_hidden = distillation_loss(trace, teacher_trace(utt), distill_spec)
        return loss, {"grad_hidden": grad_hidden}

    def dev_distill_loss(model: ModelParams) -> float | None:
        if not dev:
            return None
        values = [
            distillation_loss(
                forward(model, u.features, spec), teacher_trace(u), distill_spec
            )[0]
            for u in dev
        ]
        return float(np.mean(values))

    def prepare(work):
        if head_source is not None:
            work.arrays["head.w"][...] = head_source.arrays["head.w"]
            work.arrays["head.b"][...] = head_source.arrays["head.b"]
        first = dev_distill_loss(work)
        return objective, lambda: {
            "distill_layers": list(distill_spec.layer_indices),
            "head_from": "streaming" if head_source is not None else "init",
            "dev_distill_first": first,
            "dev_distill_last": dev_distill_loss(work),
        }

    return _train(
        pretrained, spec, data, cfg, prepare, dev, vocabulary, labeled=False
    )


def _top_hypothesis(job):
    model, cfg, spec, utt = job
    post = forward(model, utt.features, spec).posteriorgram
    return prefix_beam_search(post, cfg)[0]


def decode_utterances(
    model: ModelParams,
    data,
    decode_cfg: DecodeConfig,
    jobs: int = 1,
):
    """Top beam hypothesis per utterance, in input order. `jobs` > 1
    decodes utterances in worker processes; the result is identical
    because each decode is a pure function and results are collected
    in input order."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    data = list(data)
    spec = model.mask_spec or BIDIRECTIONAL
    work = [(model, decode_cfg, spec, utt) for utt in data]
    if jobs == 1 or len(data) < 2:
        return [_top_hypothesis(j) for j in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(work) // (2 * jobs))
        return list(pool.map(_top_hypothesis, work, chunksize=chunk))


def pseudo_label(
    model: ModelParams,
    lm: NgramModel | None,
    data,
    decode_cfg: DecodeConfig,
    vocabulary: Vocabulary | None = None,
    jobs: int = 1,
):
    """Beam-decode unlabeled utterances into labels. Returns (labeled
    utterances, dropped count); empty top hypotheses are dropped."""
    vocabulary = vocabulary or Vocabulary.default()
    cfg = decode_cfg
    if lm is not None and cfg.lm is None:
        cfg = replace(cfg, lm=FusionLm(lm, vocabulary))
    data = list(data)
    kept = []
    dropped = 0
    for utt, top in zip(data, decode_utterances(model, data, cfg, jobs=jobs)):
        if not top.labels.tokens:
            dropped += 1
            continue
        kept.append(replace(utt, text=vocabulary.decode(top.labels)))
    return tuple(kept), dropped


def self_train(
    kd: ModelParams,
    data,
    cfg: TrainConfig,
    dev=(),
    vocabulary: Vocabulary | None = None,
):
    """One round of CTC training on labeled plus pseudo-labeled data,
    under the student's own streaming mask."""
    if kd.mask_spec is None:
        raise ValueError("self-training input must record its mask spec")
    return finetune_ctc(kd, kd.mask_spec, data, cfg, dev=dev, vocabulary=vocabulary)


def pretrain_contrastive(
    init: ModelParams,
    data,
    cfg: TrainConfig,
    n_masked: int = 2,
    n_distractors: int = 5,
    temperature: float = 1.0,
):
    """Brief self-supervised warm-up: final-layer states at sampled
    positions are pushed toward their own (constant) frontend outputs and
    away from other frames'. Always runs with the full-context mask."""
    position_rng = np.random.default_rng(cfg.seed)
    top_layer = init.config.n_layers

    def objective(utt, trace, cache):
        context = trace.hidden[-1]
        targets = cache["h0"]
        t_len = context.shape[0]
        if t_len < 2:
            raise UnsatisfiableTargetError("too few frames for contrastive pairs")
        n_pos = min(n_masked, t_len)
        k = min(n_distractors, t_len - 1)
        positions = position_rng.choice(t_len, size=n_pos, replace=False)
        grad = np.zeros_like(context)
        loss_total = 0.0
        for pos in sorted(int(p) for p in positions):
            others = np.delete(np.arange(t_len), pos)
            picked = position_rng.choice(others, size=k, replace=False)
            loss, g_context = contrastive_loss(
                context[pos],
                targets[pos],
                [targets[int(j)] for j in picked],
                temperature,
            )
            loss_total += loss / n_pos
            grad[pos] += g_context / n_pos
        return loss_total, {"grad_hidden": {top_layer: grad}}

    extra = {
        "mode": "contrastive",
        "n_masked": n_masked,
        "n_distractors": n_distractors,
        "temperature": temperature,
    }
    return _train(init, None, data, cfg, lambda work: (objective, lambda: extra), labeled=False)
