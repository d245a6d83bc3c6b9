"""Training stages: CTC fine-tuning, guided teacher, distillation,
pseudo-labeling, self-training, and contrastive pre-training.

All training stages share one deterministic update loop. Before it runs,
each stage builds its target map once: the uid of every utterance that
can train, mapped to what it trains toward (an encoded label that fits
its frames, that label plus a guide mask, a teacher trace, or nothing for
contrastive pairs). Batches are drawn from a seeded generator over the
whole training set; an utterance without a target is skipped and counted
before its forward pass, and every other one gets one forward pass, the
stage's objective and one backward pass, with gradients accumulated in
utterance-id order. Stage outputs are a trained model plus a log (loss
curve, skip count, dev token error, wall time).
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


def _ctc_targets(data, vocabulary: Vocabulary) -> dict:
    """uid -> encoded label for each utterance whose label fits its
    frames (`min_frames(label) <= n_frames`); raises when none does."""
    targets = {}
    for utt in data:
        label = vocabulary.encode(utt.text)
        if min_frames(label) <= utt.n_frames:
            targets[utt.uid] = label
    if not targets:
        raise UnsatisfiableTargetError(
            f"all {len(data)} training samples have targets longer than their frames"
        )
    return targets


def _run_updates(params: ModelParams, data, cfg: TrainConfig, targets: dict, objective):
    """The shared loop. Each update draws its batch from all of `data` and
    counts an utterance with no entry in `targets` as skipped, before its
    forward pass. Every other one gets a training-mode forward pass under
    `params.mask_spec` (full context when None), `objective(target,
    trace, cache)` -> (loss, keyword arguments of `backward`) and the
    backward pass. Writes each update into `params.flat` in place and
    returns (losses per update, skipped count)."""
    spec = params.mask_spec or BIDIRECTIONAL

    def one_utterance(utt):
        # a frame of its own, so this utterance's activations are freed
        # before the next forward pass allocates its own
        trace, cache = forward_with_cache(params, utt.features, spec, train=True)
        loss, backward_args = objective(targets[utt.uid], trace, cache)
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
        usable = [utt for utt in batch if utt.uid in targets]
        skipped += len(batch) - len(usable)
        if not usable:
            losses.append(math.nan)
            continue
        loss_sum, total = one_utterance(usable[0])
        for utt in usable[1:]:
            loss, grad = one_utterance(utt)
            loss_sum += loss
            total += grad
        updated, state = adam_step(
            params.flat,
            total / len(usable),
            state,
            lr,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            eps=cfg.eps,
        )
        params.flat[...] = updated
        losses.append(loss_sum / len(usable))
    return losses, skipped


def _train(init, spec, data, cfg, prepare, dev=(), vocabulary=None):
    """The frame every training stage shares: copy `init` under mask
    `spec`, build the stage's targets, run the update loop, and log.

    `prepare(work, data)` runs on the copy inside the timed span and
    returns (targets, objective, extra): `targets` maps the uid of each
    utterance that can train to its target and is the stage's one rule
    for which utterances train, `objective` feeds `_run_updates`, and
    `extra()` gives the log's extras once the updates are done."""
    data = list(data)
    if not data:
        raise ValueError("training set is empty")
    if len({utt.uid for utt in data}) < len(data):
        raise ValueError("training set repeats an utterance id")
    started = time.perf_counter()
    work = init.copy()
    work.mask_spec = spec
    targets, objective, extra = prepare(work, data)
    losses, skipped = _run_updates(work, data, cfg, targets, objective)
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

    def objective(label, trace, cache):
        loss, d_logpost = ctc_loss(trace.posteriorgram, label)
        return loss, {"grad_logpost": d_logpost}

    def prepare(work, data):
        return _ctc_targets(data, vocabulary), objective, dict

    return _train(init, spec, data, cfg, prepare, dev, vocabulary)


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

    def objective(target, trace, cache):
        label, mask = target
        loss, d_logpost = guided_ctc_loss(trace.posteriorgram, label, mask, alpha)
        return loss, {"grad_logpost": d_logpost}

    def prepare(work, data):
        labels = _ctc_targets(data, vocabulary)
        targets = {}
        for utt in data:
            if utt.uid in labels:
                post = forward(streaming, utt.features, streaming.mask_spec)
                targets[utt.uid] = (labels[utt.uid], guide_mask(post.posteriorgram))
        return targets, objective, lambda: {"alpha": alpha}

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

    def objective(teacher_trace, trace, cache):
        loss, grad_hidden = distillation_loss(trace, teacher_trace, distill_spec)
        return loss, {"grad_hidden": grad_hidden}

    def prepare(work, data):
        if head_source is not None:
            work.arrays["head.w"][...] = head_source.arrays["head.w"]
            work.arrays["head.b"][...] = head_source.arrays["head.b"]
        # every utterance can train: its target is the teacher's trace
        traces = {
            u.uid: forward(teacher, u.features, teacher_spec) for u in (*data, *dev)
        }

        def dev_distill_loss() -> float | None:
            if not dev:
                return None
            values = [
                distillation_loss(
                    forward(work, u.features, spec), traces[u.uid], distill_spec
                )[0]
                for u in dev
            ]
            return float(np.mean(values))

        first = dev_distill_loss()
        return traces, objective, lambda: {
            "distill_layers": list(distill_spec.layer_indices),
            "head_from": "streaming" if head_source is not None else "init",
            "dev_distill_first": first,
            "dev_distill_last": dev_distill_loss(),
        }

    return _train(pretrained, spec, data, cfg, prepare, dev, vocabulary)


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

    def objective(_, trace, cache):
        context = trace.hidden[-1]
        targets = cache["h0"]
        t_len = context.shape[0]
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

    def prepare(work, data):
        # contrastive pairs need a distractor frame besides the positive
        return {u.uid: None for u in data if u.n_frames >= 2}, objective, lambda: extra

    return _train(init, None, data, cfg, prepare)
