"""Training stages: CTC fine-tuning, guided teacher, distillation,
pseudo-labeling, self-training, and contrastive pre-training.

All training stages share one deterministic update loop. Before it runs,
each stage builds its target map once: the uid of every utterance that
can train, mapped to what it trains toward (an encoded label that fits
its frames, that label plus the streaming model's spike sequence, a
teacher trace, or nothing for contrastive pairs). Only utterances of at
least 2 frames can train (`trainable`), since the frontend's train-mode
batch norm normalizes each utterance by its own statistics. Batches are
drawn from a seeded generator over the whole training set; an utterance
without a target is skipped and counted before its forward pass. The
others, in utterance-id order, run as consecutive micro-batches whose
padded attention area stays within `MICRO_BATCH_AREA`: one encoder
forward pass per micro-batch, one call of the stage's objective,
`objective(targets, traces)`, on the whole micro-batch, and one backward
pass into the micro-batch's own gradient slot. CTC and guided CTC make
one batched `ctc_loss` call per micro-batch; distillation and
contrastive loop over the members inside their objective, which is a
pure function of its arguments: contrastive pre-training draws its
positions in the loop's process, once per update and in member order,
and hands them to the objective as targets.

When an update has two micro-batches or more and this process may run on
at least 2 CPUs, a forked worker process runs one lane of them (`_lanes`,
by padded attention area) into gradient slots in shared memory. This
process runs the other lane, then joins losses, batch-norm moments and
gradients in micro-batch order before the Adam step, so the bits do not
depend on the worker. Stage outputs are a trained model plus a log (loss
curve, skip count, dev token error, wall time).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ..ctc import (
    DecodeConfig,
    UnsatisfiableTargetError,
    ctc_loss,
    error_counts,
    greedy_decode,
    min_frames,
    prefix_beam_search,
)
from ..encoder import GradientBuffer, ModelParams, backward, forward, forward_with_cache
from ..losses import (
    DistillSpec,
    contrastive_loss,
    distillation_loss,
    guide_mask,
    guided_ctc_loss,
)
from ..masking import MaskSpec, build_mask
from ..numerics import batch_norm_fold
from ..vocab import Vocabulary
from .optim import AdamState, TrainConfig, adam_step, tri_stage_lr

BIDIRECTIONAL = MaskSpec(variant="bidirectional")
# the contrastive warm-up: positions per utterance, distractors per
# position, and the softmax temperature
CONTRASTIVE_POSITIONS = 2
CONTRASTIVE_DISTRACTORS = 5
CONTRASTIVE_TEMPERATURE = 1.0
# a micro-batch's padded attention area, members x (longest layout)^2,
# stays within this many positions^2: about one 128-position utterance
MICRO_BATCH_AREA = 2**14


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


def dev_posteriors(params: ModelParams, utts) -> list:
    """Posteriorgrams under the model's own mask, in corpus order."""
    spec = params.mask_spec or BIDIRECTIONAL
    return [forward(params, u.features, spec).posteriorgram for u in utts]


def token_error_rate(params: ModelParams, utts, vocabulary: Vocabulary) -> float:
    """Corpus-level token error of greedy decoding under the model's own
    mask: total edit distance over total reference length."""
    refs = [vocabulary.encode(u.text).tokens for u in utts]
    hyps = [greedy_decode(post).tokens for post in dev_posteriors(params, utts)]
    errors, total = error_counts(refs, hyps)
    if total == 0:
        raise ValueError("empty references")
    return errors / total


def trainable(data) -> list:
    """The utterances of `data` that can train: those of 2 frames or more,
    since train-mode batch norm needs two."""
    return [utt for utt in data if utt.n_frames >= 2]


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


def _posteriorgrams(traces):
    """(the members' posteriorgrams back to back, (sum of T_b) x V; their
    frame counts): the layout `ctc_loss` reads and `backward` takes."""
    return (
        np.concatenate([trace.posteriorgram for trace in traces]),
        [trace.posteriorgram.shape[0] for trace in traces],
    )


def _micro_batches(utts, spec: MaskSpec) -> tuple:
    """Split `utts` into consecutive runs whose padded attention area,
    members x (longest layout)^2 positions, stays within
    `MICRO_BATCH_AREA`; an utterance whose own area is over it runs
    alone. Returns (the runs, their areas)."""
    batches, widths = [], []
    for utt in utts:
        width = build_mask(spec, utt.n_frames).n_positions
        if batches and (len(batches[-1]) + 1) * max(widths[-1], width) ** 2 <= MICRO_BATCH_AREA:
            batches[-1].append(utt)
            widths[-1] = max(widths[-1], width)
        else:
            batches.append([utt])
            widths.append(width)
    return batches, [len(batch) * width**2 for batch, width in zip(batches, widths)]


def _lanes(areas) -> tuple:
    """Split an update's micro-batches, given their padded attention
    areas, over two processes by longest-processing-time-first list
    scheduling (Graham 1969): largest first, the lower index on a tie,
    each to the lane whose areas sum to less, this process's on a tie.
    Returns (the indices this process runs, the worker's), each
    ascending. For up to 4 micro-batches no other split has a smaller
    larger lane."""
    lanes, loads = ([], []), [0, 0]
    for i in sorted(range(len(areas)), key=lambda i: -areas[i]):
        lane = int(loads[1] < loads[0])
        lanes[lane].append(i)
        loads[lane] += areas[i]
    return sorted(lanes[0]), sorted(lanes[1])


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_context():
    """The "fork" start method's context when a worker process can run
    beside this one: at least 2 CPUs, the method exists on this platform
    and is safe there (not macOS, whose system libraries start threads of
    their own), and no other thread runs here (a fork copies only the
    calling thread). None otherwise. "fork" is asked for by name, since
    the worker inherits the loop's data and objective instead of
    unpickling them, and the default start method differs by Python
    version and platform."""
    if _cpu_count() < 2 or threading.active_count() > 1 or sys.platform == "darwin":
        return None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _one_pass(params, spec, group, group_targets, objective, out):
    """One micro-batch: a training-mode forward pass, the objective and a
    backward pass that writes the gradient into `out`. Returns (one loss
    per member, the members' batch-norm moments). A function of its own,
    so its activations are freed before the next forward pass."""
    traces, cache = forward_with_cache(
        params, [utt.features for utt in group], spec, train=True
    )
    losses, backward_args = objective(group_targets, traces)
    backward(params, cache, out, **backward_args)
    return losses, cache["bn_moments"]


class _Worker:
    """One forked process that runs a lane of micro-batches beside the
    update loop.

    At the fork the parameter vector is copied into shared memory, and
    `params` over it is what the loop trains from then on; `slots`, one
    gradient buffer per micro-batch an update can have, are allocated in
    shared memory then too, since none can be added after it. The worker
    inherits the data and objective, so `submit` pipes one message per
    update: the index, uids and targets of each micro-batch of the lane.
    The worker runs them back to back, micro-batch i into slot i, and
    sends each one's (losses, batch-norm moments) once its slot holds its
    gradient, or its error, which ends the lane; `result` returns the next
    of these or raises the error. `close` ends and joins the process.
    Raises OSError when the shared memory or the process cannot be had."""

    def __init__(self, context, params, spec, data, objective, n_slots):
        def shared():
            return np.frombuffer(context.RawArray("d", params.flat.size), dtype=np.float64)

        flat = shared()
        flat[...] = params.flat
        self.params = ModelParams(params.config, flat, params.bn_stats, params.mask_spec)
        self.slots = [GradientBuffer.over(params.config, shared()) for _ in range(n_slots)]
        self._spec = spec
        self._utts = {utt.uid: utt for utt in data}
        self._objective = objective
        self._conn, child = context.Pipe()
        self._process = context.Process(target=self._serve, args=(child,))
        try:
            self._process.start()
        except OSError:
            self._conn.close()
            raise
        finally:
            child.close()

    def _serve(self, conn):
        # in the child: with the loop's end of the pipe closed here, the
        # child reads EOF once the loop's process closes it or dies;
        # an interrupt is the loop's to handle
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self._conn.close()
        while True:
            try:
                lane = conn.recv()
            except EOFError:
                return
            for i, uids, group_targets in lane:
                group = [self._utts[uid] for uid in uids]
                try:
                    result = _one_pass(
                        self.params, self._spec, group, group_targets, self._objective,
                        self.slots[i],
                    )
                except Exception as exc:  # raised again in the loop's process
                    result = exc
                try:
                    conn.send(result)
                except BrokenPipeError:
                    return
                if isinstance(result, Exception):
                    break

    def submit(self, lane):
        """Start the lane: (index, micro-batch, its members' targets) triples."""
        self._conn.send([(i, [utt.uid for utt in group], targets) for i, group, targets in lane])

    def result(self):
        try:
            result = self._conn.recv()
        except EOFError:
            raise RuntimeError("the training worker process exited") from None
        if isinstance(result, Exception):
            raise result
        return result

    def close(self):
        self._conn.close()
        self._process.join()


def _run_updates(
    params: ModelParams, data, cfg: TrainConfig, targets: dict, objective, draw=None
):
    """The shared loop. Each update draws its batch from all of `data` and
    counts an utterance with no entry in `targets` as skipped, before its
    forward pass. The others, in uid order, are the update's members:
    their targets are `draw(members)` when the stage draws them per update
    (called once per update, here, before any pass) and their entries in
    `targets` otherwise. The members are split into micro-batches
    (`_micro_batches`), and each micro-batch gets one training-mode
    forward pass under `params.mask_spec` (full context when None), one
    call `objective(targets, traces)` with the members' targets and
    ForwardTraces in uid order, which returns (one loss per member,
    keyword arguments of `backward` in the batch's layout), and one
    backward pass, which writes micro-batch i's gradient into slot i.

    When `_fork_context` allows a worker process (`_Worker`), it is forked
    at the first update with two micro-batches or more, with its slots,
    and joined before this returns or raises; an error in one of its
    micro-batches is raised here. From then on `_lanes` splits each
    update's micro-batches between the two processes by padded attention
    area. Without a worker (none allowed, or the fork raised OSError) this
    process's lane is every micro-batch and a slot is allocated when first
    needed. This process runs its lane, then, in micro-batch order, joins
    the losses, folds the batch-norm moments into `params.bn_stats` and
    adds each slot into slot 0, the update's gradient, so the bits do not
    depend on the worker. Writes each update into `params.flat` in place
    and returns (losses per update, skipped count); the slots, Adam's
    state and, with a worker, the shared parameter vector are the loop's
    only parameter-sized float vectors."""
    spec = params.mask_spec or BIDIRECTIONAL
    context = _fork_context()
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.fresh(params.flat)
    slots = []
    losses = []
    skipped = 0
    n = len(data)
    model, worker = params, None
    try:
        for step in range(cfg.total_updates):
            lr = tri_stage_lr(step, cfg)
            idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
            batch = sorted((data[int(i)] for i in idx), key=lambda u: u.uid)
            usable = [utt for utt in batch if utt.uid in targets]
            skipped += len(batch) - len(usable)
            if not usable:
                losses.append(math.nan)
                continue
            member_targets = draw(usable) if draw else [targets[u.uid] for u in usable]
            groups, areas = _micro_batches(usable, spec)
            runs, start = [], 0  # (micro-batch, its members' targets)
            for group in groups:
                runs.append((group, member_targets[start : start + len(group)]))
                start += len(group)
            if worker is None and context is not None and len(groups) > 1:
                try:
                    worker = _Worker(
                        context, params, spec, data, objective, min(cfg.batch_size, n)
                    )
                except OSError:  # no memory or process to be had: run here
                    context = None
                else:
                    model, slots = worker.params, worker.slots
            while len(slots) < len(groups):
                slots.append(GradientBuffer.zeros(params.config))
            here, there = _lanes(areas) if worker else (range(len(groups)), [])
            if there:
                worker.submit([(i, *runs[i]) for i in there])
            results = {i: _one_pass(model, spec, *runs[i], objective, slots[i]) for i in here}
            grad, member_losses = slots[0].flat, []
            for i in range(len(groups)):
                group_losses, moments = results[i] if i in results else worker.result()
                member_losses += group_losses
                batch_norm_fold(model.bn_stats, moments)
                if i:
                    grad += slots[i].flat
            grad /= len(usable)
            adam_step(model.flat, grad, state, lr)
            losses.append(sum(member_losses) / len(usable))
    finally:
        if worker is not None:
            worker.close()
            params.flat[...] = model.flat
    return losses, skipped


def _train(init, spec, data, cfg, prepare, dev=(), vocabulary=None, draw=None):
    """The frame every training stage shares: copy `init` under mask
    `spec`, build the stage's targets, run the update loop, and log.

    `prepare(work, usable)` runs on the copy inside the timed span,
    `usable` being `trainable(data)`, and returns (targets, objective,
    extra): `targets` maps the uid of each of those that can train to its
    target and is the stage's one rule for which utterances train,
    `objective` feeds `_run_updates`, and `extra()` gives the log's extras
    once the updates are done. Batches are still drawn from all of `data`,
    and `draw`, when given, supplies each update's targets (see
    `_run_updates`)."""
    data = list(data)
    if not data:
        raise ValueError("training set is empty")
    if len({utt.uid for utt in data}) < len(data):
        raise ValueError("training set repeats an utterance id")
    usable = trainable(data)
    if not usable:
        raise UnsatisfiableTargetError(
            f"all {len(data)} training samples have fewer than 2 frames"
        )
    started = time.perf_counter()
    work = init.copy()
    work.mask_spec = spec
    targets, objective, extra = prepare(work, usable)
    losses, skipped = _run_updates(work, data, cfg, targets, objective, draw)
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

    def objective(labels, traces):
        logpost, lengths = _posteriorgrams(traces)
        losses, d_logpost = ctc_loss(logpost, labels, lengths)
        return losses, {"grad_logpost": d_logpost}

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

    def objective(targets, traces):
        labels, spikes = zip(*targets)
        logpost, lengths = _posteriorgrams(traces)
        losses, d_logpost = guided_ctc_loss(logpost, labels, lengths, spikes, alpha)
        return losses, {"grad_logpost": d_logpost}

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

    def objective(teacher_traces, traces):
        losses, grads = [], []
        for teacher_trace, trace in zip(teacher_traces, traces):
            loss, grad_hidden = distillation_loss(trace, teacher_trace, distill_spec)
            losses.append(loss)
            grads.append(grad_hidden)
        return losses, {"grad_hidden": {
            layer: np.concatenate([g[layer] for g in grads])
            for layer in distill_spec.layer_indices
        }}

    def prepare(work, data):
        if head_source is not None:
            work.arrays["head.w"][...] = head_source.arrays["head.w"]
            work.arrays["head.b"][...] = head_source.arrays["head.b"]
        # every utterance can train: its target is the teacher's trace; the
        # dev set's traces stay apart, as a dev uid may repeat a training one
        traces = {u.uid: forward(teacher, u.features, teacher_spec) for u in data}
        dev_traces = [forward(teacher, u.features, teacher_spec) for u in dev]

        def dev_distill_loss() -> float | None:
            if not dev:
                return None
            values = [
                distillation_loss(forward(work, u.features, spec), trace, distill_spec)[0]
                for u, trace in zip(dev, dev_traces)
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
    data,
    decode_cfg: DecodeConfig,
    vocabulary: Vocabulary | None = None,
    jobs: int = 1,
):
    """Beam-decode unlabeled utterances into labels under `decode_cfg`,
    whose `lm` is the fused LM if any. Returns (labeled utterances,
    dropped count); empty top hypotheses are dropped."""
    vocabulary = vocabulary or Vocabulary.default()
    data = list(data)
    kept = []
    dropped = 0
    for utt, top in zip(data, decode_utterances(model, data, decode_cfg, jobs=jobs)):
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


def pretrain_contrastive(init: ModelParams, data, cfg: TrainConfig):
    """Brief self-supervised warm-up: final-layer states at
    `CONTRASTIVE_POSITIONS` sampled positions per utterance are pushed
    toward their own (constant) frontend outputs and away from those of
    `CONTRASTIVE_DISTRACTORS` other frames, at `CONTRASTIVE_TEMPERATURE`.
    Always runs with the full-context mask. The positions and distractors
    depend only on frame counts; they are drawn from one generator seeded
    by `cfg.seed`, once per update and in member order, so which process
    runs a micro-batch does not change them."""
    position_rng = np.random.default_rng(cfg.seed)
    top_layer = init.config.n_layers

    def draw(members):
        # per member, its sorted positions, each with its distractor frames
        picks = []
        for utt in members:
            t_len = utt.n_frames
            n_pos = min(CONTRASTIVE_POSITIONS, t_len)
            k = min(CONTRASTIVE_DISTRACTORS, t_len - 1)
            positions = position_rng.choice(t_len, size=n_pos, replace=False)
            member = []
            for pos in sorted(int(p) for p in positions):
                others = np.delete(np.arange(t_len), pos)
                member.append((pos, position_rng.choice(others, size=k, replace=False)))
            picks.append(member)
        return picks

    def objective(picks, traces):
        losses, grads = [], []
        for member, trace in zip(picks, traces):
            context = trace.hidden[-1]
            targets = trace.frontend
            n_pos = len(member)
            grad = np.zeros_like(context)
            loss_total = 0.0
            for pos, picked in member:
                loss, g_context = contrastive_loss(
                    context[pos],
                    targets[pos],
                    [targets[int(j)] for j in picked],
                    CONTRASTIVE_TEMPERATURE,
                )
                loss_total += loss / n_pos
                grad[pos] += g_context / n_pos
            losses.append(loss_total)
            grads.append(grad)
        return losses, {"grad_hidden": {top_layer: np.concatenate(grads)}}

    def prepare(work, data):
        # `_train` passes utterances of two frames or more, so every
        # position has a distractor besides its positive
        return {u.uid: None for u in data}, objective, dict

    return _train(init, None, data, cfg, prepare, draw=draw)
