"""Synthetic data, optimizer, training stages, and the six-stage run."""

import dataclasses
import hashlib
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamctc import container
from streamctc.ctc import DecodeConfig, UnsatisfiableTargetError, edit_distance, greedy_decode
from streamctc.encoder import (
    EncoderConfig,
    checkpoint_digest,
    init_params,
    load_checkpoint,
)
from streamctc.losses import frame_agreement
from streamctc.masking import MaskSpec
from streamctc.pipeline import (
    AdamState,
    DataSplit,
    DatasetFormatError,
    MissingArtifactError,
    PipelineConfig,
    StageReport,
    SyntheticTask,
    TrainConfig,
    Utterance,
    adam_step,
    config_digest,
    dev_posteriors,
    distill,
    finetune_ctc,
    generate_dataset,
    load_dataset,
    load_stage_report,
    plan_stages,
    pretrain_contrastive,
    pseudo_label,
    run_two_stage,
    save_dataset,
    save_stage_report,
    self_train,
    synthesize_utterance,
    token_error_rate,
    train_guided_teacher,
    tri_stage_lr,
)
from streamctc.losses import DistillSpec
from streamctc.pipeline.run import STAGES, input_keys
from streamctc.vocab import LabelSequence, Vocabulary

VOCAB = Vocabulary.default()
TINY_ENC = EncoderConfig(
    n_layers=2,
    model_dim=16,
    n_heads=2,
    ffn_dim=24,
    vocab_size=29,
    feature_dim=6,
    frontend_kernel=3,
)
STREAM = MaskSpec(variant="block", chunk_frames=3, future_frames=1)
BIDI = MaskSpec(variant="bidirectional")


def tiny_task(noise=0.25, seed=7, frames=(2, 3), text_len=(2, 4)):
    return SyntheticTask.make(
        token_ids=[3, 4, 5],
        feature_dim=6,
        frames_per_token=frames,
        noise_std=noise,
        seed=seed,
        text_len=text_len,
    )


def quick_cfg(updates, seed=1, batch=3, lr=2e-3):
    return TrainConfig(
        peak_lr=lr, total_updates=updates, batch_size=batch, seed=seed
    )


# -------------------------------------------------------------------- data


def test_noise_free_unit_repeat_features_are_template_rows():
    task = tiny_task(noise=0.0, frames=(1, 1))
    rng = np.random.default_rng(0)
    utt, repeats = synthesize_utterance(task, rng, "x", VOCAB)
    assert all(r == 1 for r in repeats)
    tokens = VOCAB.encode(utt.text).tokens
    for row, tok in zip(utt.features, tokens):
        assert np.array_equal(row, task.templates[tok])


def test_same_seed_gives_bit_identical_split():
    task = tiny_task()
    a = generate_dataset(task, (4, 3, 2))
    b = generate_dataset(task, (4, 3, 2))
    for ua, ub in zip(a.labeled + a.unlabeled + a.dev, b.labeled + b.unlabeled + b.dev):
        assert ua.uid == ub.uid
        assert ua.text == ub.text
        assert np.array_equal(ua.features, ub.features)


def plain_synthesize_utterance(task, rng, uid, vocabulary):
    """The synthesizer written plainly: one scalar draw per token, per
    resample and per repeat count, one `np.tile` per token."""
    ids = sorted(task.templates)
    length = int(rng.integers(task.text_len[0], task.text_len[1] + 1))
    tokens = []
    for _ in range(length):
        tid = ids[int(rng.integers(0, len(ids)))]
        while len(ids) > 1 and tokens and tid == tokens[-1]:
            tid = ids[int(rng.integers(0, len(ids)))]
        tokens.append(tid)
    lo, hi = task.frames_per_token
    repeats = [int(rng.integers(lo, hi + 1)) for _ in tokens]
    rows = np.vstack([np.tile(task.templates[t], (r, 1)) for t, r in zip(tokens, repeats)])
    if task.noise_std > 0:
        rows = rows + task.noise_std * rng.standard_normal(rows.shape)
    text = vocabulary.decode(LabelSequence(tuple(tokens)))
    return Utterance(uid=uid, features=rows, text=text), repeats


@given(
    n_symbols=st.integers(1, 5),
    frames=st.tuples(st.integers(1, 4), st.integers(0, 3)),
    text_len=st.tuples(st.integers(1, 40), st.integers(0, 6)),
    noise=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_symbols=1, frames=(1, 0), text_len=(40, 0), noise=0.0, seed=0)
@example(n_symbols=2, frames=(1, 0), text_len=(40, 0), noise=0.5, seed=1)
@settings(max_examples=80, deadline=None)
def test_synthesize_utterance_matches_a_plain_loop(n_symbols, frames, text_len, noise, seed):
    task = SyntheticTask.make(
        token_ids=range(3, 3 + n_symbols),
        feature_dim=4,
        frames_per_token=(frames[0], frames[0] + frames[1]),
        noise_std=noise,
        seed=seed,
        text_len=(text_len[0], text_len[0] + text_len[1]),
    )
    fast, plain = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        utt, repeats = synthesize_utterance(task, fast, "x", VOCAB)
        want, want_repeats = plain_synthesize_utterance(task, plain, "x", VOCAB)
        assert utt.text == want.text
        assert repeats == want_repeats and all(type(r) is int for r in repeats)
        assert np.array_equal(utt.features, want.features)
        assert fast.bit_generator.state == plain.bit_generator.state
        if noise == 0:
            assert not np.shares_memory(utt.features, task.table)


# sha256 of each split's `save_dataset` bytes at seed 2027 for the
# `pipeline_short` and `train_long` text lengths; every checkpoint digest
# trained on these sets rests on them, so they must not move
PINNED_DATASETS = {
    (2, 6): (
        "2598bde806544012a2d46aaa3c37269c010361ed22b5d700feb91c007617da09",
        "db9e7c93b44c92bcba2c2683ef8c2e34631c425c3b876ce6f8f72d1c7026e99e",
        "203d6bd9c9f97057330d4f8a52c2bf8d5a54289673322ffd6afe49c0fc93c029",
    ),
    (16, 24): (
        "218fe7564d5c05ad5e28ed309f571811cd4f2e23bc0bfcfd3798e7a31c8a94cc",
        "bc6b5d3bc966824a5f1bdbb67c34006d61ef27ee40a72a0f505cd1e3ec923b89",
        "1b57a0180186234b6337637bdedb8b143a609832f884df1007aa619dd8539942",
    ),
}


@pytest.mark.parametrize("text_len", sorted(PINNED_DATASETS))
def test_dataset_bytes_are_pinned(tmp_path, text_len):
    config = PipelineConfig(out_dir="x", seed=2027, text_len=text_len)
    split = generate_dataset(config.task(VOCAB), config.sizes, VOCAB)
    digests = []
    for part in ("labeled", "unlabeled", "dev"):
        save_dataset(getattr(split, part), tmp_path / part)
        digests.append(hashlib.sha256((tmp_path / part).read_bytes()).hexdigest())
    assert tuple(digests) == PINNED_DATASETS[text_len]


def test_utterance_length_is_sum_of_repeats():
    task = tiny_task()
    rng = np.random.default_rng(3)
    for _ in range(20):
        utt, repeats = synthesize_utterance(task, rng, "x", VOCAB)
        assert utt.n_frames == sum(repeats)
        assert len(VOCAB.encode(utt.text).tokens) == len(repeats)


def test_split_ids_disjoint_and_sizes_validated():
    task = tiny_task()
    split = generate_dataset(task, (4, 3, 2))
    ids = [u.uid for u in split.labeled + split.unlabeled + split.dev]
    assert len(ids) == len(set(ids))
    with pytest.raises(ValueError):
        generate_dataset(task, (0, 3, 2))
    dup = split.labeled[0]
    with pytest.raises(ValueError):
        DataSplit(labeled=(dup,), unlabeled=(dup,), dev=())


def test_task_validation():
    with pytest.raises(ValueError):
        SyntheticTask(
            templates={3: np.ones(4), 4: np.ones(4)},
            frames_per_token=(2, 3),
            noise_std=0.1,
            seed=0,
        )
    with pytest.raises(ValueError):
        SyntheticTask(
            templates={3: np.ones(4)},
            frames_per_token=(0, 3),
            noise_std=0.1,
            seed=0,
        )
    with pytest.raises(ValueError):
        SyntheticTask(
            templates={0: np.ones(4)},
            frames_per_token=(1, 2),
            noise_std=0.1,
            seed=0,
        )


def test_container_round_trip_and_validation(tmp_path):
    bits = np.array([[0.1, -0.0], [5e-324, -1.7976931348623157e308]])
    utts = (
        Utterance(uid="z", features=bits, text="ab|c"),
        Utterance(uid="a", features=np.ones((3, 2)), text=None),
        Utterance(uid="m", features=np.zeros((0, 2)), text=""),
    )
    path, again = tmp_path / "set.bin", tmp_path / "again.bin"
    save_dataset(utts, path)
    back = load_dataset(path)
    assert [u.uid for u in back] == ["z", "a", "m"]
    assert [u.text for u in back] == ["ab|c", None, ""]
    for a, b in zip(utts, back):
        assert a.features.tobytes() == b.features.tobytes()
        assert b.features.flags.writeable and b.features.flags.owndata
    save_dataset(back, again)
    assert again.read_bytes() == path.read_bytes()

    # a well-formed container whose header or arrays are not a dataset's
    header = {"version": 3, "uids": ["a", "b"], "texts": ["x", None]}
    arrays = {"a": np.ones((2, 2)), "b": np.ones((1, 2))}
    cases = [
        ({**header, "version": 1}, arrays, "format version 1"),
        ({**header, "uids": ["a", 2]}, arrays, "uids do not name"),
        ({**header, "uids": "ab"}, arrays, "uids do not name"),
        ({**header, "texts": ["x"]}, arrays, "texts"),
        ({**header, "texts": ["x", 3]}, arrays, "texts"),
        ({**header, "uids": ["a", "a"]}, arrays, "uids do not name"),
        (header, {**arrays, "c": np.ones((1, 2))}, "uids do not name"),
        (header, {**arrays, "b": np.ones(2)}, "'b' are not finite T x D"),
    ]
    bad = tmp_path / "bad.bin"
    for edited, stored, message in cases:
        bad.write_bytes(container.pack(container.DATASET_MAGIC, edited, stored))
        with pytest.raises(DatasetFormatError, match=re.escape(str(bad)) + ": .*" + message):
            load_dataset(bad)


def test_a_dataset_with_a_repeated_uid_is_not_written(tmp_path):
    utts = [Utterance(uid="a", features=np.ones((1, 2)))] * 2
    with pytest.raises(ValueError, match="repeated utterance id"):
        save_dataset(utts, tmp_path / "set.bin")
    assert not (tmp_path / "set.bin").exists()


def _old_dataset_bytes(utts) -> bytes:
    """A dataset file in the STCDSET1 layout that the shared container
    replaced: an index of uids, offsets and lengths, then the records."""
    records = []
    for u in utts:
        label = (u.text or "").encode()
        head = struct.pack("<IIBH", *u.features.shape, u.text is not None, len(label))
        records.append(head + label + u.features.astype("<f8").tobytes())
    index_size = sum(2 + len(u.uid.encode()) + 16 for u in utts)
    offset = 8 + 4 + 4 + 8 + index_size
    blob = b"STCDSET1" + struct.pack("<IId", 1, len(utts), 20.0)
    for u, rec in zip(utts, records):
        blob += struct.pack("<H", len(u.uid.encode())) + u.uid.encode()
        blob += struct.pack("<QQ", offset, len(rec))
        offset += len(rec)
    blob += b"".join(records)
    return blob + struct.pack("<Q", len(blob) + 8)


def test_a_dataset_in_the_pre_container_format_is_named_as_such(tmp_path):
    path = tmp_path / "old.bin"
    path.write_bytes(_old_dataset_bytes(generate_dataset(tiny_task(), (2, 1, 1)).labeled))
    with pytest.raises(DatasetFormatError, match=re.escape(str(path)) + ": .*pre-container"):
        load_dataset(path)


def test_container_with_non_finite_features_is_rejected(tmp_path):
    feats = np.zeros((3, 2))
    feats[1, 0] = np.nan
    path = tmp_path / "nan.bin"
    save_dataset((Utterance(uid="ok", features=np.ones((2, 2))),
                  Utterance(uid="bad", features=feats)), path)
    with pytest.raises(DatasetFormatError, match=re.escape(str(path)) + ": .*'bad'"):
        load_dataset(path)


def test_container_holds_unlabeled_records(tmp_path):
    utts = (
        Utterance(uid="a", features=np.zeros((3, 2)), text=None),
        Utterance(uid="b", features=np.ones((2, 2)), text=""),
    )
    path = tmp_path / "u.bin"
    save_dataset(utts, path)
    back = load_dataset(path)
    assert back[0].text is None
    assert back[1].text == ""


# ------------------------------------------------------------------- optim


def test_tri_stage_boundary_values():
    cfg = TrainConfig(peak_lr=2e-5, total_updates=1000, batch_size=1, seed=0)
    assert tri_stage_lr(100, cfg) == 2e-5
    assert tri_stage_lr(300, cfg) == 2e-5
    assert tri_stage_lr(1000, cfg) == 0.0
    assert abs(tri_stage_lr(750, cfg) - 1e-5) < 1e-20
    assert tri_stage_lr(0, cfg) == 0.0


def test_tri_stage_continuity():
    cfg = TrainConfig(peak_lr=3e-4, total_updates=400, batch_size=1, seed=0)
    bound = cfg.peak_lr / (0.1 * cfg.total_updates)
    for step in range(cfg.total_updates):
        assert abs(tri_stage_lr(step, cfg) - tri_stage_lr(step + 1, cfg)) <= bound + 1e-18


def test_tri_stage_rejects_out_of_range():
    cfg = TrainConfig(peak_lr=1e-3, total_updates=10, batch_size=1, seed=0)
    with pytest.raises(ValueError):
        tri_stage_lr(11, cfg)
    with pytest.raises(ValueError):
        tri_stage_lr(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(peak_lr=0.0, total_updates=1, batch_size=1, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(peak_lr=1e-3, total_updates=1, batch_size=0, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(peak_lr=math.nan, total_updates=1)


def test_adam_zero_gradient_from_fresh_state_keeps_params():
    params = np.array([1.0, -2.0])
    state = AdamState.fresh(params)
    assert adam_step(params, np.zeros(2), state, lr=0.1) is None
    assert np.array_equal(params, [1.0, -2.0])
    assert state.t == 1


def test_adam_moments_decay_on_zero_gradient():
    params = np.array([1.0, -2.0])
    state = AdamState(m=np.array([0.5, 0.5]), v=np.array([0.2, 0.2]), t=3)
    adam_step(params, np.zeros(2), state, lr=0.1)
    assert np.allclose(state.m, 0.9 * 0.5)
    assert np.allclose(state.v, 0.999 * 0.2)
    assert state.t == 4


def test_adam_first_step_moves_by_lr():
    rng = np.random.default_rng(0)
    g = rng.normal(size=5)
    params = np.zeros(5)
    adam_step(params, g, AdamState.fresh(params), lr=0.01)
    want = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params, want, atol=1e-9)


def test_adam_matches_scalar_loop_implementation():
    rng = np.random.default_rng(1)
    params = rng.normal(size=10)
    state = AdamState.fresh(params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    ref = params.copy()
    cur = params
    for t in range(1, 6):
        grads = rng.normal(size=params.shape)
        lr = 0.05 / t
        adam_step(cur, grads, state, lr)
        for i in range(ref.size):
            m[i] = b1 * m[i] + (1 - b1) * grads[i]
            v[i] = b2 * v[i] + (1 - b2) * grads[i] * grads[i]
            mh = m[i] / (1 - b1**t)
            vh = v[i] / (1 - b2**t)
            ref[i] = ref[i] - lr * mh / (math.sqrt(vh) + eps)
        assert np.array_equal(cur, ref), t


def test_adam_rejects_non_finite_gradient():
    params = np.zeros(2)
    with pytest.raises(Exception):
        adam_step(params, np.array([1.0, np.nan]), AdamState.fresh(params), 0.1)


def test_adam_rejects_gradient_of_another_shape():
    params = np.zeros(2)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, np.zeros(3), AdamState.fresh(params), 0.1)


# ------------------------------------------------------------ CTC fine-tune


def data_fixture(noise=0.25, sizes=(6, 4, 3), seed=7):
    return generate_dataset(tiny_task(noise=noise, seed=seed), sizes)


def test_finetune_zero_updates_is_identity():
    split = data_fixture()
    init = init_params(TINY_ENC, 0)
    init.mask_spec = STREAM
    model, log = finetune_ctc(init, STREAM, split.labeled, quick_cfg(0))
    assert checkpoint_digest(model) == checkpoint_digest(init)
    assert log.losses == [] and log.skipped == 0


def test_token_error_rate_counts_greedy_errors_over_the_corpus():
    split = data_fixture()
    model = init_params(TINY_ENC, 0)
    model.mask_spec = STREAM
    refs = [VOCAB.encode(u.text).tokens for u in split.dev]
    hyps = [greedy_decode(post).tokens for post in dev_posteriors(model, split.dev)]
    edits = sum(edit_distance(r, h) for r, h in zip(refs, hyps))
    assert token_error_rate(model, split.dev, VOCAB) == edits / sum(map(len, refs))
    with pytest.raises(ValueError, match="empty references"):
        token_error_rate(model, (), VOCAB)


def test_finetune_loss_decreases_on_toy_set():
    split = data_fixture(sizes=(4, 1, 1))
    init = init_params(TINY_ENC, 0)
    model, log = finetune_ctc(init, STREAM, split.labeled, quick_cfg(60, batch=2))
    first = np.mean(log.losses[:5])
    last = np.mean(log.losses[-5:])
    assert last < first


def test_finetune_same_seed_same_digest():
    split = data_fixture()
    init = init_params(TINY_ENC, 0)
    m1, _ = finetune_ctc(init, STREAM, split.labeled, quick_cfg(25))
    m2, _ = finetune_ctc(init, STREAM, split.labeled, quick_cfg(25))
    assert checkpoint_digest(m1) == checkpoint_digest(m2)


def test_finetune_skips_and_counts_unsatisfiable():
    split = data_fixture()
    # a target far longer than its frame count cannot be aligned
    bad = Utterance(uid="Z9999", features=np.zeros((2, 6)), text="abcabcabc")
    init = init_params(TINY_ENC, 0)
    model, log = finetune_ctc(
        init, STREAM, list(split.labeled) + [bad], quick_cfg(30, batch=7)
    )
    assert log.skipped > 0


def test_run_updates_skips_what_the_objective_rejects():
    # with the batch as large as the set, every update takes every
    # utterance, so skipping some must equal training without them
    from streamctc.ctc import ctc_loss
    from streamctc.pipeline.stages import _run_updates

    data = list(data_fixture().labeled)
    rejected = {data[1].uid, data[4].uid}
    targets = {u.uid: VOCAB.encode(u.text) for u in data if u.uid not in rejected}
    seen = []

    def objective(labels, traces):
        seen.extend(labels)
        losses, d = ctc_loss(
            np.concatenate([t.posteriorgram for t in traces]), labels,
            [len(t.posteriorgram) for t in traces],
        )
        return losses, {"grad_logpost": d}

    cfg = quick_cfg(4, batch=len(data), lr=1e-2)
    runs = []
    for subset in (data, [u for u in data if u.uid not in rejected]):
        params = init_params(TINY_ENC, 0)
        params.mask_spec = STREAM
        runs.append((params, *_run_updates(params, subset, cfg, targets, objective)))
    (skipping, losses, skipped), (reference, ref_losses, ref_skipped) = runs
    assert skipped == 4 * len(rejected) and ref_skipped == 0
    assert losses == ref_losses
    np.testing.assert_array_equal(skipping.flat, reference.flat)
    # utterances without a target are skipped before their forward pass:
    # the objective sees only the others, in uid order, and the batch-norm
    # running statistics never fold the skipped ones in
    assert seen == [targets[uid] for uid in sorted(targets)] * 8
    assert skipping.bn_stats.mean.tobytes() == reference.bn_stats.mean.tobytes()
    assert skipping.bn_stats.var.tobytes() == reference.bn_stats.var.tobytes()


def test_update_without_a_trainable_member_logs_nan_and_takes_no_step(monkeypatch):
    # batches of one from a set where one utterance of four has a target:
    # an update that draws another logs NaN, counts it and leaves the weights
    from streamctc.ctc import ctc_loss
    from streamctc.pipeline import stages

    data = list(data_fixture().labeled)[:4]
    targets = {data[0].uid: VOCAB.encode(data[0].text)}
    steps = []
    real_step = stages.adam_step

    def counted(params, grads, state, lr):
        steps.append(params.copy())
        real_step(params, grads, state, lr)

    def objective(labels, traces):
        logpost = np.concatenate([t.posteriorgram for t in traces])
        losses, d = ctc_loss(logpost, labels, [len(t.posteriorgram) for t in traces])
        return losses, {"grad_logpost": d}

    monkeypatch.setattr(stages, "adam_step", counted)
    params = init_params(TINY_ENC, 0)
    params.mask_spec = STREAM
    before = params.flat.copy()
    losses, skipped = stages._run_updates(params, data, quick_cfg(8, batch=1), targets, objective)
    empty = [math.isnan(loss) for loss in losses]
    assert empty == [True, True, True, True, False, False, True, True]
    assert skipped == sum(empty)
    assert len(steps) == 8 - sum(empty)
    # the first step starts from the init: the four skipped updates moved nothing
    np.testing.assert_array_equal(steps[0], before)


def test_run_updates_splits_the_batch_under_the_area_budget(monkeypatch):
    from streamctc.ctc import ctc_loss
    from streamctc.pipeline import stages

    # full-context layouts have one position per frame: four members of
    # `full` fill the budget exactly, and `wide` alone is over it
    full = math.isqrt(stages.MICRO_BATCH_AREA // 4)
    wide = math.isqrt(stages.MICRO_BATCH_AREA) + 1
    lengths = [full] * 5 + [wide, 10, 10]
    rng = np.random.default_rng(3)
    data = [
        Utterance(uid=f"U{i}", features=rng.normal(size=(n, 6)), text="ab")
        for i, n in enumerate(lengths)
    ]
    targets = {u.uid: VOCAB.encode(u.text) for u in data}
    uid_of = {id(u.features): u.uid for u in data}
    passes = []
    original = stages.forward_with_cache

    def spy(params, features, *args, **kwargs):
        passes.append([uid_of[id(f)] for f in features])
        return original(params, features, *args, **kwargs)

    def objective(labels, traces):
        losses, d = ctc_loss(
            np.concatenate([t.posteriorgram for t in traces]), labels,
            [len(t.posteriorgram) for t in traces],
        )
        return losses, {"grad_logpost": d}

    monkeypatch.setattr(stages, "forward_with_cache", spy)
    # the spy sees the passes of this process only: no worker process
    monkeypatch.setattr(stages, "_cpu_count", lambda: 1)
    cfg = quick_cfg(1, batch=len(data), lr=1e-2)
    split = init_params(TINY_ENC, 0)
    split_losses, _ = stages._run_updates(split, data, cfg, targets, objective)
    # consecutive runs in uid order; the utterance over the budget trains alone
    assert passes == [["U0", "U1", "U2", "U3"], ["U4"], ["U5"], ["U6", "U7"]]
    # one pass over the whole batch gives the same update up to rounding
    monkeypatch.setattr(stages, "MICRO_BATCH_AREA", 10**9)
    whole = init_params(TINY_ENC, 0)
    whole_losses, _ = stages._run_updates(whole, data, cfg, targets, objective)
    assert len(passes) == 5 and len(passes[-1]) == len(data)
    np.testing.assert_allclose(split_losses, whole_losses, rtol=1e-12)
    np.testing.assert_allclose(split.flat, whole.flat, rtol=0, atol=1e-12)


def plain_run_updates(params, data, cfg, targets, objective, draw=None):
    """The update loop written plainly, in one process, as an oracle for
    `_run_updates`: the same batch draws, per-update target draws and
    micro-batches, each pass's batch-norm moments folded right after it,
    a fresh gradient buffer for each `backward`, the micro-batch sum in
    order, and Adam's formula out of place. Returns what `_run_updates`
    returns and counts passes."""
    from streamctc.encoder import GradientBuffer, backward, forward_with_cache
    from streamctc.numerics import batch_norm_fold
    from streamctc.pipeline import stages

    b1, b2, eps = 0.9, 0.999, 1e-8
    spec = params.mask_spec or BIDI
    rng = np.random.default_rng(cfg.seed)
    m = np.zeros_like(params.flat)
    v = np.zeros_like(params.flat)
    t = 0
    losses, skipped = [], 0
    for step in range(cfg.total_updates):
        lr = tri_stage_lr(step, cfg)
        idx = rng.choice(len(data), size=min(cfg.batch_size, len(data)), replace=False)
        batch = sorted((data[int(i)] for i in idx), key=lambda u: u.uid)
        usable = [utt for utt in batch if utt.uid in targets]
        skipped += len(batch) - len(usable)
        if not usable:
            losses.append(math.nan)
            continue
        member_targets = draw(usable) if draw else [targets[u.uid] for u in usable]
        member_losses, total = [], None
        for group in stages._micro_batches(usable, spec)[0]:
            traces, cache = forward_with_cache(
                params, [u.features for u in group], spec, train=True
            )
            batch_norm_fold(params.bn_stats, cache["bn_moments"])
            group_targets = member_targets[len(member_losses) : len(member_losses) + len(group)]
            group_losses, kwargs = objective(group_targets, traces)
            grad = GradientBuffer.zeros(params.config)
            backward(params, cache, grad, **kwargs)
            plain_run_updates.passes += 1
            member_losses += group_losses
            if total is None:
                total = grad.flat
            else:
                total += grad.flat
        g = total / len(usable)
        t += 1
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        params.flat[...] = params.flat - lr * (m / (1.0 - b1**t)) / (
            np.sqrt(v / (1.0 - b2**t)) + eps
        )
        losses.append(sum(member_losses) / len(usable))
    return losses, skipped


CRITERION_9 = {
    "out_dir": "", "seed": 9, "n_symbols": 3, "noise_std": 0.3,
    "frames_per_token": [2, 3], "text_len": [2, 5], "sizes": [8, 6, 4],
    "encoder": {
        "n_layers": 2, "model_dim": 16, "n_heads": 2, "ffn_dim": 24,
        "vocab_size": 29, "feature_dim": 6, "frontend_kernel": 3,
    },
    "stream": {"variant": "block", "chunk_frames": 3, "future_frames": 1},
    "peak_lr": 0.002, "batch_size": 3,
}


def count_workers(monkeypatch):
    """The list that each `_Worker` the stages start is appended to."""
    from streamctc.pipeline import stages

    started = []

    class Counted(stages._Worker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(stages, "_Worker", Counted)
    return started


def spy_lanes(monkeypatch):
    """The list of (areas, lanes) of each `_lanes` call."""
    from streamctc.pipeline import stages

    calls = []
    original = stages._lanes

    def spy(areas):
        lanes = original(areas)
        calls.append((list(areas), lanes))
        return lanes

    monkeypatch.setattr(stages, "_lanes", spy)
    return calls


def schedules(calls):
    """Which of the schedules the worker-on oracle must reach occur in the
    `_lanes` calls: the worker runs micro-batch 0, the worker runs two
    micro-batches or more of one update, and an update has an odd number
    (3 or more) of micro-batches of unequal areas."""
    seen = set()
    for areas, (_, there) in calls:
        if 0 in there:
            seen.add("worker-runs-0")
        if len(there) >= 2:
            seen.add("worker-runs-2")
        if len(areas) >= 3 and len(areas) % 2 and len(set(areas)) > 1:
            seen.add("odd-unequal")
    return seen


@pytest.mark.parametrize("case, worker", [
    # a bare case name runs with the worker off
    pytest.param(case, worker, id=case + ("-worker-on" if worker else ""))
    for case in (
        "criterion-9", "micro-batches", "distill", "contrastive-micro-batches",
        "wide-micro-batches",
    )
    for worker in (False, True)
])
def test_run_updates_matches_a_plain_loop(monkeypatch, case, worker):
    # the loop writes Adam and the gradient into buffers it reuses, and
    # with a worker runs a lane of micro-batches in another process; 20
    # updates of it must leave the bits of the plain loop above
    from streamctc.pipeline import stages

    monkeypatch.setattr(stages, "_cpu_count", lambda: 2 if worker else 1)
    started = count_workers(monkeypatch)
    calls = spy_lanes(monkeypatch)
    payload = dict(CRITERION_9)
    split_up = case.endswith("micro-batches")
    if case == "micro-batches":
        # long utterances: a batch of 3 is over MICRO_BATCH_AREA and splits
        payload["text_len"] = [16, 24]
    elif case == "wide-micro-batches":
        # a batch of 5 splits into 2 or 3 micro-batches of unequal areas
        payload["text_len"] = [16, 24]
        payload["batch_size"] = 5
    elif case == "contrastive-micro-batches":
        # full context has one position per frame, so it needs longer ones
        payload["text_len"] = [24, 40]
    config = PipelineConfig.from_dict(payload)
    split = generate_dataset(config.task(VOCAB), config.sizes, VOCAB)
    cfg = dataclasses.replace(config.train_config("S"), total_updates=20)
    init = init_params(config.encoder, config.seed)

    def train():
        if case == "distill":
            teacher = init_params(config.encoder, config.seed + 1)
            return distill(
                init, teacher, config.stream, split.labeled + split.unlabeled,
                config.distill_spec(), cfg, head_source=teacher,
            )
        if case == "contrastive-micro-batches":
            return pretrain_contrastive(init, split.labeled, cfg)
        return finetune_ctc(init, config.stream, split.labeled, cfg)

    model, log = train()
    # a stage forks one worker, and only when an update splits; the lanes
    # are asked for only once it runs
    assert len(started) == (split_up and worker)
    assert bool(calls) == (split_up and worker)
    if worker and case in ("wide-micro-batches", "contrastive-micro-batches"):
        assert schedules(calls) == {"worker-runs-0", "worker-runs-2", "odd-unequal"}
    plain_run_updates.passes = 0
    monkeypatch.setattr(stages, "_run_updates", plain_run_updates)
    want, want_log = train()
    assert model.flat.tobytes() == want.flat.tobytes()
    assert np.array(log.losses).tobytes() == np.array(want_log.losses).tobytes()
    assert log.skipped == want_log.skipped
    assert model.bn_stats.mean.tobytes() == want.bn_stats.mean.tobytes()
    assert model.bn_stats.var.tobytes() == want.bn_stats.var.tobytes()
    assert not np.array_equal(model.flat, init.flat)
    if split_up:
        assert plain_run_updates.passes > cfg.total_updates
    else:
        assert plain_run_updates.passes == cfg.total_updates


def test_lanes_split_by_area_largest_first():
    import itertools

    from streamctc.pipeline import stages

    # ties: the lower index first, and to this process
    assert stages._lanes([5, 5]) == ([0], [1])
    assert stages._lanes([1, 1, 1, 1]) == ([0, 2], [1, 3])
    assert stages._lanes([3, 5, 5]) == ([0, 1], [2])
    assert stages._lanes([7]) == ([0], [])
    assert stages._lanes([]) == ([], [])
    # every input of up to 4 micro-batches of 1 or 2 members, each of
    # layout width 2, 3 or 5 (area members x width^2)
    areas = sorted({m * w * w for m in (1, 2) for w in (2, 3, 5)})
    for n in range(1, 5):
        for update in itertools.product(areas, repeat=n):
            here, there = stages._lanes(list(update))
            assert sorted(here + there) == list(range(n))
            assert here == sorted(here) and there == sorted(there)
            larger = max(sum(update[i] for i in here), sum(update[i] for i in there))
            best = min(
                max(sum(a for a, side in zip(update, sides) if side),
                    sum(a for a, side in zip(update, sides) if not side))
                for sides in itertools.product((0, 1), repeat=n)
            )
            assert larger == best, update


def test_lanes_do_not_read_the_cpu_count(monkeypatch):
    from streamctc.pipeline import stages

    update = [6724, 15123, 8712, 3025]
    want = stages._lanes(update)
    for cpus in (1, 2, 64):
        monkeypatch.setattr(stages, "_cpu_count", lambda: cpus)
        assert stages._lanes(update) == want


def raise_in_a_lane(monkeypatch, lane, nth):
    """Runs one update of three one-utterance micro-batches, micro-batch
    1 the largest, with NaN features in the `nth` micro-batch of `lane`
    (0 this process's, 1 the worker's), which the caller must see raised.
    Returns the index of that micro-batch."""
    from streamctc.ctc import ctc_loss
    from streamctc.numerics import NonFiniteError
    from streamctc.pipeline import stages

    monkeypatch.setattr(stages, "_cpu_count", lambda: 2)
    started = count_workers(monkeypatch)
    # each utterance is over the area budget alone
    wide = math.isqrt(stages.MICRO_BATCH_AREA) + 1
    rng = np.random.default_rng(4)
    data = [
        Utterance(uid=f"U{i}", features=rng.normal(size=(wide + extra, 6)), text="ab")
        for i, extra in enumerate((5, 10, 0))
    ]
    groups, areas = stages._micro_batches(data, BIDI)
    lanes = stages._lanes(areas)
    failing = lanes[lane][nth]
    (utt,) = groups[failing]
    utt.features[5, 2] = np.nan
    targets = {u.uid: VOCAB.encode(u.text) for u in data}
    calls = spy_lanes(monkeypatch)

    def objective(labels, traces):
        losses, d = ctc_loss(
            np.concatenate([t.posteriorgram for t in traces]), labels,
            [len(t.posteriorgram) for t in traces],
        )
        return losses, {"grad_logpost": d}

    params = init_params(TINY_ENC, 0)
    with pytest.raises(NonFiniteError, match=r"^non-finite values in posteriorgram$"):
        stages._run_updates(params, data, quick_cfg(1, batch=3), targets, objective)
    assert len(started) == 1
    assert [got for _, got in calls] == [lanes]
    return failing


def test_an_error_in_the_worker_is_raised_in_the_caller(monkeypatch):
    assert raise_in_a_lane(monkeypatch, 1, 0) == 0


def test_an_error_in_the_workers_second_micro_batch_is_raised_in_the_caller(monkeypatch):
    assert raise_in_a_lane(monkeypatch, 1, 1) == 2


def test_an_error_in_this_process_lane_ends_the_worker(monkeypatch):
    # micro-batch 1 runs here while the worker runs 0 and 2
    assert raise_in_a_lane(monkeypatch, 0, 0) == 1


def test_a_failed_fork_runs_every_micro_batch_here(monkeypatch):
    import multiprocessing

    from streamctc.ctc import ctc_loss
    from streamctc.pipeline import stages

    tried = []

    class NoProcesses:
        """The fork context under a process limit: no process starts."""

        def __getattr__(self, name):
            return getattr(multiprocessing.get_context("fork"), name)

        def Process(self, *args, **kwargs):
            process = multiprocessing.get_context("fork").Process(*args, **kwargs)

            def start():
                tried.append(process)
                raise OSError(11, "Resource temporarily unavailable")

            process.start = start
            return process

    # each utterance is over the area budget alone, so every update splits
    wide = math.isqrt(stages.MICRO_BATCH_AREA) + 1
    rng = np.random.default_rng(4)
    data = [
        Utterance(uid=f"U{i}", features=rng.normal(size=(wide, 6)), text="ab")
        for i in range(3)
    ]
    targets = {u.uid: VOCAB.encode(u.text) for u in data}

    def objective(labels, traces):
        losses, d = ctc_loss(
            np.concatenate([t.posteriorgram for t in traces]), labels,
            [len(t.posteriorgram) for t in traces],
        )
        return losses, {"grad_logpost": d}

    def run(context):
        monkeypatch.setattr(stages, "_fork_context", lambda: context)
        params = init_params(TINY_ENC, 0)
        losses, _ = stages._run_updates(params, data, quick_cfg(2, batch=3), targets, objective)
        return params, losses

    want, want_losses = run(None)
    got, losses = run(NoProcesses())
    # one fork was tried, at the first update, and none after it failed
    assert len(tried) == 1
    assert got.flat.tobytes() == want.flat.tobytes()
    assert np.array(losses).tobytes() == np.array(want_losses).tobytes()
    assert got.bn_stats.mean.tobytes() == want.bn_stats.mean.tobytes()
    assert got.bn_stats.var.tobytes() == want.bn_stats.var.tobytes()


@pytest.mark.parametrize("case", ["no-split", "worker-off", "worker-on"])
def test_run_updates_makes_one_gradient_slot_per_micro_batch(monkeypatch, case):
    # the loop allocates no parameter-sized float vector per update: a
    # stage makes one gradient slot per micro-batch of its largest update,
    # or the worker's shared slots, one per member a batch can have
    from streamctc.ctc import ctc_loss
    from streamctc.encoder import GradientBuffer
    from streamctc.pipeline import stages

    made = {"zeros": [], "over": []}
    for name in made:
        def spy(*args, _original=getattr(GradientBuffer, name), _made=made[name], **kwargs):
            buffer = _original(*args, **kwargs)
            _made.append(buffer)
            return buffer

        monkeypatch.setattr(GradientBuffer, name, spy)
    sizes = []
    original = stages._micro_batches

    def count_micro_batches(utts, spec):
        groups, areas = original(utts, spec)
        sizes.append(len(groups))
        return groups, areas

    monkeypatch.setattr(stages, "_micro_batches", count_micro_batches)
    monkeypatch.setattr(stages, "_cpu_count", lambda: 1 if case == "worker-off" else 2)
    started = count_workers(monkeypatch)
    # short utterances share one micro-batch; a wide one is over the area
    # budget alone, so a batch of 4 from 3 wide and 3 short ones splits
    wide = math.isqrt(stages.MICRO_BATCH_AREA) + 1
    lengths = [10] * 6 if case == "no-split" else [wide, 10, wide, 10, 10, wide]
    rng = np.random.default_rng(6)
    data = [
        Utterance(uid=f"U{i}", features=rng.normal(size=(n, 6)), text="ab")
        for i, n in enumerate(lengths)
    ]
    targets = {u.uid: VOCAB.encode(u.text) for u in data}

    def objective(labels, traces):
        losses, d = ctc_loss(
            np.concatenate([t.posteriorgram for t in traces]), labels,
            [len(t.posteriorgram) for t in traces],
        )
        return losses, {"grad_logpost": d}

    cfg = quick_cfg(4, batch=4)
    stages._run_updates(init_params(TINY_ENC, 0), data, cfg, targets, objective)
    private, shared = len(made["zeros"]), len(made["over"]) - len(made["zeros"])
    assert len(sizes) == cfg.total_updates
    if case == "no-split":
        assert set(sizes) == {1} and not started
        assert (private, shared) == (1, 0)
    elif case == "worker-off":
        # updates of unequal micro-batch counts: slots are made on need
        assert len(set(sizes)) > 1 and not started
        assert (private, shared) == (max(sizes), 0)
    else:
        assert min(sizes) > 1 and len(started) == 1
        assert (private, shared) == (0, min(cfg.batch_size, len(data)))


def test_fork_context_needs_two_cpus_one_thread_and_no_macos(monkeypatch):
    import threading

    from streamctc.pipeline import stages

    monkeypatch.setattr(stages, "_cpu_count", lambda: 2)
    monkeypatch.setattr(stages.sys, "platform", "linux")
    assert stages._fork_context().get_start_method() == "fork"
    monkeypatch.setattr(stages.sys, "platform", "darwin")
    assert stages._fork_context() is None
    monkeypatch.setattr(stages.sys, "platform", "linux")
    monkeypatch.setattr(stages, "_cpu_count", lambda: 1)
    assert stages._fork_context() is None
    monkeypatch.setattr(stages, "_cpu_count", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert stages._fork_context() is None
    finally:
        release.set()
        other.join()


@pytest.mark.parametrize(
    "stage", ["finetune_ctc", "train_guided_teacher", "pretrain_contrastive"]
)
def test_unusable_utterances_train_like_the_usable_subset(monkeypatch, stage):
    from streamctc.pipeline import stages

    usable = list(data_fixture().labeled)
    rng = np.random.default_rng(5)
    # uids that sort between the usable ones; every stage needs two frames
    # (train-mode batch norm), the CTC stages a label that fits its frames
    if stage == "pretrain_contrastive":
        shapes = {"L0001a": ((1, 6), "a"), "L0004a": ((1, 6), "ab")}
    else:
        shapes = {"L0001a": ((2, 6), "abcabc"), "L0002a": ((1, 6), "a"),
                  "L0004a": ((2, 6), "aa")}
    unusable = [
        Utterance(uid=uid, features=rng.normal(size=shape), text=text)
        for uid, (shape, text) in shapes.items()
    ]
    updates = 3

    def train(data):
        init = init_params(TINY_ENC, 0)
        cfg = quick_cfg(updates, batch=len(usable) + len(unusable), lr=1e-2)
        if stage == "finetune_ctc":
            return stages.finetune_ctc(init, STREAM, data, cfg)
        if stage == "train_guided_teacher":
            streaming = init_params(TINY_ENC, 1)
            streaming.mask_spec = STREAM
            return stages.train_guided_teacher(init, streaming, data, 0.5, cfg)
        return stages.pretrain_contrastive(init, data, cfg)

    seen = []
    for name in ("forward", "forward_with_cache"):
        def spy(params, features, *args, _original=getattr(stages, name), **kwargs):
            # forward takes one utterance's features, forward_with_cache a list
            seen.extend(features if isinstance(features, list) else [features])
            return _original(params, features, *args, **kwargs)

        monkeypatch.setattr(stages, name, spy)

    model, log = train(usable + unusable)
    assert seen and not any(f is u.features for f in seen for u in unusable)
    # every member reached the spy as its own array, each usable one included
    assert {id(u.features) for u in usable} <= {id(f) for f in seen}
    reference, ref_log = train(usable)
    assert log.skipped == updates * len(unusable) and ref_log.skipped == 0
    assert log.losses == ref_log.losses
    assert model.flat.tobytes() == reference.flat.tobytes()
    assert model.bn_stats.mean.tobytes() == reference.bn_stats.mean.tobytes()
    assert model.bn_stats.var.tobytes() == reference.bn_stats.var.tobytes()


def test_pipeline_with_one_frame_utterances_completes(tmp_path):
    config = resume_config(
        tmp_path, frames_per_token=(1, 2), text_len=(1, 2), sizes=(8, 4, 4)
    )
    reports = run_two_stage(config)
    assert [r.stage for r in reports] == ["S", "T", "KD", "N", "U'", "ST"]
    assert sum(r.skipped for r in reports) > 0


def test_run_two_stage_rejects_jobs_below_one_before_writing(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_two_stage(PipelineConfig(out_dir=str(out)), jobs=0)
    assert not out.exists()


def test_finetune_all_unsatisfiable_is_an_error():
    bad = [Utterance(uid=f"B{i}", features=np.zeros((2, 6)), text="abc") for i in range(3)]
    init = init_params(TINY_ENC, 0)
    with pytest.raises(UnsatisfiableTargetError, match="longer than their frames"):
        finetune_ctc(init, STREAM, bad, quick_cfg(5))
    # one frame fits a one-token label, but train-mode batch norm needs two;
    # with no utterance of two frames every stage fails before its first update
    ones = [Utterance(uid=f"B{i}", features=np.ones((1, 6)), text="a") for i in range(3)]
    with pytest.raises(UnsatisfiableTargetError, match="fewer than 2 frames"):
        finetune_ctc(init, STREAM, ones, quick_cfg(5))
    with pytest.raises(UnsatisfiableTargetError, match="fewer than 2 frames"):
        pretrain_contrastive(init, ones, quick_cfg(5))
    with pytest.raises(ValueError):
        finetune_ctc(init, STREAM, [], quick_cfg(5))
    # targets are keyed by utterance id, so ids must be unique
    good = Utterance(uid="G", features=np.zeros((9, 6)), text="a")
    twice = [good, dataclasses.replace(good, text="b")]
    with pytest.raises(ValueError, match="repeats an utterance id"):
        finetune_ctc(init, STREAM, twice, quick_cfg(5))


# ------------------------------------------------------------ guided teacher


def test_guided_alpha_zero_matches_plain_finetune():
    split = data_fixture()
    init = init_params(TINY_ENC, 0)
    streaming, _ = finetune_ctc(init, STREAM, split.labeled, quick_cfg(20))
    plain, _ = finetune_ctc(init, BIDI, split.labeled, quick_cfg(25, seed=9))
    guided, log = train_guided_teacher(
        init, streaming, split.labeled, 0.0, quick_cfg(25, seed=9)
    )
    assert checkpoint_digest(guided) == checkpoint_digest(plain)
    assert log.extra["alpha"] == 0.0


def test_guided_alpha_matrix_runs_and_reports():
    split = data_fixture(sizes=(4, 1, 2))
    init = init_params(TINY_ENC, 0)
    streaming, _ = finetune_ctc(init, STREAM, split.labeled, quick_cfg(15))
    digests = {}
    for alpha in (1.0, 0.1, 0.01):
        teacher, log = train_guided_teacher(
            init, streaming, split.labeled, alpha, quick_cfg(15), dev=split.dev
        )
        assert log.extra["alpha"] == alpha
        assert log.dev_token_error is not None
        digests[alpha] = checkpoint_digest(teacher)
    assert len(set(digests.values())) == 3


def test_guided_requires_streaming_mask_spec():
    split = data_fixture(sizes=(3, 1, 1))
    init = init_params(TINY_ENC, 0)
    with pytest.raises(ValueError):
        train_guided_teacher(init, init, split.labeled, 0.1, quick_cfg(2))


def test_guided_teacher_spikes_align_with_streaming_model():
    split = data_fixture(noise=0.3, sizes=(10, 1, 6), seed=11)
    init = init_params(TINY_ENC, 0)
    streaming, _ = finetune_ctc(init, STREAM, split.labeled, quick_cfg(120, seed=2))
    agreements = {}
    for alpha in (0.0, 0.01):
        teacher, _ = train_guided_teacher(
            init, streaming, split.labeled, alpha, quick_cfg(120, seed=2)
        )
        pairs = zip(
            dev_posteriors(teacher, split.dev), dev_posteriors(streaming, split.dev)
        )
        agreements[alpha] = np.mean([frame_agreement(a, b) for a, b in pairs])
    assert agreements[0.01] >= agreements[0.0]


# -------------------------------------------------------------- distillation


def test_distill_identical_start_has_zero_initial_loss():
    split = data_fixture(sizes=(4, 2, 2))
    init = init_params(TINY_ENC, 0)
    teacher = init.copy()
    teacher.mask_spec = STREAM
    _, log = distill(
        init,
        teacher,
        STREAM,
        split.labeled,
        DistillSpec.thirds(TINY_ENC.n_layers),
        quick_cfg(0),
        dev=split.dev,
    )
    assert log.extra["dev_distill_first"] == 0.0


def test_distill_dev_loss_decreases_and_moves_student_toward_teacher():
    split = data_fixture(noise=0.3, sizes=(8, 6, 5), seed=11)
    init = init_params(TINY_ENC, 0)
    streaming, _ = finetune_ctc(init, STREAM, split.labeled, quick_cfg(120, seed=2))
    teacher, _ = train_guided_teacher(
        init, streaming, split.labeled, 0.01, quick_cfg(120, seed=3)
    )
    student, log = distill(
        init,
        teacher,
        STREAM,
        list(split.labeled) + list(split.unlabeled),
        DistillSpec.thirds(TINY_ENC.n_layers),
        quick_cfg(80, seed=4),
        head_source=streaming,
        dev=split.dev,
    )
    assert log.extra["dev_distill_last"] < log.extra["dev_distill_first"]
    kd_agree = np.mean(
        [
            frame_agreement(a, b)
            for a, b in zip(
                dev_posteriors(student, split.dev), dev_posteriors(teacher, split.dev)
            )
        ]
    )
    s_agree = np.mean(
        [
            frame_agreement(a, b)
            for a, b in zip(
                dev_posteriors(streaming, split.dev), dev_posteriors(teacher, split.dev)
            )
        ]
    )
    assert kd_agree > s_agree
    assert log.extra["head_from"] == "streaming"


def test_distill_ignores_labels():
    split = data_fixture(sizes=(4, 2, 2))
    unlabeled = tuple(
        Utterance(uid=u.uid, features=u.features, text=None) for u in split.labeled
    )
    init = init_params(TINY_ENC, 0)
    teacher = init.copy()
    teacher.mask_spec = BIDI
    student, log = distill(
        init, teacher, STREAM, unlabeled, DistillSpec((1, 2)), quick_cfg(5)
    )
    assert len(log.losses) == 5


@pytest.mark.parametrize("same_lengths", [False, True])
def test_distill_dev_set_sharing_uids_changes_no_training_target(same_lengths):
    # the dev set reuses the training uids with other features: the teacher's
    # dev traces must not replace the training targets of the same uids
    train = data_fixture(sizes=(6, 2, 2)).labeled
    other = [
        u for u in data_fixture(sizes=(6, 2, 2), seed=8).labeled
        if (u.n_frames == train[0].n_frames) == same_lengths
    ]
    assert other, "no dev utterance of the wanted length"
    dev = [dataclasses.replace(other[0], uid=train[0].uid)]
    assert not np.array_equal(dev[0].features, train[0].features)
    init = init_params(TINY_ENC, 0)
    teacher = init.copy()
    teacher.mask_spec = BIDI
    args = (init, teacher, STREAM, train, DistillSpec((1, 2)), quick_cfg(6))
    alone, _ = distill(*args)
    with_dev, log = distill(*args, dev=dev)
    assert checkpoint_digest(with_dev) == checkpoint_digest(alone)
    assert log.extra["dev_distill_first"] is not None


# -------------------------------------------------------------- pseudo-label


def test_pseudo_label_empty_set():
    init = init_params(TINY_ENC, 0)
    kept, dropped = pseudo_label(init, (), DecodeConfig(beam_size=4))
    assert kept == () and dropped == 0


def test_pseudo_label_conservation():
    split = data_fixture(sizes=(4, 6, 2))
    init = init_params(TINY_ENC, 0)
    init.mask_spec = BIDI
    kept, dropped = pseudo_label(init, split.unlabeled, DecodeConfig(beam_size=4))
    assert len(kept) + dropped == 6


def test_pseudo_labels_match_hidden_references_on_separable_task():
    split = generate_dataset(tiny_task(noise=0.0, seed=5), (12, 6, 4))
    init = init_params(TINY_ENC, 0)
    model, log = finetune_ctc(
        init, BIDI, split.labeled, quick_cfg(250, seed=3, lr=3e-3), dev=split.dev
    )
    assert log.dev_token_error == 0.0
    kept, dropped = pseudo_label(model, split.unlabeled, DecodeConfig(beam_size=4))
    assert dropped == 0
    for utt, ref in zip(kept, split.unlabeled):
        assert utt.uid == ref.uid
        assert utt.text == ref.text


# --------------------------------------------------------------- self-train


def test_self_train_on_labeled_only_equals_finetune():
    split = data_fixture(sizes=(5, 2, 2))
    init = init_params(TINY_ENC, 0)
    kd, _ = finetune_ctc(init, STREAM, split.labeled, quick_cfg(15))
    a, _ = self_train(kd, list(split.labeled), quick_cfg(10, seed=5))
    b, _ = finetune_ctc(kd, STREAM, split.labeled, quick_cfg(10, seed=5))
    assert checkpoint_digest(a) == checkpoint_digest(b)


def test_self_train_requires_mask_spec():
    init = init_params(TINY_ENC, 0)
    with pytest.raises(ValueError):
        self_train(init, [Utterance(uid="a", features=np.zeros((4, 6)), text="a")], quick_cfg(1))


# -------------------------------------------------------------- contrastive


def test_pretrain_contrastive_runs_and_is_deterministic():
    split = data_fixture(sizes=(3, 6, 2))
    init = init_params(TINY_ENC, 0)
    m1, log1 = pretrain_contrastive(init, split.unlabeled, quick_cfg(12, seed=8))
    m2, _ = pretrain_contrastive(init, split.unlabeled, quick_cfg(12, seed=8))
    assert checkpoint_digest(m1) == checkpoint_digest(m2)
    assert checkpoint_digest(m1) != checkpoint_digest(init)
    assert all(np.isfinite(v) for v in log1.losses)


# ------------------------------------------------------------ orchestration


def small_pipeline_config(out_dir, seed=3):
    return PipelineConfig(
        out_dir=str(out_dir),
        seed=seed,
        n_symbols=3,
        frames_per_token=(2, 3),
        noise_std=0.3,
        text_len=(2, 5),
        sizes=(10, 8, 6),
        encoder=TINY_ENC,
        stream=STREAM,
        updates={"pretrain": 0, "S": 40, "T": 40, "KD": 25, "N": 40, "ST": 40},
        peak_lr=2e-3,
        batch_size=3,
    )


def test_dry_run_lists_six_stages(tmp_path):
    plan = plan_stages(small_pipeline_config(tmp_path))
    assert [p["stage"] for p in plan] == ["S", "T", "KD", "N", "U'", "ST"]
    assert all("depends_on" in p and "updates" in p for p in plan)
    assert plan[4]["decode"]["beam_size"] == 8
    assert not any((tmp_path / d).exists() for d in ("checkpoints", "reports"))


def test_dry_run_lists_the_decode_config_u_prime_records(tmp_path):
    updates = {"pretrain": 0, "S": 1, "T": 1, "KD": 1, "N": 1, "ST": 1}
    config = dataclasses.replace(small_pipeline_config(tmp_path), updates=updates)
    planned = plan_stages(config)[4]
    run_two_stage(config)
    recorded = json.load(open(tmp_path / "reports" / "U.json"))["decode_config"]
    assert planned["stage"] == "U'" and planned["decode"] == recorded


def test_full_run_emits_six_reports_with_artifacts(tmp_path):
    config = small_pipeline_config(tmp_path)
    reports = run_two_stage(config)
    assert [r.stage for r in reports] == ["S", "T", "KD", "N", "U'", "ST"]
    aliases = {r.stage: r.alias for r in reports}
    assert aliases == {
        "S": "S4", "T": "T4", "KD": "S5", "N": "N1", "U'": None, "ST": "S7",
    }
    for r in reports:
        assert os.path.exists(r.checkpoint)
        if r.stage != "U'":
            assert r.dev_token_error is not None
    summary = json.load(open(tmp_path / "reports" / "pipeline.json"))
    cons = summary["conservation"]
    assert cons["kd_consumed"] == cons["labeled"] + cons["unlabeled"]
    assert cons["pseudo_labeled"] + cons["pseudo_dropped"] == cons["unlabeled"]
    assert cons["st_consumed"] == cons["labeled"] + cons["pseudo_labeled"]
    assert summary["config_digest"] == config_digest(config)
    # U' decodes with the LM fused, and its report records that config
    assert reports[4].decode_config["lm"] == "attached"
    u_report = json.load(open(tmp_path / "reports" / "U.json"))
    assert u_report["decode_config"] == reports[4].decode_config


def test_rerun_is_bit_identical_across_directories(tmp_path):
    r1 = run_two_stage(small_pipeline_config(tmp_path / "a"))
    r2 = run_two_stage(small_pipeline_config(tmp_path / "b"))
    assert [r.digest for r in r1] == [r.digest for r in r2]


def test_resume_recomputes_only_from_missing_artifact(tmp_path):
    config = small_pipeline_config(tmp_path)
    first = run_two_stage(config)
    s_wall = first[0].wall_time_s
    os.remove(tmp_path / "checkpoints" / "KD.ckpt")
    second = run_two_stage(config)
    assert [r.digest for r in first] == [r.digest for r in second]
    # stages before KD were loaded, not retrained: their recorded wall
    # times come back unchanged from the stored reports
    assert second[0].wall_time_s == s_wall
    assert second[2].wall_time_s != first[2].wall_time_s


def test_resume_reuses_everything_when_all_artifacts_exist(tmp_path):
    config = small_pipeline_config(tmp_path)
    first = run_two_stage(config)
    second = run_two_stage(config)
    assert recomputed(tmp_path) == []
    assert len(first) == len(second) == 6
    # a fresh run and a resumed one return equal reports, field by field:
    # wall times, `extra`, `train_config` and `decode_config` included
    for a, b in zip(first, second):
        for f in dataclasses.fields(StageReport):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name == "losses":
                # a skipped update logs NaN, which equals no float
                np.testing.assert_array_equal(x, y, err_msg=a.stage)
            else:
                assert x == y, (a.stage, f.name)


def test_dry_run_depends_on_is_the_stage_table(tmp_path):
    plan = {p["stage"]: p["depends_on"] for p in plan_stages(small_pipeline_config(tmp_path))}
    assert plan["T"] == ["P", "S", "data"]
    assert plan["ST"] == ["KD", "U'", "data"]
    seen = set()
    for stage in STAGES:
        assert set(stage.reads) <= seen, stage.name
        seen.add(stage.name)
        if stage.name in plan:
            assert plan[stage.name] == list(stage.reads)


def test_every_config_field_feeds_an_input_key():
    named = {f.partition(".")[0] for stage in STAGES for f in stage.fields}
    config_fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert config_fields - {"out_dir", "resume"} <= named
    assert named <= config_fields


def test_input_keys_ignore_out_dir_and_resume(tmp_path):
    config = small_pipeline_config(tmp_path / "a")
    moved = dataclasses.replace(config, out_dir=str(tmp_path / "b"), resume=False)
    assert input_keys(moved) == input_keys(config)
    assert input_keys(dataclasses.replace(config, alpha=0.5)) != input_keys(config)


def resume_config(out_dir, **changes):
    """`small_pipeline_config` at four updates a stage: the resume tests
    compare which stages ran, not model quality."""
    updates = {"pretrain": 0, "S": 4, "T": 4, "KD": 4, "N": 4, "ST": 4}
    return dataclasses.replace(
        small_pipeline_config(out_dir), **{"updates": updates, **changes}
    )


def recomputed(out_dir):
    with open(out_dir / "reports" / "pipeline.json") as fh:
        return json.load(fh)["recomputed"]


def test_fresh_run_records_every_stage_as_recomputed(tmp_path):
    run_two_stage(resume_config(tmp_path))
    assert recomputed(tmp_path) == [stage.name for stage in STAGES]
    with open(tmp_path / "reports" / "inputs.json") as fh:
        assert json.load(fh) == input_keys(resume_config(tmp_path))
    run_two_stage(resume_config(tmp_path))
    assert recomputed(tmp_path) == []


def test_resume_after_alpha_change_recomputes_t_kd_st(tmp_path):
    first = {r.stage: r for r in run_two_stage(resume_config(tmp_path))}
    second = run_two_stage(resume_config(tmp_path, alpha=0.5))
    assert recomputed(tmp_path) == ["T", "KD", "ST"]
    for r in second:
        if r.stage in ("S", "N", "U'"):
            assert r.wall_time_s == first[r.stage].wall_time_s, r.stage
    fresh = run_two_stage(resume_config(tmp_path / "fresh", alpha=0.5))
    assert [r.digest for r in second] == [r.digest for r in fresh]
    assert second[1].extra["alpha"] == 0.5


def test_resume_after_st_updates_change_recomputes_only_st(tmp_path):
    run_two_stage(resume_config(tmp_path))
    updates = {"pretrain": 0, "S": 4, "T": 4, "KD": 4, "N": 4, "ST": 6}
    reports = run_two_stage(resume_config(tmp_path, updates=updates))
    assert recomputed(tmp_path) == ["ST"]
    assert len(reports[-1].losses) == 6


@pytest.mark.parametrize("pretrain", [0, 2])
def test_pretrain_updates_switch_the_contrastive_warm_up(tmp_path, pretrain):
    updates = {"pretrain": pretrain, "S": 4, "T": 4, "KD": 4, "N": 4, "ST": 4}
    config = resume_config(tmp_path, updates=updates)
    run_two_stage(config)
    start = load_checkpoint(tmp_path / "checkpoints" / "P.ckpt")
    init = init_params(config.encoder, config.seed)
    assert (checkpoint_digest(start) == checkpoint_digest(init)) == (pretrain == 0)
    with open(tmp_path / "reports" / "pipeline.json") as fh:
        assert json.load(fh)["pretrain_updates"] == pretrain


def test_resume_after_deleting_kd_checkpoint_recomputes_kd_and_st(tmp_path):
    config = resume_config(tmp_path)
    first = run_two_stage(config)
    os.remove(tmp_path / "checkpoints" / "KD.ckpt")
    second = run_two_stage(config)
    assert recomputed(tmp_path) == ["KD", "ST"]
    assert [r.digest for r in first] == [r.digest for r in second]


def test_workdir_without_input_keys_is_recomputed_once(tmp_path):
    config = resume_config(tmp_path)
    run_two_stage(config)
    os.remove(tmp_path / "reports" / "inputs.json")
    run_two_stage(config)
    assert recomputed(tmp_path) == [stage.name for stage in STAGES]
    run_two_stage(dataclasses.replace(config, resume=False))
    assert recomputed(tmp_path) == [stage.name for stage in STAGES]


def test_a_moved_workdir_resumes_with_reports_naming_its_checkpoints(tmp_path, monkeypatch):
    # the reports stored the checkpoint path the run was given, so after a
    # move every reused report named a file under the old directory; a
    # returned report names its checkpoint as the workdir is spelled
    monkeypatch.chdir(tmp_path)
    run_two_stage(resume_config("w"))
    os.rename("w", "moved")
    reports = run_two_stage(resume_config("./moved/"))
    assert recomputed(tmp_path / "moved") == []
    for r in reports:
        name = "N" if r.stage == "U'" else r.stage
        assert r.checkpoint == os.path.join("./moved/", "checkpoints", f"{name}.ckpt")
        assert os.path.exists(r.checkpoint), r.stage
        assert os.path.exists(load_stage_report("moved/reports", r.stage).checkpoint), r.stage
    for stage, checkpoint in (("S", "S"), ("U", "N")):
        with open(f"moved/reports/{stage}.json") as fh:
            assert json.load(fh)["checkpoint"] == f"checkpoints/{checkpoint}.ckpt"


def test_a_workdir_with_the_text_lm_recomputes_lm_u_and_st_once(tmp_path, monkeypatch):
    # before the LM was saved as JSON the lm row wrote lm.txt; the LM's
    # floats are the same, so U' and ST come out with the same bytes
    monkeypatch.chdir(tmp_path)
    config = resume_config("w")
    run_two_stage(config)
    kept = ("w/data/pseudo.bin", "w/checkpoints/ST.ckpt")
    before = [open(name, "rb").read() for name in kept]
    os.rename("w/lm.json", "w/lm.txt")
    reports = run_two_stage(config)
    assert recomputed(tmp_path / "w") == ["lm", "U'", "ST"]
    assert [open(name, "rb").read() for name in kept] == before
    assert reports[0].checkpoint == os.path.join("w", "checkpoints", "S.ckpt")


def test_a_workdir_with_pre_container_data_recomputes_every_stage_once(
    tmp_path, monkeypatch
):
    # before datasets moved into the checkpoints' container, data files had
    # the STCDSET1 layout under the same names and the data row's input key
    # held no format; the data's contents are the same, so every checkpoint
    # comes out with the same bytes
    from streamctc.pipeline import run as pipeline_run

    config = resume_config(tmp_path)
    run_two_stage(config)
    checkpoints = sorted((tmp_path / "checkpoints").glob("*.ckpt"))
    before = [p.read_bytes() for p in checkpoints]
    data = sorted((tmp_path / "data").glob("*.bin"))
    contents = [load_dataset(p) for p in data]
    for path, utts in zip(data, contents):
        path.write_bytes(_old_dataset_bytes(utts))
    with monkeypatch.context() as patch:
        patch.setattr(pipeline_run, "_FORMATS", {})
        old_keys = input_keys(config)
    (tmp_path / "reports" / "inputs.json").write_text(json.dumps(old_keys))
    run_two_stage(config)
    assert recomputed(tmp_path) == [stage.name for stage in STAGES]
    assert [p.read_bytes() for p in checkpoints] == before
    for path, utts in zip(data, contents):
        back = load_dataset(path)
        assert [(u.uid, u.text) for u in back] == [(u.uid, u.text) for u in utts]
        assert all(np.array_equal(a.features, b.features) for a, b in zip(back, utts))
    run_two_stage(config)
    assert recomputed(tmp_path) == []


def test_a_workdir_with_frame_rates_and_an_end_model_recomputes_every_stage_once(
    tmp_path, monkeypatch
):
    # datasets of version 2 held a frame_ms and lm.json of format 2 an
    # `ends` table, and only the data row's input key held a format; the
    # stored contents are otherwise the same, so every checkpoint and the
    # pseudo-labels come out the same
    from streamctc.pipeline import run as pipeline_run

    config = resume_config(tmp_path)
    run_two_stage(config)
    checkpoints = sorted((tmp_path / "checkpoints").glob("*.ckpt"))
    before = [p.read_bytes() for p in checkpoints]
    pseudo = [(u.uid, u.text) for u in load_dataset(tmp_path / "data" / "pseudo.bin")]
    for path in (tmp_path / "data").glob("*.bin"):
        utts = load_dataset(path)
        header = {"version": 2, "frame_ms": 20.0, "uids": [u.uid for u in utts],
                  "texts": [u.text for u in utts]}
        arrays = {u.uid: u.features for u in utts}
        path.write_bytes(container.pack(b"STCDSET2", header, arrays))
    lm_path = tmp_path / "lm.json"
    payload = json.loads(lm_path.read_text())
    old_lm = json.dumps({**payload, "format": 2, "ends": {ctx: -1.0 for ctx in payload["tokens"]}})

    def store_keys(formats):
        with monkeypatch.context() as patch:
            patch.setattr(pipeline_run, "_FORMATS", formats)
            keys = input_keys(config)
        (tmp_path / "reports" / "inputs.json").write_text(json.dumps(keys))

    lm_path.write_text(old_lm)
    store_keys({"data": 2})
    run_two_stage(config)
    assert recomputed(tmp_path) == [stage.name for stage in STAGES]
    assert [p.read_bytes() for p in checkpoints] == before
    assert [(u.uid, u.text) for u in load_dataset(tmp_path / "data" / "pseudo.bin")] == pseudo
    assert "ends" not in json.loads(lm_path.read_text())
    # the LM's own format is in its key, so the old LM beside current data
    # is rewritten too
    lm_path.write_text(old_lm)
    store_keys({"data": pipeline_run.DATASET_VERSION})
    run_two_stage(config)
    assert recomputed(tmp_path) == ["lm", "U'", "ST"]
    assert [p.read_bytes() for p in checkpoints] == before
    run_two_stage(config)
    assert recomputed(tmp_path) == []


def test_rows_hand_on_only_what_load_returns_and_see_only_their_reads(
    tmp_path, monkeypatch
):
    from streamctc.pipeline import run as pipeline_run

    calls, loaded, loaded_reports, trained = [], {}, [], {}

    def seen(step, stage, got):
        calls.append((step, stage.name, sorted(got)))
        for name, value in got.items():
            assert value is loaded[name], (step, stage.name, name)

    def spy(stage):
        def produce(run, paths):
            seen("produce", stage, run.got)
            assert stage.produce(run, paths) is None

        def load(run, paths):
            seen("load", stage, run.got)
            value, report = stage.load(run, paths)
            loaded[stage.name] = value
            if report is not None:
                loaded_reports.append(report)
            return value, report

        return dataclasses.replace(stage, produce=produce, load=load)

    def spy_trainer(name, trainer):
        def train(config, models, *rest):
            trained[name] = sorted(models)
            assert all(models[r] is loaded[r] for r in models), name
            return trainer(config, models, *rest)

        return train

    monkeypatch.setattr(pipeline_run, "STAGES", tuple(spy(s) for s in STAGES))
    for name, trainer in pipeline_run.TRAINERS.items():
        monkeypatch.setitem(pipeline_run.TRAINERS, name, spy_trainer(name, trainer))
    reads = {stage.name: sorted(stage.reads) for stage in STAGES}

    reports = run_two_stage(resume_config(tmp_path))
    # a fresh run loads each row once, right after producing it
    assert calls == [
        (step, stage.name, reads[stage.name])
        for stage in STAGES
        for step in ("produce", "load")
    ]
    assert all(a is b for a, b in zip(reports, loaded_reports, strict=True))
    assert trained == {name: reads[name] for name in pipeline_run.TRAINERS}

    calls.clear()
    loaded_reports.clear()
    reports = run_two_stage(resume_config(tmp_path))
    assert calls == [("load", stage.name, reads[stage.name]) for stage in STAGES]
    assert all(a is b for a, b in zip(reports, loaded_reports, strict=True))


def test_a_trainer_reading_a_stage_its_row_does_not_declare_fails(tmp_path, monkeypatch):
    from streamctc.pipeline import run as pipeline_run

    finetune_n = pipeline_run.TRAINERS["N"]

    def reads_s(config, models, *rest):
        models["S"]  # N's row reads P and data only
        return finetune_n(config, models, *rest)

    monkeypatch.setitem(pipeline_run.TRAINERS, "N", reads_s)
    with pytest.raises(KeyError, match="'S'"):
        run_two_stage(resume_config(tmp_path))


def test_stage_report_round_trip(tmp_path):
    init = init_params(TINY_ENC, 0)
    from streamctc.encoder import save_checkpoint

    ck = tmp_path / "S.ckpt"
    digest = save_checkpoint(init, ck)
    report = StageReport(
        stage="S",
        alias="S4",
        checkpoint=str(ck),
        digest=digest,
        losses=[3.0, 2.0, math.nan],
        dev_token_error=0.25,
        decode_config=None,
        train_config=quick_cfg(3).to_dict(),
        wall_time_s=1.5,
        utterances_in=6,
        skipped=1,
        extra={"alpha": 0.1},
    )
    save_stage_report(report, tmp_path)
    back = load_stage_report(tmp_path, "S")
    assert back.stage == "S" and back.digest == digest
    assert back.losses[:2] == [3.0, 2.0] and math.isnan(back.losses[2])
    assert back.extra == {"alpha": 0.1}
    assert back.wall_time_s == 1.5


def test_stage_report_requires_existing_checkpoint(tmp_path):
    report = StageReport(
        stage="S",
        alias="S4",
        checkpoint=str(tmp_path / "missing.ckpt"),
        digest="0" * 64,
        losses=[],
        dev_token_error=None,
        decode_config=None,
        train_config=None,
        wall_time_s=0.0,
        utterances_in=0,
        skipped=0,
    )
    with pytest.raises(MissingArtifactError):
        save_stage_report(report, tmp_path)


def test_pipeline_config_round_trip(tmp_path):
    config = small_pipeline_config(tmp_path)
    back = PipelineConfig.from_dict(config.to_dict())
    assert back.to_dict() == config.to_dict()
    assert config_digest(back) == config_digest(config)
