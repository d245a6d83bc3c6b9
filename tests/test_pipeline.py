"""Synthetic data, optimizer, training stages, and the six-stage run."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from streamctc.ctc import DecodeConfig, UnsatisfiableTargetError
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
from streamctc.vocab import Vocabulary

VOCAB = Vocabulary.default()
TINY_ENC = EncoderConfig(
    n_layers=2,
    model_dim=16,
    n_heads=2,
    ffn_dim=24,
    vocab_size=29,
    feature_dim=6,
    frontend_norm="bn",
    frontend_conv="causal",
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
    task = tiny_task()
    split = generate_dataset(task, (5, 3, 2))
    path = tmp_path / "set.bin"
    save_dataset(split.labeled, path)
    back = load_dataset(path)
    assert len(back) == 5
    for a, b in zip(split.labeled, back):
        assert a.uid == b.uid and a.text == b.text
        assert np.array_equal(a.features, b.features)
        assert a.frame_ms == b.frame_ms

    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob[:-9])
    with pytest.raises(DatasetFormatError):
        load_dataset(bad)
    bad.write_bytes(b"NOTADSET" + blob[8:])
    with pytest.raises(DatasetFormatError):
        load_dataset(bad)
    bad.write_bytes(blob + b"x")
    with pytest.raises(DatasetFormatError):
        load_dataset(bad)


def test_container_with_non_finite_features_is_rejected(tmp_path):
    feats = np.zeros((3, 2))
    feats[1, 0] = np.nan
    path = tmp_path / "nan.bin"
    save_dataset((Utterance(uid="ok", features=np.ones((2, 2))),
                  Utterance(uid="bad", features=feats)), path)
    with pytest.raises(DatasetFormatError, match="'bad'"):
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
        TrainConfig(
            peak_lr=1e-3, total_updates=1, batch_size=1, seed=0,
            warmup_frac=0.7, constant_frac=0.4,
        )
    for name in ("peak_lr", "warmup_frac", "constant_frac", "eps"):
        with pytest.raises(ValueError):
            TrainConfig(**{"peak_lr": 1e-3, "total_updates": 1, name: math.nan})


def test_adam_zero_gradient_from_fresh_state_keeps_params():
    params = np.array([1.0, -2.0])
    new, state2 = adam_step(params, np.zeros(2), AdamState.fresh(params), lr=0.1)
    assert np.array_equal(new, params)
    assert state2.t == 1


def test_adam_moments_decay_on_zero_gradient():
    params = np.array([1.0, -2.0])
    state = AdamState(m=np.array([0.5, 0.5]), v=np.array([0.2, 0.2]), t=3)
    _, state2 = adam_step(params, np.zeros(2), state, lr=0.1)
    assert np.allclose(state2.m, 0.9 * 0.5)
    assert np.allclose(state2.v, 0.999 * 0.2)
    assert state2.t == 4


def test_adam_first_step_moves_by_lr():
    rng = np.random.default_rng(0)
    g = rng.normal(size=5)
    params = np.zeros(5)
    new, _ = adam_step(params, g, AdamState.fresh(params), lr=0.01)
    want = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(new, want, atol=1e-9)


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
        cur, state = adam_step(cur, grads, state, lr, beta1=b1, beta2=b2, eps=eps)
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

    def objective(label, trace, cache):
        seen.append(label)
        loss, d = ctc_loss(trace.posteriorgram, label)
        return loss, {"grad_logpost": d}

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


@pytest.mark.parametrize(
    "stage", ["finetune_ctc", "train_guided_teacher", "pretrain_contrastive"]
)
@pytest.mark.parametrize("norm", ["gn", "bn"])
def test_unusable_utterances_train_like_the_usable_subset(monkeypatch, norm, stage):
    from streamctc.pipeline import stages

    enc = dataclasses.replace(TINY_ENC, frontend_norm=norm)
    usable = list(data_fixture().labeled)
    rng = np.random.default_rng(5)
    # uids that sort between the usable ones; contrastive pairs need two
    # frames, the CTC stages a label that fits its frames
    if stage == "pretrain_contrastive":
        shapes = {"L0001a": ((1, 6), "a"), "L0004a": ((1, 6), "ab")}
    else:
        shapes = {"L0001a": ((2, 6), "abcabc"), "L0004a": ((2, 6), "aa")}
    unusable = [
        Utterance(uid=uid, features=rng.normal(size=shape), text=text)
        for uid, (shape, text) in shapes.items()
    ]
    updates = 3

    def train(data):
        init = init_params(enc, 0)
        cfg = quick_cfg(updates, batch=len(usable) + len(unusable), lr=1e-2)
        if stage == "finetune_ctc":
            return stages.finetune_ctc(init, STREAM, data, cfg)
        if stage == "train_guided_teacher":
            streaming = init_params(enc, 1)
            streaming.mask_spec = STREAM
            return stages.train_guided_teacher(init, streaming, data, 0.5, cfg)
        return stages.pretrain_contrastive(init, data, cfg)

    seen = []
    for name in ("forward", "forward_with_cache"):
        def spy(params, features, *args, _original=getattr(stages, name), **kwargs):
            seen.append(features)
            return _original(params, features, *args, **kwargs)

        monkeypatch.setattr(stages, name, spy)

    model, log = train(usable + unusable)
    assert seen and not any(f is u.features for f in seen for u in unusable)
    reference, ref_log = train(usable)
    assert log.skipped == updates * len(unusable) and ref_log.skipped == 0
    assert log.losses == ref_log.losses
    assert model.flat.tobytes() == reference.flat.tobytes()
    if norm == "bn":
        assert model.bn_stats.mean.tobytes() == reference.bn_stats.mean.tobytes()
        assert model.bn_stats.var.tobytes() == reference.bn_stats.var.tobytes()
    else:
        assert model.bn_stats is None and reference.bn_stats is None


def test_run_two_stage_rejects_jobs_below_one_before_writing(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_two_stage(PipelineConfig(out_dir=str(out)), jobs=0)
    assert not out.exists()


def test_finetune_all_unsatisfiable_is_an_error():
    bad = [Utterance(uid=f"B{i}", features=np.zeros((1, 6)), text="abc") for i in range(3)]
    init = init_params(TINY_ENC, 0)
    with pytest.raises(UnsatisfiableTargetError):
        finetune_ctc(init, STREAM, bad, quick_cfg(5))
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


# -------------------------------------------------------------- pseudo-label


def test_pseudo_label_empty_set():
    init = init_params(TINY_ENC, 0)
    kept, dropped = pseudo_label(init, None, (), DecodeConfig(beam_size=4))
    assert kept == () and dropped == 0


def test_pseudo_label_conservation():
    split = data_fixture(sizes=(4, 6, 2))
    init = init_params(TINY_ENC, 0)
    init.mask_spec = BIDI
    kept, dropped = pseudo_label(init, None, split.unlabeled, DecodeConfig(beam_size=4))
    assert len(kept) + dropped == 6


def test_pseudo_labels_match_hidden_references_on_separable_task():
    split = generate_dataset(tiny_task(noise=0.0, seed=5), (12, 6, 4))
    init = init_params(TINY_ENC, 0)
    model, log = finetune_ctc(
        init, BIDI, split.labeled, quick_cfg(250, seed=3, lr=3e-3), dev=split.dev
    )
    assert log.dev_token_error == 0.0
    kept, dropped = pseudo_label(model, None, split.unlabeled, DecodeConfig(beam_size=4))
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
    assert log1.extra["mode"] == "contrastive"


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
    plan = run_two_stage(small_pipeline_config(tmp_path), dry_run=True)
    assert [p["stage"] for p in plan] == ["S", "T", "KD", "N", "U'", "ST"]
    assert all("depends_on" in p and "updates" in p for p in plan)
    assert plan[4]["decode"]["beam_size"] == 8
    assert not any((tmp_path / d).exists() for d in ("checkpoints", "reports"))


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
    assert [r.wall_time_s for r in first] == [r.wall_time_s for r in second]


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
