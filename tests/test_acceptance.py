"""Acceptance gate: one printed verdict line per criterion.

Each test prints "PASS criterion N: ..." with the measured numbers, or
"FAIL criterion N: ..." before re-raising, so the gate is readable straight
off a captured pytest run. The oracles behind criteria 1-3, 5-7 and 10 are
the functions in `streamctc.checks` that `streamctc selfcheck` also runs.
"""

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np

from streamctc import checks
from streamctc.cli import dispatch
from streamctc.encoder import (
    EncoderConfig,
    forward,
    init_params,
    load_checkpoint,
)
from streamctc.losses import frame_agreement
from streamctc.masking import MaskSpec, reception_field
from streamctc.pipeline import (
    PipelineConfig,
    dev_posteriors,
    load_dataset,
    run_two_stage,
)


@contextmanager
def verdict(capsys, number: int, title: str):
    """Yield a dict; fill info["detail"] before leaving the block."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {title}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {title} {info['detail']}".rstrip(), flush=True)


# ------------------------------------------------- 1: reference latencies


def test_criterion_01_reference_latencies(capsys):
    with verdict(capsys, 1, "four reference configs at 480 ms") as info:
        start = time.perf_counter()
        values = checks.reference_latencies()
        wall = time.perf_counter() - start
        assert values == [480.0, 480.0, 480.0, 480.0]
        assert wall < 1.0
        info["detail"] = f"(EIL {values} ms, {wall:.3f} s)"


# --------------------------------------------------- 2: CTC oracle match


def test_criterion_02_ctc_matches_brute_force(capsys):
    rng = np.random.default_rng(20)
    with verdict(capsys, 2, "ctc_loss vs brute force on 200 instances") as info:
        start = time.perf_counter()
        worst = checks.ctc_brute_force_error(rng, 200)
        wall = time.perf_counter() - start
        assert worst <= 1e-10
        assert wall < 30.0
        info["detail"] = f"(worst |diff| {worst:.3g}, {wall:.2f} s)"


# ------------------------------------------------------ 3: gradient suite


def test_criterion_03_gradient_suite(capsys):
    with verdict(capsys, 3, "analytic gradients vs central differences") as info:
        start = time.perf_counter()
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            for check in checks.GRADIENT_CHECKS:
                worst = max(worst, check(rng))
        worst = max(worst, checks.encoder_gradient_error(0, 10))
        wall = time.perf_counter() - start
        assert worst <= 1e-5
        assert wall < 120.0
        info["detail"] = f"(100 seeds, worst rel err {worst:.3g}, {wall:.1f} s)"


# ------------------------------------------------- 4: lookahead causality


def test_criterion_04_lookahead_causality(capsys):
    config = EncoderConfig(
        n_layers=3, model_dim=8, n_heads=2, ffn_dim=12,
        vocab_size=6, feature_dim=3, frontend_kernel=2,
    )
    specs = (
        MaskSpec(variant="time_restricted", right_frames=1),
        MaskSpec(variant="chunk", chunk_frames=3),
        MaskSpec(variant="block", chunk_frames=3, future_frames=2),
    )
    n_frames = 9
    with verdict(capsys, 4, "per-frame reception field is exact") as info:
        start = time.perf_counter()
        boundary_pairs = 0
        beyond_pairs = 0
        for spec in specs:
            field = reception_field(spec, config.n_layers, n_frames)
            for seed in range(10):
                params = init_params(config, seed + 40)
                rng = np.random.default_rng(seed + 400)
                x = rng.normal(size=(n_frames, config.feature_dim))
                base = forward(params, x, spec).posteriorgram
                for j in range(n_frames):
                    bumped = x.copy()
                    bumped[j] += 1.5
                    out = forward(params, bumped, spec).posteriorgram
                    for t in range(n_frames):
                        if field.latest[t] < j:
                            assert np.array_equal(base[t], out[t]), (spec.variant, t, j)
                            beyond_pairs += 1
                        elif field.latest[t] == j:
                            assert not np.array_equal(base[t], out[t]), (spec.variant, t, j)
                            boundary_pairs += 1
        wall = time.perf_counter() - start
        assert wall < 120.0
        info["detail"] = (
            f"(3 variants x 10 models, {beyond_pairs} beyond-field rows identical,"
            f" {boundary_pairs} boundary rows changed, {wall:.1f} s)"
        )


# ---------------------------------------------- 5: degenerate equivalence


def test_criterion_05_degenerate_masks(capsys):
    n_frames = 7
    with verdict(capsys, 5, "wide chunk and block equal bidirectional") as info:
        worst = checks.degenerate_mask_error(0, 10, n_frames)
        assert worst == 0.0
        checked = 10 * len(checks.degenerate_specs(n_frames))
        info["detail"] = f"({checked} bit-identical posteriorgrams)"


# ------------------------------------------------- 6: guided-loss identity


def test_criterion_06_guided_loss_identity(capsys):
    rng = np.random.default_rng(60)
    with verdict(capsys, 6, "guided loss decomposes exactly") as info:
        worst = checks.guided_identity_residual(rng, 20)
        assert worst <= 1e-12
        info["detail"] = f"(alpha {checks.GUIDE_ALPHAS}, worst |residual| {worst:.3g})"


# ----------------------------------------------------- 7: beam-search sanity


def test_criterion_07_beam_search_sanity(capsys):
    rng = np.random.default_rng(70)
    with verdict(capsys, 7, "beam search agrees with greedy and exhaustive") as info:
        assert checks.beam_greedy_mismatches(rng, 100) == 0
        assert checks.beam_exhaustive_error(rng, 12) <= 1e-9
        assert checks.beam_monotone_drop(rng, 10) <= 1e-12
        info["detail"] = "(beam-1 == greedy x100, exhaustive match x12, monotone x10)"


# --------------------------------------------- 8: end-to-end directional


def _pipeline_outcome(seed, out_dir):
    config = PipelineConfig(
        out_dir=out_dir,
        seed=seed,
        n_symbols=3,
        noise_std=0.5,
        frames_per_token=(2, 4),
        text_len=(2, 6),
        sizes=(16, 40, 16),
        encoder=EncoderConfig(
            n_layers=2, model_dim=16, n_heads=2, ffn_dim=24,
            vocab_size=29, feature_dim=6, frontend_kernel=3,
        ),
        stream=MaskSpec(variant="block", chunk_frames=2, future_frames=1),
        alpha=0.01,
        peak_lr=2e-3,
        batch_size=4,
        updates={"pretrain": 0, "S": 800, "T": 800, "KD": 400, "N": 800, "ST": 800},
    )
    reports = {r.stage: r for r in run_two_stage(config)}
    dev = load_dataset(f"{out_dir}/data/dev.bin")
    post = {}
    for stage in ("S", "T", "KD"):
        params = load_checkpoint(
            f"{out_dir}/checkpoints/{stage}.ckpt", expect_config=config.encoder
        )
        post[stage] = dev_posteriors(params, dev)
    agree = {
        s: float(np.mean([frame_agreement(a, b) for a, b in zip(post[s], post["T"])]))
        for s in ("S", "KD")
    }
    return {
        "S": reports["S"].dev_token_error,
        "KD": reports["KD"].dev_token_error,
        "ST": reports["ST"].dev_token_error,
        "agS": agree["S"],
        "agKD": agree["KD"],
    }


def test_criterion_08_two_stage_direction(capsys, tmp_path):
    with verdict(capsys, 8, "two-stage pipeline improves the streaming model") as info:
        start = time.perf_counter()
        seeds = (0, 1, 2)
        outcomes = [_pipeline_outcome(s, str(tmp_path / f"run{s}")) for s in seeds]
        wall = time.perf_counter() - start
        flips = sum(o["KD"] > o["S"] for o in outcomes)
        flips += sum(o["ST"] > o["KD"] for o in outcomes)
        parts = []
        for seed, o in zip(seeds, outcomes):
            parts.append(
                f"seed{seed} S={o['S']:.3f} KD={o['KD']:.3f} ST={o['ST']:.3f}"
                f" agree(KD,T)={o['agKD']:.3f}>agree(S,T)={o['agS']:.3f}"
            )
        assert flips <= 1, outcomes
        for o in outcomes:
            assert o["agKD"] > o["agS"], outcomes
        assert wall < 600.0
        info["detail"] = f"({'; '.join(parts)}; flipped pairs {flips}/6, {wall:.0f} s)"


# ----------------------------------------------------------- 9: determinism


def _train_everything(root, capsys):
    root.mkdir(parents=True, exist_ok=True)
    cfg_payload = {
        "out_dir": str(root / "pipe"),
        "seed": 9,
        "n_symbols": 3,
        "noise_std": 0.3,
        "frames_per_token": [2, 3],
        "text_len": [2, 5],
        "sizes": [8, 6, 4],
        "encoder": {
            "n_layers": 2, "model_dim": 16, "n_heads": 2, "ffn_dim": 24,
            "vocab_size": 29, "feature_dim": 6, "frontend_kernel": 3,
        },
        "stream": {"variant": "block", "chunk_frames": 3, "future_frames": 1},
        "updates": {"pretrain": 0, "S": 6, "T": 6, "KD": 4, "N": 6, "ST": 6},
        "peak_lr": 0.002,
        "batch_size": 3,
    }
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(cfg_payload))
    cfg = str(cfg)
    labeled = str(root / "data" / "labeled.bin")
    unlabeled = str(root / "data" / "unlabeled.bin")
    steps = (
        ("gen-data", "--config", cfg, "--out-dir", str(root / "data")),
        ("finetune", "--config", cfg, "--data", labeled,
         "--mask", "stream", "--out", str(root / "S.ckpt")),
        ("finetune", "--config", cfg, "--data", labeled,
         "--mask", "bidirectional", "--out", str(root / "N.ckpt")),
        ("guided-teacher", "--config", cfg, "--data", labeled,
         "--streaming", str(root / "S.ckpt"), "--out", str(root / "T.ckpt")),
        ("distill", "--config", cfg, "--data", labeled,
         "--teacher", str(root / "T.ckpt"), "--head-from", str(root / "S.ckpt"),
         "--out", str(root / "KD.ckpt")),
        ("pseudo-label", "--config", cfg, "--model", str(root / "N.ckpt"),
         "--data", unlabeled, "--beam", "2", "--lm-weight", "0", "--penalty", "0",
         "--out", str(root / "pseudo.bin")),
        ("self-train", "--config", cfg, "--init", str(root / "KD.ckpt"),
         "--data", labeled, "--pseudo", str(root / "pseudo.bin"),
         "--out", str(root / "ST.ckpt")),
        ("pipeline", "--config", cfg),
    )
    for argv in steps:
        code = dispatch(list(argv))
        capsys.readouterr()
        assert code == 0, argv[0]
    digests = {}
    for name in ("S", "N", "T", "KD", "ST"):
        digests[name] = hashlib.sha256((root / f"{name}.ckpt").read_bytes()).hexdigest()
    for name in ("S", "T", "KD", "N", "ST"):
        path = root / "pipe" / "checkpoints" / f"{name}.ckpt"
        digests[f"pipeline/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_09_training_determinism(capsys, tmp_path):
    with verdict(capsys, 9, "fixed seed reproduces every checkpoint") as info:
        first = _train_everything(tmp_path / "a", capsys)
        second = _train_everything(tmp_path / "b", capsys)
        assert first == second
        # the CLI stage commands train what the pipeline trains
        for name in ("S", "N", "T"):
            assert first[name] == first[f"pipeline/{name}"], name
        info["detail"] = f"({len(first)} checkpoint digests identical across two runs)"


# ------------------------------------------------------------ 10: round-trips


def test_criterion_10_round_trips(capsys, tmp_path):
    with verdict(capsys, 10, "checkpoint, lm, and dataset round-trip") as info:
        assert checks.round_trip_failures(tmp_path) == []
        info["detail"] = (
            "(checkpoint bytes, lm bytes and scores, dataset contents,"
            f" {len(checks.DATASET_CORRUPTIONS)} dataset corruptions rejected)"
        )
