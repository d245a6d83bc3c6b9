"""Command-line behavior: exit codes, flag handling, output channels."""

import json
import math
import os

import numpy as np
import pytest

from streamctc.cli import dispatch
from streamctc.encoder import EncoderConfig
from streamctc.masking import MaskSpec, build_mask
from streamctc.pipeline import load_dataset

ENC = {
    "n_layers": 2,
    "model_dim": 16,
    "n_heads": 2,
    "ffn_dim": 24,
    "vocab_size": 29,
    "feature_dim": 6,
    "frontend_kernel": 3,
}


@pytest.fixture()
def workdir(tmp_path):
    cfg = {
        "out_dir": str(tmp_path),
        "seed": 3,
        "n_symbols": 3,
        "noise_std": 0.3,
        "frames_per_token": [2, 3],
        "text_len": [2, 5],
        "sizes": [8, 6, 4],
        "encoder": ENC,
        "stream": {"variant": "block", "chunk_frames": 3, "future_frames": 1},
        "updates": {"pretrain": 0, "S": 12, "T": 12, "KD": 8, "N": 12, "ST": 12},
        "peak_lr": 0.002,
        "batch_size": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return tmp_path, str(path)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- latency


def test_latency_block_reference_config(capsys):
    code, out, err = run(
        capsys,
        "latency", "--variant", "block", "--chunk-ms", "240", "--future-ms", "360",
    )
    assert code == 0
    assert "EIL 480 ms" in out
    assert "config digest" in err


def test_latency_time_restricted_reference_config(capsys):
    code, out, _ = run(
        capsys,
        "latency", "--variant", "time_restricted",
        "--right-frames", "2", "--layers", "12",
    )
    assert code == 0
    assert "EIL 480 ms" in out


def test_latency_machine_output_only_via_out(capsys, tmp_path):
    out_path = tmp_path / "lat.tsv"
    code, out, _ = run(
        capsys,
        "latency", "--variant", "chunk", "--chunk-ms", "960",
        "--out", str(out_path),
    )
    assert code == 0
    body = out_path.read_text().splitlines()
    assert body[0].startswith("variant\t")
    assert body[1].split("\t")[0] == "chunk"
    assert "\teil_ms" in body[0]


def test_latency_usage_errors(capsys):
    assert run(capsys, "latency", "--variant", "bogus")[0] == 1
    assert run(capsys, "latency", "--variant", "chunk")[0] == 1
    assert run(capsys, "latency", "--variant", "chunk", "--chunk-ms", "250")[0] == 1
    assert run(
        capsys,
        "latency", "--variant", "chunk", "--chunk-ms", "240", "--nope", "1",
    )[0] == 1


def test_mask_dump_grid_matches_build_mask(capsys):
    code, out, _ = run(
        capsys,
        "mask-dump", "--variant", "chunk", "--chunk-frames", "2", "--frames", "4",
    )
    assert code == 0
    grid = [l for l in out.splitlines() if set(l) <= {"#", "."} and l]
    mask = build_mask(MaskSpec(variant="chunk", chunk_frames=2), 4)
    want = ["".join("#" if x else "." for x in row) for row in mask.allowed]
    assert grid == want


# ---------------------------------------------------------------- data + lm


def test_gen_data_writes_loadable_containers(capsys, workdir):
    tmp, cfg = workdir
    out_dir = tmp / "data"
    code, out, err = run(
        capsys, "gen-data", "--config", cfg, "--out-dir", str(out_dir)
    )
    assert code == 0
    assert "config digest" in err
    labeled = load_dataset(out_dir / "labeled.bin")
    assert len(labeled) == 8
    assert len(load_dataset(out_dir / "unlabeled.bin")) == 6
    assert len(load_dataset(out_dir / "dev.bin")) == 4


def test_gen_data_same_seed_same_bytes(capsys, workdir):
    tmp, cfg = workdir
    run(capsys, "gen-data", "--config", cfg, "--out-dir", str(tmp / "a"))
    run(capsys, "gen-data", "--config", cfg, "--out-dir", str(tmp / "b"))
    for name in ("labeled.bin", "unlabeled.bin", "dev.bin"):
        assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()


def test_config_dir_env_var(capsys, workdir, monkeypatch):
    tmp, cfg = workdir
    cfg_dir = tmp / "configs"
    cfg_dir.mkdir()
    os.rename(cfg, cfg_dir / "task.json")
    code, *_ = run(
        capsys, "gen-data", "--config", "task.json", "--out-dir", str(tmp / "x")
    )
    assert code == 1
    monkeypatch.setenv("STREAMCTC_CONFIG_DIR", str(cfg_dir))
    code, *_ = run(
        capsys, "gen-data", "--config", "task.json", "--out-dir", str(tmp / "x")
    )
    assert code == 0


def test_train_lm_round_trip_and_determinism(capsys, workdir):
    tmp, cfg = workdir
    run(capsys, "gen-data", "--config", cfg, "--out-dir", str(tmp / "data"))
    data = str(tmp / "data" / "labeled.bin")
    code, out, _ = run(
        capsys, "train-lm", "--config", cfg, "--data", data,
        "--out", str(tmp / "l1.txt"),
    )
    assert code == 0
    assert "model digest" in out
    run(
        capsys, "train-lm", "--config", cfg, "--data", data,
        "--out", str(tmp / "l2.txt"),
    )
    assert (tmp / "l1.txt").read_bytes() == (tmp / "l2.txt").read_bytes()


# ------------------------------------------------------------- train stages


@pytest.fixture()
def trained(capsys, workdir):
    tmp, cfg = workdir
    run(capsys, "gen-data", "--config", cfg, "--out-dir", str(tmp / "data"))
    labeled = str(tmp / "data" / "labeled.bin")
    code, *_ = run(
        capsys,
        "finetune", "--config", cfg, "--data", labeled,
        "--mask", "stream", "--out", str(tmp / "S.ckpt"),
    )
    assert code == 0
    return tmp, cfg, labeled


def test_finetune_seed_reproduces_bytes(capsys, trained):
    tmp, cfg, labeled = trained
    for name in ("r1.ckpt", "r2.ckpt"):
        code, *_ = run(
            capsys,
            "finetune", "--config", cfg, "--data", labeled, "--mask", "stream",
            "--updates", "6", "--seed", "11", "--out", str(tmp / name),
        )
        assert code == 0
    assert (tmp / "r1.ckpt").read_bytes() == (tmp / "r2.ckpt").read_bytes()


def test_flags_override_config(capsys, trained):
    tmp, cfg, labeled = trained
    report = tmp / "rep.json"
    code, out, _ = run(
        capsys,
        "finetune", "--config", cfg, "--data", labeled, "--mask", "stream",
        "--updates", "4", "--out", str(tmp / "o.ckpt"),
        "--report", str(report),
    )
    assert code == 0
    assert "updates 4" in out
    payload = json.loads(report.read_text())
    assert payload["config"]["train"]["total_updates"] == 4
    assert payload["config_digest"]
    assert payload["checkpoint_digest"]


def test_train_prints_the_mask_left_limit(capsys, trained):
    tmp, cfg, labeled = trained
    argv = ("finetune", "--data", labeled, "--mask", "stream", "--updates", "1")
    code, out, _ = run(capsys, *argv, "--config", cfg, "--out", str(tmp / "a.ckpt"))
    assert code == 0
    assert "stage S  mask block C=3 F=1  updates 1" in out
    limited = json.loads(open(cfg).read())
    limited["stream"]["left_limit"] = 2
    cfg_l = tmp / "limited.json"
    cfg_l.write_text(json.dumps(limited))
    code, out, _ = run(
        capsys, *argv, "--config", str(cfg_l), "--out", str(tmp / "b.ckpt")
    )
    assert code == 0
    assert "stage S  mask block C=3 F=1 L=2  updates 1" in out


def test_remaining_stage_commands_chain(capsys, trained):
    tmp, cfg, labeled = trained
    s = str(tmp / "S.ckpt")
    code, out, _ = run(
        capsys,
        "guided-teacher", "--config", cfg, "--data", labeled,
        "--streaming", s, "--alpha", "0.01", "--out", str(tmp / "T.ckpt"),
    )
    assert code == 0 and "alpha 0.01" in out
    code, *_ = run(
        capsys,
        "finetune", "--config", cfg, "--data", labeled,
        "--mask", "bidirectional", "--out", str(tmp / "N.ckpt"),
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "distill", "--config", cfg, "--data", labeled,
        "--teacher", str(tmp / "T.ckpt"), "--head-from", s,
        "--out", str(tmp / "KD.ckpt"),
    )
    assert code == 0
    unlabeled = str(tmp / "data" / "unlabeled.bin")
    code, out, _ = run(
        capsys,
        "pseudo-label", "--config", cfg, "--model", str(tmp / "N.ckpt"),
        "--data", unlabeled, "--beam", "2", "--lm-weight", "0", "--penalty", "0",
        "--out", str(tmp / "pseudo.bin"),
    )
    assert code == 0
    kept = [int(p.split()[1]) for p in out.splitlines() if p.startswith("utterances")]
    code, *_ = run(
        capsys,
        "self-train", "--config", cfg, "--init", str(tmp / "KD.ckpt"),
        "--data", labeled, "--pseudo", str(tmp / "pseudo.bin"),
        "--out", str(tmp / "ST.ckpt"),
    )
    assert code == 0
    assert (tmp / "ST.ckpt").exists()
    assert kept == [6]


def test_pseudo_label_jobs_do_not_change_bytes(capsys, trained):
    tmp, cfg, labeled = trained
    unlabeled = str(tmp / "data" / "unlabeled.bin")
    for name, jobs in (("pa.bin", "1"), ("pb.bin", "2")):
        code, *_ = run(
            capsys,
            "pseudo-label", "--config", cfg, "--model", str(tmp / "S.ckpt"),
            "--data", unlabeled, "--beam", "2", "--jobs", jobs,
            "--out", str(tmp / name),
        )
        assert code == 0
    assert (tmp / "pa.bin").read_bytes() == (tmp / "pb.bin").read_bytes()


# ------------------------------------------------------------------ decode


def test_decode_beam_one_equals_greedy(capsys, trained):
    tmp, cfg, labeled = trained
    s = str(tmp / "S.ckpt")
    dev = str(tmp / "data" / "dev.bin")
    code, greedy_out, _ = run(capsys, "decode", "--model", s, "--data", dev, "--greedy")
    assert code == 0
    code, beam_out, _ = run(
        capsys, "decode", "--model", s, "--data", dev, "--beam", "1"
    )
    assert code == 0
    assert greedy_out == beam_out
    assert greedy_out.startswith("uid\ttext\n")


def test_decode_usage_and_runtime_errors(capsys, trained):
    tmp, cfg, labeled = trained
    s = str(tmp / "S.ckpt")
    dev = str(tmp / "data" / "dev.bin")
    assert run(
        capsys, "decode", "--model", s, "--data", dev, "--greedy", "--beam", "1"
    )[0] == 1
    assert run(
        capsys, "decode", "--model", s, "--data", dev, "--greedy", "--lm", "x"
    )[0] == 1
    assert run(
        capsys, "decode", "--model", str(tmp / "nope.ckpt"), "--data", dev, "--greedy"
    )[0] == 2


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--beam", "0", "beam_size"),
        ("--lm-weight", "nan", "lm_weight"),
        ("--penalty", "inf", "word_insertion_penalty"),
    ],
)
def test_decode_bad_scoring_flag_is_a_usage_error(capsys, tmp_path, flag, value, field):
    code, out, err = run(
        capsys, "decode", "--model", str(tmp_path / "nope.ckpt"),
        "--data", str(tmp_path / "nope.bin"), flag, value,
    )
    assert code == 1
    assert field in err
    assert "config digest" not in err
    assert out == ""


def test_decode_out_tsv_scores(capsys, trained, tmp_path):
    tmp, cfg, labeled = trained
    out = tmp_path / "hyp.tsv"
    code, *_ = run(
        capsys,
        "decode", "--model", str(tmp / "S.ckpt"),
        "--data", str(tmp / "data" / "dev.bin"),
        "--beam", "2", "--out", str(out),
    )
    assert code == 0
    for line in out.read_text().splitlines():
        parts = line.split("\t")
        assert len(parts) == 5
        float(parts[2]), float(parts[3]), float(parts[4])


# ------------------------------------------------------------------- score


def test_score_known_values(capsys, trained, tmp_path):
    tmp, cfg, labeled = trained
    data = load_dataset(labeled)
    hyp = tmp_path / "hyp.tsv"
    lines = []
    for i, utt in enumerate(data):
        lines.append(f"{utt.uid}\t{utt.text if i else 'zzz'}")
    hyp.write_text("\n".join(lines) + "\n")
    out_json = tmp_path / "m.json"
    code, out, _ = run(
        capsys,
        "score", "--data", labeled, "--hyp", str(hyp), "--out", str(out_json),
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    ref0 = data[0].text
    import streamctc.ctc as ctc

    want_char = ctc.edit_distance(ref0, "zzz")
    assert payload["char_errors"] == want_char
    assert payload["char_total"] == sum(len(u.text) for u in data)
    assert payload["missing"] == 0
    assert f"{payload['cer']:.4f}" in out


def test_score_rejects_unknown_uid(capsys, trained, tmp_path):
    tmp, cfg, labeled = trained
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("NOSUCH\tabc\n")
    assert run(capsys, "score", "--data", labeled, "--hyp", str(hyp))[0] == 2


# -------------------------------------------------------------- posteriors


def test_posteriors_csv_export(capsys, trained, tmp_path):
    tmp, cfg, labeled = trained
    data = load_dataset(labeled)
    out = tmp_path / "post.csv"
    code, stdout, _ = run(
        capsys,
        "posteriors", "--model", str(tmp / "S.ckpt"), "--data", labeled,
        "--uid", data[0].uid, "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("frame,")
    assert len(lines) == 1 + data[0].n_frames
    assert len(lines[1].split(",")) == 1 + ENC["vocab_size"]
    assert data[0].uid in stdout


def test_posteriors_out_requires_uid(capsys, trained, tmp_path):
    tmp, cfg, labeled = trained
    code, *_ = run(
        capsys,
        "posteriors", "--model", str(tmp / "S.ckpt"), "--data", labeled,
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1


# ---------------------------------------------------------------- pipeline


def test_pipeline_dry_run_lists_stages_without_training(capsys, workdir):
    tmp, cfg = workdir
    code, out, _ = run(
        capsys, "pipeline", "--config", cfg, "--workdir", str(tmp / "run"),
        "--dry-run",
    )
    assert code == 0
    stages = [l.split()[0] for l in out.splitlines()[1:] if l.strip()]
    assert stages == ["S", "T", "KD", "N", "U'", "ST"]
    assert not (tmp / "run").exists()


def test_pipeline_full_run_and_resume(capsys, workdir):
    tmp, cfg = workdir
    code, first, _ = run(
        capsys, "pipeline", "--config", cfg, "--workdir", str(tmp / "run")
    )
    assert code == 0
    for stage in ("S", "T", "KD", "N", "U", "ST"):
        assert (tmp / "run" / "reports" / f"{stage}.json").exists()
    code, second, _ = run(
        capsys, "pipeline", "--config", cfg, "--workdir", str(tmp / "run")
    )
    assert code == 0
    assert first == second
    assert "S4" in first and "S7" in first


def test_pipeline_needs_workdir(capsys):
    assert dispatch(["pipeline"]) == 1


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("encoder", {**ENC, "n_layer": 7}, "n_layer"),
        ("stream", {"variant": "chunk", "chunk_frame": 3}, "chunk_frame"),
        ("updates", {"S": 12, "T": 12, "KD": 8, "N": 12, "ST": 12, "STT": 50}, "STT"),
    ],
    ids=["encoder", "stream", "updates"],
)
def test_unknown_nested_config_key_is_usage_error(capsys, workdir, section, value, key):
    tmp, cfg = workdir
    payload = json.loads(open(cfg).read())
    payload[section] = value
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(
        capsys, "gen-data", "--config", str(bad), "--out-dir", str(tmp / "x")
    )
    assert code == 1
    assert key in err


UPDATES = {"pretrain": 0, "S": 12, "T": 12, "KD": 8, "N": 12, "ST": 12}


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("updates", {**UPDATES, "S": 2.7}, "updates.S"),
        ("updates", {**UPDATES, "S": True}, "updates.S"),
        ("updates", {**UPDATES, "S": -5}, "updates.S"),
        ("batch_size", 0, "batch_size"),
        ("peak_lr", -1, "peak_lr"),
        ("alpha", -1, "alpha"),
        ("distill_layers", [9], "distill_layers"),
        ("encoder", {**ENC, "n_heads": 0}, "n_heads"),
        ("encoder", {**ENC, "model_dim": 0}, "model_dim"),
        ("encoder", {**ENC, "ffn_dim": 0}, "ffn_dim"),
        ("encoder", {**ENC, "feature_dim": 0}, "feature_dim"),
        ("encoder", {**ENC, "vocab_size": 5}, "encoder.vocab_size"),
        ("lm_order", 0, "lm_order"),
        ("lm_smoothing", 0, "lm_smoothing"),
        ("noise_std", -1, "noise_std"),
        ("sizes", [0, 1, 1], "sizes"),
        ("text_len", [3, 1], "text_len"),
        ("frames_per_token", [0, 2], "frames_per_token"),
        ("beam_size", 0, "beam_size"),
        ("template_scale", 0, "template_scale"),
        ("seed", -1, "seed"),
        ("alpha", math.nan, "alpha"),
        ("peak_lr", math.nan, "peak_lr"),
        ("noise_std", math.nan, "noise_std"),
        ("lm_smoothing", math.nan, "lm_smoothing"),
        ("lm_weight", math.nan, "lm_weight"),
        ("word_insertion_penalty", math.nan, "word_insertion_penalty"),
        ("template_scale", math.nan, "template_scale"),
        ("lm_weight", math.inf, "lm_weight"),
    ],
    ids=["fractional-updates", "bool-updates", "negative-updates", "batch_size",
         "peak_lr", "alpha", "distill_layers", "n_heads", "model_dim", "ffn_dim",
         "feature_dim", "vocab_size", "lm_order", "lm_smoothing", "noise_std",
         "sizes", "text_len", "frames_per_token", "beam_size", "template_scale",
         "seed", "nan-alpha", "nan-peak_lr", "nan-noise_std", "nan-lm_smoothing",
         "nan-lm_weight", "nan-word_insertion_penalty", "nan-template_scale",
         "inf-lm_weight"],
)
def test_bad_config_value_fails_dry_run(capsys, workdir, key, value, field):
    tmp, cfg = workdir
    payload = json.loads(open(cfg).read())
    payload[key] = value
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run(
        capsys, "pipeline", "--config", str(bad), "--workdir", str(tmp / "run"),
        "--dry-run",
    )
    assert code == 1
    assert field in err
    assert out == ""


def test_pipeline_jobs_below_one_fails_before_any_stage(capsys, workdir):
    tmp, cfg = workdir
    run_dir = tmp / "run"
    run_dir.mkdir()
    code, out, err = run(
        capsys, "pipeline", "--config", str(cfg), "--workdir", str(run_dir), "--jobs", "0"
    )
    assert code == 1
    assert "--jobs" in err
    assert out == ""
    assert list(run_dir.iterdir()) == []


@pytest.mark.parametrize("command", [("pseudo-label", "--out", "x.bin"), ("decode",)])
def test_jobs_below_one_is_a_usage_error(capsys, tmp_path, command):
    code, _, err = run(
        capsys, *command, "--model", str(tmp_path / "m.ckpt"),
        "--data", str(tmp_path / "d.bin"), "--jobs", "0",
    )
    assert code == 1
    assert "--jobs" in err


# --------------------------------------------------------------- selfcheck


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "all 11 checks passed" in out
    assert "FAIL" not in out


def test_no_subcommand_is_usage_error(capsys):
    assert dispatch([]) == 1
