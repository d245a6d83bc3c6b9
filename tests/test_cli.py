"""Command-line behavior: exit codes, flag handling, output channels."""

import argparse
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamctc import cli
from streamctc.cli import _TRAIN_COMMANDS, _merged_config, build_parser, dispatch
from streamctc.encoder import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    EncoderConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from streamctc.masking import MaskSpec, build_mask
from streamctc.pipeline import PipelineConfig, config_digest, load_dataset, save_dataset
from streamctc.pipeline.run import STAGES, TRAINERS

ENC = {
    "n_layers": 2,
    "model_dim": 16,
    "n_heads": 2,
    "ffn_dim": 24,
    "vocab_size": 29,
    "feature_dim": 6,
    "frontend_kernel": 3,
}


STREAM = {"variant": "block", "chunk_frames": 3, "future_frames": 1}


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
        "stream": STREAM,
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


def test_missing_config_file_is_a_usage_error_naming_it(capsys, tmp_path):
    missing = tmp_path / "task.json"
    code, _, err = run(
        capsys, "gen-data", "--config", str(missing), "--out-dir", str(tmp_path / "x")
    )
    assert code == 1
    assert f"error: config file not found: {missing}" in err


@pytest.mark.parametrize(
    "text, message",
    [("{", "config is not valid JSON"), ("[1, 2]", "config file must hold a JSON object")],
    ids=["not-json", "not-object"],
)
def test_config_that_is_not_a_json_object_is_a_usage_error(capsys, tmp_path, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "gen-data", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and message in err


# a value each flag that overrides a config field can take, and the value
# the merged config must then hold; none is the field's default
FIELD_FLAG_VALUES = {
    "out_dir": ("wd", "wd"),
    "seed": ("5", 5),
    "n_symbols": ("2", 2),
    "noise_std": ("0.3", 0.3),
    "frames_per_token": ("2,3", (2, 3)),
    "text_len": ("2,4", (2, 4)),
    "sizes": ("3,4,5", (3, 4, 5)),
    "alpha": ("0.5", 0.5),
    "distill_layers": ("1,2", (1, 2)),
    "lm_order": ("2", 2),
    "lm_smoothing": ("0.5", 0.5),
    "beam_size": ("3", 3),
    "lm_weight": ("0.5", 0.5),
    "word_insertion_penalty": ("-0.1", -0.1),
    "peak_lr": ("0.01", 0.01),
    "batch_size": ("2", 2),
}


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _field_flags():
    """(subcommand, flag, dest) of every parser action whose dest is a
    PipelineConfig field."""
    names = {f.name for f in dataclasses.fields(PipelineConfig)}
    return [
        (command, action.option_strings[0], action.dest)
        for command, parser in _subparsers().items()
        for action in parser._actions
        if action.dest in names
    ]


def test_every_field_flag_has_a_value_to_test():
    assert {dest for *_, dest in _field_flags()} == set(FIELD_FLAG_VALUES)


@pytest.mark.parametrize(
    "command, flag, dest", _field_flags(), ids=lambda x: x if isinstance(x, str) else None
)
def test_a_field_flag_overrides_the_field_its_dest_names(command, flag, dest):
    parser = _subparsers()[command]
    required = [
        arg for action in parser._actions if action.required
        for arg in (action.option_strings[0], "x")
    ]
    text, want = FIELD_FLAG_VALUES[dest]
    args = parser.parse_args([*required, flag, text])
    assert getattr(PipelineConfig(out_dir="."), dest) != want
    assert getattr(_merged_config(args), dest) == want


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-data", "--sizes", "3,x"),
        ("distill", "--teacher", "t", "--data", "d", "--out", "o", "--layers", "1,"),
    ],
    ids=["gen-data", "distill"],
)
def test_a_list_flag_that_is_not_a_list_of_ints_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "not a comma-separated int list" in err


def test_training_subcommand_with_null_updates_is_a_usage_error(capsys, tmp_path):
    # `--updates` was once merged into a null `updates` with a TypeError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"updates": None}))
    code, out, err = run(
        capsys, "finetune", "--config", str(cfg), "--updates", "3",
        "--data", str(tmp_path / "x.bin"), "--out", str(tmp_path / "y.ckpt"),
    )
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "updates must be a JSON object" in err


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


@pytest.mark.parametrize(
    "command",
    [
        ("finetune",),
        ("guided-teacher", "--streaming", "S.ckpt"),
        ("distill", "--teacher", "S.ckpt"),
        ("self-train", "--init", "S.ckpt"),
    ],
    ids=lambda c: c[0],
)
def test_dev_without_transcripts_fails_before_training(capsys, trained, command):
    # the dev token error needs references; `distill` used to train every
    # update and then die on the first unlabeled dev utterance
    tmp, cfg, labeled = trained
    dev = tmp / "dev-unlabeled.bin"
    save_dataset(
        [dataclasses.replace(u, text=None) for u in load_dataset(labeled)], dev
    )
    name, *rest = command
    rest = [str(tmp / a) if a.endswith(".ckpt") else a for a in rest]
    code, out, err = run(
        capsys, name, *rest, "--config", cfg, "--data", labeled, "--dev", str(dev),
        "--out", str(tmp / "x.ckpt"),
    )
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and f"{dev}: utterances without labels" in errors[0]
    assert "Traceback" not in err
    assert not (tmp / "x.ckpt").exists()


def test_training_with_a_dev_set_prints_its_scores(capsys, trained):
    tmp, cfg, labeled = trained
    dev = str(tmp / "data" / "dev.bin")
    report = tmp / "ft.json"
    code, out, _ = run(
        capsys, "finetune", "--config", cfg, "--data", labeled, "--dev", dev,
        "--updates", "2", "--report", str(report), "--out", str(tmp / "a.ckpt"),
    )
    assert code == 0
    ter = json.loads(report.read_text())["dev_token_error"]
    assert f"dev token error {ter:.6g}" in out.splitlines()
    report = tmp / "kd.json"
    code, out, _ = run(
        capsys, "distill", "--config", cfg, "--data", labeled, "--dev", dev,
        "--teacher", str(tmp / "S.ckpt"), "--updates", "2", "--report", str(report),
        "--out", str(tmp / "b.ckpt"),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    first, last = payload["dev_distill_first"], payload["dev_distill_last"]
    assert f"dev distill loss {first:.6g} -> {last:.6g}" in out.splitlines()


def test_report_writes_null_for_an_update_without_a_trainable_member(capsys, trained):
    # one utterance of four can be aligned; at seed 0 four of five updates
    # of batch size 1, the first and the last among them, draw the others
    tmp, cfg, labeled = trained
    data = list(load_dataset(labeled)[:4])
    data[1:] = [dataclasses.replace(u, text="abc" * 20) for u in data[1:]]
    subset = tmp / "mostly-unalignable.bin"
    save_dataset(data, subset)
    report = tmp / "rep.json"
    code, out, _ = run(
        capsys, "finetune", "--config", cfg, "--data", str(subset), "--batch-size", "1",
        "--updates", "5", "--seed", "0", "--report", str(report), "--out", str(tmp / "o.ckpt"),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["losses_first"] is None and payload["losses_last"] is None
    assert "loss nan -> nan  skipped 4" in out
    assert payload["skipped"] == 4


def test_training_subcommands_rebuild_the_pipeline_stages(capsys, workdir):
    # each subcommand runs its stage's trainer, so given the pipeline's own
    # inputs it writes the pipeline's checkpoint byte for byte
    tmp, cfg = workdir
    out = tmp / "run"
    assert run(capsys, "pipeline", "--config", cfg, "--workdir", str(out))[0] == 0
    data, ckpt = out / "data", out / "checkpoints"
    pooled = tmp / "labeled+unlabeled.bin"
    save_dataset(load_dataset(data / "labeled.bin") + load_dataset(data / "unlabeled.bin"),
                 pooled)
    labeled = ("--data", str(data / "labeled.bin"))
    commands = {
        "S": ("finetune", *labeled, "--mask", "stream"),
        "N": ("finetune", *labeled, "--mask", "bidirectional"),
        "T": ("guided-teacher", *labeled, "--streaming", str(ckpt / "S.ckpt")),
        "KD": ("distill", "--data", str(pooled), "--teacher", str(ckpt / "T.ckpt"),
               "--head-from", str(ckpt / "S.ckpt")),
        "ST": ("self-train", "--init", str(ckpt / "KD.ckpt"), *labeled,
               "--pseudo", str(data / "pseudo.bin")),
    }
    for stage, argv in commands.items():
        target = tmp / f"{stage}.ckpt"
        code, *_ = run(capsys, *argv, "--config", cfg, "--out", str(target))
        assert code == 0, stage
        assert target.read_bytes() == (ckpt / f"{stage}.ckpt").read_bytes(), stage


@pytest.mark.parametrize(
    "command",
    [
        ("finetune",),
        ("guided-teacher", "--streaming", "S.ckpt"),
        ("distill", "--teacher", "S.ckpt"),
    ],
    ids=lambda c: c[0],
)
def test_pretrain_updates_need_the_warmed_up_p_as_init(capsys, trained, command):
    # without --init these trained from a fresh P in silence, while the
    # pipeline warms P up by `updates.pretrain` contrastive updates
    tmp, cfg, labeled = trained
    config = json.loads(open(cfg).read())
    config["updates"]["pretrain"] = 3
    warm = tmp / "warm.json"
    warm.write_text(json.dumps(config))
    name, *rest = command
    rest = [str(tmp / a) if a.endswith(".ckpt") else a for a in rest]
    argv = [name, *rest, "--config", str(warm), "--data", labeled, "--updates", "2"]
    code, out, err = run(capsys, *argv, "--out", str(tmp / "x.ckpt"))
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "updates.pretrain" in errors[0] and "--init" in errors[0]
    assert not (tmp / "x.ckpt").exists()
    init = ("--init", str(tmp / "S.ckpt"))
    assert run(capsys, *argv, *init, "--out", str(tmp / "y.ckpt"))[0] == 0
    if name == "finetune":
        # self-train continues from KD and reads no P
        argv[0] = "self-train"
        assert run(capsys, *argv, *init, "--out", str(tmp / "z.ckpt"))[0] == 0


@pytest.mark.parametrize(
    "command",
    [("train-lm",), ("pseudo-label", "--model", "S.ckpt")],
    ids=lambda c: c[0],
)
def test_commands_that_draw_no_random_number_take_no_seed_flag(capsys, trained, command):
    # --seed 5 and --seed 9 wrote the same file; a config file's seed is
    # still accepted
    tmp, cfg, labeled = trained
    name, *rest = command
    rest = [str(tmp / a) if a.endswith(".ckpt") else a for a in rest]
    argv = [name, *rest, "--config", cfg, "--data", labeled, "--out", str(tmp / "out")]
    code, _, err = run(capsys, *argv, "--seed", "5")
    assert code == 1
    assert "unrecognized arguments: --seed 5" in err
    assert run(capsys, *argv)[0] == 0


def test_checkpoint_flags_name_stages_the_row_reads():
    rows = {stage.name: stage for stage in STAGES}
    for command in _TRAIN_COMMANDS:
        dests = {flag[2:].replace("-", "_") for flag, _ in command.flags}
        assert set(command.models) <= dests, command.name
        for mask in ("stream", "bidirectional"):
            stage = command.stage(argparse.Namespace(mask=mask))
            assert stage in TRAINERS, command.name
            # P, the fresh init when --init names no checkpoint, counts as read
            allowed = {"P", *rows[stage].reads}
            assert set(command.models.values()) <= allowed, (command.name, stage)


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


def test_unflagged_decode_scores_like_the_recipe(capsys, trained):
    # with no scoring flags, decode takes PipelineConfig's beam, LM weight
    # and word insertion penalty, as pseudo-label and the pipeline's U' do
    tmp, cfg, labeled = trained
    lm = str(tmp / "lm.json")
    assert run(capsys, "train-lm", "--config", cfg, "--data", labeled, "--out", lm)[0] == 0
    argv = ["decode", "--model", str(tmp / "S.ckpt"),
            "--data", str(tmp / "data" / "dev.bin"), "--lm", lm]
    code, unflagged, _ = run(capsys, *argv)
    assert code == 0
    recipe = PipelineConfig(out_dir=".")
    code, flagged, _ = run(
        capsys, *argv, "--beam", str(recipe.beam_size),
        "--lm-weight", repr(recipe.lm_weight),
        "--penalty", repr(recipe.word_insertion_penalty),
    )
    assert code == 0
    assert unflagged == flagged
    assert len(unflagged.splitlines()) == 1 + len(load_dataset(tmp / "data" / "dev.bin"))


@pytest.mark.parametrize("bad", ["model", "data", "lm"])
def test_decode_with_a_bad_input_leaves_stdout_empty(capsys, trained, bad):
    # decode once printed its header before it loaded --lm
    tmp, cfg, labeled = trained
    lm = tmp / "lm.json"
    assert run(capsys, "train-lm", "--config", cfg, "--data", labeled, "--out", str(lm))[0] == 0
    paths = {"model": tmp / "S.ckpt", "data": tmp / "data" / "dev.bin", "lm": lm}
    paths[bad] = tmp / "broken"
    paths[bad].write_bytes(b"broken")
    code, out, err = run(capsys, "decode", *(f"--{k}={v}" for k, v in paths.items()))
    assert code == 2 and out == ""
    assert f"error: {paths[bad]}: " in err


def test_decode_names_an_lm_txt_as_the_old_text_format(capsys, trained):
    tmp, cfg, labeled = trained
    old = tmp / "lm.txt"
    old.write_text("ngram 1\norder 3\nsmoothing 0.20000000000000001\nvocab a b |\n")
    code, out, err = run(
        capsys, "decode", "--model", str(tmp / "S.ckpt"),
        "--data", str(tmp / "data" / "dev.bin"), "--lm", str(old),
    )
    assert code == 2 and out == ""
    assert f"error: {old}: an LM in the text format from before JSON" in err


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
    code, out, err = run(
        capsys, "decode", "--model", s, "--data", dev, "--greedy", "--jobs", "2"
    )
    assert code == 1 and out == ""
    assert "--jobs" in err
    assert run(
        capsys, "decode", "--model", s, "--data", dev, "--greedy", "--jobs", "1"
    )[0] == 0
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


@pytest.mark.parametrize("command", ["decode", "pseudo-label"])
def test_lm_weight_without_lm_is_a_usage_error(capsys, tmp_path, command):
    argv = [command, "--model", str(tmp_path / "nope.ckpt"),
            "--data", str(tmp_path / "nope.bin"), "--lm-weight", "0.5"]
    if command == "pseudo-label":
        argv += ["--out", str(tmp_path / "out.bin")]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "--lm-weight 0.5 needs --lm" in err
    assert "config digest" not in err
    assert out == ""


@pytest.mark.parametrize(
    "edit",
    [
        lambda header: [],
        lambda header: {"version": 1},
        lambda header: {"version": 1, "config": [1]},
        lambda header: {**header, "mask_spec": [1]},
        lambda header: {**header, "mask_spec": "block"},
        lambda header: {**header, "mask_spec": {"chunk_frames": 2}},
        lambda header: {**header, "config": {**header["config"], "frontend_norm": "gn"}},
        lambda header: {**header, "config": {**header["config"], "frontend_conv": "symmetric"}},
    ],
    ids=["list", "no-config", "list-config", "list-mask-spec", "string-mask-spec",
         "mask-spec-without-variant", "gn-frontend", "symmetric-frontend"],
)
def test_malformed_checkpoint_header_is_an_error(capsys, tmp_path, edit):
    path = tmp_path / "bad.ckpt"
    config = EncoderConfig(n_layers=1, model_dim=4, n_heads=1, ffn_dim=4, feature_dim=2)
    save_checkpoint(init_params(config, 0), path)
    blob = path.read_bytes()[:-8]
    start = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", blob[start : start + 4])
    header = json.loads(blob[start + 4 : start + 4 + hlen])
    hjson = json.dumps(edit(header)).encode()
    body = blob[:start] + struct.pack("<I", len(hjson)) + hjson + blob[start + 4 + hlen :]
    path.write_bytes(body + struct.pack("<Q", len(body) + 8))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)
    code, out, err = run(
        capsys, "posteriors", "--model", str(path), "--data", str(tmp_path / "nope.bin")
    )
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(path) in errors[0]


@pytest.mark.parametrize("buffer", ["mean", "var"])
def test_checkpoint_without_batch_norm_buffers_is_an_error(capsys, tmp_path, buffer):
    # a model without running statistics once loaded and then died in its
    # first forward pass with an AttributeError
    path = tmp_path / "bad.ckpt"
    config = EncoderConfig(n_layers=1, model_dim=4, n_heads=1, ffn_dim=4, feature_dim=2)
    save_checkpoint(init_params(config, 0), path)
    name = f"buffer.frontend.bn.{buffer}".encode()
    blob = path.read_bytes()
    assert blob.count(name) == 1
    # a renamed array of the same length leaves every offset in place
    path.write_bytes(blob.replace(name, name[:-1] + b"X"))
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*" + name.decode()):
        load_checkpoint(path)
    code, out, err = run(
        capsys, "posteriors", "--model", str(path), "--data", str(tmp_path / "nope.bin")
    )
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(path) in errors[0] and "Traceback" not in err


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


def test_score_skips_the_header_and_blank_lines_and_counts_missing(capsys, trained, tmp_path):
    tmp, cfg, labeled = trained
    data = load_dataset(labeled)
    full, partial = tmp_path / "full.tsv", tmp_path / "partial.tsv"
    full.write_text("".join(f"{u.uid}\t{u.text}\n" for u in data))
    # decode's header, a blank line, and no line for the first utterance
    partial.write_text("uid\ttext\n\n" + "".join(f"{u.uid}\t{u.text}\n" for u in data[1:]))
    code, out, _ = run(capsys, "score", "--data", labeled, "--hyp", str(full))
    assert code == 0 and "missing" not in out
    code, out, _ = run(capsys, "score", "--data", labeled, "--hyp", str(partial))
    assert code == 0
    assert "missing hypotheses 1 (scored as empty)" in out.splitlines()
    assert f"{'CER':<6} {len(data[0].text):>7}" in out


def test_score_rejects_a_line_without_a_tab(capsys, trained, tmp_path):
    tmp, cfg, labeled = trained
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("justone\n")
    code, out, err = run(capsys, "score", "--data", labeled, "--hyp", str(hyp))
    assert code == 2 and out == ""
    assert "bad hypothesis line: 'justone'" in err


def test_score_rejects_unknown_uid(capsys, trained, tmp_path):
    tmp, cfg, labeled = trained
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text("NOSUCH\tabc\n")
    assert run(capsys, "score", "--data", labeled, "--hyp", str(hyp))[0] == 2


def test_score_rejects_a_repeated_uid(capsys, trained, tmp_path):
    # the last of two lines for one utterance used to win in silence
    tmp, cfg, labeled = trained
    data = load_dataset(labeled)
    hyp = tmp_path / "hyp.tsv"
    lines = [f"{u.uid}\t{u.text}" for u in data] + [f"{data[0].uid}\tzzz"]
    hyp.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "score", "--data", labeled, "--hyp", str(hyp))
    assert code == 2 and out == ""
    assert f"repeated hypothesis for utterance {data[0].uid}" in err


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


def test_posteriors_for_an_unknown_utterance_is_an_error(capsys, trained):
    tmp, cfg, labeled = trained
    code, out, err = run(
        capsys, "posteriors", "--model", str(tmp / "S.ckpt"), "--data", labeled,
        "--uid", "NOSUCH",
    )
    assert code == 2 and out == ""
    assert "error: utterance not found: NOSUCH" in err


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


def test_pipeline_announces_the_config_digest(capsys, workdir):
    tmp, cfg = workdir
    code, _, err = run(
        capsys, "pipeline", "--config", cfg, "--workdir", str(tmp / "run"), "--dry-run"
    )
    assert code == 0
    config = PipelineConfig.from_dict(
        {**json.loads(open(cfg).read()), "out_dir": str(tmp / "run")}
    )
    assert err == f"config digest {config_digest(config)[:16]}\n"


def test_pipeline_reads_its_config_file_once(capsys, workdir, monkeypatch):
    # with no --workdir the out_dir check and the run once read the file
    # each, so a file rewritten between the two was checked in one version
    # and run in the other
    tmp, cfg = workdir
    opened = []
    real_open = open

    def spy(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    assert run(capsys, "pipeline", "--config", cfg, "--dry-run")[0] == 0
    assert opened.count(cfg) == 1


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


def test_decode_with_the_lm_reproduces_the_pseudo_labels(capsys, workdir):
    # decoding the unlabeled set with N and the run's LM, without scoring
    # flags, is what U' does: the non-empty texts are data/pseudo.bin
    tmp, cfg = workdir
    out = tmp / "run"
    assert run(capsys, "pipeline", "--config", cfg, "--workdir", str(out))[0] == 0
    code, stdout, _ = run(
        capsys, "decode", "--model", str(out / "checkpoints" / "N.ckpt"),
        "--data", str(out / "data" / "unlabeled.bin"), "--lm", str(out / "lm.json"),
    )
    assert code == 0
    rows = [line.split("\t") for line in stdout.splitlines()[1:]]
    assert len(rows) == len(load_dataset(out / "data" / "unlabeled.bin"))
    decoded = {uid: text for uid, text in rows if text}
    pseudo = {u.uid: u.text for u in load_dataset(out / "data" / "pseudo.bin")}
    assert pseudo and decoded == pseudo


def test_labeled_set_that_cannot_train_stops_before_any_stage_trains(capsys, tmp_path):
    # at seed 1 every labeled utterance has 1 frame: P once warmed up on the
    # unlabeled set, wrote its checkpoint, and only then did S find that out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sizes": [1, 3, 1], "frames_per_token": [1, 1], "text_len": [1, 2],
        "encoder": {"n_layers": 1, "model_dim": 8, "n_heads": 2, "ffn_dim": 8,
                    "feature_dim": 4, "frontend_kernel": 2},
        "stream": {"variant": "chunk", "chunk_frames": 2},
        "updates": {"pretrain": 1, "S": 1, "T": 1, "KD": 1, "N": 1, "ST": 1},
        "batch_size": 2, "beam_size": 2, "seed": 1,
    }))
    out = tmp_path / "run"
    code, stdout, err = run(capsys, "pipeline", "--config", str(cfg), "--workdir", str(out))
    assert code == 2 and stdout == ""
    assert err.count("error:") == 1
    assert f"the labeled set {out / 'data' / 'labeled.bin'} has no utterance" in err
    assert not list((out / "checkpoints").iterdir())


def test_pipeline_needs_workdir(capsys):
    assert dispatch(["pipeline"]) == 1


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"encoder": {**ENC, "n_layer": 7}}, "n_layer"),
        ({"stream": {"variant": "chunk", "chunk_frame": 3}}, "chunk_frame"),
        ({"updates": {"S": 12, "T": 12, "KD": 8, "N": 12, "ST": 12, "STT": 50}}, "STT"),
        # every unknown top-level key is named, sorted, in one message
        ({"zeta": 1, "template_scale": 2.0},
         "unknown pipeline config key(s): template_scale, zeta"),
        # `updates.pretrain` alone switches the contrastive warm-up
        ({"pretrain_mode": "contrastive"}, "unknown pipeline config key(s): pretrain_mode"),
    ],
    ids=["encoder", "stream", "updates", "top", "pretrain_mode"],
)
def test_unknown_nested_config_key_is_usage_error(capsys, workdir, patch, message):
    tmp, cfg = workdir
    payload = json.loads(open(cfg).read())
    payload.update(patch)
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(
        capsys, "gen-data", "--config", str(bad), "--out-dir", str(tmp / "x")
    )
    assert code == 1
    assert message in err


UPDATES = {"pretrain": 0, "S": 12, "T": 12, "KD": 8, "N": 12, "ST": 12}


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("updates", {**UPDATES, "S": 2.7}, "updates.S"),
        ("updates", {**UPDATES, "S": True}, "updates.S"),
        ("updates", {**UPDATES, "S": -5}, "updates.S"),
        ("batch_size", 0, "batch_size"),
        ("peak_lr", -1, "peak_lr"),
        # a rate above 1 once trained until a gradient or posteriorgram overflowed
        ("peak_lr", 1.5, "peak_lr"),
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
        # template_scale and use_delimiter are no longer config keys
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
        ("sizes", [2.7, 3, 2], "sizes"),
        ("distill_layers", [1.5, 2], "distill_layers"),
        ("encoder", {**ENC, "model_dim": 16.0}, "model_dim"),
        ("stream", {**STREAM, "chunk_frames": 12.5}, "chunk_frames"),
        ("batch_size", 2.5, "batch_size"),
        ("n_symbols", 2.5, "n_symbols"),
        ("use_delimiter", "no", "use_delimiter"),
        ("resume", "no", "resume"),
        ("stream", {**STREAM, "frame_ms": math.nan}, "frame_ms"),
        # two fields at once (key None): every utterance would have 1 frame
        (None, {"frames_per_token": [1, 1], "text_len": [1, 1]},
         "frames_per_token [1, 1] and text_len [1, 1]"),
        # a section or list of the wrong JSON type once failed naming no field
        ("stream", None, "stream"),
        ("encoder", None, "encoder"),
        ("frames_per_token", None, "frames_per_token"),
        ("sizes", None, "sizes"),
        ("updates", None, "updates"),
        ("distill_layers", 5, "distill_layers"),
        ("text_len", 3, "text_len"),
        # run without --workdir, so the config's out_dir is the one used
        ("out_dir", 5, "out_dir"),
    ],
    ids=["fractional-updates", "bool-updates", "negative-updates", "batch_size",
         "peak_lr", "big-peak_lr", "alpha", "distill_layers", "n_heads", "model_dim", "ffn_dim",
         "feature_dim", "vocab_size", "lm_order", "lm_smoothing", "noise_std",
         "sizes", "text_len", "frames_per_token", "beam_size", "template_scale",
         "seed", "nan-alpha", "nan-peak_lr", "nan-noise_std", "nan-lm_smoothing",
         "nan-lm_weight", "nan-word_insertion_penalty", "nan-template_scale",
         "inf-lm_weight", "fractional-sizes", "fractional-distill_layers",
         "float-model_dim", "fractional-chunk_frames", "fractional-batch_size",
         "fractional-n_symbols", "string-use_delimiter", "string-resume",
         "nan-frame_ms", "one-frame-utterances", "null-stream", "null-encoder",
         "null-frames_per_token", "null-sizes", "null-updates", "int-distill_layers",
         "int-text_len", "int-out_dir"],
)
def test_bad_config_value_fails_dry_run(capsys, workdir, key, value, field):
    tmp, cfg = workdir
    payload = json.loads(open(cfg).read())
    payload.update({key: value} if key else value)
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(payload))
    workdir_flag = [] if key == "out_dir" else ["--workdir", str(tmp / "run")]
    code, out, err = run(
        capsys, "pipeline", "--config", str(bad), *workdir_flag, "--dry-run"
    )
    assert code == 1
    assert field in err
    assert err.count("error:") == 1
    assert out == ""


FLOAT_FIELDS = ("noise_std", "alpha", "lm_smoothing", "lm_weight",
                "word_insertion_penalty", "peak_lr")


@pytest.mark.parametrize(
    "value", ["0.5", True, None, math.inf], ids=["string", "bool", "null", "inf"]
)
@pytest.mark.parametrize("key", [*FLOAT_FIELDS, "stream.frame_ms"])
def test_non_number_float_field_fails_dry_run(capsys, workdir, key, value):
    # a string once failed with a comparison error naming no field, a bool
    # passed as 0 or 1, and an infinite peak_lr, alpha, noise_std or
    # lm_smoothing passed the dry run
    tmp, cfg = workdir
    payload = json.loads(open(cfg).read())
    if key == "stream.frame_ms":
        payload["stream"] = {**payload["stream"], "frame_ms": value}
    else:
        payload[key] = value
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run(
        capsys, "pipeline", "--config", str(bad), "--workdir", str(tmp / "run"),
        "--dry-run",
    )
    assert code == 1
    assert f"{key.split('.')[-1]} must be a finite number, got {value!r}" in err
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


@pytest.mark.parametrize("stored", ["[]", "not json"], ids=["list", "not-json"])
def test_malformed_stage_keys_fail_before_any_stage(capsys, workdir, stored):
    tmp, cfg = workdir
    keys = tmp / "run" / "reports" / "inputs.json"
    keys.parent.mkdir(parents=True)
    keys.write_text(stored)
    code, out, err = run(capsys, "pipeline", "--config", cfg, "--workdir", str(tmp / "run"))
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(keys) in errors[0]
    assert "Traceback" not in err
    assert list((tmp / "run" / "data").iterdir()) == []
    assert keys.read_text() == stored


@pytest.mark.parametrize("command", [("pseudo-label", "--out", "x.bin"), ("decode",)])
def test_jobs_below_one_is_a_usage_error(capsys, tmp_path, command):
    code, _, err = run(
        capsys, *command, "--model", str(tmp_path / "m.ckpt"),
        "--data", str(tmp_path / "d.bin"), "--jobs", "0",
    )
    assert code == 1
    assert "--jobs" in err


@pytest.mark.parametrize("command, flag", [("latency", "--layers"), ("mask-dump", "--frames")])
def test_count_below_one_is_a_usage_error(capsys, command, flag):
    code, out, err = run(
        capsys, command, "--variant", "chunk", "--chunk-frames", "4", flag, "0"
    )
    assert code == 1
    assert flag in err
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--chunk-ms", "--future-ms"])
def test_non_finite_ms_is_a_usage_error(capsys, flag, value):
    sizes = {"--chunk-ms": "240", "--future-ms": "360", flag: value}
    code, out, err = run(capsys, "latency", "--variant", "block", *sum(sizes.items(), ()))
    assert code == 1
    assert flag in err
    assert out == ""


def test_ms_and_frames_for_one_size_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "latency", "--variant", "chunk", "--chunk-ms", "40", "--chunk-frames", "2"
    )
    assert code == 1 and out == ""
    assert "error: pass --chunk-ms or --chunk-frames, not both" in err


@pytest.mark.parametrize("command", ["latency", "mask-dump"])
@pytest.mark.parametrize("size", [("--chunk-frames", "4"), ("--chunk-ms", "240")])
@pytest.mark.parametrize("frame_ms", ["nan", "inf", "0"])
def test_bad_frame_ms_is_a_usage_error(capsys, command, size, frame_ms):
    extra = ("--frames", "8") if command == "mask-dump" else ()
    code, out, err = run(
        capsys, command, "--variant", "chunk", *size, "--frame-ms", frame_ms, *extra
    )
    assert code == 1
    assert "frame-ms" in err
    assert out == ""


# ------------------------------------------------------------ stdout rule


@pytest.mark.parametrize(
    "argv",
    [
        ("decode", "--model", "{wide}", "--data", "{dev}", "--beam", "2"),
        ("decode", "--model", "{wide}", "--data", "{dev}", "--greedy"),
        ("posteriors", "--model", "{wide}", "--data", "{dev}"),
        ("latency", "--variant", "chunk", "--chunk-frames", "4", "--out", "{missing}"),
        ("mask-dump", "--variant", "chunk", "--chunk-frames", "2", "--frames", "4",
         "--out", "{missing}"),
        ("decode", "--model", "{model}", "--data", "{dev}", "--beam", "2",
         "--out", "{missing}"),
        ("score", "--data", "{dev}", "--hyp", "{hyp}", "--out", "{missing}"),
        ("posteriors", "--model", "{model}", "--data", "{dev}", "--uid", "{uid}",
         "--out", "{missing}"),
    ],
    ids=["decode-feature-dim", "greedy-feature-dim", "posteriors-feature-dim",
         "latency-out", "mask-dump-out", "decode-out", "score-out", "posteriors-out"],
)
def test_a_failing_command_leaves_stdout_empty(capsys, workdir, argv):
    # each of these once printed its header or its whole table first: a
    # model of 8 features on 6-feature data fails in the forward pass, and
    # an --out in a missing directory fails after the table
    tmp, cfg = workdir
    assert run(capsys, "gen-data", "--config", cfg, "--out-dir", str(tmp / "data"))[0] == 0
    paths = {"model": tmp / "m.ckpt", "wide": tmp / "wide.ckpt", "hyp": tmp / "hyp.tsv",
             "dev": tmp / "data" / "dev.bin", "missing": tmp / "missing" / "out"}
    save_checkpoint(init_params(EncoderConfig(**ENC), 0), paths["model"])
    save_checkpoint(init_params(EncoderConfig(**{**ENC, "feature_dim": 8}), 0), paths["wide"])
    paths["hyp"].write_text("uid\ttext\n")
    paths["uid"] = load_dataset(paths["dev"])[0].uid
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err


# --------------------------------------------------------------- selfcheck


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "all 12 checks passed" in out
    assert "FAIL" not in out


def test_selfcheck_reports_each_failure_and_exits_2(capsys, monkeypatch):
    def broken():
        raise ValueError("broken oracle")

    checks = (("raises", broken, 0.0), ("too far", lambda: 2.0, 1.0), ("fine", lambda: 0.0, 0.0))
    monkeypatch.setattr(cli, "_SELFCHECKS", checks)
    code, out, _ = run(capsys, "selfcheck")
    assert code == 2
    assert out.splitlines() == [
        "FAIL raises: broken oracle",
        "FAIL too far: measured 2, bound 1",
        "ok   fine",
        "2 of 3 checks failed",
    ]


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code):
    """`code` in a fresh interpreter that imports the package from `src/`."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600,
    )


def test_cli_imports_no_scipy():
    # SciPy is a test oracle, not a runtime dependency
    proc = run_python(
        "import sys, streamctc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_selfcheck_passes_without_scipy():
    # an import of scipy raises ImportError in this interpreter
    proc = run_python(
        "import sys; sys.modules['scipy'] = None; "
        "from streamctc.cli import dispatch; sys.exit(dispatch(['selfcheck']))"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all 12 checks passed" in proc.stdout


def test_no_subcommand_is_usage_error(capsys):
    assert dispatch([]) == 1
