"""Every accepted config runs: a property test over the config space.

A tiny pipeline config (2 layers of width 16, splits of at most 8
utterances, 1-2 updates per stage) has one to three fields moved to
boundary values: 0, 1, the largest allowed, just past it, values whose
products meet a limit (frames per token x tokens against 2 frames, the
chunk against the longest utterance, `lm_order` against `text_len`), and
for a list or section a value of another JSON type.
Then `pipeline --dry-run` exits 1 with one `error:` line that names a
moved field, or the full run exits 0. A failure that depends on the
seed's draws exits 2 before any stage has trained, with one error line.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc.cli import dispatch

BASE = {
    "seed": 0,
    "n_symbols": 3,
    "frames_per_token": [1, 3],
    "noise_std": 0.4,
    "text_len": [1, 4],
    "sizes": [4, 4, 2],
    "encoder": {"n_layers": 2, "model_dim": 16, "n_heads": 2, "ffn_dim": 16,
                "vocab_size": 29, "feature_dim": 4, "frontend_kernel": 2},
    "stream": {"variant": "chunk", "chunk_frames": 2},
    "alpha": 0.01,
    "distill_layers": None,
    "lm_order": 3,
    "beam_size": 2,
    "peak_lr": 0.002,
    "batch_size": 2,
    "updates": {"pretrain": 1, "S": 2, "T": 1, "KD": 1, "N": 2, "ST": 1},
}

STAGES = ("pretrain", "S", "T", "KD", "N", "ST")

# a config path ("encoder.n_heads" is a field of a section) -> its values
MOVES = {
    "seed": [0, 1, 6, -1],
    "n_symbols": [0, 1, 26, 27],
    "frames_per_token": [[1, 1], [0, 1], [2, 1], [8, 8], [1], None],
    "text_len": [[1, 1], [0, 1], [1, 8], [8, 8], [], 3],
    "sizes": [[1, 1, 1], [0, 4, 2], [8, 8, 8], [1, 8, 1], [4, 4], None],
    "noise_std": [0, -1],
    "alpha": [0, 1, -1],
    "distill_layers": [[1], [2], [3], [0], [], [2, 1], None, 2],
    "lm_order": [0, 1, 4, 5, 8],
    "beam_size": [0, 1, 29, 30],
    "batch_size": [0, 1, 8, 9],
    "peak_lr": [0, 1, 1.5, 1e300],
    **{f"updates.{stage}": [0, 1, 2, -1] for stage in STAGES},
    "encoder.n_layers": [0, 1],
    "encoder.model_dim": [0, 1, 2],
    "encoder.n_heads": [1, 3, 16],
    "encoder.ffn_dim": [0, 1],
    "encoder.vocab_size": [1, 2, 28, 29],
    "encoder.feature_dim": [0, 1],
    "encoder.frontend_kernel": [0, 1, 12, 13],
    "stream": [
        None,
        {"variant": "bidirectional"},
        {"variant": "time_restricted", "right_frames": 0, "left_limit": 0},
        {"variant": "time_restricted", "right_frames": 12},
        {"variant": "chunk", "chunk_frames": 0},
        {"variant": "chunk", "chunk_frames": 1, "left_limit": 0},
        {"variant": "chunk", "chunk_frames": 12},
        {"variant": "chunk", "chunk_frames": 13},
        {"variant": "block", "chunk_frames": 1, "future_frames": 0},
        {"variant": "block", "chunk_frames": 1, "future_frames": 12, "left_limit": 0},
        {"variant": "block", "chunk_frames": 13, "future_frames": 13},
        {"variant": "block", "chunk_frames": 0, "future_frames": 1},
    ],
}


@st.composite
def moved_fields(draw):
    paths = draw(st.lists(st.sampled_from(sorted(MOVES)), min_size=1, max_size=3, unique=True))
    return {path: draw(st.sampled_from(MOVES[path])) for path in paths}


def _config(moved: dict) -> dict:
    config = copy.deepcopy(BASE)
    for path, value in moved.items():
        section, _, key = path.rpartition(".")
        (config[section] if section else config)[key] = copy.deepcopy(value)
    return config


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(moved_fields())
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
def test_an_accepted_config_runs_or_is_rejected_naming_a_field(moved):
    config = _config(moved)
    with tempfile.TemporaryDirectory() as tmp:
        path, workdir = Path(tmp) / "cfg.json", Path(tmp) / "run"
        path.write_text(json.dumps(config))
        argv = ("pipeline", "--config", str(path), "--workdir", str(workdir))
        code, out, err = _cli(*argv, "--dry-run")
        if code == 1:
            # an encoder field's error names the field itself
            named = [p.removeprefix("encoder.") for p in moved]
            assert out == "" and err.count("error:") == 1
            assert any(name in err for name in named), (err, named)
            return
        assert code == 0, err
        code, out, err = _cli(*argv)
        if code == 0:
            return
        assert code == 2 and err.count("error:") == 1, err
        trained = ["S", "T", "KD", "N", "ST"] + (["P"] if config["updates"]["pretrain"] else [])
        assert not any((workdir / "checkpoints" / f"{s}.ckpt").exists() for s in trained), err
