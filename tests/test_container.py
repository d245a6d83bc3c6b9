"""The shared file layout: what its reader rejects, for checkpoints and
datasets alike."""

import re
import struct

import numpy as np
import pytest

from streamctc.encoder import (
    CheckpointError,
    EncoderConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from streamctc.pipeline import DatasetFormatError, Utterance, load_dataset, save_dataset

TINY = EncoderConfig(n_layers=1, model_dim=4, n_heads=1, ffn_dim=4, feature_dim=2)


def _save_checkpoint(path):
    save_checkpoint(init_params(TINY, 0), path)


def _save_dataset(path):
    save_dataset(
        (Utterance(uid="a", features=np.ones((3, 2)), text="ab"),
         Utterance(uid="b", features=np.zeros((2, 2)))),
        path,
    )


# kind -> (writer, loader, its error, one stored array's name and shape)
KINDS = {
    "checkpoint": (_save_checkpoint, load_checkpoint, CheckpointError,
                   "buffer.frontend.bn.mean", (2,)),
    "dataset": (_save_dataset, load_dataset, DatasetFormatError, "a", (3, 2)),
}


def _parts(blob):
    """(magic, header bytes, array count and records) of a file's bytes."""
    (hlen,) = struct.unpack("<I", blob[8:12])
    return blob[:8], blob[12 : 12 + hlen], blob[12 + hlen : -8]


def _joined(magic, header, arrays):
    body = magic + struct.pack("<I", len(header)) + header + arrays
    return body + struct.pack("<Q", len(body) + 8)


def _with_array_twice(blob, name, shape):
    """The file with a second record of `name`, all 123s, after the others."""
    magic, header, arrays = _parts(blob)
    (count,) = struct.unpack("<I", arrays[:4])
    record = (
        struct.pack("<H", len(name)) + name.encode()
        + struct.pack(f"<B{len(shape)}Q", len(shape), *shape)
        + np.full(shape, 123.0).astype("<f8").tobytes()
    )
    return _joined(magic, header, struct.pack("<I", count + 1) + arrays[4:] + record)


DAMAGE = {
    "truncated": (lambda blob, name, shape: blob[: len(blob) // 2], "length field"),
    "trailing-bytes": (lambda blob, name, shape: blob + b"xx", "length field"),
    "magic-only": (lambda blob, name, shape: blob[:8], "length field"),
    "short-records": (
        lambda blob, name, shape: _joined(*_parts(blob)[:2], _parts(blob)[2][:-8]),
        "truncated at byte",
    ),
    "bad-magic": (lambda blob, name, shape: b"NOTMAGIC" + blob[8:], "not a"),
    "non-json-header": (
        lambda blob, name, shape: _joined(blob[:8], b"{not json", _parts(blob)[2]),
        "bad header",
    ),
    "list-header": (
        lambda blob, name, shape: _joined(blob[:8], b"[]", _parts(blob)[2]),
        "not a JSON object",
    ),
    "repeated-name": (_with_array_twice, "stored twice"),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("kind", KINDS)
def test_structural_damage_is_an_error_naming_the_file(tmp_path, kind, damage):
    save, load, error, name, shape = KINDS[kind]
    path = tmp_path / "file.bin"
    save(path)
    load(path)
    corrupt, message = DAMAGE[damage]
    path.write_bytes(corrupt(path.read_bytes(), name, shape))
    with pytest.raises(error, match=re.escape(str(path)) + ": .*" + message):
        load(path)


def test_a_checkpoint_is_not_read_as_a_dataset_or_back(tmp_path):
    _save_checkpoint(tmp_path / "m.ckpt")
    _save_dataset(tmp_path / "d.bin")
    with pytest.raises(DatasetFormatError, match="m.ckpt: not a dataset file"):
        load_dataset(tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="d.bin: not a checkpoint file"):
        load_checkpoint(tmp_path / "d.bin")
