"""The one binary file layout, shared by checkpoints and datasets.

All fields little-endian:

    magic        8 bytes, naming the kind of file
    header       <I byte length, then a JSON object (sorted keys) that
                 holds the format `version` of its kind of file
    array count  <I
    each array, in name order:
        name     <H byte length, then UTF-8
        rank     <B, then one <Q extent per axis
        values   <f8, C order
    total        <Q, the length of the whole file

The trailing total catches truncation and trailing bytes. `read` checks
this structure only; each caller checks its own header and arrays.
"""

import json
import math
import struct

import numpy as np

CHECKPOINT_MAGIC = b"STCTCKPT"
DATASET_MAGIC = b"STCDSET2"
# what a file that starts with each magic is; STCDSET1 is no longer read
_KINDS = {
    CHECKPOINT_MAGIC: "a checkpoint",
    DATASET_MAGIC: "a dataset",
    b"STCDSET1": "a dataset in the pre-container format (STCDSET1), which is no "
    "longer read; write it again with gen-data",
}


def pack(magic: bytes, header: dict, arrays: dict) -> bytes:
    """The bytes of one file: `header` as JSON, then `arrays` (name ->
    float array) in name order, then the total length."""
    hjson = json.dumps(header, sort_keys=True).encode()
    parts = [magic, struct.pack("<I", len(hjson)), hjson, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        nb = name.encode()
        parts += [
            struct.pack("<H", len(nb)), nb,
            struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape), arr.tobytes(),
        ]
    parts.append(struct.pack("<Q", sum(map(len, parts)) + 8))
    return b"".join(parts)


def read(path, magic: bytes, version: int, error) -> tuple:
    """(header, name -> array) of the file at `path`, the arrays read-only
    views of its bytes. A file that breaks the layout or has another
    format version raises `error`, an exception class, with a message
    that starts with the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic):
        found = _KINDS.get(blob[: len(magic)], f"one that starts with {blob[:8]!r}")
        raise error(f"{path}: not {_KINDS[magic]} file but {found}")
    end = len(blob) - 8
    (total,) = struct.unpack("<Q", blob[end:])
    if total != len(blob):
        raise error(f"{path}: length field says {total} bytes, file has {len(blob)}")
    off = len(magic)
    view = memoryview(blob)

    def take(n: int):
        nonlocal off
        if off + n > end:
            raise error(f"{path}: truncated at byte {off}")
        off += n
        return view[off - n : off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    try:
        header = json.loads(str(take(*unpack("<I")), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise error(f"{path}: header is not a JSON object")
    if header.get("version") != version:
        raise error(f"{path}: format version {header.get('version')!r} unsupported")
    arrays = {}
    for _ in range(*unpack("<I")):
        # a name that is not UTF-8 reads back as itself and then matches
        # nothing the caller expects
        name = str(take(*unpack("<H")), "utf-8", "surrogateescape")
        if name in arrays:
            raise error(f"{path}: array {name!r} is stored twice")
        shape = unpack(f"<{unpack('<B')[0]}Q")
        arrays[name] = np.frombuffer(take(math.prod(shape) * 8), "<f8").reshape(shape)
    if off != end:
        raise error(f"{path}: {end - off} unread bytes")
    return header, arrays
