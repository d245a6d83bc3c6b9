"""Synthetic utterances and the binary dataset container.

A task maps each usable token to a fixed feature template; an utterance
is a random token string with each template repeated a few frames and
Gaussian noise added. Datasets live in one binary file with an index
header so splits can be reloaded and validated byte-for-byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..numerics import check_float, check_int
from ..vocab import BLANK, LabelSequence, Vocabulary

MAGIC = b"STCDSET1"
FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """Raised when a dataset container fails structural validation."""


def check_generation(frames_per_token, text_len, noise_std, sizes=(1, 1, 1)) -> tuple:
    """Check the generation knobs; returns them as tuples
    ((lo, hi) frames per token, (lo, hi) text length, (labeled, unlabeled,
    dev) split sizes). Raises ValueError naming the first bad field."""
    ranges = []
    for name, pair in (("frames_per_token", frames_per_token), ("text_len", text_len)):
        lo_hi = tuple(check_int(name, x, 1) for x in pair)
        if len(lo_hi) != 2 or lo_hi[1] < lo_hi[0]:
            raise ValueError(f"{name} must be a range (min, max) with min >= 1, got {list(pair)}")
        ranges.append(lo_hi)
    if not check_float("noise_std", noise_std) >= 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    sizes = tuple(check_int("sizes", s, 1) for s in sizes)
    if len(sizes) != 3:
        raise ValueError(f"sizes must be 3 split sizes, got {list(sizes)}")
    return ranges[0], ranges[1], sizes


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """Feature templates per token plus generation knobs.

    `templates` maps non-blank vocabulary token ids to D-dim vectors; a
    generated utterance repeats each drawn token's template for a count
    sampled from `frames_per_token` and adds `noise_std` Gaussian noise.
    """

    templates: dict
    frames_per_token: tuple
    noise_std: float
    seed: int
    text_len: tuple = (2, 6)

    def __post_init__(self):
        if not self.templates:
            raise ValueError("need at least one token template")
        dims = set()
        items = sorted(self.templates.items())
        normalized = {}
        for tid, vec in items:
            tid = int(tid)
            if tid == BLANK or tid < 0:
                raise ValueError("template token ids must be non-blank")
            v = np.asarray(vec, dtype=np.float64)
            if v.ndim != 1:
                raise ValueError("templates must be vectors")
            dims.add(v.shape[0])
            normalized[tid] = v
        if len(dims) != 1:
            raise ValueError("templates must share one dimension")
        ids = sorted(normalized)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if np.array_equal(normalized[a], normalized[b]):
                    raise ValueError(f"templates for {a} and {b} coincide")
        object.__setattr__(self, "templates", normalized)
        frames, text_len, _ = check_generation(
            self.frames_per_token, self.text_len, self.noise_std
        )
        object.__setattr__(self, "frames_per_token", frames)
        object.__setattr__(self, "text_len", text_len)

    @property
    def feature_dim(self) -> int:
        return next(iter(self.templates.values())).shape[0]

    @classmethod
    def make(
        cls,
        token_ids,
        feature_dim: int,
        frames_per_token=(2, 4),
        noise_std: float = 0.4,
        seed: int = 0,
        text_len=(2, 6),
    ) -> "SyntheticTask":
        """Draw one Gaussian template per token id from `seed`."""
        rng = np.random.default_rng(seed)
        templates = {
            int(t): rng.standard_normal(feature_dim) for t in token_ids
        }
        return cls(
            templates=templates,
            frames_per_token=frames_per_token,
            noise_std=noise_std,
            seed=seed,
            text_len=text_len,
        )


@dataclass(frozen=True, eq=False)
class Utterance:
    """One example: frame features plus (possibly withheld) reference text."""

    uid: str
    features: np.ndarray
    text: str | None = None
    frame_ms: float = 20.0

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError("features must be T x D")
        object.__setattr__(self, "features", f)

    @property
    def n_frames(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True, eq=False)
class DataSplit:
    """Labeled / unlabeled / dev sets, disjoint by utterance id.

    Unlabeled utterances keep their reference text as a hidden field used
    only for evaluation; training paths must not read it.
    """

    labeled: tuple
    unlabeled: tuple
    dev: tuple

    def __post_init__(self):
        seen = {}
        for part, utts in (
            ("labeled", self.labeled),
            ("unlabeled", self.unlabeled),
            ("dev", self.dev),
        ):
            for u in utts:
                if u.uid in seen:
                    raise ValueError(
                        f"utterance id {u.uid!r} in both {seen[u.uid]} and {part}"
                    )
                seen[u.uid] = part

    @property
    def sizes(self) -> dict:
        return {
            "labeled": len(self.labeled),
            "unlabeled": len(self.unlabeled),
            "dev": len(self.dev),
        }


def synthesize_utterance(
    task: SyntheticTask, rng: np.random.Generator, uid: str, vocabulary: Vocabulary
):
    """One utterance plus its per-token repeat counts (the construction
    log: the frame count is exactly the sum of the repeats). Immediate
    token repeats are resampled away so a noise-free task stays decodable
    without blank-separated alignments."""
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
    rows = np.vstack(
        [np.tile(task.templates[t], (r, 1)) for t, r in zip(tokens, repeats)]
    )
    if task.noise_std > 0:
        rows = rows + task.noise_std * rng.standard_normal(rows.shape)
    text = vocabulary.decode(LabelSequence(tuple(tokens)))
    utt = Utterance(uid=uid, features=rows, text=text)
    return utt, repeats


def generate_dataset(
    task: SyntheticTask, sizes, vocabulary: Vocabulary | None = None
) -> DataSplit:
    """Draw disjoint labeled/unlabeled/dev splits, deterministic per seed.

    `sizes` is (labeled, unlabeled, dev), each >= 1.
    """
    vocabulary = vocabulary or Vocabulary.default()
    n_labeled, n_unlabeled, n_dev = check_generation(
        task.frames_per_token, task.text_len, task.noise_std, sizes
    )[2]
    for tid in task.templates:
        if tid >= vocabulary.size:
            raise ValueError(f"template token {tid} outside the vocabulary")
    rng = np.random.default_rng(task.seed)

    def draw(prefix: str, count: int) -> tuple:
        return tuple(
            synthesize_utterance(task, rng, f"{prefix}{i:04d}", vocabulary)[0]
            for i in range(count)
        )

    return DataSplit(
        labeled=draw("L", n_labeled),
        unlabeled=draw("U", n_unlabeled),
        dev=draw("D", n_dev),
    )


# ---------------------------------------------------------------------------
# binary container
# ---------------------------------------------------------------------------


def _record_bytes(utt: Utterance) -> bytes:
    t_len, dim = utt.features.shape
    label = utt.text.encode("utf-8") if utt.text is not None else b""
    head = struct.pack(
        "<IIBH", t_len, dim, 1 if utt.text is not None else 0, len(label)
    )
    return head + label + utt.features.astype("<f8").tobytes(order="C")


def save_dataset(utterances, path) -> None:
    """Single-file container: index header, then per-utterance records."""
    utts = list(utterances)
    frame_ms = utts[0].frame_ms if utts else 20.0
    for u in utts:
        if u.frame_ms != frame_ms:
            raise ValueError("mixed frame rates in one container")
    records = [_record_bytes(u) for u in utts]
    index_size = sum(2 + len(u.uid.encode("utf-8")) + 16 for u in utts)
    offset = len(MAGIC) + 4 + 4 + 8 + index_size
    blob = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(utts)), struct.pack("<d", frame_ms)]
    for u, rec in zip(utts, records):
        uid = u.uid.encode("utf-8")
        blob.append(struct.pack("<H", len(uid)))
        blob.append(uid)
        blob.append(struct.pack("<QQ", offset, len(rec)))
        offset += len(rec)
    blob.extend(records)
    total = sum(len(b) for b in blob) + 8
    blob.append(struct.pack("<Q", total))
    with open(path, "wb") as fh:
        for b in blob:
            fh.write(b)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise DatasetFormatError("container truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_dataset(path) -> tuple:
    """Read a container back, validating the index against the records.

    This is where outside data enters, so non-finite features are rejected
    here; the numeric kernels downstream do not check."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    if r.take(len(MAGIC)) != MAGIC:
        raise DatasetFormatError("not a dataset container")
    version, count = r.unpack("<II")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported container version {version}")
    (frame_ms,) = r.unpack("<d")
    index = []
    seen = set()
    for _ in range(count):
        (uid_len,) = r.unpack("<H")
        uid = r.take(uid_len).decode("utf-8")
        offset, nbytes = r.unpack("<QQ")
        if uid in seen:
            raise DatasetFormatError(f"duplicate utterance id {uid!r}")
        seen.add(uid)
        index.append((uid, offset, nbytes))
    utts = []
    for uid, offset, nbytes in index:
        if offset != r.pos:
            raise DatasetFormatError(f"index offset mismatch for {uid!r}")
        t_len, dim, has_label, label_len = r.unpack("<IIBH")
        label = r.take(label_len).decode("utf-8") if label_len else ""
        feats = np.frombuffer(r.take(t_len * dim * 8), dtype="<f8").reshape(
            t_len, dim
        )
        if r.pos - offset != nbytes:
            raise DatasetFormatError(f"index length mismatch for {uid!r}")
        if not np.isfinite(feats).all():
            raise DatasetFormatError(f"non-finite features in {uid!r}")
        utts.append(
            Utterance(
                uid=uid,
                features=feats.copy(),
                text=label if has_label else None,
                frame_ms=frame_ms,
            )
        )
    (recorded_total,) = r.unpack("<Q")
    if recorded_total != len(buf):
        raise DatasetFormatError("trailing length does not match file size")
    if r.pos != len(buf):
        raise DatasetFormatError("unexpected bytes after trailer")
    return tuple(utts)
