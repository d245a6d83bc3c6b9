"""Synthetic utterances and their dataset files.

A task maps each usable token to a fixed feature template; an utterance
is a random token string with each template repeated a few frames and
Gaussian noise added. `synthesize_utterance` draws from its generator in
one fixed order: the length, then each token with its resamples, then all
repeat counts in one draw, then the noise. Every dataset byte, and so
every checkpoint digest, depends on that order. The frames are one gather
from the task's stacked templates.

A dataset is one file in the container layout that checkpoints use
(`streamctc.container`): a JSON header with the format version and the
uids and texts in order, then one float64 array of features per
utterance, named by its uid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import container
from ..numerics import check_float, check_int
from ..vocab import BLANK, LabelSequence, Vocabulary

DATASET_VERSION = 3


class DatasetFormatError(ValueError):
    """Raised when a dataset file fails validation; the message starts
    with the file's path."""


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
    `ids` lists the token ids in ascending order and `table` stacks their
    templates in that order (read-only).
    """

    templates: dict
    frames_per_token: tuple
    noise_std: float
    seed: int
    text_len: tuple = (2, 6)
    ids: tuple = field(init=False, repr=False)
    table: np.ndarray = field(init=False, repr=False)

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
        table = np.stack([normalized[tid] for tid in ids])
        table.flags.writeable = False
        object.__setattr__(self, "ids", tuple(ids))
        object.__setattr__(self, "table", table)
        frames, text_len, _ = check_generation(
            self.frames_per_token, self.text_len, self.noise_std
        )
        object.__setattr__(self, "frames_per_token", frames)
        object.__setattr__(self, "text_len", text_len)

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


def synthesize_utterance(
    task: SyntheticTask, rng: np.random.Generator, uid: str, vocabulary: Vocabulary
):
    """One utterance plus its per-token repeat counts (the construction
    log, a list of ints: the frame count is exactly their sum). Immediate
    token repeats are resampled away so a noise-free task stays decodable
    without blank-separated alignments.

    Draws from `rng` in this order, which every dataset byte depends on:
    the length, each token with its resamples, all repeat counts in one
    draw, then the noise. Tokens are drawn in batches of the slots still
    empty; a sized draw takes the same values as that many scalar draws,
    and every value of a batch fills a slot or is resampled away, so no
    draw is wasted. The frames are one gather from `task.table`, so they
    never share memory with it."""
    n = len(task.ids)
    length = int(rng.integers(task.text_len[0], task.text_len[1] + 1))
    positions = []
    while len(positions) < length:
        for pos in rng.integers(0, n, size=length - len(positions)).tolist():
            if n == 1 or not positions or pos != positions[-1]:
                positions.append(pos)
    lo, hi = task.frames_per_token
    repeats = rng.integers(lo, hi + 1, size=length)
    rows = task.table[np.repeat(positions, repeats)]
    if task.noise_std > 0:
        rows = rows + task.noise_std * rng.standard_normal(rows.shape)
    text = vocabulary.decode(LabelSequence(tuple(task.ids[p] for p in positions)))
    utt = Utterance(uid=uid, features=rows, text=text)
    return utt, repeats.tolist()


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


def save_dataset(utterances, path) -> None:
    """Write `utterances` as one dataset file (see the module docstring)."""
    utts = list(utterances)
    arrays = {u.uid: u.features for u in utts}
    if len(arrays) != len(utts):
        raise ValueError("repeated utterance id in one container")
    header = {
        "version": DATASET_VERSION,
        "uids": [u.uid for u in utts],
        "texts": [u.text for u in utts],
    }
    with open(path, "wb") as fh:
        fh.write(container.pack(container.DATASET_MAGIC, header, arrays))


def load_dataset(path) -> tuple:
    """Read a `save_dataset` file back in its order; each utterance gets a
    copy of its features, so no view of the file outlives the call.

    This is where outside data enters, so non-finite features are rejected
    here; the numeric kernels downstream do not check."""
    header, arrays = container.read(
        path, container.DATASET_MAGIC, DATASET_VERSION, DatasetFormatError
    )
    uids, texts = header.get("uids"), header.get("texts")
    if not isinstance(uids, list) or sorted(uids, key=str) != sorted(arrays):
        raise DatasetFormatError(f"{path}: header uids do not name the stored arrays one to one")
    if not isinstance(texts, list) or len(texts) != len(uids) or not all(
        t is None or isinstance(t, str) for t in texts
    ):
        raise DatasetFormatError(f"{path}: header texts is not one string or null per uid")
    utts = []
    for uid, text in zip(uids, texts):
        feats = arrays[uid]
        if feats.ndim != 2 or not np.isfinite(feats).all():
            raise DatasetFormatError(f"{path}: features of {uid!r} are not finite T x D values")
        utts.append(Utterance(uid=uid, features=feats.copy(), text=text))
    return tuple(utts)
