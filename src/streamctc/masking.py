"""Streaming attention masks, their hard-copy layout, and latency accounting.

Four attention variants over a T-frame sequence:

* ``bidirectional``: every frame attends everywhere (offline topline).
* ``time_restricted``: each layer may look ``right_frames`` ahead, so
  lookahead compounds with depth.
* ``chunk``: frames grouped into fixed chunks; a frame attends its own chunk
  and previous chunks, never ahead of its chunk.
* ``block``: chunk attention plus ``future_frames`` lookahead frames that
  are physically copied after each chunk. Copies attend (and are attended)
  only inside their chunk's scope, so the lookahead does NOT compound:
  deeper layers see the copies, not fresher frames.

Every mask carries its position layout: ``index_map`` gives each
position's source frame and ``is_copy`` marks the lookahead copies. The
encoder gathers frames into that layout and scatter-adds gradients back
with these two maps. ``chunk`` is ``block`` without lookahead,
``bidirectional`` one chunk spanning the utterance, and
``time_restricted`` a band over one chunk's layout. Only ``block`` with
lookahead and more than one chunk has copies.

Induced latency is reported in milliseconds given the per-frame stride,
and lookahead in frames: one rule (`_lookahead`) gives a mask's average
and worst-case lookahead at each depth.
``reception_field`` composes a mask with itself to answer "which input
frames can influence output frame i after n layers"; the causality tests
drive the encoder against those bounds by perturbation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .numerics import check_float, check_int, check_keys

VARIANTS = ("bidirectional", "time_restricted", "chunk", "block")
# masks kept by `build_mask`, least recently used dropped first: a
# training run sees a few dozen distinct (spec, length) pairs
MASK_CACHE_SIZE = 256


@dataclass(frozen=True)
class MaskSpec:
    """Validated description of one attention variant.

    Fields irrelevant to the variant must stay None; the frame counts are
    integers. `left_limit` caps how far back attention reaches (None =
    unlimited): frames for time_restricted, whole chunks for chunk/block.
    `frame_ms` is the finite, positive frame stride.
    """

    variant: str
    right_frames: int | None = None
    chunk_frames: int | None = None
    future_frames: int | None = None
    left_limit: int | None = None
    frame_ms: float = 20.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not check_float("frame_ms", self.frame_ms) > 0:
            raise ValueError(f"frame_ms must be finite and > 0, got {self.frame_ms}")
        for name in ("right_frames", "chunk_frames", "future_frames", "left_limit"):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name), 0)
        if self.variant == "bidirectional":
            self._forbid("right_frames", "chunk_frames", "future_frames")
            if self.left_limit is not None:
                raise ValueError("bidirectional takes no left_limit")
        elif self.variant == "time_restricted":
            self._forbid("chunk_frames", "future_frames")
            if self.right_frames is None or self.right_frames < 0:
                raise ValueError("time_restricted requires right_frames >= 0")
        elif self.variant == "chunk":
            self._forbid("right_frames", "future_frames")
            if self.chunk_frames is None or self.chunk_frames < 1:
                raise ValueError("chunk requires chunk_frames >= 1")
        else:  # block
            self._forbid("right_frames")
            if self.chunk_frames is None or self.chunk_frames < 1:
                raise ValueError("block requires chunk_frames >= 1")
            if self.future_frames is None or self.future_frames < 0:
                raise ValueError("block requires future_frames >= 0")

    def _forbid(self, *names: str):
        for name in names:
            if getattr(self, name) is not None:
                raise ValueError(f"{self.variant} does not take {name}")

    def param_text(self) -> str:
        """The fields that are set, as `R=.. C=.. F=.. L=..`; "" when none is."""
        fields = (
            ("R", self.right_frames),
            ("C", self.chunk_frames),
            ("F", self.future_frames),
            ("L", self.left_limit),
        )
        return " ".join(f"{key}={value}" for key, value in fields if value is not None)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MaskSpec":
        return cls(**check_keys("mask spec", d, cls.__dataclass_fields__))


@dataclass(frozen=True, eq=False)
class AttentionMask:
    """Boolean attend-permission matrix plus the layout it applies to.

    The layout's positions are the real frames plus, for block with
    lookahead, the copies: chunk after chunk, each followed by its copies.
    `index_map[p]` is the source frame of position p and `is_copy[p]`
    marks a copy, which is dropped again before any per-frame output is
    read. `allowed[i, j]` says position i may read position j. Every layer
    of the encoder uses the same mask.
    """

    spec: MaskSpec
    n_frames: int
    allowed: np.ndarray
    index_map: np.ndarray
    is_copy: np.ndarray

    @property
    def n_positions(self) -> int:
        return int(self.allowed.shape[0])


@functools.lru_cache(maxsize=MASK_CACHE_SIZE, typed=True)
def build_mask(spec: MaskSpec, n_frames: int) -> AttentionMask:
    """Realize the mask shared by every encoder layer.

    Masks are built once per (spec, n_frames) and kept in a bounded cache
    (`build_mask.cache_clear()` empties it), so every caller shares one
    mask: its arrays are read-only."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    chunk, future = spec.chunk_frames or n_frames, spec.future_frames or 0
    # chunk k and its copies are the contiguous frames [kC, (k+1)C + F),
    # clipped at the end; the copies are those at or past (k+1)C
    index, chunks = [], []
    for k, start in enumerate(range(0, n_frames, chunk)):
        stop = min(start + chunk + future, n_frames)
        index.extend(range(start, stop))
        chunks.extend([k] * (stop - start))
    index_map = np.asarray(index, dtype=np.int64)
    ck = np.asarray(chunks, dtype=np.int64)
    is_copy = index_map >= (ck + 1) * chunk
    if spec.variant == "time_restricted":
        idx = np.arange(n_frames)
        diff = idx[None, :] - idx[:, None]  # j - i
        allowed = diff <= spec.right_frames
        if spec.left_limit is not None:
            allowed &= diff >= -spec.left_limit
        return _frozen(AttentionMask(spec, n_frames, allowed, index_map, is_copy))
    # chunk layouts: own chunk fully visible (copies included); earlier
    # chunks contribute only their real frames, so lookahead never compounds.
    same = ck[None, :] == ck[:, None]
    earlier = ck[None, :] < ck[:, None]
    allowed = same | (earlier & ~is_copy[None, :])
    if spec.left_limit is not None:
        allowed &= (ck[:, None] - ck[None, :]) <= spec.left_limit
    return _frozen(AttentionMask(spec, n_frames, allowed, index_map, is_copy))


def _frozen(mask: AttentionMask) -> AttentionMask:
    for array in (mask.allowed, mask.index_map, mask.is_copy):
        array.flags.writeable = False
    return mask


def reachability(mask: AttentionMask, n_layers: int) -> np.ndarray:
    """Boolean (T, T) matrix: input frame j can reach output frame i through
    n attention hops. Residual paths keep the diagonal true regardless of
    depth. Masks are composed on their layout, then copy rows are dropped
    and copy columns folded onto their source frames."""
    if n_layers < 0:
        raise ValueError("n_layers must be >= 0")
    step = mask.allowed | np.eye(mask.n_positions, dtype=bool)
    reach = np.eye(mask.n_positions, dtype=bool)
    for _ in range(n_layers):
        reach = reach @ step  # on booleans, matmul is or-of-ands
    fold = mask.index_map[:, None] == np.arange(mask.n_frames)
    return reach[~mask.is_copy] @ fold


@dataclass(frozen=True, eq=False)
class ReceptionField:
    """Per-output-frame earliest/latest reachable input frame indices."""

    earliest: np.ndarray
    latest: np.ndarray


def reception_field(spec: MaskSpec, n_layers: int, n_frames: int) -> ReceptionField:
    """Source-frame bounds per output frame after `n_layers` layers."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    reach = reachability(build_mask(spec, n_frames), n_layers)
    earliest = reach.argmax(axis=1)
    latest = n_frames - 1 - reach[:, ::-1].argmax(axis=1)
    return ReceptionField(
        earliest=earliest.astype(np.int64), latest=latest.astype(np.int64)
    )


def eil(spec: MaskSpec, n_layers: int) -> float:
    """Encoder-induced latency in milliseconds.

    Chunk attention keeps the average frame waiting half a chunk; block adds
    its fixed lookahead on top; per-layer right context compounds with
    depth. Bidirectional needs the whole utterance: reported as infinity.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    ms = spec.frame_ms
    if spec.variant == "time_restricted":
        return n_layers * spec.right_frames * ms
    c, f = _chunk_layout(spec)
    return c * ms / 2.0 + f * ms


def _chunk_layout(spec: MaskSpec) -> tuple:
    """(C, F) of a chunk layout, read as `build_mask` reads it: chunk is
    block without lookahead, and bidirectional one chunk of unbounded
    length, so its latencies come out infinite."""
    return spec.chunk_frames or math.inf, spec.future_frames or 0


def _lookahead(spec: MaskSpec, depth: int) -> tuple:
    """(average, worst) lookahead in frames after `depth` layers: both
    depth * R for time_restricted, whose right context compounds; for a
    chunk layout (C-1)/2 + F over a full chunk's frames and C-1+F."""
    if spec.variant == "time_restricted":
        return float(depth * spec.right_frames), depth * spec.right_frames
    c, f = _chunk_layout(spec)
    return (c - 1) / 2.0 + f, c - 1 + f


@dataclass(frozen=True)
class LatencyReport:
    """Latency summary for one mask configuration.

    `per_frame_lookahead` is the average lookahead in frames at full depth;
    `growth` tabulates the worst case per layer depth, and `max_lookahead`
    is its last entry.
    """

    spec: MaskSpec
    n_layers: int
    eil_ms: float
    per_frame_lookahead: float
    growth: tuple[tuple[int, float], ...]

    @property
    def max_lookahead(self) -> float:
        return self.growth[-1][1]

    def table(self) -> str:
        lines = [
            f"variant            {self.spec.variant}",
            f"params             {self.spec.param_text() or '-'}",
            f"layers             {self.n_layers}",
            f"frame_ms           {self.spec.frame_ms:g}",
            f"EIL {_num(self.eil_ms)} ms",
            f"avg lookahead      {_num(self.per_frame_lookahead)} frames",
            f"max lookahead      {_num(self.max_lookahead)} frames",
            "",
            f"{'depth':>5} {'max_lookahead_frames':>22}",
        ]
        for depth, val in self.growth:
            lines.append(f"{depth:>5} {_num(val):>22}")
        return "\n".join(lines)

    def machine_line(self) -> str:
        spec = self.spec
        c_ms = "-" if spec.chunk_frames is None else _num(spec.chunk_frames * spec.frame_ms)
        f_ms = "-" if spec.future_frames is None else _num(spec.future_frames * spec.frame_ms)
        r = "-" if spec.right_frames is None else str(spec.right_frames)
        return "\t".join(
            [spec.variant, c_ms, f_ms, r, str(self.n_layers), _num(self.eil_ms)]
        )


def _num(x: float) -> str:
    return "inf" if math.isinf(x) else f"{x:g}"


def latency_report(spec: MaskSpec, n_layers: int) -> LatencyReport:
    return LatencyReport(
        spec=spec,
        n_layers=n_layers,
        eil_ms=eil(spec, n_layers),
        per_frame_lookahead=_lookahead(spec, n_layers)[0],
        growth=tuple((depth, _lookahead(spec, depth)[1]) for depth in range(1, n_layers + 1)),
    )
