"""Streaming attention masks, hard-copy augmentation, and latency accounting.

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

Every mask carries its position layout (``HardCopyPlan``): ``chunk`` is
``block`` without lookahead, ``bidirectional`` one chunk spanning the
utterance, and ``time_restricted`` a band over one chunk's layout. Only
``block`` with lookahead and more than one chunk has copies.

Induced latency is reported in milliseconds given the per-frame stride.
``reception_field`` composes a mask with itself to answer "which input
frames can influence output frame i after n layers"; the causality tests
drive the encoder against those bounds by perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VARIANTS = ("bidirectional", "time_restricted", "chunk", "block")


@dataclass(frozen=True)
class MaskSpec:
    """Validated description of one attention variant.

    Fields irrelevant to the variant must stay None. `left_limit` caps how
    far back attention reaches (None = unlimited): frames for
    time_restricted, whole chunks for chunk/block.
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
        if self.frame_ms <= 0:
            raise ValueError("frame_ms must be > 0")
        if self.left_limit is not None and self.left_limit < 0:
            raise ValueError("left_limit must be >= 0 or None")
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
        return {
            "variant": self.variant,
            "right_frames": self.right_frames,
            "chunk_frames": self.chunk_frames,
            "future_frames": self.future_frames,
            "left_limit": self.left_limit,
            "frame_ms": self.frame_ms,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MaskSpec":
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown mask spec key(s): {', '.join(unknown)}")
        return cls(**d)


@dataclass(frozen=True, eq=False)
class HardCopyPlan:
    """Layout of a sequence augmented with per-chunk lookahead copies.

    Augmented order is [chunk 0][copies after chunk 0][chunk 1][copies...].
    `index_map[p]` is the source frame of augmented position p; `is_copy[p]`
    marks the duplicated lookahead frames, which are dropped again before
    any per-frame output is read (`output_positions`). A layout without
    copies is the identity, and its three maps return their argument.
    """

    n_frames: int
    chunk_frames: int
    future_frames: int
    index_map: np.ndarray
    is_copy: np.ndarray
    chunk_id: np.ndarray

    @property
    def n_augmented(self) -> int:
        return int(self.index_map.shape[0])

    @property
    def n_chunks(self) -> int:
        return 0 if self.n_frames == 0 else int(self.chunk_id[-1]) + 1

    @property
    def output_positions(self) -> np.ndarray:
        return np.flatnonzero(~self.is_copy)

    @property
    def has_copies(self) -> bool:
        return self.n_augmented != self.n_frames

    def augment(self, x: np.ndarray) -> np.ndarray:
        """Gather frames (rows of x) into the augmented layout."""
        return np.asarray(x)[self.index_map] if self.has_copies else x

    def reduce(self, x_aug: np.ndarray) -> np.ndarray:
        """Drop copy rows, restoring original frame order."""
        return np.asarray(x_aug)[~self.is_copy] if self.has_copies else x_aug

    def reduce_grad(self, grad_aug: np.ndarray) -> np.ndarray:
        """Scatter-add an augmented-layout gradient back onto source frames."""
        if not self.has_copies:
            return grad_aug
        shape = (self.n_frames,) + grad_aug.shape[1:]
        out = np.zeros(shape, dtype=grad_aug.dtype)
        np.add.at(out, self.index_map, grad_aug)
        return out


def plan_hard_copy(n_frames: int, chunk_frames: int, future_frames: int) -> HardCopyPlan:
    """Build the copy layout: after each chunk, the next `future_frames`
    real frames (clipped at the sequence end) are appended as copies, so the
    final chunk gets none."""
    if n_frames < 0:
        raise ValueError("n_frames must be >= 0")
    if chunk_frames < 1:
        raise ValueError("chunk_frames must be >= 1")
    if future_frames < 0:
        raise ValueError("future_frames must be >= 0")
    # chunk k and its copies are the contiguous frames [kC, (k+1)C + F),
    # clipped at the end; the copies are those at or past (k+1)C
    index, chunks = [], []
    for k, start in enumerate(range(0, n_frames, chunk_frames)):
        stop = min(start + chunk_frames + future_frames, n_frames)
        index.extend(range(start, stop))
        chunks.extend([k] * (stop - start))
    index_map = np.asarray(index, dtype=np.int64)
    chunk_id = np.asarray(chunks, dtype=np.int64)
    return HardCopyPlan(
        n_frames=n_frames,
        chunk_frames=chunk_frames,
        future_frames=future_frames,
        index_map=index_map,
        is_copy=index_map >= (chunk_id + 1) * chunk_frames,
        chunk_id=chunk_id,
    )


@dataclass(frozen=True, eq=False)
class AttentionMask:
    """Boolean attend-permission matrix plus the layout it applies to.

    `allowed[i, j]` says position i may read position j, positions being
    those of the layout `plan`: the real frames plus, for block with
    lookahead, the copies. Every layer of the encoder uses the same mask.
    """

    spec: MaskSpec
    n_frames: int
    allowed: np.ndarray
    plan: HardCopyPlan

    @property
    def n_positions(self) -> int:
        return int(self.allowed.shape[0])


def build_mask(spec: MaskSpec, n_frames: int) -> AttentionMask:
    """Realize the mask shared by every encoder layer."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    plan = plan_hard_copy(n_frames, spec.chunk_frames or n_frames, spec.future_frames or 0)
    if spec.variant == "time_restricted":
        idx = np.arange(n_frames)
        diff = idx[None, :] - idx[:, None]  # j - i
        allowed = diff <= spec.right_frames
        if spec.left_limit is not None:
            allowed &= diff >= -spec.left_limit
        return AttentionMask(spec, n_frames, allowed, plan)
    # chunk layouts: own chunk fully visible (copies included); earlier
    # chunks contribute only their real frames, so lookahead never compounds.
    ck = plan.chunk_id
    same = ck[None, :] == ck[:, None]
    earlier = ck[None, :] < ck[:, None]
    allowed = same | (earlier & ~plan.is_copy[None, :])
    if spec.left_limit is not None:
        allowed &= (ck[:, None] - ck[None, :]) <= spec.left_limit
    return AttentionMask(spec, n_frames, allowed, plan)


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
        reach = (reach.astype(np.uint8) @ step.astype(np.uint8)) > 0
    # on booleans the scatter-add of `reduce_grad` is a logical or
    return mask.plan.reduce_grad(mask.plan.reduce(reach).T).T


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
    if spec.variant == "bidirectional":
        return math.inf
    if spec.variant == "time_restricted":
        return n_layers * spec.right_frames * ms
    if spec.variant == "chunk":
        return spec.chunk_frames * ms / 2.0
    return spec.chunk_frames * ms / 2.0 + spec.future_frames * ms


def _max_lookahead_at_depth(spec: MaskSpec, depth: int) -> float:
    if spec.variant == "bidirectional":
        return math.inf
    if spec.variant == "time_restricted":
        return depth * spec.right_frames
    if spec.variant == "chunk":
        return spec.chunk_frames - 1
    return spec.chunk_frames - 1 + spec.future_frames


@dataclass(frozen=True)
class LatencyReport:
    """Latency summary for one mask configuration.

    `per_frame_lookahead` is the exact average lookahead in frames over
    positions of a full chunk ((C-1)/2 based); `max_lookahead` the worst
    case at full depth; `growth` tabulates max lookahead per layer depth.
    """

    spec: MaskSpec
    n_layers: int
    eil_ms: float
    per_frame_lookahead: float
    max_lookahead: float
    growth: tuple[tuple[int, float], ...]

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
    if spec.variant == "bidirectional":
        per_frame = math.inf
    elif spec.variant == "time_restricted":
        per_frame = float(n_layers * spec.right_frames)
    else:
        per_frame = (spec.chunk_frames - 1) / 2.0
        if spec.variant == "block":
            per_frame += spec.future_frames
    growth = tuple(
        (depth, _max_lookahead_at_depth(spec, depth))
        for depth in range(1, n_layers + 1)
    )
    return LatencyReport(
        spec=spec,
        n_layers=n_layers,
        eil_ms=eil(spec, n_layers),
        per_frame_lookahead=per_frame,
        max_lookahead=_max_lookahead_at_depth(spec, n_layers),
        growth=growth,
    )
