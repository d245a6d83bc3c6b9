"""Masked-transformer CTC encoder with hand-rolled reverse-mode gradients.

Architecture, per utterance (T x feature_dim input):

    frontend: batch norm -> causal conv1d -> GELU  (T x model_dim)
    augment into the mask's layout            (T' x model_dim)
    n x pre-norm transformer layer            (T' x model_dim)
    drop the layout's copies                  (T x model_dim)
    final layer norm -> linear head -> log-softmax  (T x V)

T' exceeds T only for block masks with lookahead; on every other layout
both steps return their input.

``forward_with_cache`` runs a batch of B utterances as one pass. The
frontend works on padded (B, T_max, ...) frame arrays, and sees a
member's pad frames as the zeros past the end of a lone utterance. Every
real layout position of the batch is then one packed row of an (N, d)
array, member after member, and the position-wise math of each layer
(layer norms, projections, FFN, GELU, residuals) runs on those N rows
only, never on padding. Attention alone scatters the packed rows into a
padded (B, heads, T'_max, ...) layout and gathers them back: the
attention mask of the batch is each member's own mask over its
positions, with every pad position attending only to itself, so no real
query sees a pad key. When the packed rows are the frame rows (equal
lengths and no copies) the pass moves no rows at all. A pass over one
utterance is the reference: a batch's outputs equal its members'
batch-of-one calls, and its parameter gradient their sum, up to float
rounding. ``forward`` is a batch of one.

The frontend norm is per-channel batch normalization over time with
running stats. In train mode each member is normalized by its own
statistics, which the pass returns in its cache (``cache["bn_moments"]``)
and never folds in itself: the training loop folds them into
``bn_stats`` with ``numerics.batch_norm_fold``, once per member in batch
order, so no pass writes into ``params``. The conv is causal, output
frame t reading frames t-K+1 .. t, so the mask alone sets the lookahead.
Each transformer layer is pre-norm: ``h + MHA(LN(h))`` then
``a + FFN(LN(a))``. Attention splits queries, keys and values into
``(B, heads, T'_max, head_dim)`` stacks and runs, forward and backward,
as batched matmul (``@``) over the batch and head axes.

``forward_with_cache`` returns one ForwardTrace per member (per-layer
hidden states at real frame positions, the posteriorgram and the frontend
output) plus everything ``backward`` needs; the members' posteriorgrams
and hidden states are row ranges of (sum of T_b)-row arrays. ``backward``
takes gradients in that layout, on the log-posteriorgram and/or injected
directly on traced hidden states, and writes every entry of the
parameter gradient, summed over the batch, into the caller's
``GradientBuffer``. The input features are data that no stage trains, so
it computes no gradient on them.

A checkpoint is one file in the layout of ``streamctc.container``, which
datasets share: a JSON header with the format version, the encoder
config and the mask spec, then every named parameter array and the
frontend's running statistics. ``checkpoint_digest`` is the sha256 of
the bytes ``save_checkpoint`` writes.

The kernels do not check finiteness; the forward pass checks only its
posteriorgram, which every hidden state reaches through the residual path,
so a NaN or Inf anywhere in a real frame's computation raises
``NonFiniteError`` there.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from . import container
from .container import CHECKPOINT_MAGIC
from .masking import MaskSpec, build_mask
from .numerics import (
    BatchNormStats,
    batch_norm_forward,
    batch_norm_backward,
    conv1d_forward,
    conv1d_backward,
    check_int,
    check_keys,
    ensure_finite,
    gelu_backward,
    gelu_forward,
    layer_norm_forward,
    layer_norm_backward,
    log_softmax,
    log_softmax_backward,
    masked_softmax,
    masked_softmax_backward,
)

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is malformed, truncated, or mismatches expectations."""


# v1 checkpoint header config fields that name no choice: every header
# carries these values, and `EncoderConfig.from_dict` accepts no other
HEADER_CONSTANTS = {"dropout": 0.0, "frontend_norm": "bn", "frontend_conv": "causal"}


@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int = 4
    model_dim: int = 32
    n_heads: int = 2
    ffn_dim: int = 64
    vocab_size: int = 29
    feature_dim: int = 8
    frontend_kernel: int = 4

    def __post_init__(self):
        for name in ("n_layers", "model_dim", "n_heads", "ffn_dim", "feature_dim",
                     "frontend_kernel"):
            check_int(name, getattr(self, name), 1)
        if self.model_dim % self.n_heads != 0:
            raise ValueError("model_dim must be divisible by n_heads")
        # blank plus a symbol
        check_int("vocab_size", self.vocab_size, 2)

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        allowed = [*cls.__dataclass_fields__, *HEADER_CONSTANTS]
        d = dict(check_keys("encoder config", d, allowed))
        for key, value in HEADER_CONSTANTS.items():
            if (got := d.pop(key, value)) != value:
                raise ValueError(f"{key} {got!r} is not supported; only {value!r} is accepted")
        return cls(**d)


@functools.lru_cache(maxsize=None)
def param_layout(config: EncoderConfig) -> tuple:
    """Ordered (name, shape) rows of every trainable array.

    This is the one listing of the model's parameters: `ModelParams.flat`,
    the gradient vector of `backward` and the Adam moments are laid out in
    this order, and `load_checkpoint` checks stored arrays against it."""
    d, f = config.model_dim, config.ffn_dim
    rows = [
        ("frontend.norm.gain", (config.feature_dim,)),
        ("frontend.norm.bias", (config.feature_dim,)),
        ("frontend.conv.kernel", (config.frontend_kernel, config.feature_dim, d)),
        ("frontend.conv.bias", (d,)),
    ]
    for i in range(config.n_layers):
        p = f"layer{i}."
        rows += [
            (p + "ln1.gain", (d,)),
            (p + "ln1.bias", (d,)),
            (p + "attn.wq", (d, d)),
            (p + "attn.wk", (d, d)),
            (p + "attn.wv", (d, d)),
            (p + "attn.wo", (d, d)),
            (p + "attn.bo", (d,)),
            (p + "ln2.gain", (d,)),
            (p + "ln2.bias", (d,)),
            (p + "ffn.w1", (d, f)),
            (p + "ffn.b1", (f,)),
            (p + "ffn.w2", (f, d)),
            (p + "ffn.b2", (d,)),
        ]
    rows += [
        ("final_norm.gain", (d,)),
        ("final_norm.bias", (d,)),
        ("head.w", (d, config.vocab_size)),
        ("head.b", (config.vocab_size,)),
    ]
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _param_slices(config: EncoderConfig) -> tuple:
    """((name, slice into the vector, shape) per layout row, vector size)."""
    rows = []
    offset = 0
    for name, shape in param_layout(config):
        size = math.prod(shape)
        rows.append((name, slice(offset, offset + size), shape))
        offset += size
    return tuple(rows), offset


def param_views(config: EncoderConfig, vector: np.ndarray) -> dict:
    """Named views into a vector laid out by `param_layout(config)`."""
    rows, size = _param_slices(config)
    if vector.shape != (size,):
        raise ValueError(f"parameter vector has shape {vector.shape}, layout ({size},)")
    return {name: vector[part].reshape(shape) for name, part, shape in rows}


@functools.lru_cache(maxsize=None)
def _qkv_blocks(config: EncoderConfig) -> tuple:
    """Per layer, the slice of the parameter vector that holds its
    `attn.wq`, `attn.wk` and `attn.wv` back to back, read as one
    (3, d, d) stack by the forward pass."""
    where = {name: part for name, part, _ in _param_slices(config)[0]}
    blocks = []
    for i in range(config.n_layers):
        q, k, v = (where[f"layer{i}.attn.w{x}"] for x in "qkv")
        assert q.stop == k.start and k.stop == v.start, "wq, wk, wv must be adjacent"
        blocks.append(slice(q.start, v.stop))
    return tuple(blocks)


@dataclass(frozen=True, eq=False)
class GradientBuffer:
    """A gradient vector `flat` laid out like `ModelParams.flat`, with its
    named views `arrays` built once, for `backward` to write into. The
    caller owns it and may reuse it for every pass."""

    flat: np.ndarray
    arrays: MappingProxyType

    @classmethod
    def zeros(cls, config: EncoderConfig) -> "GradientBuffer":
        return cls.over(config, np.zeros(_param_slices(config)[1]))

    @classmethod
    def over(cls, config: EncoderConfig, flat: np.ndarray) -> "GradientBuffer":
        """A buffer over the caller's parameter-sized vector `flat`."""
        return cls(flat, MappingProxyType(param_views(config, flat)))


@dataclass(eq=False)
class ModelParams:
    """Every trainable value in one float64 vector `flat`, laid out by
    `param_layout`, plus the frontend batch norm's running statistics.

    `arrays` maps each name to a view into `flat`; it is read-only, so
    training writes into the views or `flat` in place and never rebinds a
    name. `mask_spec` records the streaming variant the model was trained
    under, carried through checkpoints so downstream stages can verify
    lineage.
    """

    config: EncoderConfig
    flat: np.ndarray
    bn_stats: BatchNormStats
    mask_spec: MaskSpec | None = None

    def __post_init__(self):
        self.arrays = MappingProxyType(param_views(self.config, self.flat))

    def __reduce__(self):
        # the views are rebuilt from `flat`; a mapping proxy does not pickle
        return (ModelParams, (self.config, self.flat, self.bn_stats, self.mask_spec))

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            flat=self.flat.copy(),
            bn_stats=self.bn_stats.copy(),
            mask_spec=self.mask_spec,
        )


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """One utterance's per-layer hidden states and posteriorgram at its
    real frame positions, plus `frontend`, the frontend output its first
    layer reads (None on traces built outside the encoder)."""

    hidden: tuple
    posteriorgram: np.ndarray
    frontend: np.ndarray | None = None


def init_params(config: EncoderConfig, seed: int) -> ModelParams:
    """Deterministic initialization in layout order: gains are 1, other
    1-D arrays 0, and each matrix is uniform in +-1/sqrt(fan_in), fan_in
    being the product of all its dimensions but the last.

    The frontend's running stats start at (mean 0, var 1), so a fresh
    model runs in infer mode; training folds each train-mode pass's
    member moments in with weight `BN_MOMENTUM` (`batch_norm_fold`).
    """
    rng = np.random.default_rng(seed)
    size = sum(math.prod(shape) for _, shape in param_layout(config))
    params = ModelParams(config, np.zeros(size), BatchNormStats.fresh(config.feature_dim))
    for name, shape in param_layout(config):
        if len(shape) > 1:
            bound = 1.0 / np.sqrt(math.prod(shape[:-1]))
            params.arrays[name][...] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith(".gain"):
            params.arrays[name][...] = 1.0
    return params


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Padding:
    """Where the members of one batch sit in the arrays of a pass.

    Frames: member b fills row b of the (B, T, ...) frame arrays of the
    frontend, its `lengths[b]` frames first and zeros after. Positions:
    each real layout position of the batch is one packed row of an (N, d)
    array, member after member and each member's in layout order, and
    every position-wise op (layer norms, projections, FFN, residuals) runs
    on these N rows only. Attention alone sees a padded layout: `scatter`
    spreads the packed rows over B x P rows, member b's positions first in
    its block of P, which split into (B, heads, P, head_dim) stacks, and
    `gather` takes them back. `allowed` is the (B, 1, P, P) mask: each
    member's own mask over its positions, and each pad position attending
    only to itself, so no real query sees a pad key.
    """

    lengths: tuple
    allowed: np.ndarray
    # N, the number of packed rows
    n_rows: int
    # flat frame row (b x T + frame) each packed row reads; None when the
    # packed rows are the frame rows (no copies, no pad frames)
    frames: np.ndarray | None
    # flat row (b x P + position) of each packed row in the padded
    # attention layout; None when no member has pad positions
    slots: np.ndarray | None
    # packed row of each member's output positions (its frames in order,
    # copies dropped), member after member; None when no member has copies
    outputs: np.ndarray | None

    def augment(self, h0: np.ndarray) -> np.ndarray:
        """(B, T, d) frames -> (N, d) packed position rows."""
        rows = h0.reshape(-1, h0.shape[-1])
        return rows if self.frames is None else rows[self.frames]

    def reduce_grad(self, d_h: np.ndarray) -> np.ndarray:
        """(N, d) packed-row gradient -> (B, T, d), copies scatter-added
        onto their source frames and pad frames 0."""
        shape = (len(self.lengths), max(self.lengths), d_h.shape[1])
        if self.frames is None:
            return d_h.reshape(shape)
        out = np.zeros((shape[0] * shape[1], shape[2]))
        if self.outputs is None:
            out[self.frames] = d_h
        else:
            np.add.at(out, self.frames, d_h)
        return out.reshape(shape)

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """(..., N, d) packed rows -> (..., B x P, d) attention rows, pad
        rows 0."""
        if self.slots is None:
            return x
        rows = self.allowed.shape[0] * self.allowed.shape[-1]
        out = np.zeros(x.shape[:-2] + (rows, x.shape[-1]))
        out[..., self.slots, :] = x
        return out

    def gather(self, x: np.ndarray) -> np.ndarray:
        """(B x P, d) attention rows -> (N, d) packed rows."""
        return x if self.slots is None else x[self.slots]

    def output_rows(self, h: np.ndarray) -> np.ndarray:
        """(N, d) packed rows -> the (sum of lengths, d) output rows."""
        return h if self.outputs is None else h[self.outputs]

    def position_grad(self, d_out: np.ndarray) -> np.ndarray:
        """Gradient on the output rows -> (N, d), 0 on copy rows."""
        if self.outputs is None:
            return d_out
        d_h = np.zeros((self.n_rows, d_out.shape[1]))
        d_h[self.outputs] = d_out
        return d_h


def _pad(spec: MaskSpec, lengths: list) -> _Padding:
    masks = [build_mask(spec, n) for n in lengths]
    t_max = max(lengths)
    widths = [mask.n_positions for mask in masks]
    p_max = max(widths)
    allowed = np.zeros((len(masks), p_max, p_max), dtype=bool)
    frames, slots, outputs = [], [], []
    first = 0
    for b, mask in enumerate(masks):
        n_pos = mask.n_positions
        allowed[b, :n_pos, :n_pos] = mask.allowed
        pads = np.arange(n_pos, p_max)
        allowed[b, pads, pads] = True
        frames.append(b * t_max + mask.index_map)
        slots.append(b * p_max + np.arange(n_pos))
        outputs.append(first + np.flatnonzero(~mask.is_copy))
        first += n_pos
    copies = first > sum(lengths)
    return _Padding(
        lengths=tuple(lengths),
        allowed=allowed[:, None],
        n_rows=first,
        frames=np.concatenate(frames) if copies or min(lengths) < t_max else None,
        slots=np.concatenate(slots) if min(widths) < p_max else None,
        outputs=np.concatenate(outputs) if copies else None,
    )


def _split_heads(x: np.ndarray, n_batch: int, n_heads: int) -> np.ndarray:
    """(..., B x P, d) rows -> (..., B, heads, P, head_dim) stacks."""
    *lead, rows, d = x.shape
    split = x.reshape(*lead, n_batch, rows // n_batch, n_heads, d // n_heads)
    return split.swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b * t, h * dh)


def _layer_forward(h, arrays, w_qkv, prefix, config, pad):
    g = lambda name: arrays[prefix + name]
    n_batch = pad.allowed.shape[0]
    u, ln1_cache = layer_norm_forward(h, g("ln1.gain"), g("ln1.bias"))
    # one (3, N, d) product for the (3, d, d) stack wq | wk | wv
    q, k, v = _split_heads(pad.scatter(np.matmul(u, w_qkv)), n_batch, config.n_heads)
    beta = 1.0 / np.sqrt(config.head_dim)
    logits = q @ k.swapaxes(-1, -2)
    logits *= beta
    probs = masked_softmax(logits, pad.allowed)
    z = pad.gather(_merge_heads(probs @ v))
    a = h + (z @ g("attn.wo") + g("attn.bo"))
    w, ln2_cache = layer_norm_forward(a, g("ln2.gain"), g("ln2.bias"))
    f2, gelu_cache = gelu_forward(w @ g("ffn.w1") + g("ffn.b1"))
    out = a + (f2 @ g("ffn.w2") + g("ffn.b2"))
    cache = {
        "u": u,
        "ln1": ln1_cache,
        "q": q,
        "k": k,
        "v": v,
        "probs": probs,
        "z": z,
        "beta": beta,
        "w": w,
        "ln2": ln2_cache,
        "gelu": gelu_cache,
        "f2": f2,
    }
    return out, cache


def _layer_backward(d_out, arrays, grads, prefix, config, cache, pad):
    """Writes every gradient of the layer's parameters into its view in
    `grads` and returns the gradient on the layer's input rows."""
    g = lambda name: arrays[prefix + name]
    out = lambda name: grads[prefix + name]

    np.matmul(cache["f2"].T, d_out, out=out("ffn.w2"))
    np.add.reduce(d_out, axis=0, out=out("ffn.b2"))
    d_f1 = gelu_backward(d_out @ g("ffn.w2").T, cache["gelu"])
    np.matmul(cache["w"].T, d_f1, out=out("ffn.w1"))
    np.add.reduce(d_f1, axis=0, out=out("ffn.b1"))
    d_w = d_f1 @ g("ffn.w1").T
    d_a2, out("ln2.gain")[...], out("ln2.bias")[...] = layer_norm_backward(d_w, cache["ln2"])
    d_a = d_out + d_a2

    np.matmul(cache["z"].T, d_a, out=out("attn.wo"))
    np.add.reduce(d_a, axis=0, out=out("attn.bo"))
    d_z = _split_heads(
        pad.scatter(d_a @ g("attn.wo").T), pad.allowed.shape[0], config.n_heads
    )
    d_probs = d_z @ cache["v"].swapaxes(-1, -2)
    d_v = cache["probs"].swapaxes(-1, -2) @ d_z
    d_logits = masked_softmax_backward(d_probs, cache["probs"])
    beta = cache["beta"]
    d_q = d_logits @ cache["k"]
    d_q *= beta
    d_k = d_logits.swapaxes(-1, -2) @ cache["q"]
    d_k *= beta
    u = cache["u"]
    d_u = np.zeros_like(u)
    for name, d_proj in (("attn.wq", d_q), ("attn.wk", d_k), ("attn.wv", d_v)):
        flat = pad.gather(_merge_heads(d_proj))
        np.matmul(u.T, flat, out=out(name))
        d_u += flat @ g(name).T
    d_h2, out("ln1.gain")[...], out("ln1.bias")[...] = layer_norm_backward(d_u, cache["ln1"])
    return d_a + d_h2


def forward_with_cache(
    params: ModelParams,
    features,
    spec: MaskSpec,
    train: bool = False,
):
    """Run the encoder on a batch, `features` being a list of
    T_b x feature_dim matrices, as one pass over packed position rows.
    Returns (one ForwardTrace per member in batch order, cache for
    backward); the members' posteriorgrams and traced hidden states are
    row ranges of one (sum of T_b) x ... array, member after member. With
    `train` the frontend norm uses each member's own moments and
    `cache["bn_moments"]` holds them for `batch_norm_fold`; `params` is
    only read."""
    config = params.config
    xs = [np.asarray(f, dtype=np.float64) for f in features]
    if not xs:
        raise ValueError("empty batch")
    for x in xs:
        if x.ndim != 2:
            raise ValueError(f"features must be T x D, got {x.ndim} dimension(s)")
        if x.shape[0] < 1:
            raise ValueError("empty feature sequence")
        if x.shape[1] != config.feature_dim:
            raise ValueError(
                f"feature dim {x.shape[1]} does not match config {config.feature_dim}"
            )
    lengths = [x.shape[0] for x in xs]
    pad = _pad(spec, lengths)
    x = np.zeros((len(xs), max(lengths), config.feature_dim))
    for b, member in enumerate(xs):
        x[b, : lengths[b]] = member
    arrays = params.arrays
    d = config.model_dim
    cache = {"config": config, "pad": pad}

    # pad rows leave the norm as zeros, the conv's padding past a lone utterance
    xn, cache["norm"], cache["bn_moments"] = batch_norm_forward(
        x, arrays["frontend.norm.gain"], arrays["frontend.norm.bias"], params.bn_stats,
        "train" if train else "infer", lengths=lengths,
    )
    xc, cache["conv"] = conv1d_forward(
        xn, arrays["frontend.conv.kernel"], arrays["frontend.conv.bias"]
    )
    h0, cache["gelu"] = gelu_forward(xc)
    h = pad.augment(h0)

    hidden = []
    layer_caches = []
    for i, block in enumerate(_qkv_blocks(config)):
        w_qkv = params.flat[block].reshape(3, d, d)
        h, lc = _layer_forward(h, arrays, w_qkv, f"layer{i}.", config, pad)
        layer_caches.append(lc)
        hidden.append(pad.output_rows(h))
    cache["layers"] = layer_caches

    hn, cache["final_norm"] = layer_norm_forward(
        hidden[-1], arrays["final_norm.gain"], arrays["final_norm.bias"]
    )
    cache["hn"] = hn
    logits = hn @ arrays["head.w"] + arrays["head.b"]
    logpost = log_softmax(logits)
    ensure_finite(logpost, "posteriorgram")
    cache["logpost"] = logpost
    traces = []
    start = 0
    for b, length in enumerate(lengths):
        rows = slice(start, start + length)
        traces.append(ForwardTrace(
            hidden=tuple(layer[rows] for layer in hidden),
            posteriorgram=logpost[rows],
            frontend=h0[b, :length],
        ))
        start += length
    return traces, cache


def forward(
    params: ModelParams,
    features: np.ndarray,
    spec: MaskSpec,
) -> ForwardTrace:
    """One T x feature_dim utterance, run as a batch of one in infer mode."""
    return forward_with_cache(params, [features], spec)[0][0]


def backward(
    params: ModelParams,
    cache: dict,
    out: GradientBuffer,
    grad_logpost=None,
    grad_hidden=None,
) -> None:
    """Reverse pass over the batch of `forward_with_cache`, in its layout:
    `grad_logpost` is the gradient on the members' log-posteriorgrams
    back to back, (sum of T_b) x V; `grad_hidden` maps a 1-based layer
    index to the gradient on that layer's traced hidden states, likewise
    (sum of T_b) x model_dim.

    Writes the parameter gradient, summed over the members, into
    `out.flat`: every entry is written, none accumulated, so the buffer's
    old contents do not matter."""
    config = cache["config"]
    arrays = params.arrays
    pad = cache["pad"]
    if out.flat.shape != params.flat.shape:
        raise ValueError(
            f"gradient buffer has shape {out.flat.shape}, parameters {params.flat.shape}"
        )
    grads = out.arrays
    grad_hidden = grad_hidden or {}

    hn = cache["hn"]
    d_hn = np.zeros_like(hn)
    if grad_logpost is None:
        grads["head.w"][...] = 0.0
        grads["head.b"][...] = 0.0
    else:
        d_logits = log_softmax_backward(
            np.asarray(grad_logpost, dtype=np.float64), cache["logpost"]
        )
        np.matmul(hn.T, d_logits, out=grads["head.w"])
        np.add.reduce(d_logits, axis=0, out=grads["head.b"])
        d_hn = d_logits @ arrays["head.w"].T
    d_hr, grads["final_norm.gain"][...], grads["final_norm.bias"][...] = (
        layer_norm_backward(d_hn, cache["final_norm"])
    )

    n = config.n_layers
    d_h = pad.position_grad(d_hr + grad_hidden[n] if n in grad_hidden else d_hr)
    for i in range(n - 1, -1, -1):
        d_h = _layer_backward(
            d_h, arrays, grads, f"layer{i}.", config, cache["layers"][i], pad
        )
        if i in grad_hidden and i >= 1:
            if pad.outputs is None:
                d_h += grad_hidden[i]
            else:
                d_h[pad.outputs] += grad_hidden[i]

    d_h0 = pad.reduce_grad(d_h)
    d_conv = gelu_backward(d_h0, cache["gelu"])
    d_xn, grads["frontend.conv.kernel"][...], grads["frontend.conv.bias"][...] = (
        conv1d_backward(d_conv, cache["conv"])
    )
    grads["frontend.norm.gain"][...], grads["frontend.norm.bias"][...] = (
        batch_norm_backward(d_xn, cache["norm"])
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _params_payload(params: ModelParams) -> bytes:
    """Canonical serialization (used for both files and digests)."""
    header = {
        "version": CHECKPOINT_VERSION,
        "config": {**params.config.to_dict(), **HEADER_CONSTANTS},
        "arrangement": "pre_norm",
        "mask_spec": params.mask_spec.to_dict() if params.mask_spec else None,
        # v1 headers also mark running stats as set; here they always are
        "bn_initialized": True,
    }
    arrays = {
        **params.arrays,
        "buffer.frontend.bn.mean": params.bn_stats.mean,
        "buffer.frontend.bn.var": params.bn_stats.var,
    }
    return container.pack(CHECKPOINT_MAGIC, header, arrays)


def save_checkpoint(params: ModelParams, path) -> str:
    """Write a checkpoint; returns its digest."""
    blob = _params_payload(params)
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def checkpoint_digest(params: ModelParams) -> str:
    return hashlib.sha256(_params_payload(params)).hexdigest()


def load_checkpoint(path, expect_config: EncoderConfig | None = None) -> ModelParams:
    header, named = container.read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError)
    spec = header.get("mask_spec")
    try:
        config = EncoderConfig.from_dict(header.get("config"))
        mask_spec = None if spec is None else MaskSpec.from_dict(spec)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad header: {exc}") from exc
    if header.get("bn_initialized") is not True:
        raise CheckpointError(f"{path}: header bn_initialized is not true")
    if expect_config is not None and config != expect_config:
        raise CheckpointError(
            f"{path}: checkpoint config {config.to_dict()} does not match "
            f"expected {expect_config.to_dict()}"
        )
    # the frontend's running statistics are stored beside the parameters
    buffers = ("buffer.frontend.bn.mean", "buffer.frontend.bn.var")
    layout = {**dict(param_layout(config)), **dict.fromkeys(buffers, (config.feature_dim,))}
    stored = {name: arr.shape for name, arr in named.items()}
    if stored != layout:
        diff = [
            f"{n} stored {stored.get(n)}, layout {layout.get(n)}"
            for n in sorted(set(stored) | set(layout))
            if stored.get(n) != layout.get(n)
        ]
        raise CheckpointError(f"{path}: arrays differ from the config's layout: {'; '.join(diff)}")
    stats = BatchNormStats(*(named[name].copy() for name in buffers))
    flat = np.concatenate([named[name].ravel() for name, _ in param_layout(config)])
    return ModelParams(config, flat.astype(np.float64, copy=False), stats, mask_spec)
