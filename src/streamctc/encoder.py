"""Masked-transformer CTC encoder with hand-rolled reverse-mode gradients.

Architecture, per utterance (T x feature_dim input):

    frontend: norm -> conv1d -> GELU          (T x model_dim)
    [block variant: hard-copy augmentation]   (T' x model_dim)
    n x pre-norm transformer layer            (T' x model_dim)
    [drop copies]                             (T x model_dim)
    final layer norm -> linear head -> log-softmax  (T x V)

The frontend norm is either a per-frame feature normalization ("gn") or
per-channel batch normalization over time ("bn", carrying running stats);
the conv is causal or symmetric. Each transformer layer is pre-norm:
``h + MHA(LN(h))`` then ``a + FFN(LN(a))``.

``forward`` returns a ForwardTrace (per-layer hidden states at real frame
positions plus the posteriorgram); ``forward_with_cache`` additionally
returns everything ``backward`` needs. ``backward`` accepts a gradient on
the log-posteriorgram and/or gradients injected directly on traced hidden
states, and produces parameter gradients plus the input-feature gradient.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from .masking import AttentionMask, MaskSpec, build_mask
from .numerics import (
    BatchNormStats,
    batch_norm_forward,
    batch_norm_backward,
    conv1d_forward,
    conv1d_backward,
    ensure_finite,
    gelu,
    gelu_grad,
    layer_norm_forward,
    layer_norm_backward,
    log_softmax,
    log_softmax_backward,
    masked_softmax,
    masked_softmax_backward,
)

CHECKPOINT_MAGIC = b"STCTCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is malformed, truncated, or mismatches expectations."""


@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int = 4
    model_dim: int = 32
    n_heads: int = 2
    ffn_dim: int = 64
    vocab_size: int = 29
    feature_dim: int = 8
    frontend_norm: str = "bn"  # "gn" (per-frame) | "bn" (running stats)
    frontend_conv: str = "causal"  # "causal" | "symmetric"
    frontend_kernel: int = 4

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.model_dim % self.n_heads != 0:
            raise ValueError("model_dim must be divisible by n_heads")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2 (blank plus a symbol)")
        if self.frontend_norm not in ("gn", "bn"):
            raise ValueError("frontend_norm must be 'gn' or 'bn'")
        if self.frontend_conv not in ("causal", "symmetric"):
            raise ValueError("frontend_conv must be 'causal' or 'symmetric'")
        if self.frontend_kernel < 1:
            raise ValueError("frontend_kernel must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "model_dim": self.model_dim,
            "n_heads": self.n_heads,
            "ffn_dim": self.ffn_dim,
            "vocab_size": self.vocab_size,
            "feature_dim": self.feature_dim,
            "frontend_norm": self.frontend_norm,
            "frontend_conv": self.frontend_conv,
            "frontend_kernel": self.frontend_kernel,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        d = dict(d)
        # checkpoint headers and older config dumps carry "dropout": 0.0
        if d.pop("dropout", 0) != 0:
            raise ValueError("dropout is not supported; only 0 is accepted")
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown encoder config key(s): {', '.join(unknown)}")
        return cls(**d)


def frontend_lookahead(config: EncoderConfig) -> int:
    """Future frames visible to the frontend conv (0 when causal).

    Symmetric padding puts the extra zero of an even kernel on the left, so
    the right reach is (K-1)//2 for every K."""
    return 0 if config.frontend_conv == "causal" else (config.frontend_kernel - 1) // 2


@dataclass(frozen=True)
class FeatureSequence:
    """T x D frame matrix with its stride in milliseconds."""

    features: np.ndarray
    frame_ms: float = 20.0

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError("features must be T x D")
        object.__setattr__(self, "features", f)

    @property
    def n_frames(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


@dataclass
class ModelParams:
    """Trainable arrays (by name) plus non-trainable frontend norm stats.

    `mask_spec` records the streaming variant the model was trained under,
    carried through checkpoints so downstream stages can verify lineage.
    """

    config: EncoderConfig
    arrays: dict
    bn_stats: BatchNormStats | None = None
    mask_spec: MaskSpec | None = None

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            arrays={k: v.copy() for k, v in self.arrays.items()},
            bn_stats=self.bn_stats.copy() if self.bn_stats else None,
            mask_spec=self.mask_spec,
        )


@dataclass(frozen=True)
class ForwardTrace:
    """Per-layer hidden states (real frame positions) and the posteriorgram."""

    hidden: tuple
    posteriorgram: np.ndarray
    mask: AttentionMask


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: EncoderConfig, seed: int) -> ModelParams:
    """Deterministic scaled-uniform initialization.

    Running batch-norm stats start at (mean 0, var 1) and are marked
    initialized so a freshly built model can run in infer mode.
    """
    rng = np.random.default_rng(seed)
    d, v = config.model_dim, config.vocab_size
    arrays = {
        "frontend.norm.gain": np.ones(config.feature_dim),
        "frontend.norm.bias": np.zeros(config.feature_dim),
        "frontend.conv.kernel": _uniform(
            rng,
            (config.frontend_kernel, config.feature_dim, d),
            config.frontend_kernel * config.feature_dim,
        ),
        "frontend.conv.bias": np.zeros(d),
    }
    for i in range(config.n_layers):
        p = f"layer{i}."
        arrays[p + "ln1.gain"] = np.ones(d)
        arrays[p + "ln1.bias"] = np.zeros(d)
        arrays[p + "attn.wq"] = _uniform(rng, (d, d), d)
        arrays[p + "attn.wk"] = _uniform(rng, (d, d), d)
        arrays[p + "attn.wv"] = _uniform(rng, (d, d), d)
        arrays[p + "attn.wo"] = _uniform(rng, (d, d), d)
        arrays[p + "attn.bo"] = np.zeros(d)
        arrays[p + "ln2.gain"] = np.ones(d)
        arrays[p + "ln2.bias"] = np.zeros(d)
        arrays[p + "ffn.w1"] = _uniform(rng, (d, config.ffn_dim), d)
        arrays[p + "ffn.b1"] = np.zeros(config.ffn_dim)
        arrays[p + "ffn.w2"] = _uniform(rng, (config.ffn_dim, d), config.ffn_dim)
        arrays[p + "ffn.b2"] = np.zeros(d)
    arrays["final_norm.gain"] = np.ones(d)
    arrays["final_norm.bias"] = np.zeros(d)
    arrays["head.w"] = _uniform(rng, (d, v), d)
    arrays["head.b"] = np.zeros(v)
    stats = None
    if config.frontend_norm == "bn":
        stats = BatchNormStats.fresh(config.feature_dim, initialized=True)
    return ModelParams(config=config, arrays=arrays, bn_stats=stats)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    t, d = x.shape
    return x.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dh)


def _layer_forward(h, arrays, prefix, config, mask):
    g = lambda name: arrays[prefix + name]
    u, ln1_cache = layer_norm_forward(h, g("ln1.gain"), g("ln1.bias"))
    q = _split_heads(u @ g("attn.wq"), config.n_heads)
    k = _split_heads(u @ g("attn.wk"), config.n_heads)
    v = _split_heads(u @ g("attn.wv"), config.n_heads)
    beta = 1.0 / np.sqrt(config.head_dim)
    logits = beta * np.einsum("htd,hsd->hts", q, k)
    probs = masked_softmax(logits, mask)
    z = _merge_heads(np.einsum("hts,hsd->htd", probs, v))
    a = h + (z @ g("attn.wo") + g("attn.bo"))
    w, ln2_cache = layer_norm_forward(a, g("ln2.gain"), g("ln2.bias"))
    f1 = w @ g("ffn.w1") + g("ffn.b1")
    f2 = gelu(f1)
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
        "a": a,
        "w": w,
        "ln2": ln2_cache,
        "f1": f1,
        "f2": f2,
    }
    return out, cache


def _layer_backward(d_out, arrays, grads, prefix, config, cache):
    g = lambda name: arrays[prefix + name]

    def acc(name, value):
        grads[prefix + name] = grads.get(prefix + name, 0.0) + value

    d_a = d_out.copy()
    acc("ffn.w2", cache["f2"].T @ d_out)
    acc("ffn.b2", d_out.sum(axis=0))
    d_f2 = d_out @ g("ffn.w2").T
    d_f1 = d_f2 * gelu_grad(cache["f1"])
    acc("ffn.w1", cache["w"].T @ d_f1)
    acc("ffn.b1", d_f1.sum(axis=0))
    d_w = d_f1 @ g("ffn.w1").T
    d_a2, dg2, db2 = layer_norm_backward(d_w, cache["ln2"])
    acc("ln2.gain", dg2)
    acc("ln2.bias", db2)
    d_a += d_a2

    d_h = d_a.copy()
    acc("attn.wo", cache["z"].T @ d_a)
    acc("attn.bo", d_a.sum(axis=0))
    d_z = _split_heads(d_a @ g("attn.wo").T, config.n_heads)
    d_probs = np.einsum("htd,hsd->hts", d_z, cache["v"])
    d_v = np.einsum("hts,htd->hsd", cache["probs"], d_z)
    d_logits = masked_softmax_backward(d_probs, cache["probs"])
    beta = cache["beta"]
    d_q = beta * np.einsum("hts,hsd->htd", d_logits, cache["k"])
    d_k = beta * np.einsum("hts,htd->hsd", d_logits, cache["q"])
    u = cache["u"]
    d_u = np.zeros_like(u)
    for name, d_proj in (("attn.wq", d_q), ("attn.wk", d_k), ("attn.wv", d_v)):
        flat = _merge_heads(d_proj)
        acc(name, u.T @ flat)
        d_u += flat @ g(name).T
    d_h2, dg1, db1 = layer_norm_backward(d_u, cache["ln1"])
    acc("ln1.gain", dg1)
    acc("ln1.bias", db1)
    d_h += d_h2
    return d_h


def forward_with_cache(
    params: ModelParams,
    features: FeatureSequence,
    spec: MaskSpec,
    train: bool = False,
):
    """Run the full encoder, returning (ForwardTrace, cache for backward)."""
    config = params.config
    x = features.features
    if x.shape[0] < 1:
        raise ValueError("empty feature sequence")
    if x.shape[1] != config.feature_dim:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match config {config.feature_dim}"
        )
    arrays = params.arrays
    cache = {"config": config, "train": train}

    if config.frontend_norm == "gn":
        xn, cache["norm"] = layer_norm_forward(
            x, arrays["frontend.norm.gain"], arrays["frontend.norm.bias"]
        )
        cache["norm_kind"] = "gn"
    else:
        mode = "train" if train else "infer"
        xn, cache["norm"] = batch_norm_forward(
            x,
            arrays["frontend.norm.gain"],
            arrays["frontend.norm.bias"],
            params.bn_stats,
            mode,
        )
        cache["norm_kind"] = "bn"
    xc, cache["conv"] = conv1d_forward(
        xn,
        arrays["frontend.conv.kernel"],
        config.frontend_conv,
        arrays["frontend.conv.bias"],
    )
    cache["conv_pre"] = xc
    h0 = gelu(xc)
    cache["h0"] = h0

    mask = build_mask(spec, features.n_frames)
    cache["mask"] = mask
    h = mask.plan.augment(h0) if mask.plan is not None else h0

    hidden = []
    layer_caches = []
    for i in range(config.n_layers):
        h, lc = _layer_forward(h, arrays, f"layer{i}.", config, mask)
        layer_caches.append(lc)
        hidden.append(mask.plan.reduce(h) if mask.plan is not None else h)
    cache["layers"] = layer_caches

    hr = mask.plan.reduce(h) if mask.plan is not None else h
    hn, cache["final_norm"] = layer_norm_forward(
        hr, arrays["final_norm.gain"], arrays["final_norm.bias"]
    )
    cache["hn"] = hn
    logits = hn @ arrays["head.w"] + arrays["head.b"]
    logpost = log_softmax(logits)
    ensure_finite(logpost, "posteriorgram")
    cache["logpost"] = logpost
    trace = ForwardTrace(
        hidden=tuple(hidden), posteriorgram=logpost, mask=mask
    )
    return trace, cache


def forward(
    params: ModelParams,
    features: FeatureSequence,
    spec: MaskSpec,
    train: bool = False,
) -> ForwardTrace:
    return forward_with_cache(params, features, spec, train)[0]


def backward(
    params: ModelParams,
    cache: dict,
    grad_logpost: np.ndarray | None = None,
    grad_hidden: dict | None = None,
):
    """Reverse pass. `grad_hidden` maps 1-based layer index -> gradient on
    that layer's traced hidden state (T x model_dim, real positions).
    Returns (grads dict matching `params.arrays` keys, grad on the input
    features)."""
    config = cache["config"]
    arrays = params.arrays
    mask = cache["mask"]
    plan = mask.plan
    grads = {}

    hn = cache["hn"]
    if grad_logpost is not None:
        d_logits = log_softmax_backward(
            np.asarray(grad_logpost, dtype=np.float64), cache["logpost"]
        )
        grads["head.w"] = hn.T @ d_logits
        grads["head.b"] = d_logits.sum(axis=0)
        d_hn = d_logits @ arrays["head.w"].T
    else:
        grads["head.w"] = np.zeros_like(arrays["head.w"])
        grads["head.b"] = np.zeros_like(arrays["head.b"])
        d_hn = np.zeros_like(hn)
    d_hr, dg, db = layer_norm_backward(d_hn, cache["final_norm"])
    grads["final_norm.gain"] = dg
    grads["final_norm.bias"] = db

    grad_hidden = grad_hidden or {}
    n = config.n_layers
    if plan is not None:
        d_h = np.zeros((plan.n_augmented, config.model_dim))
        real = ~plan.is_copy
        d_h[real] = d_hr
        if n in grad_hidden:
            d_h[real] += grad_hidden[n]
    else:
        d_h = d_hr.copy()
        if n in grad_hidden:
            d_h = d_h + grad_hidden[n]

    for i in range(n - 1, -1, -1):
        d_h = _layer_backward(
            d_h, arrays, grads, f"layer{i}.", config, cache["layers"][i]
        )
        if i in grad_hidden and i >= 1:
            if plan is not None:
                d_h[~plan.is_copy] += grad_hidden[i]
            else:
                d_h = d_h + grad_hidden[i]

    d_h0 = plan.reduce_grad(d_h) if plan is not None else d_h
    d_conv = d_h0 * gelu_grad(cache["conv_pre"])
    d_xn, d_kernel, d_cbias = conv1d_backward(d_conv, cache["conv"])
    grads["frontend.conv.kernel"] = d_kernel
    grads["frontend.conv.bias"] = d_cbias
    if cache["norm_kind"] == "gn":
        d_x, dng, dnb = layer_norm_backward(d_xn, cache["norm"])
    else:
        d_x, dng, dnb = batch_norm_backward(d_xn, cache["norm"])
    grads["frontend.norm.gain"] = dng
    grads["frontend.norm.bias"] = dnb

    for key in arrays:
        if key not in grads:
            grads[key] = np.zeros_like(arrays[key])
    return grads, d_x


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _params_payload(params: ModelParams) -> bytes:
    """Canonical serialization (used for both files and digests)."""
    header = {
        "version": CHECKPOINT_VERSION,
        # the v1 header has a dropout field; the encoder has none, so it is always 0
        "config": {**params.config.to_dict(), "dropout": 0.0},
        "arrangement": "pre_norm",
        "mask_spec": params.mask_spec.to_dict() if params.mask_spec else None,
        "bn_initialized": bool(params.bn_stats.initialized)
        if params.bn_stats
        else None,
    }
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    hjson = json.dumps(header, sort_keys=True).encode()
    buf.write(struct.pack("<I", len(hjson)))
    buf.write(hjson)
    named = dict(params.arrays)
    if params.bn_stats is not None:
        named["buffer.frontend.bn.mean"] = params.bn_stats.mean
        named["buffer.frontend.bn.var"] = params.bn_stats.var
    buf.write(struct.pack("<I", len(named)))
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name], dtype="<f8")
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        for extent in arr.shape:
            buf.write(struct.pack("<Q", extent))
        buf.write(arr.tobytes())
    return buf.getvalue()


def save_checkpoint(params: ModelParams, path) -> str:
    """Write a checkpoint; returns its digest. The trailing length field
    covers the whole file so truncation or trailing garbage is detected."""
    payload = _params_payload(params)
    total = len(payload) + 8
    blob = payload + struct.pack("<Q", total)
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def checkpoint_digest(params: ModelParams) -> str:
    payload = _params_payload(params)
    return hashlib.sha256(payload + struct.pack("<Q", len(payload) + 8)).hexdigest()


def load_checkpoint(path, expect_config: EncoderConfig | None = None) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 12 or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    (total,) = struct.unpack("<Q", blob[-8:])
    if total != len(blob):
        raise CheckpointError(
            f"{path}: length field says {total} bytes, file has {len(blob)}"
        )
    off = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob) - 8:
            raise CheckpointError(f"{path}: truncated at byte {off}")
        out = blob[off : off + n]
        off += n
        return out

    (hlen,) = struct.unpack("<I", take(4))
    try:
        header = json.loads(take(hlen).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad header: {exc}") from exc
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('version')} unsupported"
        )
    config = EncoderConfig.from_dict(header["config"])
    if expect_config is not None and config != expect_config:
        raise CheckpointError(
            f"{path}: checkpoint config {config.to_dict()} does not match "
            f"expected {expect_config.to_dict()}"
        )
    (n_arrays,) = struct.unpack("<I", take(4))
    named = {}
    for _ in range(n_arrays):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode()
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(
            struct.unpack("<Q", take(8))[0] for _ in range(ndim)
        )
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(count * 8), dtype="<f8").reshape(shape)
        named[name] = data.astype(np.float64)
    if off != len(blob) - 8:
        raise CheckpointError(f"{path}: {len(blob) - 8 - off} unread bytes")
    stats = None
    if "buffer.frontend.bn.mean" in named:
        stats = BatchNormStats(
            mean=named.pop("buffer.frontend.bn.mean").copy(),
            var=named.pop("buffer.frontend.bn.var").copy(),
            initialized=bool(header.get("bn_initialized")),
        )
    mask_spec = (
        MaskSpec.from_dict(header["mask_spec"]) if header.get("mask_spec") else None
    )
    return ModelParams(
        config=config, arrays=named, bn_stats=stats, mask_spec=mask_spec
    )
