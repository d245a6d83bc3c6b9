"""Dense float64 kernels with analytic reverse-mode gradients.

Every tensor operation the encoder and the losses need lives here as a
forward function plus a hand-derived backward companion. There is no
autodiff graph: callers hold on to the forward caches and invoke the
backward functions in reverse order themselves. Batch norm, which only
ever reads the encoder's input features, returns the gradients of its
gain and bias and none on its input. To save temporaries the kernels
write in place, but only into arrays they allocated themselves: no kernel
writes into an array or object it was given, as an argument or in a
cache. Train-mode batch norm returns its members' moments instead of
folding them into the running statistics; `batch_norm_fold`, called by
the update loop that owns the statistics, folds them. Writing into a
caller's array is likewise left to the callers that own one: the
encoder's `backward` and the optimizer's `adam_step`.

All arrays are 64-bit floats in row-major order. The kernels do not check
finiteness, so a NaN or Inf propagates to their outputs; ``ensure_finite``
(raising ``NonFiniteError``) runs once where values cross a boundary: on
the encoder's posteriorgram and on the gradient Adam applies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class NonFiniteError(ValueError):
    """An array violated the all-finite contract."""


class EmptyReceptionFieldError(ValueError):
    """A softmax query row had no allowed key positions."""


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def ensure_finite(x: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite values in {what}")
    return x


def check_int(name: str, value, low: int) -> int:
    """`value` if it is an int (a bool is not) of at least `low`; otherwise
    a ValueError that names `name`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_float(name: str, value) -> float:
    """`value` as a float if it is a finite real number (an int or a float;
    a bool, a string, None, NaN or an infinity is not); otherwise a
    ValueError that names `name`. Range checks stay with the caller."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_keys(name: str, value, allowed) -> dict:
    """`value` if it is a dict (a JSON object) whose keys are all in
    `allowed`; otherwise a ValueError that names `name` and, for unknown
    keys, every one of them, sorted."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(unknown)}")
    return value


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def masked_softmax(logits, allowed) -> np.ndarray:
    """Row-wise softmax over allowed positions only.

    `logits` is (..., T_q, T_k), say (batch, heads, T_q, T_k); `allowed`
    is a boolean (..., T_q, T_k) array that broadcasts to it, say one
    (T_q, T_k) matrix for every head or a (batch, 1, T_q, T_k) stack.
    Disallowed entries are never exponentiated: they come out exactly 0,
    whatever their logit (NaN and infinities included), and each row sums
    to 1 over its allowed set. A row with no allowed position is a
    mask-builder bug and raises.
    """
    logits = as_f64(logits)
    allowed = np.asarray(allowed, dtype=bool)
    shifted = np.where(allowed, logits, -np.inf)
    if shifted.shape != logits.shape:
        raise ValueError(
            f"mask shape {allowed.shape} does not match logits {logits.shape}"
        )
    peak = shifted.max(axis=-1, keepdims=True)
    # only an all-masked row, or one whose allowed logits are all -inf,
    # peaks at -inf: look at the mask only then
    if (peak == -np.inf).any() and not allowed.any(axis=-1).all():
        raise EmptyReceptionFieldError("empty reception field")
    np.subtract(shifted, peak, out=shifted)
    out = np.zeros(shifted.shape)
    np.exp(shifted, out=out, where=allowed)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def masked_softmax_backward(grad_out: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """VJP of masked_softmax; masked entries have probs==0 so their grad is 0."""
    out = probs * grad_out
    inner = out.sum(axis=-1, keepdims=True)
    np.subtract(grad_out, inner, out=out)
    out *= probs
    return out


def log_softmax(x) -> np.ndarray:
    """Row-wise log softmax, stabilized by max subtraction."""
    x = as_f64(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def log_softmax_backward(grad_out: np.ndarray, logp: np.ndarray) -> np.ndarray:
    return grad_out - np.exp(logp) * grad_out.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def layer_norm_forward(x, gain, bias, eps: float = 1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = as_f64(x)
    gain = as_f64(gain)
    bias = as_f64(bias)
    d = x.shape[-1]
    if d < 1:
        raise ValueError("layer_norm needs a non-empty feature axis")
    # the sums and divisions of np.mean and np.var, without their wrappers
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    y = gain * xhat
    y += bias
    return y, (xhat, inv_std, gain)


def layer_norm_backward(grad_out: np.ndarray, cache):
    xhat, inv_std, gain = cache
    d = xhat.shape[-1]
    dx = grad_out * gain
    # inv_std * (dxhat - mean(dxhat) - xhat * sum(dxhat * xhat) / d)
    proj = dx * xhat
    inner = np.add.reduce(proj, axis=-1, keepdims=True)
    np.multiply(xhat, inner, out=proj)
    proj /= d
    dx -= np.add.reduce(dx, axis=-1, keepdims=True) / d
    dx -= proj
    dx *= inv_std
    reduce_axes = tuple(range(grad_out.ndim - 1))
    dgain = (grad_out * xhat).sum(axis=reduce_axes)
    dbias = grad_out.sum(axis=reduce_axes)
    return dx, dgain, dbias


BN_MOMENTUM = 0.1


@dataclass(eq=False)
class BatchNormStats:
    """Running per-channel statistics. They start at mean 0 and var 1, and
    `batch_norm_fold` folds each train-mode member's moments in with
    weight `BN_MOMENTUM`."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, dim: int) -> "BatchNormStats":
        return cls(mean=np.zeros(dim), var=np.ones(dim))

    def copy(self) -> "BatchNormStats":
        return BatchNormStats(self.mean.copy(), self.var.copy())


def batch_norm_forward(x, gain, bias, stats: BatchNormStats, mode: str, eps: float = 1e-5,
                       lengths=None):
    """Per-channel normalization of a (T, D) sequence, or of a padded
    (B, T, D) batch whose member b holds `lengths[b]` real frames followed
    by pad rows (every row is real when `lengths` is None). Returns
    (output, cache for `batch_norm_backward`, moments).

    Train mode normalizes each member with the mean and variance of its own
    real frames and returns them as `moments`, a (B, D) mean and a (B, D)
    variance in batch order, for `batch_norm_fold`; `stats` is not read.
    Infer mode normalizes with the running stats, and `moments` is None.
    Pad rows come out 0 and take no gradient.
    """
    x = as_f64(x)
    gain = as_f64(gain)
    bias = as_f64(bias)
    batch = x.reshape((-1,) + x.shape[-2:])
    n_rows = batch.shape[1]
    lengths = np.full(len(batch), n_rows) if lengths is None else np.asarray(lengths)
    real = (np.arange(n_rows) < lengths[:, None])[..., None]
    if mode == "train":
        if lengths.min() < 2:
            raise ValueError("batch_norm train mode needs at least 2 samples")
        count = lengths[:, None, None]
        mu = np.where(real, batch, 0.0).sum(axis=1, keepdims=True) / count
        centered = np.where(real, batch - mu, 0.0)
        var = (centered * centered).sum(axis=1, keepdims=True) / count
        moments = (mu[:, 0], var[:, 0])
    elif mode == "infer":
        mu = stats.mean
        var = stats.var
        moments = None
    else:
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = np.where(real, (batch - mu) * inv_std, 0.0)
    y = np.where(real, gain * xhat + bias, 0.0)
    return y.reshape(x.shape), (xhat, real), moments


def batch_norm_fold(stats: BatchNormStats, moments) -> None:
    """Fold train-mode `moments` (from `batch_norm_forward`) into the
    running stats with weight `BN_MOMENTUM`, one member at a time in
    batch order."""
    for member_mu, member_var in zip(*moments):
        stats.mean = (1.0 - BN_MOMENTUM) * stats.mean + BN_MOMENTUM * member_mu
        stats.var = (1.0 - BN_MOMENTUM) * stats.var + BN_MOMENTUM * member_var


def batch_norm_backward(grad_out: np.ndarray, cache):
    """(dgain, dbias) of `batch_norm_forward`, summed over the real rows;
    no gradient on the input is computed."""
    xhat, real = cache
    grad = np.where(real, grad_out.reshape(xhat.shape), 0.0)
    return (grad * xhat).sum(axis=(0, 1)), grad.sum(axis=(0, 1))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv1d_forward(x, kernel, bias=None):
    """Causal 1-D convolution along time. `x` is (T, D_in), or (B, T, D_in)
    for a batch of sequences convolved independently; `kernel` is
    (K, D_in, D_out). Output frame t sees input frames t-K+1 .. t: the
    input is left-padded with K-1 zeros, so the output length is T, and
    K > T is permitted.
    """
    x = as_f64(x)
    kernel = as_f64(kernel)
    k, d_in, d_out = kernel.shape
    if k < 1:
        raise ValueError("kernel size must be >= 1")
    if x.shape[-1] != d_in:
        raise ValueError(f"input dim {x.shape[-1]} != kernel dim {d_in}")
    t = x.shape[-2]
    xp = np.zeros(x.shape[:-2] + (t + k - 1, d_in))
    xp[..., k - 1 :, :] = x
    y = np.zeros(x.shape[:-1] + (d_out,))
    for tap in range(k):
        y += xp[..., tap : tap + t, :] @ kernel[tap]
    if bias is not None:
        y = y + as_f64(bias)
    return y, (xp, kernel, t)


def conv1d_backward(grad_out: np.ndarray, cache):
    xp, kernel, t = cache
    k, d_in, d_out = kernel.shape
    dxp = np.zeros_like(xp)
    dkernel = np.zeros_like(kernel)
    rows = grad_out.reshape(-1, d_out)
    for tap in range(k):
        dkernel[tap] = xp[..., tap : tap + t, :].reshape(-1, d_in).T @ rows
        dxp[..., tap : tap + t, :] += grad_out @ kernel[tap].T
    dx = dxp[..., k - 1 :, :]
    dbias = rows.sum(axis=0)
    return dx, dkernel, dbias


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------


def gelu_forward(x):
    """Exact (erf-based) GELU, 0.5 * x * (1 + erf(x / sqrt 2)). The cache
    keeps the erf term, so the backward computes no second erf."""
    x = as_f64(x)
    one_plus_erf = erf(x / _SQRT2)
    one_plus_erf += 1.0
    y = 0.5 * x
    y *= one_plus_erf
    return y, (x, one_plus_erf)


def gelu_backward(grad_out: np.ndarray, cache) -> np.ndarray:
    """grad_out * (cdf(x) + x * pdf(x)), the cdf read from the cache."""
    x, one_plus_erf = cache
    dx = np.asarray(-0.5 * x)  # an array even for a 0-d x, to work in place
    dx *= x
    np.exp(dx, out=dx)
    dx *= _INV_SQRT_2PI
    dx *= x
    dx += 0.5 * one_plus_erf
    dx *= grad_out
    return dx


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------


def check_gradient(op, inputs, step: float = 1e-5, max_checks=None, rng=None) -> float:
    """Compare analytic gradients against central finite differences.

    `op(*inputs)` must return ``(loss, grads)`` where `loss` is a scalar and
    `grads` has one array (or None to skip) per input. Returns the max
    relative error over all checked entries. The denominator is floored at
    1e-4 so FD noise on near-zero entries does not register.

    `max_checks` caps the number of entries probed per input (sampled with
    `rng` when set); by default every entry is checked.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    inputs = [np.array(a, dtype=np.float64) for a in inputs]
    loss, grads = op(*inputs)
    loss = float(loss)
    if len(grads) != len(inputs):
        raise ValueError("op must return one gradient per input")
    worst = 0.0
    for arr, grad in zip(inputs, grads):
        if grad is None:
            continue
        if grad.shape != arr.shape:
            raise ValueError("gradient shape must match its input")
        flat_indices = np.arange(arr.size)
        if max_checks is not None and arr.size > max_checks:
            if rng is None:
                rng = np.random.default_rng(0)
            flat_indices = rng.choice(arr.size, size=max_checks, replace=False)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in flat_indices:
            orig = flat[i]
            flat[i] = orig + step
            lp = float(op(*inputs)[0])
            flat[i] = orig - step
            lm = float(op(*inputs)[0])
            flat[i] = orig
            fd = (lp - lm) / (2.0 * step)
            a = gflat[i]
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
            worst = max(worst, err)
    return worst
