"""Dense float64 kernels with analytic reverse-mode gradients.

Every tensor operation the encoder and the losses need lives here as a
forward function plus a hand-derived backward companion. There is no
autodiff graph: callers hold on to the forward caches and invoke the
backward functions in reverse order themselves.

All arrays are 64-bit floats in row-major order. The kernels do not check
finiteness, so a NaN or Inf propagates to their outputs; ``ensure_finite``
(raising ``NonFiniteError``) runs once where values cross a boundary: on
the encoder's posteriorgram and on the gradient Adam applies.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def masked_softmax(logits, allowed) -> np.ndarray:
    """Row-wise softmax over allowed positions only.

    `logits` is (T_q, T_k) or (heads, T_q, T_k); `allowed` is a boolean
    (T_q, T_k) matrix broadcast over the head axis. Disallowed entries come
    out exactly 0 and each row sums to 1 over its allowed set. A row with no
    allowed position is a mask-builder bug and raises.
    """
    logits = as_f64(logits)
    allowed = np.asarray(allowed, dtype=bool)
    if logits.shape[-2:] != allowed.shape:
        raise ValueError(
            f"mask shape {allowed.shape} does not match logits {logits.shape}"
        )
    if not allowed.any(axis=-1).all():
        raise EmptyReceptionFieldError("empty reception field")
    shifted = np.where(allowed, logits, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)  # exp(-inf) == 0.0 exactly for masked entries
    return expd / expd.sum(axis=-1, keepdims=True)


def masked_softmax_backward(grad_out: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """VJP of masked_softmax; masked entries have probs==0 so their grad is 0."""
    inner = (probs * grad_out).sum(axis=-1, keepdims=True)
    return probs * (grad_out - inner)


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
    if x.shape[-1] < 1:
        raise ValueError("layer_norm needs a non-empty feature axis")
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, (xhat, inv_std, gain)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> np.ndarray:
    return layer_norm_forward(x, gain, bias, eps)[0]


def layer_norm_backward(grad_out: np.ndarray, cache):
    xhat, inv_std, gain = cache
    d = xhat.shape[-1]
    dxhat = grad_out * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    )
    reduce_axes = tuple(range(grad_out.ndim - 1))
    dgain = (grad_out * xhat).sum(axis=reduce_axes)
    dbias = grad_out.sum(axis=reduce_axes)
    return dx, dgain, dbias


BN_MOMENTUM = 0.1


@dataclass(eq=False)
class BatchNormStats:
    """Running per-channel statistics, mutated only in train mode. They
    start at mean 0 and var 1, and each train-mode call folds its batch
    statistics in with weight `BN_MOMENTUM`."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, dim: int) -> "BatchNormStats":
        return cls(mean=np.zeros(dim), var=np.ones(dim))

    def copy(self) -> "BatchNormStats":
        return BatchNormStats(self.mean.copy(), self.var.copy())


def batch_norm_forward(x, gain, bias, stats: BatchNormStats, mode: str, eps: float = 1e-5):
    """Per-channel normalization over all leading axes.

    Train mode normalizes with batch statistics and folds them into the
    running stats with weight `BN_MOMENTUM`; infer mode normalizes with
    the running stats.
    """
    x = as_f64(x)
    gain = as_f64(gain)
    bias = as_f64(bias)
    reduce_axes = tuple(range(x.ndim - 1))
    if mode == "train":
        n = int(np.prod(x.shape[:-1]))
        if n < 2:
            raise ValueError("batch_norm train mode needs at least 2 samples")
        mu = x.mean(axis=reduce_axes)
        var = x.var(axis=reduce_axes)
        stats.mean = (1.0 - BN_MOMENTUM) * stats.mean + BN_MOMENTUM * mu
        stats.var = (1.0 - BN_MOMENTUM) * stats.var + BN_MOMENTUM * var
    elif mode == "infer":
        mu = stats.mean
        var = stats.var
    else:
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, (xhat, inv_std, gain, mode)


def batch_norm(x, gain, bias, stats: BatchNormStats, mode: str, eps: float = 1e-5) -> np.ndarray:
    return batch_norm_forward(x, gain, bias, stats, mode, eps)[0]


def batch_norm_backward(grad_out: np.ndarray, cache):
    xhat, inv_std, gain, mode = cache
    reduce_axes = tuple(range(grad_out.ndim - 1))
    dgain = (grad_out * xhat).sum(axis=reduce_axes)
    dbias = grad_out.sum(axis=reduce_axes)
    dxhat = grad_out * gain
    if mode == "infer":
        # running stats are constants
        return dxhat * inv_std, dgain, dbias
    n = int(np.prod(grad_out.shape[:-1]))
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=reduce_axes)
        - xhat * (dxhat * xhat).sum(axis=reduce_axes) / n
    )
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _conv_padding(kernel_size: int, mode: str) -> tuple[int, int]:
    if mode == "causal":
        return kernel_size - 1, 0
    if mode == "symmetric":
        # even kernels get the extra zero on the left
        return kernel_size // 2, (kernel_size - 1) // 2
    raise ValueError(f"unknown conv1d mode {mode!r}")


def conv1d_forward(x, kernel, mode: str, bias=None):
    """1-D convolution along time. `x` is (T, D_in), `kernel` (K, D_in, D_out).

    Causal mode: output frame t sees input frames <= t only. Symmetric mode
    centers the kernel. Both zero-pad so the output length is T, and K > T
    is permitted.
    """
    x = as_f64(x)
    kernel = as_f64(kernel)
    k, d_in, d_out = kernel.shape
    if k < 1:
        raise ValueError("kernel size must be >= 1")
    if x.shape[-1] != d_in:
        raise ValueError(f"input dim {x.shape[-1]} != kernel dim {d_in}")
    t = x.shape[0]
    left, right = _conv_padding(k, mode)
    xp = np.zeros((t + left + right, d_in))
    xp[left : left + t] = x
    y = np.zeros((t, d_out))
    for tap in range(k):
        y += xp[tap : tap + t] @ kernel[tap]
    if bias is not None:
        y = y + as_f64(bias)
    return y, (xp, kernel, left, t)


def conv1d(x, kernel, mode: str, bias=None) -> np.ndarray:
    return conv1d_forward(x, kernel, mode, bias)[0]


def conv1d_backward(grad_out: np.ndarray, cache):
    xp, kernel, left, t = cache
    k = kernel.shape[0]
    dxp = np.zeros_like(xp)
    dkernel = np.zeros_like(kernel)
    for tap in range(k):
        dkernel[tap] = xp[tap : tap + t].T @ grad_out
        dxp[tap : tap + t] += grad_out @ kernel[tap].T
    dx = dxp[left : left + t]
    dbias = grad_out.sum(axis=0)
    return dx, dkernel, dbias


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------


def gelu(x) -> np.ndarray:
    """Exact (erf-based) GELU."""
    x = as_f64(x)
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def gelu_grad(x) -> np.ndarray:
    x = as_f64(x)
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


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
