"""Tri-stage learning-rate schedule and Adam, both deterministic."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..numerics import ensure_finite


@dataclass(frozen=True)
class TrainConfig:
    """One stage's optimization settings.

    The schedule warms up linearly from 0 over the first `warmup_frac` of
    updates, holds the peak for `constant_frac`, then decays linearly to 0.
    """

    peak_lr: float
    total_updates: int
    batch_size: int = 4
    seed: int = 0
    warmup_frac: float = 0.1
    constant_frac: float = 0.4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not self.peak_lr > 0:
            raise ValueError("peak_lr must be > 0")
        if self.total_updates < 0:
            raise ValueError("total_updates must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.warmup_frac >= 0 and self.constant_frac >= 0):
            raise ValueError("schedule fractions must be >= 0")
        if not self.warmup_frac + self.constant_frac <= 1.0:
            raise ValueError("schedule fractions must sum to <= 1")
        for b in (self.beta1, self.beta2):
            if not 0.0 <= b < 1.0:
                raise ValueError("betas must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


def tri_stage_lr(step, cfg: TrainConfig) -> float:
    """Learning rate at `step` (0..total inclusive)."""
    total = cfg.total_updates
    if step < 0 or step > total:
        raise ValueError(f"step {step} outside 0..{total}")
    if total == 0:
        return 0.0
    warm = cfg.warmup_frac * total
    hold = cfg.constant_frac * total
    if step < warm:
        return cfg.peak_lr * step / warm
    if step <= warm + hold:
        return cfg.peak_lr
    span = total - warm - hold
    if span <= 0:
        return cfg.peak_lr
    return cfg.peak_lr * (total - step) / span


@dataclass(eq=False)
class AdamState:
    """First/second moment vectors, laid out like the parameter vector,
    and the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One bias-corrected Adam update of a parameter vector; returns (new
    parameter vector, new state).

    Gradients must be finite (training fails fast on a bad batch rather
    than silently poisoning the moments).
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.shape:
        raise ValueError(f"gradient shape {g.shape} does not match parameters {params.shape}")
    ensure_finite(g, "gradient")
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * (g * g)
    new_params = params - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return new_params, AdamState(m=m, v=v, t=t)
