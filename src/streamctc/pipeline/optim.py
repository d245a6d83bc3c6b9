"""Tri-stage learning-rate schedule and Adam, both deterministic.

The recipe is fixed: the schedule warms up over the first `WARMUP_FRAC`
(10%) of updates, holds the peak for `HOLD_FRAC` (40%), then decays
linearly to 0, as in wav2vec 2.0 fine-tuning; Adam uses its standard
`BETA1` 0.9, `BETA2` 0.999 and `EPS` 1e-8.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..numerics import check_float, check_int, ensure_finite

WARMUP_FRAC = 0.1
HOLD_FRAC = 0.4
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """One stage's optimization settings: peak learning rate (at most 1),
    number of updates, utterances per update and the seed of the batch
    draws.

    The schedule's shape (`WARMUP_FRAC`, `HOLD_FRAC`) and Adam's
    `BETA1`, `BETA2` and `EPS` are module constants.
    """

    peak_lr: float
    total_updates: int
    batch_size: int = 4
    seed: int = 0

    def __post_init__(self):
        # Adam moves each weight by up to about lr per update, and no init
        # bound 1/sqrt(fan_in) exceeds 1: a larger rate overflows in training
        if not 0 < check_float("peak_lr", self.peak_lr) <= 1:
            raise ValueError(f"peak_lr must be in (0, 1], got {self.peak_lr}")
        for name, low in (("total_updates", 0), ("batch_size", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)

    def to_dict(self) -> dict:
        return asdict(self)


def tri_stage_lr(step, cfg: TrainConfig) -> float:
    """Learning rate at `step` (0..total inclusive)."""
    total = cfg.total_updates
    if step < 0 or step > total:
        raise ValueError(f"step {step} outside 0..{total}")
    if total == 0:
        return 0.0
    warm = WARMUP_FRAC * total
    hold = HOLD_FRAC * total
    if step < warm:
        return cfg.peak_lr * step / warm
    if step <= warm + hold:
        return cfg.peak_lr
    return cfg.peak_lr * (total - step) / (total - warm - hold)


@dataclass(eq=False)
class AdamState:
    """First/second moment vectors, laid out like the parameter vector,
    the number of steps taken, and two parameter-sized scratch vectors
    that `adam_step` works in, so an update allocates no float vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def fresh(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update (Kingma & Ba 2015, Algorithm 1),
    written into `params` and `state` in place:

        m <- BETA1 m + (1 - BETA1) g
        v <- BETA2 v + (1 - BETA2) g^2
        params <- params - lr (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + EPS)

    each operation applied in this order, so the bits equal those of the
    expression as written. Gradients must be finite (training fails fast
    on a bad batch rather than silently poisoning the moments).
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.shape:
        raise ValueError(f"gradient shape {g.shape} does not match parameters {params.shape}")
    ensure_finite(g, "gradient")
    state.t += 1
    t = state.t
    step, denom = state.scratch
    state.m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=step)
    state.m += step
    state.v *= BETA2
    np.multiply(g, g, out=step)
    step *= 1.0 - BETA2
    state.v += step
    np.divide(state.m, 1.0 - BETA1**t, out=step)
    step *= lr
    np.divide(state.v, 1.0 - BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    params -= step
