"""Auxiliary training objectives and the spike-agreement metric.

Three losses on top of plain CTC:

* guided CTC: CTC plus ``alpha`` times a penalty that rewards the model
  under training for putting posterior mass where a frozen streaming
  model's per-frame argmax spikes are (blank frames contribute nothing);
* layer-wise distillation: summed per-layer MSE between selected student
  and teacher hidden states, teacher treated as constant;
* contrastive: InfoNCE over cosine similarities of a context vector
  against its positive target and a set of distractors.

``frame_agreement`` measures how often two posteriorgrams spike on the
same token, the quantity the guided loss is meant to improve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctc import ctc_loss
from .encoder import ForwardTrace
from .numerics import check_float, check_int
from .vocab import BLANK


@dataclass(frozen=True, eq=False)
class GuideMask:
    """T x V 0/1 matrix: at most one 1 per time index, none when that
    frame's argmax was the blank."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("mask must be T x V")
        if not np.isin(m, (0.0, 1.0)).all():
            raise ValueError("mask entries must be 0 or 1")
        if (m.sum(axis=1) > 1).any():
            raise ValueError("at most one marked symbol per time index")
        object.__setattr__(self, "matrix", m)


def guide_mask(streaming_log_posteriors: np.ndarray) -> GuideMask:
    """Per frame: one-hot at the argmax token, all-zero when the argmax is
    the blank. Ties break to the lowest index (so a full tie goes blank)."""
    lp = np.asarray(streaming_log_posteriors, dtype=np.float64)
    t_len, v = lp.shape
    top = lp.argmax(axis=1)
    m = np.zeros((t_len, v))
    rows = top != BLANK
    m[np.flatnonzero(rows), top[rows]] = 1.0
    return GuideMask(m)


def guide_penalty(mask: GuideMask, teacher_posteriors: np.ndarray):
    """Negative teacher probability mass at the marked positions.

    `teacher_posteriors` are probabilities, not logs. Returns the scalar
    and its gradient with respect to the probabilities (just -mask).
    """
    p = np.asarray(teacher_posteriors, dtype=np.float64)
    if p.shape != mask.matrix.shape:
        raise ValueError(
            f"shape mismatch: mask {mask.matrix.shape}, posteriors {p.shape}"
        )
    value = -float((mask.matrix * p).sum())
    return value, -mask.matrix


def guided_ctc_loss(
    teacher_log_posteriors: np.ndarray,
    targets,
    lengths,
    masks,
    alpha: float,
):
    """Per member, CTC loss plus alpha times the guide penalty, with the
    gradient taken w.r.t. the log-posteriors. The layout is `ctc_loss`'s
    (the members' T_b x V rows back to back, `lengths[b]` rows aiming at
    `targets[b]`), and `masks[b]` is member b's guide mask. Returns (one
    loss per member, grad). alpha = 0 reproduces ctc_loss bit for bit
    (the penalty path is skipped entirely)."""
    alpha = check_float("alpha", alpha)
    losses, grad = ctc_loss(teacher_log_posteriors, targets, lengths)
    if alpha == 0.0:
        return losses, grad
    probs = np.exp(np.asarray(teacher_log_posteriors, dtype=np.float64))
    d_probs = np.empty_like(probs)
    start = 0
    for b, (mask, n) in enumerate(zip(masks, lengths, strict=True)):
        rows = slice(start, start + n)
        penalty, d_probs[rows] = guide_penalty(mask, probs[rows])
        losses[b] += alpha * penalty
        start = rows.stop
    return losses, grad + alpha * d_probs * probs


@dataclass(frozen=True)
class DistillSpec:
    """Which layers to match (1-based indices); each counts once."""

    layer_indices: tuple

    def __post_init__(self):
        idx = tuple(check_int("layer index", i, 1) for i in self.layer_indices)
        if not idx:
            raise ValueError("need at least one layer index")
        if list(idx) != sorted(set(idx)):
            raise ValueError("layer indices must be strictly increasing")
        object.__setattr__(self, "layer_indices", idx)

    @classmethod
    def thirds(cls, n_layers: int) -> "DistillSpec":
        """Upper-coverage default: layers {ceil(n/3), ceil(2n/3), n}."""
        idx = sorted({math.ceil(n_layers / 3), math.ceil(2 * n_layers / 3), n_layers})
        return cls(layer_indices=tuple(idx))


def distillation_loss(
    student_trace: ForwardTrace, teacher_trace: ForwardTrace, spec: DistillSpec
):
    """Sum over selected layers of mean squared error between hidden
    states; the teacher is a constant. Returns the scalar and a dict of
    gradients on the student's traced states keyed by 1-based layer."""
    depth = min(len(student_trace.hidden), len(teacher_trace.hidden))
    if max(spec.layer_indices) > depth:
        raise ValueError(f"layer index beyond depth {depth}")
    loss = 0.0
    grads = {}
    for idx in spec.layer_indices:
        hs = student_trace.hidden[idx - 1]
        ht = teacher_trace.hidden[idx - 1]
        if hs.shape != ht.shape:
            raise ValueError(
                f"layer {idx}: student {hs.shape} vs teacher {ht.shape}"
            )
        diff = hs - ht
        loss += float((diff * diff).mean())
        grads[idx] = 2.0 * diff / diff.size
    return loss, grads


def contrastive_loss(c, q, distractors, temperature: float = 1.0):
    """InfoNCE over cosine similarities divided by `temperature`.

    The candidate set is the positive `q` plus the `distractors`; the loss
    is the negative log-softmax mass on the positive. Gradient is returned
    for the context vector `c` only (targets act as constants).
    """
    if check_float("temperature", temperature) <= 0:
        raise ValueError("temperature must be > 0")
    c = np.asarray(c, dtype=np.float64)
    cands = [np.asarray(q, dtype=np.float64)] + [
        np.asarray(d, dtype=np.float64) for d in distractors
    ]
    if len(cands) < 2:
        raise ValueError("need at least one distractor")
    nc = np.linalg.norm(c)
    if nc == 0.0 or any(np.linalg.norm(x) == 0.0 for x in cands):
        raise ValueError("zero-norm vector")

    sims = np.empty(len(cands))
    dsims = []  # d sim_j / d c
    for j, x in enumerate(cands):
        nx = np.linalg.norm(x)
        dot = float(c @ x)
        sims[j] = dot / (nc * nx)
        dsims.append(x / (nc * nx) - dot * c / (nc**3 * nx))
    scaled = sims / temperature
    shifted = scaled - scaled.max()
    soft = np.exp(shifted)
    total = soft.sum()
    soft /= total
    loss = -float(shifted[0] - np.log(total))
    grad_c = np.zeros_like(c)
    for j in range(len(cands)):
        coeff = (soft[j] - (1.0 if j == 0 else 0.0)) / temperature
        grad_c += coeff * dsims[j]
    return loss, grad_c


def frame_agreement(post_a: np.ndarray, post_b: np.ndarray) -> float:
    """Fraction of frames whose argmax token matches (blank included)."""
    a = np.asarray(post_a)
    b = np.asarray(post_b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("posteriorgrams must cover the same frames")
    if a.shape[0] == 0:
        raise ValueError("empty posteriorgram")
    return float((a.argmax(axis=1) == b.argmax(axis=1)).mean())
