"""Auxiliary training objectives and the spike-agreement metric.

Three losses on top of plain CTC:

* guided CTC: CTC plus ``alpha`` times a penalty that rewards the model
  under training for putting posterior mass where a frozen streaming
  model spikes. The guide is that model's spike sequence, one argmax
  token per frame (`guide_mask`); blank frames contribute nothing;
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


def guide_mask(streaming_log_posteriors: np.ndarray) -> np.ndarray:
    """The streaming model's spike sequence: each frame's argmax token,
    ties broken to the lowest index, so BLANK (a full tie included) means
    the frame has no spike."""
    return np.asarray(streaming_log_posteriors, dtype=np.float64).argmax(axis=1)


def _spike_matrix(spikes, p: np.ndarray) -> np.ndarray:
    """The 0/1 matrix shaped like `p` marking each non-BLANK frame's spike."""
    spikes = np.asarray(spikes)
    if p.ndim != 2 or spikes.shape != p.shape[:1]:
        raise ValueError(f"shape mismatch: spikes {spikes.shape}, posteriors {p.shape}")
    if ((spikes < 0) | (spikes >= p.shape[1])).any():
        raise ValueError(f"spikes must be token ids below {p.shape[1]}")
    mask = np.zeros_like(p)
    frames = np.flatnonzero(spikes != BLANK)
    mask[frames, spikes[frames]] = 1.0
    return mask


def guide_penalty(spikes, teacher_posteriors: np.ndarray):
    """Negative teacher probability mass at the spikes: the sum over frames
    whose spike is not BLANK of the teacher's probability of that token.

    `teacher_posteriors` are probabilities, not logs, one row per spike.
    Returns the scalar and its gradient with respect to the probabilities:
    minus the T x V 0/1 matrix that marks the spikes.
    """
    p = np.asarray(teacher_posteriors, dtype=np.float64)
    mask = _spike_matrix(spikes, p)
    return -float((mask * p).sum()), -mask


def guided_ctc_loss(
    teacher_log_posteriors: np.ndarray,
    targets,
    lengths,
    spikes,
    alpha: float,
):
    """Per member, CTC loss plus alpha times the guide penalty, with the
    gradient taken w.r.t. the log-posteriors. The layout is `ctc_loss`'s
    (the members' T_b x V rows back to back, `lengths[b]` rows aiming at
    `targets[b]`), and `spikes[b]` is member b's spike sequence
    (`guide_mask`), one per frame. The guide matrix is built once, from
    the spikes back to back; a member's penalty sums its own rows. Returns
    (one loss per member, grad). alpha = 0
    reproduces ctc_loss bit for bit (the penalty path is skipped
    entirely)."""
    alpha = check_float("alpha", alpha)
    losses, grad = ctc_loss(teacher_log_posteriors, targets, lengths)
    if alpha == 0.0:
        return losses, grad
    probs = np.exp(np.asarray(teacher_log_posteriors, dtype=np.float64))
    d_probs = -_spike_matrix(np.concatenate(spikes), probs)
    d_probs *= probs  # -mask * p: each row's penalty terms
    start = 0
    for b, (member_spikes, n) in enumerate(zip(spikes, lengths, strict=True)):
        if len(member_spikes) != n:
            raise ValueError(f"member {b}: {len(member_spikes)} spikes for {n} frames")
        losses[b] += alpha * float(d_probs[start : start + n].sum())
        start += n
    return losses, grad + alpha * d_probs


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
