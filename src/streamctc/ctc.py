"""CTC loss, decoding, and error metrics.

The loss runs a log-space forward-backward pass over the blank-augmented
label and returns the analytic gradient with respect to the input
log-posteriorgram. A brute-force path enumerator serves as its oracle on
tiny instances. Decoding offers best-path (greedy) and prefix beam search
with optional character-level n-gram shallow fusion and a word insertion
penalty. Rates are plain Levenshtein distances normalized by reference
length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .vocab import BLANK, DELIMITER, LabelSequence

NEG_INF = -np.inf


class UnsatisfiableTargetError(ValueError):
    """Target cannot be emitted in the given number of frames."""


def min_frames(target: LabelSequence) -> int:
    """Frames needed: one per label plus a blank between repeated labels."""
    toks = target.tokens
    repeats = sum(1 for a, b in zip(toks, toks[1:]) if a == b)
    return len(toks) + repeats


def _extend_with_blanks(tokens) -> np.ndarray:
    ext = np.full(2 * len(tokens) + 1, BLANK, dtype=np.int64)
    ext[1::2] = tokens
    return ext


def _sweep(emit: np.ndarray, ext: np.ndarray):
    """One log-space pass over the CTC lattice, frame by frame.

    `emit[t, s]` is the log-prob of emitting state `s` of the blank-extended
    label `ext` at frame t. Returns (pre, cur): `pre[t, s]` is the log mass
    entering state s at frame t before that frame's emission (0 at the two
    start states of frame 0), and `cur = pre + emit`. Run on the reversed
    label and time axes, `pre` is beta (Graves et al. 2006).
    """
    # state s may be entered from s - 2 when it is a label unlike s - 2's
    skip = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    pre = np.full(emit.shape, NEG_INF)
    pre[0, :2] = 0.0
    cur = np.empty_like(pre)
    np.add(pre[0], emit[0], out=cur[0])
    for t in range(1, emit.shape[0]):
        prev, nxt = cur[t - 1], pre[t]
        # stay, then advance one state, then skip a blank between labels
        nxt[0] = prev[0]
        np.logaddexp(prev[1:], prev[:-1], out=nxt[1:])
        np.logaddexp(nxt[2:], prev[:-2], out=nxt[2:], where=skip)
        np.add(nxt, emit[t], out=cur[t])
    return pre, cur


def ctc_loss(log_posteriors: np.ndarray, target: LabelSequence):
    """Negative log-probability of `target` plus its gradient.

    `log_posteriors` is T x V with rows log-normalized (not revalidated, so
    gradient checks may probe it freely). Returns (loss, grad) where grad
    is the derivative of the loss w.r.t. each log-posterior entry.
    """
    lp = np.asarray(log_posteriors, dtype=np.float64)
    if lp.ndim != 2:
        raise ValueError("log_posteriors must be T x V")
    t_len, v = lp.shape
    if any(tok >= v for tok in target.tokens):
        raise ValueError("target token outside vocabulary")
    if t_len < min_frames(target):
        raise UnsatisfiableTargetError(
            f"target needs {min_frames(target)} frames, got {t_len}"
        )
    ext = _extend_with_blanks(target.tokens)
    emit = lp[:, ext]
    # alpha[t, s]: log-prob of the prefix ending in state s, including the
    # emission at t; beta[t, s]: log-prob of completing the label from state
    # s after t, excluding the emission at t
    alpha = _sweep(emit, ext)[1]
    beta = _sweep(emit[::-1, ::-1], ext[::-1])[0][::-1, ::-1]

    total = np.logaddexp(alpha[-1, -1], alpha[-1, -2] if ext.shape[0] > 1 else NEG_INF)
    if not np.isfinite(total):
        raise UnsatisfiableTargetError("no valid alignment has finite probability")
    loss = -float(total)

    # occupancy of state s at t: alpha + beta - total; fold states onto tokens
    occ = np.exp(alpha + beta - total)
    grad = np.zeros_like(lp)
    np.subtract.at(grad.T, ext, occ.T)
    return loss, grad


def collapse(path, blank: int = BLANK) -> tuple:
    """Merge consecutive repeats, then drop blanks."""
    out = []
    prev = None
    for tok in path:
        if tok != prev:
            out.append(tok)
        prev = tok
    return tuple(t for t in out if t != blank)


def ctc_brute_force(log_posteriors: np.ndarray, target: LabelSequence) -> float:
    """Oracle: enumerate every frame labeling, sum those collapsing to the
    target. Only for tiny instances."""
    lp = np.asarray(log_posteriors, dtype=np.float64)
    t_len, v = lp.shape
    if t_len > 8 or v > 5:
        raise ValueError("brute force limited to T <= 8, V <= 5")
    want = tuple(target.tokens)
    total = NEG_INF
    for path in itertools.product(range(v), repeat=t_len):
        if collapse(path) != want:
            continue
        score = sum(lp[t, tok] for t, tok in enumerate(path))
        total = np.logaddexp(total, score)
    if not np.isfinite(total):
        raise UnsatisfiableTargetError("no path collapses to the target")
    return -float(total)


def greedy_decode(log_posteriors: np.ndarray) -> LabelSequence:
    """Best-path decode: per-frame argmax (ties to the lowest index),
    collapse repeats, strip blanks."""
    lp = np.asarray(log_posteriors, dtype=np.float64)
    path = lp.argmax(axis=1)
    return LabelSequence(collapse(path))


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 500
    lm_weight: float = 0.0
    word_insertion_penalty: float = 0.0
    lm: object = None  # logp(token_id, context_ids), e.g. lm.FusionLm

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.lm is not None and not callable(getattr(self.lm, "logp", None)):
            raise ValueError(
                f"lm must have a logp(token_id, context_ids) method, got "
                f"{type(self.lm).__name__}; wrap an NgramModel in FusionLm"
            )
        for name in ("lm_weight", "word_insertion_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return {
            "beam_size": self.beam_size,
            "lm_weight": self.lm_weight,
            "word_insertion_penalty": self.word_insertion_penalty,
            "lm": None if self.lm is None else "attached",
            "log_base": "e",
        }


@dataclass(frozen=True)
class Hypothesis:
    labels: LabelSequence
    acoustic: float
    lm: float
    combined: float


def word_count(tokens: tuple) -> int:
    """Delimiters emitted plus the trailing unterminated word, if any."""
    n = sum(1 for t in tokens if t == DELIMITER)
    if tokens and tokens[-1] != DELIMITER:
        n += 1
    return n


def prefix_beam_search(log_posteriors: np.ndarray, cfg: DecodeConfig) -> list:
    """CTC prefix beam search with sum-merging of alignments.

    Per frame, only the `beam_size` highest-probability tokens are expanded
    (ties to the lowest index); with beam 1 this makes the search follow
    the per-frame argmax exactly, and with beam >= V it is inactive.
    Prefixes carry separate blank/non-blank ending masses; the LM adds a
    weighted conditional log-prob per emitted token, and the word insertion
    penalty counts emitted delimiters plus a trailing word.
    """
    lp = np.asarray(log_posteriors, dtype=np.float64)
    t_len, v = lp.shape
    beam = cfg.beam_size

    def lm_step(prefix: tuple, token: int) -> float:
        if cfg.lm is None:
            return 0.0
        return cfg.lm.logp(token, prefix)

    def combined(prefix: tuple, pb: float, pnb: float, lm_total: float) -> float:
        acoustic = np.logaddexp(pb, pnb)
        return (
            acoustic
            + cfg.lm_weight * lm_total
            + cfg.word_insertion_penalty * word_count(prefix)
        )

    # prefix -> [log P(ending in blank), log P(ending in non-blank), lm total]
    beams = {(): [0.0, NEG_INF, 0.0]}
    for t in range(t_len):
        order = np.argsort(-lp[t], kind="stable")
        candidates = order[: min(beam, v)]
        nxt = {}

        def bucket(prefix):
            entry = nxt.get(prefix)
            if entry is None:
                entry = [NEG_INF, NEG_INF, 0.0]
                nxt[prefix] = entry
            return entry

        for prefix, (pb, pnb, lm_total) in beams.items():
            total = np.logaddexp(pb, pnb)
            for tok in candidates:
                p_tok = lp[t, tok]
                if tok == BLANK:
                    entry = bucket(prefix)
                    entry[0] = np.logaddexp(entry[0], total + p_tok)
                    entry[2] = lm_total
                    continue
                if prefix and prefix[-1] == tok:
                    # repeat without blank: stays the same prefix
                    entry = bucket(prefix)
                    entry[1] = np.logaddexp(entry[1], pnb + p_tok)
                    entry[2] = lm_total
                    # emit a new copy after a blank boundary
                    ext = prefix + (int(tok),)
                    entry = bucket(ext)
                    entry[1] = np.logaddexp(entry[1], pb + p_tok)
                    entry[2] = lm_total + lm_step(prefix, int(tok))
                else:
                    ext = prefix + (int(tok),)
                    entry = bucket(ext)
                    entry[1] = np.logaddexp(entry[1], total + p_tok)
                    entry[2] = lm_total + lm_step(prefix, int(tok))
        ranked = sorted(
            nxt.items(),
            key=lambda kv: -combined(kv[0], kv[1][0], kv[1][1], kv[1][2]),
        )
        beams = dict(ranked[:beam])

    hyps = []
    for prefix, (pb, pnb, lm_total) in beams.items():
        acoustic = float(np.logaddexp(pb, pnb))
        if not math.isfinite(acoustic):
            continue  # bookkeeping stub with zero mass
        hyps.append(
            Hypothesis(
                labels=LabelSequence(prefix),
                acoustic=acoustic,
                lm=float(lm_total),
                combined=float(combined(prefix, pb, pnb, lm_total)),
            )
        )
    if not hyps:
        hyps.append(Hypothesis(LabelSequence(()), NEG_INF, 0.0, NEG_INF))
    hyps.sort(key=lambda h: -h.combined)
    return hyps


def posteriorgram_to_csv(log_posteriors: np.ndarray) -> str:
    lp = np.asarray(log_posteriors, dtype=np.float64)
    lines = []
    for t in range(lp.shape[0]):
        lines.append(",".join([str(t)] + [f"{x:.17g}" for x in lp[t]]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def edit_distance(ref, hyp) -> int:
    """Levenshtein distance with unit costs."""
    ref = list(ref)
    hyp = list(hyp)
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if r == h else 1),
            )
        prev = cur
    return prev[-1]


def edit_distance_rate(ref: LabelSequence, hyp: LabelSequence, mode: str = "char") -> float:
    """Levenshtein distance / reference length. `mode="word"` groups tokens
    on the word delimiter first."""
    if mode == "char":
        r, h = list(ref.tokens), list(hyp.tokens)
    elif mode == "word":
        r, h = ref.words(), hyp.words()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not r:
        raise ValueError("empty reference")
    return edit_distance(r, h) / len(r)
