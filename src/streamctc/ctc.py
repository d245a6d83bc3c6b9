"""CTC loss, decoding, and error metrics.

The loss runs a log-space forward-backward pass over the blank-augmented
label and returns the analytic gradient with respect to the input
log-posteriorgram; a batch of utterances runs as rows of one pass. A
brute-force path enumerator serves as its oracle on tiny instances.
Decoding offers best-path (greedy) and prefix beam search with optional
character-level n-gram shallow fusion and a word insertion penalty.
Error rates are summed Levenshtein distances over summed reference
lengths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_float, check_int
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

    `emit[t, ..., s]` is the log-prob of emitting state `s` of the
    blank-extended label `ext[..., s]` at frame t; the axes between are
    rows swept side by side in one time loop, each with its own label.
    Time leads, so each frame's rows are one contiguous block. Returns
    (pre, cur): `pre[t, ..., s]` is the log mass entering state s at frame
    t before that frame's emission (0 at the two start states of frame 0),
    and `cur = pre + emit`. Run on the reversed label and time axes, `pre`
    is beta (Graves et al. 2006).
    """
    # only a label state (odd s) may be entered from s - 2, and only when
    # its label differs from that of s - 2
    skip = ext[..., 3::2] != ext[..., 1:-2:2]
    # state column 0 holds -inf for good, so that advancing one state
    # gives state 0 its own mass: logaddexp(x, -inf) is x
    pre = np.full(emit.shape[:-1] + (emit.shape[-1] + 1,), NEG_INF)
    pre[0, ..., 1:3] = 0.0
    cur = np.full(pre.shape, NEG_INF)
    np.add(pre[0, ..., 1:], emit[0], out=cur[0, ..., 1:])
    for t in range(1, emit.shape[0]):
        prev, nxt = cur[t - 1], pre[t]
        # stay or advance one state, then skip a blank between labels
        np.logaddexp(prev[..., 1:], prev[..., :-1], out=nxt[..., 1:])
        np.logaddexp(nxt[..., 4::2], prev[..., 2:-2:2], out=nxt[..., 4::2], where=skip)
        np.add(nxt[..., 1:], emit[t], out=cur[t, ..., 1:])
    return pre[..., 1:], cur[..., 1:]


def ctc_loss(log_posteriors: np.ndarray, targets, lengths):
    """Negative log-probability of each member's target plus the gradient.

    `log_posteriors` holds the members' T_b x V log-posteriorgrams back to
    back, (sum of `lengths`) x V, with rows log-normalized (not
    revalidated, so gradient checks may probe it freely); member b reads
    `lengths[b]` rows and aims at `targets[b]`. A single utterance is a
    batch of one. Returns (one loss per member, grad), grad being the
    derivative of the summed loss w.r.t. each log-posterior entry, in the
    input's layout.

    All members run as rows of one `_sweep`: alpha on each member's
    blank-extended label padded with blanks to the longest, beta on its
    own reversed frames and label, emissions past a member's end -inf.
    A padded state never feeds a real one and a member's real frames come
    first, so each member gets the same bits as a batch of one. An
    unsatisfiable target raises `UnsatisfiableTargetError` naming its
    member: frame counts are checked for every member before the sweep.
    """
    lp = np.asarray(log_posteriors, dtype=np.float64)
    if lp.ndim != 2:
        raise ValueError("log_posteriors must be (total frames) x V")
    v = lp.shape[1]
    lengths = [check_int("frame count", n, 1) for n in lengths]
    if not targets or len(targets) != len(lengths):
        raise ValueError(f"{len(targets)} target(s) for {len(lengths)} frame count(s)")
    if sum(lengths) != lp.shape[0]:
        raise ValueError(
            f"frame counts sum to {sum(lengths)}, log_posteriors has {lp.shape[0]} rows"
        )
    for b, (target, t_len) in enumerate(zip(targets, lengths)):
        if any(tok >= v for tok in target.tokens):
            raise ValueError(f"member {b}: target token outside vocabulary")
        if t_len < min_frames(target):
            raise UnsatisfiableTargetError(
                f"member {b}: target needs {min_frames(target)} frames, got {t_len}"
            )
    n_batch = len(lengths)
    frames = np.asarray(lengths)
    states = 2 * np.array([len(target.tokens) for target in targets]) + 1
    # labels[0, b]: member b's blank-extended label, padded with blanks;
    # labels[1, b]: the same label reversed, then padded
    labels = np.full((2, n_batch, states.max()), BLANK, dtype=np.int64)
    for b, target in enumerate(targets):
        label = _extend_with_blanks(target.tokens)
        labels[0, b, : label.shape[0]] = label
        labels[1, b, : label.shape[0]] = label[::-1]
    # rows[t, 0, b] and rows[t, 1, b]: the row of lp that frame t of
    # member b reads, forward and reversed; a frame past the member's end
    # reads the appended -inf row
    first = np.cumsum(frames) - frames
    t = np.arange(frames.max())[:, None]
    real = t < frames
    rows = np.stack([first + t, first + frames - 1 - t], axis=1)
    rows = np.where(real[:, None], rows, lp.shape[0])
    padded = np.concatenate([lp, np.full((1, v), NEG_INF)])
    # alpha[t, b, s]: log-prob of the prefix ending in state s, including
    # the emission at t; beta[t, b, s]: log-prob of completing the label
    # from state s after t, excluding the emission at t
    pre, cur = _sweep(padded[rows[..., None], labels], labels)
    members = np.arange(n_batch)
    last = cur[frames - 1, 0, members]
    ends = np.where(states > 1, last[members, states - 2], NEG_INF)
    totals = np.logaddexp(last[members, states - 1], ends)
    lost = np.flatnonzero(~np.isfinite(totals))
    if lost.size:
        raise UnsatisfiableTargetError(
            f"member {lost[0]}: no valid alignment has finite probability"
        )

    # occupancy of state s at frame t, alpha + beta - total, 0 outside a
    # member's frames and states; beta is read from the member's own
    # reversed rows
    n_states = labels.shape[2]
    cells = real[:, :, None] & (np.arange(n_states) < states[:, None])
    beta = pre[
        np.where(real, frames - 1 - t, 0)[:, :, None],
        1,
        members[:, None],
        np.maximum(states[:, None] - 1 - np.arange(n_states), 0),
    ]
    occ = np.where(cells, np.exp(cur[:, 0] + beta - totals[:, None]), 0.0)
    # fold states onto tokens, member by member, each entry subtracting its
    # states in order; then keep each member's frames, member after member
    folded = np.zeros((v, n_batch, t.shape[0]))
    np.subtract.at(folded, (labels[0], members[:, None]), occ.transpose(1, 2, 0))
    grad = folded.transpose(1, 2, 0)[real.T]
    return [-float(total) for total in totals], grad


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
        check_int("beam_size", self.beam_size, 1)
        if self.lm is not None and not callable(getattr(self.lm, "logp", None)):
            raise ValueError(
                f"lm must have a logp(token_id, context_ids) method, got "
                f"{type(self.lm).__name__}; wrap an NgramModel in FusionLm"
            )
        for name in ("lm_weight", "word_insertion_penalty"):
            check_float(name, getattr(self, name))

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


def error_counts(refs, hyps) -> tuple:
    """(summed edit distance, summed reference length) over paired
    sequences: the numerator and denominator of a corpus error rate."""
    refs, hyps = list(refs), list(hyps)
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references but {len(hyps)} hypotheses")
    errors = sum(edit_distance(r, h) for r, h in zip(refs, hyps))
    return errors, sum(len(r) for r in refs)
