"""Oracle checks shared by `streamctc selfcheck` and the acceptance gate.

Each check compares a fast path against an independent reference (brute
force enumeration, central finite differences, an algebraic identity, a
degenerate configuration or a serialization round trip) and returns the
worst error it measured; the caller owns the bound. Randomized checks take
a seed or a generator (a generator is consumed in place, so consecutive
checks can share one) and a repeat count: the acceptance gate runs them at
full size on its fixed seeds, `selfcheck` runs a few draws of each.
"""

from __future__ import annotations

import functools
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np

from .ctc import (
    DecodeConfig,
    ctc_brute_force,
    ctc_loss,
    greedy_decode,
    min_frames,
    prefix_beam_search,
)
from .encoder import (
    EncoderConfig,
    ForwardTrace,
    GradientBuffer,
    backward,
    checkpoint_digest,
    forward,
    forward_with_cache,
    init_params,
    load_checkpoint,
    param_layout,
    save_checkpoint,
)
from .lm import load_lm, logp, save_lm, train_ngram
from .losses import (
    DistillSpec,
    contrastive_loss,
    distillation_loss,
    guide_mask,
    guide_penalty,
    guided_ctc_loss,
)
from .masking import MaskSpec, eil
from .numerics import (
    BatchNormStats,
    batch_norm_backward,
    batch_norm_forward,
    check_gradient,
    conv1d_backward,
    conv1d_forward,
    layer_norm_backward,
    layer_norm_forward,
    log_softmax,
    log_softmax_backward,
    masked_softmax,
    masked_softmax_backward,
)
from .pipeline import (
    DatasetFormatError,
    SyntheticTask,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .pipeline.stages import BIDIRECTIONAL
from .vocab import LabelSequence

TINY_ENCODER = EncoderConfig(
    n_layers=2, model_dim=8, n_heads=2, ffn_dim=12,
    vocab_size=6, feature_dim=3, frontend_kernel=2,
)

# the paper's four configurations with 480 ms encoder-induced latency
REFERENCE_CONFIGS = (
    MaskSpec(variant="time_restricted", right_frames=2),
    MaskSpec(variant="chunk", chunk_frames=48),
    MaskSpec(variant="block", chunk_frames=24, future_frames=12),
    MaskSpec(variant="block", chunk_frames=12, future_frames=18),
)


def reference_latencies() -> list:
    """EIL in ms of each reference configuration at 12 layers (480 for all
    four)."""
    return [eil(spec, 12) for spec in REFERENCE_CONFIGS]


def _repeated(single):
    """Turn a one-draw check into `check(rng, repeats=1, ...)` returning
    the worst error over `repeats` consecutive draws from `rng`."""

    @functools.wraps(single)
    def check(rng, repeats: int = 1, **kwargs) -> float:
        rng = np.random.default_rng(rng)
        return max(single(rng, **kwargs) for _ in range(repeats))

    return check


# ------------------------------------------------------------------ CTC


@_repeated
def ctc_brute_force_error(rng) -> float:
    """|ctc_loss - enumeration| on one satisfiable instance; an
    unsatisfiable draw is drawn again."""
    while True:
        t_len = int(rng.integers(1, 7))
        v = int(rng.integers(2, 5))
        n = int(rng.integers(0, 4))
        target = LabelSequence(tuple(int(x) for x in rng.integers(1, v, size=n)))
        if min_frames(target) <= t_len:
            break
    lp = log_softmax(rng.normal(size=(t_len, v)))
    [loss], _ = ctc_loss(lp, [target], [t_len])
    return abs(loss - ctc_brute_force(lp, target))


GUIDE_ALPHAS = (1.0, 0.1, 0.01)


@_repeated
def guided_identity_residual(rng) -> float:
    """Worst |guided - ctc - alpha * penalty| over `GUIDE_ALPHAS`: the
    guided loss must be plain CTC plus exactly alpha times the guide
    penalty."""
    stream_lp = log_softmax(rng.normal(size=(6, 5)))
    teacher_lp = log_softmax(rng.normal(size=(6, 5)))
    target = LabelSequence((1, 3))
    spikes = guide_mask(stream_lp)
    [base], _ = ctc_loss(teacher_lp, [target], [len(teacher_lp)])
    penalty, _ = guide_penalty(spikes, np.exp(teacher_lp))
    residuals = []
    for alpha in GUIDE_ALPHAS:
        [loss], _ = guided_ctc_loss(teacher_lp, [target], [len(teacher_lp)], [spikes], alpha)
        residuals.append(abs((loss - base) - alpha * penalty))
    return max(residuals)


# ------------------------------------------------------------ gradients


@_repeated
def masked_softmax_gradient_error(rng) -> float:
    logits = rng.normal(size=(4, 4))
    mask = rng.random((4, 4)) < 0.6
    mask[np.arange(4), rng.integers(0, 4, size=4)] = True
    w = rng.normal(size=(4, 4))

    def op(lg):
        probs = masked_softmax(lg, mask)
        return float(np.sum(w * probs)), [masked_softmax_backward(w, probs)]

    return check_gradient(op, [logits])


@_repeated
def layer_norm_gradient_error(rng) -> float:
    w = rng.normal(size=(5, 4))

    def op(x, gain, bias):
        y, cache = layer_norm_forward(x, gain, bias)
        return float(np.sum(w * y)), list(layer_norm_backward(w, cache))

    inputs = [rng.normal(size=(5, 4)), rng.normal(size=4), rng.normal(size=4)]
    return check_gradient(op, inputs)


@_repeated
def batch_norm_gradient_error(rng) -> float:
    w = rng.normal(size=(6, 4))
    x = rng.normal(size=(6, 4))

    def op(gain, bias):
        y, cache, _ = batch_norm_forward(x, gain, bias, BatchNormStats.fresh(4), "train")
        return float(np.sum(w * y)), list(batch_norm_backward(w, cache))

    return check_gradient(op, [rng.normal(size=4), rng.normal(size=4)])


@_repeated
def conv1d_gradient_error(rng) -> float:
    w = rng.normal(size=(7, 2))

    def op(x, kernel, bias):
        y, cache = conv1d_forward(x, kernel, bias)
        return float(np.sum(w * y)), list(conv1d_backward(w, cache))

    inputs = [rng.normal(size=(7, 3)), rng.normal(size=(3, 3, 2)), rng.normal(size=2)]
    return check_gradient(op, inputs)


@_repeated
def ctc_gradient_error(rng) -> float:
    target = LabelSequence((1, 2))

    def op(x):
        lp = log_softmax(x)
        [loss], g = ctc_loss(lp, [target], [len(lp)])
        return loss, [log_softmax_backward(g, lp)]

    return check_gradient(op, [rng.normal(size=(5, 4))])


@_repeated
def guided_ctc_gradient_error(rng) -> float:
    stream_lp = log_softmax(rng.normal(size=(6, 5)))
    spikes = guide_mask(stream_lp)
    target = LabelSequence((1, 3))

    def op(x):
        lp = log_softmax(x)
        [loss], g = guided_ctc_loss(lp, [target], [len(lp)], [spikes], 0.1)
        return loss, [log_softmax_backward(g, lp)]

    return check_gradient(op, [rng.normal(size=(6, 5))])


@_repeated
def distillation_gradient_error(rng) -> float:
    teacher = ForwardTrace(tuple(rng.normal(size=(4, 3)) for _ in range(2)), None)
    spec = DistillSpec((1, 2))

    def op(h1, h2):
        loss, grads = distillation_loss(ForwardTrace((h1, h2), None), teacher, spec)
        return loss, [grads[1], grads[2]]

    inputs = [rng.normal(size=(4, 3)), rng.normal(size=(4, 3))]
    return check_gradient(op, inputs)


@_repeated
def contrastive_gradient_error(rng) -> float:
    true_t = rng.normal(size=6)
    distractors = rng.normal(size=(3, 6))

    def op(c):
        loss, g = contrastive_loss(c, true_t, distractors, 0.5)
        return loss, [g]

    return check_gradient(op, [rng.normal(size=6)])


# one draw of each kernel and loss gradient, in the order the acceptance
# gate consumes its per-seed generator
GRADIENT_CHECKS = (
    masked_softmax_gradient_error,
    layer_norm_gradient_error,
    batch_norm_gradient_error,
    conv1d_gradient_error,
    ctc_gradient_error,
    guided_ctc_gradient_error,
    distillation_gradient_error,
    contrastive_gradient_error,
)


def encoder_gradient_error(seed: int, repeats: int) -> float:
    """Parameter gradient of the whole encoder against central
    differences, at 6 sampled entries of every parameter array (all of a
    smaller one), for models `seed` .. `seed + repeats - 1` in train mode
    (odd seeds use a block mask with lookahead copies, even seeds the
    chunk mask)."""
    names = [name for name, _ in param_layout(TINY_ENCODER)]
    worst = 0.0
    for s in range(seed, seed + repeats):
        base = init_params(TINY_ENCODER, s)
        spec = (
            MaskSpec(variant="block", chunk_frames=2, future_frames=1)
            if s % 2
            else MaskSpec(variant="chunk", chunk_frames=2)
        )
        rng = np.random.default_rng(s + 300)
        w = rng.normal(size=(4, 6))
        x = rng.normal(size=(4, 3))

        def op(*values):
            # a fresh copy per call, so `base` keeps its values
            params = base.copy()
            for name, value in zip(names, values):
                params.arrays[name][...] = value
            [trace], cache = forward_with_cache(params, [x], spec, train=True)
            out = GradientBuffer.zeros(TINY_ENCODER)
            backward(params, cache, out, grad_logpost=w)
            return float(np.sum(w * trace.posteriorgram)), [out.arrays[n] for n in names]

        inputs = [base.arrays[name] for name in names]
        worst = max(worst, check_gradient(op, inputs, max_checks=6, rng=rng))
    return worst


# ------------------------------------------------------------ decoding


def beam_greedy_mismatches(rng, repeats: int) -> int:
    """How many of `repeats` random posteriorgrams decode differently with
    beam 1 than with greedy decoding."""
    rng = np.random.default_rng(rng)
    bad = 0
    for _ in range(repeats):
        lp = log_softmax(rng.normal(size=(int(rng.integers(6, 9)), 5)))
        top = prefix_beam_search(lp, DecodeConfig(beam_size=1))[0]
        bad += top.labels.tokens != greedy_decode(lp).tokens
    return bad


def _exhaustive_best(lp, n_vocab):
    t_len = lp.shape[0]
    best_seq, best_score = None, -np.inf
    for length in range(t_len + 1):
        for seq in itertools.product(range(1, n_vocab), repeat=length):
            target = LabelSequence(seq)
            if min_frames(target) > t_len:
                continue
            score = -ctc_loss(lp, [target], [t_len])[0][0]
            if score > best_score:
                best_seq, best_score = seq, score
    return best_seq, best_score


@_repeated
def beam_exhaustive_error(rng) -> float:
    """|score gap| between a very wide beam and the best labeling by
    enumeration; infinite when the labelings differ."""
    t_len = int(rng.integers(4, 7))
    v = int(rng.integers(3, 5))
    lp = log_softmax(rng.normal(size=(t_len, v)))
    best_seq, best_score = _exhaustive_best(lp, v)
    top = prefix_beam_search(lp, DecodeConfig(beam_size=2048))[0]
    if top.labels.tokens != best_seq:
        return math.inf
    return abs(top.acoustic - best_score)


@_repeated
def beam_monotone_drop(rng) -> float:
    """Worst fall of the top combined score as the beam widens 1 -> 16
    (0.0 when it never falls)."""
    lp = log_softmax(rng.normal(size=(7, 5)))
    scores = [
        prefix_beam_search(lp, DecodeConfig(beam_size=b))[0].combined
        for b in (1, 2, 4, 8, 16)
    ]
    return max(0.0, *(small - big for small, big in zip(scores, scores[1:])))


# --------------------------------------------------------------- masks


def degenerate_specs(n_frames: int) -> tuple:
    """Chunk and block masks at least as wide as the utterance, which must
    behave exactly like the bidirectional mask."""
    return (
        MaskSpec(variant="chunk", chunk_frames=n_frames),
        MaskSpec(variant="chunk", chunk_frames=n_frames + 4),
        MaskSpec(variant="block", chunk_frames=n_frames, future_frames=0),
        MaskSpec(variant="block", chunk_frames=n_frames + 2, future_frames=0),
    )


def degenerate_mask_error(seed: int, repeats: int, n_frames: int = 7) -> float:
    """Worst |posteriorgram difference| between each degenerate mask and
    the bidirectional one (bit-identical means 0.0)."""
    worst = 0.0
    for s in range(seed, seed + repeats):
        params = init_params(TINY_ENCODER, s + 50)
        rng = np.random.default_rng(s + 500)
        x = rng.normal(size=(n_frames, TINY_ENCODER.feature_dim))
        want = forward(params, x, BIDIRECTIONAL).posteriorgram
        for spec in degenerate_specs(n_frames):
            got = forward(params, x, spec).posteriorgram
            worst = max(worst, float(np.max(np.abs(want - got))))
    return worst


# --------------------------------------------------------- round trips


def _flip(blob, pos):
    out = bytearray(blob)
    out[pos] ^= 0xFF
    return bytes(out)


# corruptions of a dataset file (bytes, first uid) the loader must reject;
# an array's name is its <H length and bytes, then come its rank and extents
DATASET_CORRUPTIONS = {
    "bad magic": lambda b, uid: bytes([b[0] ^ 0xFF]) + bytes(b[1:]),
    "bad array extent": lambda b, uid: _flip(
        b, b.index(len(uid).to_bytes(2, "little") + uid) + 2 + len(uid) + 1
    ),
    "truncated": lambda b, uid: bytes(b[:-4]),
}


def round_trip_failures(directory=None) -> list:
    """Names of what did not survive a save/load round trip: checkpoint
    bytes, LM bytes and scores, dataset contents, and each corrupted
    dataset file the loader accepted. Empty when everything holds."""
    if directory is None:
        with tempfile.TemporaryDirectory() as tmp:
            return round_trip_failures(tmp)
    root = Path(directory)
    failed = []

    params = init_params(TINY_ENCODER, 7)
    first = root / "model.ckpt"
    save_checkpoint(params, first)
    loaded = load_checkpoint(first, expect_config=TINY_ENCODER)
    again = root / "model2.ckpt"
    save_checkpoint(loaded, again)
    if (
        checkpoint_digest(loaded) != checkpoint_digest(params)
        or first.read_bytes() != again.read_bytes()
    ):
        failed.append("checkpoint")

    model = train_ngram(["ab|ba", "aab|b", "ba"], order=3, smoothing=0.2)
    lm_first = root / "lm.json"
    save_lm(model, lm_first)
    lm_loaded = load_lm(lm_first)
    lm_again = root / "lm2.json"
    save_lm(lm_loaded, lm_again)
    same_scores = all(
        logp(model, token, context) == logp(lm_loaded, token, context)
        for token, context in (("a", ""), ("b", "a"), ("|", "ab"))
    )
    if lm_first.read_bytes() != lm_again.read_bytes() or not same_scores:
        failed.append("lm")

    task = SyntheticTask.make(
        token_ids=(1, 2, 3), feature_dim=4, frames_per_token=(2, 3),
        noise_std=0.3, seed=5, text_len=(2, 4),
    )
    split = generate_dataset(task, (4, 3, 2))
    data_path = root / "set.bin"
    save_dataset(split.labeled, data_path)
    back = load_dataset(data_path)
    if len(back) != len(split.labeled) or not all(
        a.uid == b.uid and a.text == b.text and np.array_equal(a.features, b.features)
        for a, b in zip(split.labeled, back)
    ):
        failed.append("dataset")

    blob = data_path.read_bytes()
    uid = split.labeled[0].uid.encode("utf-8")
    for name, corrupt in DATASET_CORRUPTIONS.items():
        broken = root / "broken.bin"
        broken.write_bytes(corrupt(blob, uid))
        try:
            load_dataset(broken)
        except DatasetFormatError:
            continue
        failed.append(f"container with {name} accepted")
    return failed
