"""Guided CTC, distillation, and contrastive losses plus frame agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc.ctc import ctc_loss
from streamctc.encoder import ForwardTrace
from streamctc.losses import (
    DistillSpec,
    contrastive_loss,
    distillation_loss,
    frame_agreement,
    guide_mask,
    guide_penalty,
    guided_ctc_loss,
)
from streamctc.numerics import check_gradient, log_softmax
from streamctc.vocab import LabelSequence


def ctc_one(lp, target):
    """`ctc_loss` on one utterance, as a batch of one."""
    [loss], grad = ctc_loss(lp, [target], [len(lp)])
    return loss, grad


def guided_one(lp, target, spikes, alpha):
    """`guided_ctc_loss` on one utterance, as a batch of one."""
    [loss], grad = guided_ctc_loss(lp, [target], [len(lp)], [spikes], alpha)
    return loss, grad


def random_log_posteriors(rng, t_len, v):
    logits = rng.normal(size=(t_len, v))
    return log_softmax(logits)


# ----------------------------------------------------------- spike sequence


def test_guide_mask_blank_argmax_gives_zero_column():
    # a blank argmax is no spike: the penalty marks nothing in that frame
    lp = log_softmax(np.array([[3.0, 0.0, 1.0]]))
    spikes = guide_mask(lp)
    assert spikes.tolist() == [0]
    assert guide_penalty(spikes, np.exp(lp))[1].tolist() == [[0.0, 0.0, 0.0]]


def test_guide_mask_nonblank_argmax_is_one_hot():
    lp = log_softmax(np.array([[0.0, 4.0, 1.0], [0.0, 1.0, 5.0]]))
    spikes = guide_mask(lp)
    assert spikes.tolist() == [1, 2]
    _, grad = guide_penalty(spikes, np.exp(lp))
    assert (-grad).tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def test_guide_mask_uniform_tie_goes_to_blank():
    lp = log_softmax(np.zeros((3, 4)))
    assert guide_mask(lp).tolist() == [0, 0, 0]


def test_guide_mask_nonblank_tie_breaks_low():
    lp = log_softmax(np.array([[0.0, 2.0, 2.0, 1.0]]))
    assert guide_mask(lp).tolist() == [1]


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 7.5))
@settings(max_examples=40, deadline=None)
def test_guide_mask_invariant_to_logit_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(6, 5))
    a = guide_mask(log_softmax(logits))
    b = guide_mask(log_softmax(scale * logits))
    assert np.array_equal(a, b)


# ------------------------------------------------------------- guide penalty


def test_guide_penalty_zero_mask_is_zero():
    # all-blank spikes mark no position
    value, grad = guide_penalty(np.zeros(4, dtype=int), np.full((4, 3), 0.3))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros((4, 3)))


def test_guide_penalty_perfect_agreement_reaches_minus_t():
    t_len = 5
    p = np.zeros((t_len, 3))
    p[:, 1] = 1.0
    value, _ = guide_penalty(np.ones(t_len, dtype=int), p)
    assert value == -float(t_len)


def test_guide_penalty_matches_double_loop():
    rng = np.random.default_rng(7)
    t_len, v = 6, 4
    spikes = rng.integers(0, v, size=t_len)
    p = np.exp(random_log_posteriors(rng, t_len, v))
    value, grad = guide_penalty(spikes, p)
    direct = 0.0
    marked = np.zeros((t_len, v))
    for t in range(t_len):
        if spikes[t] != 0:
            direct -= p[t, spikes[t]]
            marked[t, spikes[t]] = 1.0
    assert abs(value - direct) < 1e-12
    assert np.array_equal(grad, -marked)


def test_guide_penalty_bounds():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t_len, v = 5, 4
        lp = random_log_posteriors(rng, t_len, v)
        spikes = guide_mask(random_log_posteriors(rng, t_len, v))
        value, _ = guide_penalty(spikes, np.exp(lp))
        assert -t_len <= value <= 0.0


def test_guide_penalty_shape_mismatch():
    # one spike per posterior row, each a token id of the vocabulary
    for spikes, shape in [
        (np.zeros(4, dtype=int), (3, 3)),
        (np.zeros(4, dtype=int), (4,)),
        (np.array([0, 3]), (2, 3)),
        (np.array([-1, 0]), (2, 3)),
    ]:
        with pytest.raises(ValueError):
            guide_penalty(spikes, np.full(shape, 0.25))


# --------------------------------------------------------------- guided CTC


def test_guided_alpha_zero_identical_to_ctc():
    rng = np.random.default_rng(3)
    lp = random_log_posteriors(rng, 6, 4)
    target = LabelSequence((1, 2))
    spikes = guide_mask(random_log_posteriors(rng, 6, 4))
    plain_loss, plain_grad = ctc_one(lp, target)
    loss, grad = guided_one(lp, target, spikes, alpha=0.0)
    assert loss == plain_loss
    assert np.array_equal(grad, plain_grad)


def test_guided_zero_mask_equals_ctc():
    rng = np.random.default_rng(4)
    lp = random_log_posteriors(rng, 6, 4)
    target = LabelSequence((1, 3))
    plain_loss, plain_grad = ctc_one(lp, target)
    loss, grad = guided_one(lp, target, np.zeros(6, dtype=int), alpha=1.0)
    assert loss == plain_loss
    assert np.allclose(grad, plain_grad, atol=1e-15)


def test_guided_alpha_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lp = random_log_posteriors(rng, 7, 4)
        target = LabelSequence((1, 2, 1))
        spikes = guide_mask(random_log_posteriors(rng, 7, 4))
        penalty, _ = guide_penalty(spikes, np.exp(lp))
        losses = {
            a: guided_one(lp, target, spikes, alpha=a)[0]
            for a in (1.0, 0.1, 0.01)
        }
        for a2 in (1.0, 0.1, 0.01):
            for a1 in (1.0, 0.1, 0.01):
                got = losses[a2] - losses[a1]
                want = (a2 - a1) * penalty
                assert abs(got - want) < 1e-12


def test_guided_gradient_finite_differences():
    rng = np.random.default_rng(6)
    target = LabelSequence((2, 1))
    spikes = guide_mask(random_log_posteriors(rng, 6, 4))

    def op(lp):
        loss, grad = guided_one(lp, target, spikes, alpha=0.3)
        return loss, [grad]

    lp = random_log_posteriors(rng, 6, 4)
    assert check_gradient(op, [lp]) < 1e-5


def test_guided_batch_equals_each_member_alone_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lengths = [int(n) for n in rng.integers(3, 9, size=rng.integers(1, 5))]
        lps = [random_log_posteriors(rng, n, 4) for n in lengths]
        targets = [
            LabelSequence(tuple(int(x) for x in rng.integers(1, 4, size=n // 3)))
            for n in lengths
        ]
        spikes = [guide_mask(random_log_posteriors(rng, n, 4)) for n in lengths]
        losses, grad = guided_ctc_loss(np.concatenate(lps), targets, lengths, spikes, 0.3)
        rows = np.split(grad, np.cumsum(lengths)[:-1])
        for lp, target, member, loss, got in zip(lps, targets, spikes, losses, rows, strict=True):
            want_loss, want_grad = guided_one(lp, target, member, alpha=0.3)
            assert loss == want_loss and got.tobytes() == want_grad.tobytes()


def test_guided_rejects_spikes_that_do_not_match_their_member_frames():
    # spikes of 3 and 5 frames fill 8 rows, but each member has 4
    rng = np.random.default_rng(9)
    lp = random_log_posteriors(rng, 8, 4)
    spikes = [guide_mask(lp[:3]), guide_mask(lp[3:])]
    targets = [LabelSequence((1,)), LabelSequence((2,))]
    with pytest.raises(ValueError, match="member 0: 3 spikes for 4 frames"):
        guided_ctc_loss(lp, targets, [4, 4], spikes, 0.3)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, "0.1", None])
def test_guided_rejects_an_alpha_that_is_not_a_finite_number(alpha):
    rng = np.random.default_rng(8)
    lp = random_log_posteriors(rng, 4, 3)
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        guided_one(lp, LabelSequence((1,)), guide_mask(lp), alpha)


# -------------------------------------------------------------- distillation


def make_trace(hidden):
    return ForwardTrace(
        hidden=tuple(np.asarray(h, dtype=np.float64) for h in hidden),
        posteriorgram=np.zeros((len(hidden[0]), 3)),
    )


def test_distill_spec_defaults_and_validation():
    assert DistillSpec.thirds(4).layer_indices == (2, 3, 4)
    assert DistillSpec.thirds(12).layer_indices == (4, 8, 12)
    assert DistillSpec.thirds(1).layer_indices == (1,)
    with pytest.raises(ValueError):
        DistillSpec(())
    with pytest.raises(ValueError):
        DistillSpec((0, 1))
    with pytest.raises(ValueError):
        DistillSpec((3, 2))
    with pytest.raises(ValueError):
        DistillSpec((2, 2))


def test_distill_identical_traces_zero():
    rng = np.random.default_rng(8)
    hidden = [rng.normal(size=(5, 4)) for _ in range(3)]
    loss, grads = distillation_loss(
        make_trace(hidden), make_trace(hidden), DistillSpec((1, 2, 3))
    )
    assert loss == 0.0
    for g in grads.values():
        assert np.array_equal(g, np.zeros((5, 4)))


def test_distill_all_ones_difference_gives_one():
    t_len, d = 4, 6
    student = [np.ones((t_len, d))]
    teacher = [np.zeros((t_len, d))]
    loss, grads = distillation_loss(
        make_trace(student), make_trace(teacher), DistillSpec((1,))
    )
    assert loss == 1.0
    assert np.allclose(grads[1], np.full((t_len, d), 2.0 / (t_len * d)))


def test_distill_matches_direct_formula():
    rng = np.random.default_rng(9)
    hs = [rng.normal(size=(5, 4)) for _ in range(4)]
    ht = [rng.normal(size=(5, 4)) for _ in range(4)]
    spec = DistillSpec((2, 3, 4))
    loss, _ = distillation_loss(make_trace(hs), make_trace(ht), spec)
    direct = sum(np.mean((hs[i - 1] - ht[i - 1]) ** 2) for i in spec.layer_indices)
    assert abs(loss - direct) < 1e-12


def test_distill_gradient_finite_differences():
    rng = np.random.default_rng(10)
    ht = [rng.normal(size=(4, 3)) for _ in range(3)]
    spec = DistillSpec((1, 3))

    def op(h1, h2, h3):
        loss, grads = distillation_loss(
            make_trace([h1, h2, h3]), make_trace(ht), spec
        )
        return loss, [grads.get(i + 1) for i in range(3)]

    hs = [rng.normal(size=(4, 3)) for _ in range(3)]
    assert check_gradient(op, hs) < 1e-6


def test_distill_errors():
    rng = np.random.default_rng(12)
    hs = [rng.normal(size=(4, 3))]
    with pytest.raises(ValueError):
        distillation_loss(
            make_trace(hs), make_trace([rng.normal(size=(4, 2))]), DistillSpec((1,))
        )
    with pytest.raises(ValueError):
        distillation_loss(make_trace(hs), make_trace(hs), DistillSpec((2,)))


# --------------------------------------------------------------- contrastive


def test_contrastive_orthogonal_distractors():
    c = np.array([1.0, 0.0, 0.0, 0.0])
    q = c.copy()
    distractors = [
        np.array([0.0, 1.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 2.0, 0.0]),
        np.array([0.0, 0.0, 0.0, 0.5]),
    ]
    loss, _ = contrastive_loss(c, q, distractors)
    want = -math.log(math.e / (math.e + 3.0))
    assert abs(loss - want) < 1e-12


def test_contrastive_single_equal_distractor_is_log2():
    c = np.array([0.3, -1.2, 0.7])
    q = np.array([2.0, 0.1, -0.4])
    loss, _ = contrastive_loss(c, q, [q * 3.0])
    assert abs(loss - math.log(2.0)) < 1e-12


def test_contrastive_matches_direct_formula():
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = rng.normal(size=5)
        q = rng.normal(size=5)
        ds = [rng.normal(size=5) for _ in range(4)]
        tau = float(rng.uniform(0.2, 2.0))
        loss, _ = contrastive_loss(c, q, ds, temperature=tau)

        def cos(a, b):
            return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

        sims = np.array([cos(c, q)] + [cos(c, d) for d in ds]) / tau
        direct = -(sims[0] - math.log(np.exp(sims).sum()))
        assert abs(loss - direct) < 1e-12


def test_contrastive_nonnegative_when_positive_dominates():
    rng = np.random.default_rng(14)
    for _ in range(20):
        c = rng.normal(size=4)
        scale = float(rng.uniform(0.5, 3.0))
        ds = [rng.normal(size=4) for _ in range(3)]
        loss, _ = contrastive_loss(c, c * scale, ds)
        assert loss >= 0.0


def test_contrastive_gradient_finite_differences():
    rng = np.random.default_rng(15)
    q = rng.normal(size=5)
    ds = [rng.normal(size=5) for _ in range(3)]

    def op(c):
        loss, grad = contrastive_loss(c, q, ds, temperature=0.7)
        return loss, [grad]

    assert check_gradient(op, [rng.normal(size=5)]) < 1e-5


def test_contrastive_errors():
    v = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        contrastive_loss(np.zeros(2), v, [v])
    with pytest.raises(ValueError):
        contrastive_loss(v, np.zeros(2), [v])
    with pytest.raises(ValueError):
        contrastive_loss(v, v, [np.zeros(2)])
    with pytest.raises(ValueError):
        contrastive_loss(v, v, [])
    with pytest.raises(ValueError):
        contrastive_loss(v, v, [v], temperature=0.0)


# ----------------------------------------------------------- frame agreement


@pytest.mark.parametrize("temperature", [math.nan, math.inf, "1.0", True])
def test_contrastive_rejects_a_temperature_that_is_not_a_finite_number(temperature):
    v = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="temperature must be a finite number"):
        contrastive_loss(v, v, [-v], temperature=temperature)


def test_frame_agreement_identical_is_one():
    rng = np.random.default_rng(16)
    lp = random_log_posteriors(rng, 8, 5)
    assert frame_agreement(lp, lp) == 1.0


def test_frame_agreement_half():
    a = np.array([[0.1, 0.8, 0.1], [0.9, 0.05, 0.05]])
    b = np.array([[0.1, 0.1, 0.8], [0.9, 0.05, 0.05]])
    assert frame_agreement(a, b) == 0.5


def test_frame_agreement_matches_direct_count():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_log_posteriors(rng, 9, 4)
        b = random_log_posteriors(rng, 9, 4)
        direct = sum(
            1 for t in range(9) if int(a[t].argmax()) == int(b[t].argmax())
        ) / 9.0
        assert frame_agreement(a, b) == direct


def test_frame_agreement_errors():
    a = np.zeros((3, 4))
    with pytest.raises(ValueError):
        frame_agreement(a, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        frame_agreement(np.zeros((0, 4)), np.zeros((0, 4)))
