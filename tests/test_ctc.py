import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc.ctc import (
    DecodeConfig,
    UnsatisfiableTargetError,
    collapse,
    ctc_brute_force,
    ctc_loss,
    edit_distance,
    edit_distance_rate,
    greedy_decode,
    min_frames,
    posteriorgram_to_csv,
    prefix_beam_search,
    word_count,
)
from streamctc.lm import FusionLm, train_ngram
from streamctc.numerics import check_gradient, log_softmax
from streamctc.vocab import BLANK, DELIMITER, LabelSequence, Vocabulary

A, B = 3, 4  # letter token ids in the default vocabulary ('a' and 'b')


def random_logpost(t, v, seed):
    rng = np.random.default_rng(seed)
    return log_softmax(rng.normal(size=(t, v)) * 2.0)


def exhaustive_sequence_scores(lp):
    """Oracle: total probability per collapsed label sequence."""
    import itertools

    t_len, v = lp.shape
    scores = {}
    for path in itertools.product(range(v), repeat=t_len):
        key = collapse(path)
        score = sum(lp[t, tok] for t, tok in enumerate(path))
        scores[key] = np.logaddexp(scores.get(key, -np.inf), score)
    return scores


class TestLabelSequence:
    def test_rejects_blank(self):
        with pytest.raises(ValueError):
            LabelSequence((BLANK, A))

    def test_text_roundtrip(self):
        vocab = Vocabulary.default()
        seq = vocab.encode("cat dog")
        assert seq.text(vocab) == "cat|dog"
        assert vocab.encode("cat|dog") == seq

    def test_words(self):
        seq = LabelSequence((A, B, DELIMITER, A, DELIMITER))
        assert seq.words() == [(A, B), (A,)]


class TestCtcLoss:
    def test_single_frame_uniform(self):
        lp = np.log(np.full((1, 2), 0.5))
        loss, grad = ctc_loss(lp, LabelSequence((1,)))
        assert math.isclose(loss, -math.log(0.5), rel_tol=1e-12)
        np.testing.assert_allclose(grad, [[0.0, -1.0]], atol=1e-12)

    def test_empty_target_all_blank(self):
        lp = random_logpost(5, 3, 0)
        loss, grad = ctc_loss(lp, LabelSequence(()))
        assert math.isclose(loss, -float(lp[:, BLANK].sum()), rel_tol=1e-12)
        expect = np.zeros_like(lp)
        expect[:, BLANK] = -1.0
        np.testing.assert_allclose(grad, expect, atol=1e-12)

    def test_repeat_needs_separating_blank(self):
        # 3 frames, target aa: only the alignment a-blank-a survives
        lp = random_logpost(3, 4, 1)
        loss, _ = ctc_loss(lp, LabelSequence((A, A)))
        expect = -(lp[0, A] + lp[1, BLANK] + lp[2, A])
        assert math.isclose(loss, float(expect), rel_tol=1e-12)

    def test_two_frames_two_labels_single_alignment(self):
        lp = random_logpost(2, 4, 2)
        loss, _ = ctc_loss(lp, LabelSequence((1, 2)))
        assert math.isclose(loss, -float(lp[0, 1] + lp[1, 2]), rel_tol=1e-12)

    def test_matches_brute_force_small(self):
        lp = random_logpost(4, 3, 3)
        loss, _ = ctc_loss(lp, LabelSequence((1, 2)))
        assert abs(loss - ctc_brute_force(lp, LabelSequence((1, 2)))) < 1e-10

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            t = int(rng.integers(1, 7))
            v = int(rng.integers(2, 5))
            n = int(rng.integers(0, 4))
            target = LabelSequence(tuple(rng.integers(1, v, size=n)))
            if t < min_frames(target):
                continue
            lp = random_logpost(t, v, 1000 + trial)
            loss, _ = ctc_loss(lp, target)
            oracle = ctc_brute_force(lp, target)
            assert abs(loss - oracle) < 1e-10, (t, v, target.tokens)

    def test_unsatisfiable_raises(self):
        lp = random_logpost(2, 3, 4)
        with pytest.raises(UnsatisfiableTargetError):
            ctc_loss(lp, LabelSequence((1, 1)))  # needs 3 frames
        with pytest.raises(UnsatisfiableTargetError):
            ctc_loss(random_logpost(1, 3, 5), LabelSequence((1, 2)))

    def test_min_frames(self):
        assert min_frames(LabelSequence(())) == 0
        assert min_frames(LabelSequence((A,))) == 1
        assert min_frames(LabelSequence((A, A))) == 3
        assert min_frames(LabelSequence((A, B, B, A))) == 5

    def test_gradient_matches_fd(self):
        target = LabelSequence((1, 2, 1))
        lp0 = random_logpost(6, 4, 6)

        def op(lp):
            loss, grad = ctc_loss(lp, target)
            return loss, [grad]

        assert check_gradient(op, [lp0]) <= 1e-5

    def test_permutation_covariance(self):
        lp = random_logpost(5, 4, 7)
        target = LabelSequence((1, 3, 2))
        loss, _ = ctc_loss(lp, target)
        # swap non-blank symbols 1 <-> 2 consistently
        perm = [0, 2, 1, 3]
        lp_p = lp[:, perm]
        target_p = LabelSequence((2, 3, 1))
        loss_p, _ = ctc_loss(lp_p, target_p)
        assert loss == loss_p

    def test_token_out_of_vocab(self):
        with pytest.raises(ValueError):
            ctc_loss(random_logpost(3, 3, 8), LabelSequence((5,)))


@st.composite
def satisfiable_instances(draw):
    """(log-posteriorgram, target) with T >= min_frames: empty targets,
    repeated labels and T == min_frames all occur."""
    v = draw(st.integers(2, 5))
    tokens = draw(st.lists(st.integers(1, v - 1), max_size=5))
    if tokens and draw(st.booleans()):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens.insert(i, tokens[i])
    target = LabelSequence(tuple(tokens))
    t = max(1, min_frames(target) + draw(st.sampled_from([0, 0, 1, 2, 7])))
    return random_logpost(t, v, draw(st.integers(0, 2**32 - 1))), target


@given(satisfiable_instances())
@settings(max_examples=60, deadline=None)
def test_loss_is_invariant_under_time_reversal(instance):
    # beta is the alpha sweep over the reversed label and time axes, so
    # reversing both must give the same loss and the time-flipped gradient
    lp, target = instance
    loss, grad = ctc_loss(lp, target)
    loss_r, grad_r = ctc_loss(lp[::-1], LabelSequence(target.tokens[::-1]))
    assert abs(loss - loss_r) <= 1e-12
    np.testing.assert_allclose(grad_r[::-1], grad, rtol=0, atol=1e-12)


class TestGreedyDecode:
    def test_collapse_rule(self):
        lp = np.full((4, 5), -10.0)
        for t, tok in enumerate([A, A, BLANK, B]):
            lp[t, tok] = -0.01
        assert greedy_decode(lp).tokens == (A, B)

    def test_all_blank(self):
        lp = np.full((3, 4), -10.0)
        lp[:, BLANK] = -0.01
        assert greedy_decode(lp).tokens == ()

    def test_blank_separates_repeats(self):
        lp = np.full((3, 5), -10.0)
        for t, tok in enumerate([A, BLANK, A]):
            lp[t, tok] = -0.01
        assert greedy_decode(lp).tokens == (A, A)

    def test_argmax_tie_lowest_index(self):
        lp = np.log(np.full((1, 3), 1 / 3))
        assert greedy_decode(lp).tokens == ()  # blank (index 0) wins the tie

    def test_idempotent_on_emitted_alignment(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            path = rng.integers(0, 4, size=6)
            onehot = np.full((6, 4), -30.0)
            onehot[np.arange(6), path] = 0.0
            seq = greedy_decode(onehot)
            assert seq.tokens == collapse(path)


class TestPrefixBeamSearch:
    def test_beam_one_equals_greedy(self):
        for seed in range(40):
            lp = random_logpost(6, 4, 200 + seed)
            hyps = prefix_beam_search(lp, DecodeConfig(beam_size=1))
            assert hyps[0].labels.tokens == greedy_decode(lp).tokens, seed

    def test_large_beam_matches_exhaustive_sum_optimum(self):
        for seed in range(12):
            t, v = 5, 4
            lp = random_logpost(t, v, 300 + seed)
            scores = exhaustive_sequence_scores(lp)
            best = max(scores.items(), key=lambda kv: kv[1])
            hyps = prefix_beam_search(lp, DecodeConfig(beam_size=v**t))
            assert hyps[0].labels.tokens == best[0], seed
            assert abs(hyps[0].acoustic - best[1]) < 1e-10

    def test_top_score_monotone_in_beam(self):
        for seed in range(25):
            lp = random_logpost(6, 4, 400 + seed)
            prev = -np.inf
            for beam in (1, 2, 4, 8, 16, 32, 64):
                top = prefix_beam_search(lp, DecodeConfig(beam_size=beam))[0]
                assert top.combined >= prev - 1e-12
                prev = top.combined

    def test_combined_score_invariant(self):
        class FlatLm:
            def logp(self, token, context):
                return -0.25 - 0.05 * len(context)

        lp = random_logpost(6, 6, 17)
        cfg = DecodeConfig(
            beam_size=8, lm_weight=1.5, word_insertion_penalty=-0.52, lm=FlatLm()
        )
        for h in prefix_beam_search(lp, cfg):
            expect = (
                h.acoustic + 1.5 * h.lm - 0.52 * word_count(h.labels.tokens)
            )
            assert math.isclose(h.combined, expect, rel_tol=1e-12)

    def test_lm_score_is_sum_of_steps(self):
        class CountingLm:
            def __init__(self):
                self.calls = []

            def logp(self, token, context):
                self.calls.append((token, tuple(context)))
                return -0.5

        lm = CountingLm()
        lp = np.full((3, 3), -20.0)
        for t, tok in enumerate([1, BLANK, 2]):
            lp[t, tok] = -0.001
        cfg = DecodeConfig(beam_size=1, lm_weight=2.0, lm=lm)
        top = prefix_beam_search(lp, cfg)[0]
        assert top.labels.tokens == (1, 2)
        assert math.isclose(top.lm, -1.0, rel_tol=1e-12)
        assert (1, ()) in lm.calls and (2, (1,)) in lm.calls

    def test_word_insertion_penalty_prefers_fewer_words(self):
        # two frames, delimiter vs letter nearly tied: negative penalty
        # should flip the ranking toward the shorter word count
        lp = np.log(
            np.array(
                [
                    [0.02, 0.49, 0.49],
                    [0.96, 0.02, 0.02],
                ]
            )
        )
        no_pen = prefix_beam_search(lp, DecodeConfig(beam_size=8))
        pen = prefix_beam_search(
            lp, DecodeConfig(beam_size=8, word_insertion_penalty=-4.0)
        )
        # delimiter-only hypothesis counts 1 word, letter counts 1 word,
        # empty counts 0: the empty hypothesis must rise with the penalty
        def rank_of(hyps, tokens):
            for i, h in enumerate(hyps):
                if h.labels.tokens == tokens:
                    return i
            return len(hyps)

        assert rank_of(pen, ()) < rank_of(no_pen, ())

    def test_word_count(self):
        assert word_count(()) == 0
        assert word_count((A, B)) == 1
        assert word_count((A, DELIMITER)) == 1
        assert word_count((A, DELIMITER, B)) == 2
        assert word_count((DELIMITER, DELIMITER)) == 2

    def test_deterministic_ranking(self):
        lp = random_logpost(5, 4, 77)
        cfg = DecodeConfig(beam_size=6)
        a = prefix_beam_search(lp, cfg)
        b = prefix_beam_search(lp, cfg)
        assert [h.labels.tokens for h in a] == [h.labels.tokens for h in b]
        assert [h.combined for h in a] == [h.combined for h in b]

    def test_beam_size_validated(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)

    def test_lm_must_score_token_ids(self):
        lm = train_ngram(["ab|ba"], 3, 0.2)
        with pytest.raises(ValueError, match="FusionLm"):
            DecodeConfig(beam_size=4, lm_weight=1.0, lm=lm)
        fused = FusionLm(lm, Vocabulary.default())
        cfg = DecodeConfig(beam_size=4, lm_weight=1.0, lm=fused)
        assert cfg.to_dict()["lm"] == "attached"
        prefix_beam_search(random_logpost(4, 29, 3), cfg)


class TestBruteForce:
    def test_instance_too_large(self):
        with pytest.raises(ValueError):
            ctc_brute_force(np.zeros((9, 2)), LabelSequence((1,)))
        with pytest.raises(ValueError):
            ctc_brute_force(np.zeros((2, 6)), LabelSequence((1,)))

    def test_impossible_target(self):
        lp = random_logpost(2, 3, 11)
        with pytest.raises(UnsatisfiableTargetError):
            ctc_brute_force(lp, LabelSequence((1, 1)))


class TestEditDistance:
    def test_identical_zero(self):
        seq = LabelSequence((A, B, DELIMITER, A))
        assert edit_distance_rate(seq, seq, "char") == 0.0
        assert edit_distance_rate(seq, seq, "word") == 0.0

    def test_one_word_deletion(self):
        vocab = Vocabulary.default()
        ref = vocab.encode("a b c")
        hyp = vocab.encode("a c")
        assert edit_distance_rate(ref, hyp, "word") == pytest.approx(1 / 3)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            edit_distance_rate(LabelSequence(()), LabelSequence((A,)), "char")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            edit_distance_rate(LabelSequence((A,)), LabelSequence((A,)), "phone")

    def test_matches_full_matrix_oracle(self):
        def dp_oracle(a, b):
            m, n = len(a), len(b)
            d = np.zeros((m + 1, n + 1), dtype=int)
            d[:, 0] = np.arange(m + 1)
            d[0, :] = np.arange(n + 1)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    d[i, j] = min(
                        d[i - 1, j] + 1,
                        d[i, j - 1] + 1,
                        d[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
                    )
            return int(d[m, n])

        rng = np.random.default_rng(13)
        for _ in range(50):
            a = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            b = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            assert edit_distance(a, b) == dp_oracle(a, b)


class TestSerialization:
    def test_posteriorgram_csv_roundtrip(self):
        lp = random_logpost(3, 4, 15)
        text = posteriorgram_to_csv(lp)
        rows = [line.split(",") for line in text.split("\n")]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        back = np.array([[float(x) for x in r[1:]] for r in rows])
        np.testing.assert_array_equal(back, lp)
