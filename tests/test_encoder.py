import json
import math
import pickle
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc.encoder import (
    CHECKPOINT_MAGIC,
    HEADER_CONSTANTS,
    CheckpointError,
    EncoderConfig,
    GradientBuffer,
    backward,
    checkpoint_digest,
    forward,
    forward_with_cache,
    init_params,
    load_checkpoint,
    param_layout,
    param_views,
    save_checkpoint,
)
from streamctc.masking import MaskSpec, build_mask, reception_field
from streamctc.numerics import (
    NonFiniteError,
    batch_norm_fold,
    check_gradient,
    gelu_forward,
    layer_norm_forward,
)

TINY = EncoderConfig(
    n_layers=2,
    model_dim=16,
    n_heads=2,
    ffn_dim=24,
    vocab_size=5,
    feature_dim=6,
    frontend_kernel=3,
)


def make_features(t, dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(t, dim))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(model_dim=30, n_heads=4)
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=1)
        with pytest.raises(ValueError):
            EncoderConfig(frontend_kernel=0)

    @pytest.mark.parametrize(
        "name", ["n_layers", "model_dim", "n_heads", "ffn_dim", "feature_dim"]
    )
    def test_dimensions_must_be_positive(self, name):
        with pytest.raises(ValueError, match=name):
            EncoderConfig(**{name: 0})

    def test_dict_roundtrip(self):
        cfg = EncoderConfig(n_layers=3)
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_nonzero_dropout(self):
        # checkpoint headers and older config dumps carry "dropout": 0.0
        assert EncoderConfig.from_dict({**TINY.to_dict(), "dropout": 0.0}) == TINY
        with pytest.raises(ValueError, match="dropout"):
            EncoderConfig.from_dict({**TINY.to_dict(), "dropout": 0.5})

    @pytest.mark.parametrize(
        "key, value", [("frontend_norm", "gn"), ("frontend_conv", "symmetric")]
    )
    def test_from_dict_takes_only_the_one_frontend(self, key, value):
        # checkpoint headers name the frontend: batch norm, then a causal conv
        assert EncoderConfig.from_dict({**TINY.to_dict(), key: HEADER_CONSTANTS[key]}) == TINY
        assert key not in TINY.to_dict()
        with pytest.raises(ValueError, match=key):
            EncoderConfig.from_dict({**TINY.to_dict(), key: value})


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(TINY, 7)
        b = init_params(TINY, 7)
        assert a.arrays.keys() == b.arrays.keys()
        for k in a.arrays:
            np.testing.assert_array_equal(a.arrays[k], b.arrays[k])

    def test_different_seeds_differ(self):
        a = init_params(TINY, 7)
        b = init_params(TINY, 8)
        assert any(
            not np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays
        )

    def test_bn_stats_ready_for_infer(self):
        params = init_params(TINY, 0)
        trace = forward(params, make_features(5, 6), MaskSpec("bidirectional"))
        assert trace.posteriorgram.shape == (5, 5)

    def test_forward_reproducible(self):
        params = init_params(TINY, 3)
        feats = make_features(6, 6, seed=1)
        spec = MaskSpec("chunk", chunk_frames=2)
        a = forward(params, feats, spec).posteriorgram
        b = forward(params, feats, spec).posteriorgram
        np.testing.assert_array_equal(a, b)


class TestLayout:
    def test_views_follow_the_layout(self):
        params = init_params(TINY, 7)
        layout = param_layout(TINY)
        assert [(k, v.shape) for k, v in params.arrays.items()] == list(layout)
        assert params.flat.shape == (sum(math.prod(shape) for _, shape in layout),)
        for view in params.arrays.values():
            assert np.shares_memory(view, params.flat)

    def test_init_rules(self):
        params = init_params(TINY, 7)
        for name, shape in param_layout(TINY):
            view = params.arrays[name]
            if len(shape) > 1:
                bound = 1.0 / np.sqrt(math.prod(shape[:-1]))
                assert np.all(np.abs(view) <= bound) and np.any(view != 0)
            else:
                assert np.all(view == (1.0 if name.endswith(".gain") else 0.0)), name

    def test_rebinding_a_name_raises(self):
        params = init_params(TINY, 7)
        with pytest.raises(TypeError):
            params.arrays["head.w"] = np.zeros((16, 5))

    def test_writing_a_view_changes_flat_and_digest(self):
        params = init_params(TINY, 7)
        before = checkpoint_digest(params)
        params.arrays["head.b"][2] = 0.5
        assert 0.5 in params.flat
        assert checkpoint_digest(params) != before

    def test_copy_and_pickle_rebuild_views(self):
        params = init_params(TINY, 7)
        for other in (params.copy(), pickle.loads(pickle.dumps(params))):
            assert not np.shares_memory(other.flat, params.flat)
            other.arrays["head.b"][0] = 3.0
            assert other.flat[-5] == 3.0 and params.flat[-5] == 0.0

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            param_views(TINY, np.zeros(10))


class TestAttentionLayer:
    """The first encoder layer (trace.hidden[0]) against references fed
    the frontend output trace.frontend."""

    def test_single_frame_softmax_is_one(self):
        params = init_params(TINY, 0)
        trace = forward(params, make_features(1, 6), MaskSpec("bidirectional"))
        out, x = trace.hidden[0], trace.frontend
        assert out.shape == (1, 16)
        # independent single-frame evaluation: attention output reduces to
        # wo @ wv of the pre-normed input, since the lone weight is 1
        a = params.arrays
        u = layer_norm_forward(x, a["layer0.ln1.gain"], a["layer0.ln1.bias"])[0]
        z = u @ a["layer0.attn.wv"] @ a["layer0.attn.wo"] + a["layer0.attn.bo"]
        att = x + z
        w = layer_norm_forward(att, a["layer0.ln2.gain"], a["layer0.ln2.bias"])[0]
        expect = att + gelu_forward(w @ a["layer0.ffn.w1"] + a["layer0.ffn.b1"])[0] @ a[
            "layer0.ffn.w2"
        ] + a["layer0.ffn.b2"]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_direct_loop_oracle(self):
        cfg = EncoderConfig(
            n_layers=1,
            model_dim=8,
            n_heads=1,
            ffn_dim=12,
            vocab_size=4,
            feature_dim=4,
        )
        params = init_params(cfg, 5)
        spec = MaskSpec("time_restricted", right_frames=1)
        trace = forward(params, make_features(5, 4, seed=9), spec)
        x, got = trace.frontend, trace.hidden[0]
        mask = build_mask(spec, 5)
        expect = _direct_loop_layer(params.arrays, x, mask.allowed, n_heads=1)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize(
        "spec",
        [
            MaskSpec("time_restricted", right_frames=1, left_limit=2),
            MaskSpec("chunk", chunk_frames=3),
            MaskSpec("block", chunk_frames=3, future_frames=2, left_limit=1),
            MaskSpec("bidirectional"),
        ],
        ids=lambda spec: spec.variant,
    )
    def test_multi_head_direct_loop_oracle(self, n_heads, spec):
        cfg = EncoderConfig(
            n_layers=1,
            model_dim=8,
            n_heads=n_heads,
            ffn_dim=12,
            vocab_size=4,
            feature_dim=4,
        )
        params = init_params(cfg, 6)
        trace = forward(params, make_features(8, 4, seed=10), spec)
        mask = build_mask(spec, 8)
        if spec.variant == "block":
            assert mask.n_positions > 8
        x_aug = trace.frontend[mask.index_map]
        expect = _direct_loop_layer(params.arrays, x_aug, mask.allowed, n_heads)
        np.testing.assert_allclose(trace.hidden[0], expect[~mask.is_copy], atol=1e-12)


def _direct_loop_layer(a, x, allowed, n_heads):
    """Layer 0 re-derived with explicit loops over heads and positions."""
    u = layer_norm_forward(x, a["layer0.ln1.gain"], a["layer0.ln1.bias"])[0]
    q, k, v = u @ a["layer0.attn.wq"], u @ a["layer0.attn.wk"], u @ a["layer0.attn.wv"]
    n, d = u.shape
    dh = d // n_heads
    beta = 1.0 / np.sqrt(dh)
    z = np.zeros_like(u)
    for head in range(n_heads):
        cols = slice(head * dh, (head + 1) * dh)
        for t in range(n):
            weights = {}
            for tau in range(n):
                if allowed[t, tau]:
                    weights[tau] = np.exp(beta * float(q[t, cols] @ k[tau, cols]))
            total = sum(weights.values())
            for tau, wgt in weights.items():
                z[t, cols] += (wgt / total) * v[tau, cols]
    att = x + (z @ a["layer0.attn.wo"] + a["layer0.attn.bo"])
    w = layer_norm_forward(att, a["layer0.ln2.gain"], a["layer0.ln2.bias"])[0]
    return att + gelu_forward(w @ a["layer0.ffn.w1"] + a["layer0.ffn.b1"])[0] @ a[
        "layer0.ffn.w2"
    ] + a["layer0.ffn.b2"]


class TestForward:
    def test_posteriorgram_log_normalized(self):
        params = init_params(TINY, 1)
        trace = forward(params, make_features(7, 6), MaskSpec("bidirectional"))
        lse = np.log(np.exp(trace.posteriorgram).sum(axis=1))
        np.testing.assert_allclose(lse, 0.0, atol=1e-9)

    def test_hidden_shapes_variant_independent(self):
        params = init_params(TINY, 1)
        feats = make_features(9, 6)
        for spec in (
            MaskSpec("bidirectional"),
            MaskSpec("chunk", chunk_frames=4),
            MaskSpec("block", chunk_frames=3, future_frames=2),
        ):
            trace = forward(params, feats, spec)
            assert len(trace.hidden) == TINY.n_layers
            for h in trace.hidden:
                assert h.shape == (9, TINY.model_dim)

    def test_zero_length_rejected(self):
        params = init_params(TINY, 1)
        with pytest.raises(ValueError):
            forward(params, np.zeros((0, 6)), MaskSpec("bidirectional"))

    @pytest.mark.parametrize("shape", [(6,), (2, 4, 6)], ids=["1d", "3d"])
    def test_features_must_be_a_matrix(self, shape):
        params = init_params(TINY, 1)
        with pytest.raises(ValueError, match="T x D"):
            forward(params, np.zeros(shape), MaskSpec("bidirectional"))

    def test_feature_dim_mismatch(self):
        params = init_params(TINY, 1)
        with pytest.raises(ValueError):
            forward(params, make_features(4, 5), MaskSpec("bidirectional"))

    def test_degenerate_chunk_equals_bidirectional(self):
        params = init_params(TINY, 2)
        feats = make_features(6, 6, seed=3)
        full = forward(params, feats, MaskSpec("bidirectional"))
        chunk = forward(params, feats, MaskSpec("chunk", chunk_frames=6))
        blk = forward(
            params, feats, MaskSpec("block", chunk_frames=6, future_frames=0)
        )
        np.testing.assert_array_equal(full.posteriorgram, chunk.posteriorgram)
        np.testing.assert_array_equal(full.posteriorgram, blk.posteriorgram)
        for a, b in zip(full.hidden, blk.hidden):
            np.testing.assert_array_equal(a, b)

    def test_block_perturbation_boundary(self):
        # C=4, F=2, 3 layers: frame t sees through chunk_end(t)+2 and no
        # further, exactly as the reception field promises
        cfg = EncoderConfig.from_dict({**TINY.to_dict(), "n_layers": 3})
        params = init_params(cfg, 4)
        spec = MaskSpec("block", chunk_frames=4, future_frames=2)
        t_len = 14
        feats = make_features(t_len, 6, seed=5)
        base = forward(params, feats, spec).posteriorgram
        rf = reception_field(spec, cfg.n_layers, t_len)
        t = 1
        horizon = rf.latest[t]  # chunk_end(1)=3, +2 -> 5
        assert horizon == 5
        beyond = feats.copy()
        beyond[horizon + 1] += 10.0
        out = forward(params, beyond, spec).posteriorgram
        np.testing.assert_array_equal(out[t], base[t])
        at = feats.copy()
        at[horizon] += 10.0
        out = forward(params, at, spec).posteriorgram
        assert not np.array_equal(out[t], base[t])

    def test_causality_all_variants_infer_mode(self):
        cfg = EncoderConfig.from_dict({**TINY.to_dict(), "n_layers": 3})
        t_len = 10
        feats = make_features(t_len, 6, seed=6)
        for spec in (
            MaskSpec("time_restricted", right_frames=1),
            MaskSpec("chunk", chunk_frames=3),
            MaskSpec("block", chunk_frames=2, future_frames=2),
        ):
            params = init_params(cfg, 11)
            base = forward(params, feats, spec).posteriorgram
            rf = reception_field(spec, cfg.n_layers, t_len)
            for t in range(t_len):
                if rf.latest[t] + 1 >= t_len:
                    continue
                x = feats.copy()
                x[rf.latest[t] + 1 :] += 3.0
                out = forward(params, x, spec).posteriorgram
                np.testing.assert_array_equal(out[t], base[t], err_msg=str((spec, t)))

    def test_a_wide_frontend_kernel_adds_no_lookahead(self):
        # the causal conv reads only past frames, so in infer mode the mask
        # alone bounds what a frame sees, whatever the kernel width
        cfg = EncoderConfig.from_dict({**TINY.to_dict(), "frontend_kernel": 5})
        params = init_params(cfg, 12)
        spec = MaskSpec("chunk", chunk_frames=2)
        feats = make_features(10, 6, seed=7)
        base = forward(params, feats, spec).posteriorgram
        rf = reception_field(spec, cfg.n_layers, 10)
        for t in (0, 3):
            x = feats.copy()
            x[rf.latest[t] + 1 :] += 5.0
            out = forward(params, x, spec).posteriorgram
            np.testing.assert_array_equal(out[t], base[t])
            x = feats.copy()
            x[rf.latest[t]] += 5.0
            assert not np.array_equal(forward(params, x, spec).posteriorgram[t], base[t])

    @pytest.mark.parametrize("train", [True, False], ids=["bn-train", "bn-infer"])
    def test_non_finite_features_raise_at_posteriorgram(self, train):
        # the kernels do not check; the one check on the posteriorgram
        # catches a NaN anywhere upstream
        x = make_features(7, 6)
        x[3, 2] = np.nan
        spec = MaskSpec("block", chunk_frames=3, future_frames=1)
        with pytest.raises(NonFiniteError, match="posteriorgram"):
            forward_with_cache(init_params(TINY, 1), [x], spec, train=train)


class TestBackward:
    @pytest.mark.parametrize(
        "spec",
        [
            MaskSpec("bidirectional"),
            MaskSpec("chunk", chunk_frames=3),
            MaskSpec("block", chunk_frames=3, future_frames=2),
        ],
    )
    def test_full_gradient_small_model(self, spec):
        cfg = EncoderConfig(
            n_layers=2,
            model_dim=16,
            n_heads=2,
            ffn_dim=8,
            vocab_size=3,
            feature_dim=4,
            frontend_kernel=2,
        )
        base = init_params(cfg, 21)
        feats = make_features(7, 4, seed=8)
        rng = np.random.default_rng(99)
        w_post = rng.normal(size=(7, 3))
        keys = sorted(base.arrays)

        def op(*weight_values):
            params = base.copy()
            for key, val in zip(keys, weight_values):
                params.arrays[key][...] = val
            [trace], cache = forward_with_cache(params, [feats], spec, train=True)
            loss = float((trace.posteriorgram * w_post).sum())
            out = GradientBuffer.zeros(cfg)
            backward(params, cache, out, grad_logpost=w_post)
            return loss, [out.arrays[k] for k in keys]

        err = check_gradient(
            op,
            [base.arrays[k] for k in keys],
            max_checks=6,
            rng=np.random.default_rng(0),
        )
        assert err <= 1e-5

    def test_hidden_state_gradient_injection(self):
        params = init_params(TINY, 41)
        spec = MaskSpec("block", chunk_frames=2, future_frames=1)
        feats = make_features(6, 6, seed=9)
        rng = np.random.default_rng(5)
        w1 = rng.normal(size=(6, 16))
        w2 = rng.normal(size=(6, 16))
        keys = sorted(params.arrays)

        def op(*weight_values):
            p = params.copy()
            for key, val in zip(keys, weight_values):
                p.arrays[key][...] = val
            [trace], cache = forward_with_cache(p, [feats], spec)
            loss = float((trace.hidden[0] * w1).sum() + (trace.hidden[1] * w2).sum())
            out = GradientBuffer.zeros(TINY)
            backward(p, cache, out, grad_hidden={1: w1, 2: w2})
            return loss, [out.arrays[k] for k in keys]

        err = check_gradient(
            op,
            [params.arrays[k] for k in keys],
            max_checks=4,
            rng=np.random.default_rng(1),
        )
        assert err <= 1e-5


ORACLE_SPECS = (
    MaskSpec("bidirectional"),
    MaskSpec("time_restricted", right_frames=1, left_limit=2),
    MaskSpec("chunk", chunk_frames=3),
    MaskSpec("block", chunk_frames=3, future_frames=2),
)


def _oracle_params(seed):
    """A small model whose gains, biases and running statistics are not
    the fresh ones, so a pad row that leaked through a norm would show."""
    cfg = EncoderConfig(
        n_layers=3, model_dim=8, n_heads=2, ffn_dim=12, vocab_size=5,
        feature_dim=4, frontend_kernel=3,
    )
    params = init_params(cfg, seed)
    params.flat += np.random.default_rng(seed).normal(scale=0.3, size=params.flat.shape)
    params.bn_stats.mean += 0.3
    return params


def assert_relatively_close(got, want, bound=1e-12):
    """max |got - want| within `bound` times the largest |want|."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBatchedPass:
    """A packed batch against its members' batch-of-one calls.

    Position-wise math on the packed rows gives each row the bits it gets
    alone (BLAS matmul of two or more rows is row by row). Attention runs
    at the batch's widest layout: a member narrower than it sums its
    softmax and `probs @ v` over a key axis widened by pad keys of weight
    0, which BLAS and NumPy's pairwise sums group differently. A member
    with one position runs its batch of one through matrix-vector BLAS.
    So hidden states and posteriorgrams are bit for bit those of the
    batch-of-one calls when every member has one layout width of at least
    2, and within 1e-12 relative otherwise; gradients, whose parameter
    sums run over different row counts, within 1e-12 relative."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_its_batch_of_one_calls(self, data):
        spec = data.draw(st.sampled_from(ORACLE_SPECS), label="spec")
        train = data.draw(st.booleans(), label="train")
        inject = data.draw(st.sampled_from(["posteriorgram", "hidden", "both"]), label="inject")
        layout = data.draw(st.sampled_from(["ragged", "equal", "one_frame"]), label="layout")
        # train-mode batch norm needs two frames per utterance
        shortest = 2 if train else 1
        if layout == "equal":
            n = data.draw(st.integers(shortest, 9), label="length")
            lengths = [n] * data.draw(st.integers(1, 5), label="members")
        else:
            lengths = data.draw(
                st.lists(st.integers(shortest, 9), min_size=1, max_size=5), label="lengths"
            )
            if layout == "one_frame" and not train:
                lengths.insert(data.draw(st.integers(0, len(lengths)), label="at"), 1)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        base = _oracle_params(seed % 1000)
        cfg = base.config
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(n, cfg.feature_dim)) for n in lengths]
        kwargs = {}
        if inject != "hidden":
            kwargs["grad_logpost"] = rng.normal(size=(sum(lengths), cfg.vocab_size))
        if inject != "posteriorgram":
            layers = rng.permutation(np.arange(1, cfg.n_layers + 1))[: rng.integers(1, 4)]
            kwargs["grad_hidden"] = {
                int(k): rng.normal(size=(sum(lengths), cfg.model_dim)) for k in layers
            }

        batched = base.copy()
        traces, cache = forward_with_cache(batched, xs, spec, train=train)
        # the pass only reads the model; the caller folds the moments
        np.testing.assert_array_equal(batched.bn_stats.mean, base.bn_stats.mean)
        np.testing.assert_array_equal(batched.bn_stats.var, base.bn_stats.var)
        if train:
            batch_norm_fold(batched.bn_stats, cache["bn_moments"])
        # a caller's buffer has every entry written, whatever it held
        buffer = GradientBuffer.zeros(cfg)
        buffer.flat[...] = np.nan
        backward(batched, cache, buffer, **kwargs)
        grad = buffer.flat

        widths = {build_mask(spec, n).n_positions for n in lengths}
        same = len(widths) == 1 and min(widths) >= 2
        check_forward = _same_bits if same else assert_relatively_close
        single = base.copy()
        summed = np.zeros_like(grad)
        assert len(traces) == len(xs)
        starts = np.cumsum([0, *lengths])
        for x, first, last, trace in zip(xs, starts, starts[1:], traces):
            [want], one_cache = forward_with_cache(single, [x], spec, train=train)
            if train:
                batch_norm_fold(single.bn_stats, one_cache["bn_moments"])
            member = {}
            if "grad_logpost" in kwargs:
                member["grad_logpost"] = kwargs["grad_logpost"][first:last]
            if "grad_hidden" in kwargs:
                member["grad_hidden"] = {
                    k: g[first:last] for k, g in kwargs["grad_hidden"].items()
                }
            alone = GradientBuffer.zeros(cfg)
            backward(single, one_cache, alone, **member)
            summed += alone.flat
            check_forward(trace.posteriorgram, want.posteriorgram)
            check_forward(trace.frontend, want.frontend)
            for got_h, want_h in zip(trace.hidden, want.hidden, strict=True):
                check_forward(got_h, want_h)
        assert_relatively_close(grad, summed)
        # running statistics fold once per member, in batch order
        np.testing.assert_array_equal(batched.bn_stats.mean, single.bn_stats.mean)
        np.testing.assert_array_equal(batched.bn_stats.var, single.bn_stats.var)

    @pytest.mark.parametrize("train", [True, False], ids=["bn-train", "bn-infer"])
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.variant)
    def test_a_longer_member_leaves_the_others_unchanged(self, spec, train):
        dim = _oracle_params(2).config.feature_dim
        xs = [make_features(n, dim, seed=n) for n in (4, 7, 2)]
        longer = make_features(13, dim, seed=13)
        before, _ = forward_with_cache(_oracle_params(2), xs, spec, train=train)
        after, _ = forward_with_cache(
            _oracle_params(2), [*xs[:2], longer, xs[2]], spec, train=train
        )
        for want, got in zip(before, [*after[:2], after[3]]):
            assert_relatively_close(got.posteriorgram, want.posteriorgram)

    def test_one_frame_bn_member_raises_as_it_does_alone(self):
        params = _oracle_params(0)
        cfg = params.config
        spec = MaskSpec("chunk", chunk_frames=3)
        stats = params.bn_stats.copy()
        one = make_features(1, cfg.feature_dim)
        with pytest.raises(ValueError) as alone:
            forward_with_cache(params, [one], spec, train=True)
        others = [make_features(n, cfg.feature_dim, seed=n) for n in (5, 3)]
        with pytest.raises(ValueError) as batched:
            forward_with_cache(params, [others[0], one, others[1]], spec, train=True)
        assert str(batched.value) == str(alone.value)
        # nothing was folded into the running statistics
        np.testing.assert_array_equal(params.bn_stats.mean, stats.mean)
        np.testing.assert_array_equal(params.bn_stats.var, stats.var)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty batch"):
            forward_with_cache(init_params(TINY, 0), [], MaskSpec("bidirectional"))


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = init_params(TINY, 13)
        params.mask_spec = MaskSpec("block", chunk_frames=3, future_frames=1)
        path = tmp_path / "model.ckpt"
        digest = save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == TINY
        assert loaded.mask_spec == params.mask_spec
        for k in params.arrays:
            np.testing.assert_array_equal(params.arrays[k], loaded.arrays[k])
        assert checkpoint_digest(loaded) == digest

    def test_bn_stats_roundtrip(self, tmp_path):
        params = init_params(TINY, 2)
        params.bn_stats.mean += 0.25
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.bn_stats.mean, params.bn_stats.mean)

    def test_config_mismatch(self, tmp_path):
        params = init_params(TINY, 13)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        other = EncoderConfig.from_dict({**TINY.to_dict(), "vocab_size": 7})
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect_config=other)

    @pytest.mark.parametrize("change", ["missing", "extra", "shape"])
    def test_arrays_must_match_the_layout(self, tmp_path, change):
        params = init_params(TINY, 13)
        arrays = dict(params.arrays)
        if change == "missing":
            del arrays["head.b"]
        elif change == "extra":
            arrays["head.c"] = np.zeros(5)
        else:
            arrays["head.b"] = np.zeros(6)
        fake = types.SimpleNamespace(
            config=TINY, arrays=arrays, bn_stats=params.bn_stats, mask_spec=None
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(fake, path)
        with pytest.raises(CheckpointError, match="head"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [False, None, "absent"])
    def test_bn_buffers_need_a_header_that_says_initialized(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(TINY, 2), path)
        blob = path.read_bytes()[:-8]
        start = len(CHECKPOINT_MAGIC)
        (hlen,) = struct.unpack("<I", blob[start : start + 4])
        header = json.loads(blob[start + 4 : start + 4 + hlen])
        assert header["bn_initialized"] is True
        if value == "absent":
            del header["bn_initialized"]
        else:
            header["bn_initialized"] = value
        hjson = json.dumps(header, sort_keys=True).encode()
        body = blob[:start] + struct.pack("<I", len(hjson)) + hjson + blob[start + 4 + hlen :]
        path.write_bytes(body + struct.pack("<Q", len(body) + 8))
        with pytest.raises(CheckpointError, match="bn_initialized"):
            load_checkpoint(path)

    def test_equality_is_identity_not_values(self):
        a, b = init_params(TINY, 0), init_params(TINY, 0)
        assert (a == b) is False
        assert a == a
        assert checkpoint_digest(a) == checkpoint_digest(b)

    def test_digests_are_pinned(self):
        # the bytes of a stored model must not drift: a new digest here
        # means existing checkpoints no longer reproduce
        params = init_params(EncoderConfig(), 0)
        assert checkpoint_digest(params) == (
            "b7e33605a79fdbf69f8dded42f7ad7a2ba4bff419aa4be733da1eb45cca1ba58"
        )
        params.mask_spec = MaskSpec("block", chunk_frames=12, future_frames=18)
        assert checkpoint_digest(params) == (
            "3d21b698cd53483a2785b550427f80a0c6fa345c085f52b830931b76fea10325"
        )

    def test_digest_depends_on_values(self):
        a = init_params(TINY, 13)
        b = init_params(TINY, 14)
        assert checkpoint_digest(a) != checkpoint_digest(b)
        c = init_params(TINY, 13)
        assert checkpoint_digest(a) == checkpoint_digest(c)
