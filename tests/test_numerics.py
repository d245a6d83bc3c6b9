import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from streamctc.numerics import (
    BatchNormStats,
    EmptyReceptionFieldError,
    NonFiniteError,
    batch_norm_backward,
    batch_norm_fold,
    batch_norm_forward,
    check_gradient,
    conv1d_backward,
    conv1d_forward,
    ensure_finite,
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    log_softmax,
    log_softmax_backward,
    masked_softmax,
    masked_softmax_backward,
)
from streamctc.numerics import _erf


class TestMaskedSoftmax:
    def test_uniform_on_equal_logits(self):
        mask = np.ones((1, 4), dtype=bool)
        out = masked_softmax(np.zeros((1, 4)), mask)
        np.testing.assert_allclose(out, 0.25)

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 6))
        mask = rng.random((6, 6)) < 0.5
        mask[:, 0] = True  # keep every row satisfiable
        out = masked_softmax(logits, mask)
        assert np.all(out[~mask] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_head_axis_broadcast(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5, 5))
        mask = np.tril(np.ones((5, 5), dtype=bool))
        out = masked_softmax(logits, mask)
        assert out.shape == (3, 5, 5)
        for h in range(3):
            np.testing.assert_allclose(
                out[h], masked_softmax(logits[h], mask), atol=0
            )

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        out = masked_softmax(logits, np.ones((1, 3), dtype=bool))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_empty_row_raises(self):
        mask = np.ones((2, 3), dtype=bool)
        mask[1] = False
        with pytest.raises(EmptyReceptionFieldError):
            masked_softmax(np.zeros((2, 3)), mask)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 4))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        w = rng.normal(size=(4, 4))

        def op(lg):
            p = masked_softmax(lg, mask)
            return (p * w).sum(), [masked_softmax_backward(w, p)]

        assert check_gradient(op, [logits]) <= 1e-5

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, t, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(t, t)) * 3
        mask = rng.random((t, t)) < 0.6
        mask[np.arange(t), np.arange(t)] = True
        out = masked_softmax(logits, mask)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out >= 0)


class TestLogSoftmax:
    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        naive = np.log(np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(log_softmax(x), naive, atol=1e-12)

    def test_exp_sums_to_one_under_shift(self):
        x = np.array([[1000.0, 1000.5, 999.0]])
        lp = log_softmax(x)
        np.testing.assert_allclose(np.exp(lp).sum(), 1.0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(3, 6))

        def op(v):
            lp = log_softmax(v)
            return (lp * w).sum(), [log_softmax_backward(w, lp)]

        assert check_gradient(op, [x]) <= 1e-5


class TestLayerNorm:
    def test_zero_mean_unit_var(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 16)) * 10 + 3
        y = layer_norm_forward(x, np.ones(16), np.zeros(16))[0]
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_affine_applied(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        gain = np.array([2.0, 2.0, 2.0, 2.0])
        bias = np.array([1.0, 1.0, 1.0, 1.0])
        y = layer_norm_forward(x, gain, bias)[0]
        base = layer_norm_forward(x, np.ones(4), np.zeros(4))[0]
        np.testing.assert_allclose(y, 2.0 * base + 1.0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 8))
        gain = rng.normal(size=8)
        bias = rng.normal(size=8)
        w = rng.normal(size=(3, 8))

        def op(xv, gv, bv):
            y, cache = layer_norm_forward(xv, gv, bv)
            dx, dg, db = layer_norm_backward(w, cache)
            return (y * w).sum(), [dx, dg, db]

        assert check_gradient(op, [x, gain, bias]) <= 1e-5


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(32, 6)) * 4 + 2
        stats = BatchNormStats.fresh(6)
        y = batch_norm_forward(x, np.ones(6), np.zeros(6), stats, "train")[0]
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-4)

    def test_running_stats_ema(self):
        # train mode returns the moments and leaves the stats alone;
        # `batch_norm_fold` folds them in
        rng = np.random.default_rng(9)
        stats = BatchNormStats.fresh(2)
        x1 = rng.normal(size=(8, 2))
        moments = batch_norm_forward(x1, np.ones(2), np.zeros(2), stats, "train")[2]
        np.testing.assert_array_equal(stats.mean, np.zeros(2))
        np.testing.assert_array_equal(stats.var, np.ones(2))
        batch_norm_fold(stats, moments)
        m0, v0 = stats.mean.copy(), stats.var.copy()
        x2 = rng.normal(size=(8, 2)) + 5
        batch_norm_fold(stats, batch_norm_forward(x2, np.ones(2), np.zeros(2), stats, "train")[2])
        np.testing.assert_allclose(stats.mean, 0.9 * m0 + 0.1 * x2.mean(axis=0))
        np.testing.assert_allclose(stats.var, 0.9 * v0 + 0.1 * x2.var(axis=0))

    def test_infer_uses_running_stats_per_frame(self):
        stats = BatchNormStats(
            mean=np.array([1.0, -1.0]), var=np.array([4.0, 0.25])
        )
        x = np.array([[3.0, 0.0], [1.0, -1.0]])
        y = batch_norm_forward(x, np.ones(2), np.zeros(2), stats, "infer", eps=0.0)[0]
        np.testing.assert_allclose(y, [[1.0, 2.0], [0.0, 0.0]], atol=1e-12)

    def test_train_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 4))
        gain = rng.normal(size=4)
        bias = rng.normal(size=4)
        w = rng.normal(size=(6, 4))

        def op(gv, bv):
            y, cache, _ = batch_norm_forward(
                x, gv, bv, BatchNormStats.fresh(4), "train"
            )
            return (y * w).sum(), list(batch_norm_backward(w, cache))

        assert check_gradient(op, [gain, bias]) <= 1e-5

    def test_infer_gradient(self):
        rng = np.random.default_rng(11)
        stats = BatchNormStats(
            mean=rng.normal(size=4), var=rng.random(4) + 0.5
        )
        x = rng.normal(size=(5, 4))
        gain = rng.normal(size=4)
        bias = rng.normal(size=4)
        w = rng.normal(size=(5, 4))

        def op(gv, bv):
            y, cache, _ = batch_norm_forward(x, gv, bv, stats.copy(), "infer")
            return (y * w).sum(), list(batch_norm_backward(w, cache))

        assert check_gradient(op, [gain, bias]) <= 1e-5


    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_padded_batch_matches_its_members(self, mode):
        # each member normalizes over its own real rows, whatever the pad
        # rows hold, and the running stats fold one member at a time
        rng = np.random.default_rng(12)
        lengths = [5, 2, 4]
        members = [rng.normal(size=(n, 3)) * 2 + 1 for n in lengths]
        batch = rng.normal(size=(3, 5, 3)) * 50
        for b, x in enumerate(members):
            batch[b, : len(x)] = x
        gain, bias = rng.normal(size=3), rng.normal(size=3)
        w = rng.normal(size=batch.shape)
        start = BatchNormStats(mean=rng.normal(size=3), var=rng.random(3) + 0.5)
        stats = start.copy()
        y, cache, moments = batch_norm_forward(batch, gain, bias, stats, mode, lengths=lengths)
        if mode == "train":
            batch_norm_fold(stats, moments)
        dg, db = batch_norm_backward(w, cache)
        alone = start.copy()
        want_dg, want_db = np.zeros(3), np.zeros(3)
        for b, x in enumerate(members):
            n = len(x)
            want_y, one, one_moments = batch_norm_forward(x, gain, bias, alone, mode)
            if mode == "train":
                batch_norm_fold(alone, one_moments)
            g, bb = batch_norm_backward(w[b, :n], one)
            want_dg += g
            want_db += bb
            np.testing.assert_allclose(y[b, :n], want_y, rtol=1e-13, atol=1e-13)
            # pad rows are 0
            assert not y[b, n:].any()
        np.testing.assert_allclose(dg, want_dg, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(db, want_db, rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(stats.mean, alone.mean)
        np.testing.assert_array_equal(stats.var, alone.var)


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 3))
        kernel = np.eye(3)[None]  # K=1
        np.testing.assert_allclose(conv1d_forward(x, kernel)[0], x, atol=0)

    def test_causal_never_sees_future(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 2))
        kernel = rng.normal(size=(4, 2, 2))
        y = conv1d_forward(x, kernel)[0]
        x2 = x.copy()
        x2[5] += 10.0  # perturb frame 5; outputs before 5 must not move
        y2 = conv1d_forward(x2, kernel)[0]
        np.testing.assert_array_equal(y[:5], y2[:5])
        assert not np.allclose(y[5:], y2[5:])

    def test_output_frame_reads_the_last_k_frames(self):
        # K=2, left pad 1: y[t] = k0*x[t-1] + k1*x[t]
        x = np.array([[1.0], [2.0], [3.0]])
        kernel = np.array([[[10.0]], [[1.0]]])
        y = conv1d_forward(x, kernel)[0][:, 0]
        np.testing.assert_allclose(y, [1.0, 12.0, 23.0])

    def test_kernel_longer_than_input(self):
        x = np.array([[1.0], [1.0]])
        kernel = np.ones((5, 1, 1))
        y = conv1d_forward(x, kernel)[0]
        assert y.shape == (2, 1)
        np.testing.assert_allclose(y[:, 0], [1.0, 2.0])

    def test_bias(self):
        x = np.zeros((3, 2))
        kernel = np.zeros((1, 2, 4))
        y = conv1d_forward(x, kernel, bias=np.arange(4.0))[0]
        np.testing.assert_allclose(y, np.tile(np.arange(4.0), (3, 1)))

    @pytest.mark.parametrize("k", [1, 2, 3, 5], ids=lambda k: f"{k}-causal")
    def test_gradient(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(size=(6, 3))
        kernel = rng.normal(size=(k, 3, 2))
        bias = rng.normal(size=2)
        w = rng.normal(size=(6, 2))

        def op(xv, kv, bv):
            y, cache = conv1d_forward(xv, kv, bv)
            dx, dk, db = conv1d_backward(w, cache)
            return (y * w).sum(), [dx, dk, db]

        assert check_gradient(op, [x, kernel, bias]) <= 1e-5


class TestGelu:
    def test_reference_values(self):
        # exact erf formulation: gelu(0)=0, gelu(x)-gelu(-x)=x
        np.testing.assert_allclose(gelu_forward(0.0)[0], 0.0, atol=0)
        x = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(gelu_forward(x)[0] - gelu_forward(-x)[0], x, atol=1e-12)
        np.testing.assert_allclose(gelu_forward(1.0)[0], 0.8413447460685429, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=17)
        w = rng.normal(size=17)

        def op(v):
            y, cache = gelu_forward(v)
            return (y * w).sum(), [gelu_backward(w, cache)]

        assert check_gradient(op, [x]) <= 1e-5


def float64_of(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# +-0, the smallest subnormal, +-inf, quiet and signaling NaNs of either sign
# with payloads, and both sides of |t| = 1 and |t| = 6, where the port
# changes branch and clamps
SPECIAL = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, 1e308, -1e308],
    float64_of([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0xFFF4000000000123]),
    [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 6.0, -6.0,
     np.nextafter(6.0, 0.0), np.nextafter(-6.0, 0.0)],
])

# the views the port is handed, each of any shape: as drawn, every other
# entry of the last axis, and transposed
LAYOUTS = {
    "contiguous": lambda a: a,
    "every other": lambda a: a[..., ::2] if a.ndim else a,
    "transposed": lambda a: a.T,
}


def assert_same_bytes(got, want):
    """Same shape, dtype and bytes: -0.0 is not 0.0, and a NaN must be
    SciPy's NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestErfIsScipys:
    """GELU's erf is a port of the Cephes erf behind `scipy.special.erf`
    and gives its bits for every float64, NaN, infinities and subnormals
    included."""

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
            elements=st.floats(width=64, allow_nan=True, allow_infinity=True,
                               allow_subnormal=True),
        ),
        st.sampled_from(sorted(LAYOUTS)),
    )
    @example(np.array(0.5), "contiguous")
    @example(np.array(-0.0), "contiguous")
    @example(np.zeros((0,)), "contiguous")
    @example(np.zeros((3, 0, 2)), "transposed")
    @example(SPECIAL, "contiguous")
    @example(SPECIAL.reshape(3, 7), "every other")
    @example(SPECIAL.reshape(3, 1, 7), "transposed")
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_scipy(self, x, layout):
        x = LAYOUTS[layout](x)
        copy = x.copy()
        assert_same_bytes(_erf(x), erf(x))
        assert_same_bytes(x, copy)

    @pytest.mark.parametrize("lo, hi", [(0.999, 1.001), (5.9, 6.1), (7.99, 8.01), (0.0, 8.0)])
    def test_bytes_match_scipy_on_grids(self, lo, hi):
        # 1 and 6 are where the port's branches meet, 8 is where Cephes's
        # erfc switches to its third branch, which the clamp at 6 replaces;
        # 0 to 8 has about 12,000 points where the port calls exp
        grid = np.linspace(lo, hi, 20001)
        for x in (grid, -grid):
            assert_same_bytes(_erf(x), erf(x))


# ---------------------------------------------------------------------------
# exactness: each kernel against plain NumPy expressions of its formula
# ---------------------------------------------------------------------------
#
# The kernels write into arrays they allocate, and GELU keeps its erf term
# from forward for backward. Each still applies the same IEEE operations to
# each element as the plain expressions below, so the results agree bit for
# bit; and no kernel writes into an array it was given.


def ref_masked_softmax(logits, allowed):
    shifted = np.where(allowed, logits, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def ref_masked_softmax_backward(grad_out, probs):
    inner = (probs * grad_out).sum(axis=-1, keepdims=True)
    return probs * (grad_out - inner)


def ref_layer_norm_forward(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, (xhat, inv_std, gain)


def ref_layer_norm_backward(grad_out, cache):
    xhat, inv_std, gain = cache
    d = xhat.shape[-1]
    dxhat = grad_out * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    )
    reduce_axes = tuple(range(grad_out.ndim - 1))
    return dx, (grad_out * xhat).sum(axis=reduce_axes), grad_out.sum(axis=reduce_axes)


def ref_gelu(x):
    return 0.5 * x * (1.0 + erf(x / float(np.sqrt(2.0))))


def ref_gelu_grad(x):
    cdf = 0.5 * (1.0 + erf(x / float(np.sqrt(2.0))))
    pdf = float(1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


def unchanged(*arrays):
    """Copies to compare with after a call: the kernel must not write into
    what it was given."""
    return [np.array(a, copy=True) for a in arrays]


def assert_unchanged(arrays, copies):
    for a, c in zip(arrays, copies):
        assert_same_bits(a, c)


LOGIT_SCALES = st.sampled_from(["normal", "wide", "huge"])


def draw_logits(rng, shape, scale):
    if scale == "huge":
        # +-1e300 and 0: the shifted logits stay finite, their exp is 0 or 1
        return rng.choice([-1e300, 0.0, 1e300], size=shape)
    return rng.normal(size=shape) * (30.0 if scale == "wide" else 1.0)


def draw_mask(rng, shape, one_key):
    """A mask with at least one allowed key per row; with `one_key`
    exactly one."""
    if one_key:
        mask = np.zeros(shape, dtype=bool)
        keys = rng.integers(shape[-1], size=shape[:-1])
        np.put_along_axis(mask, keys[..., None], True, axis=-1)
        return mask
    mask = rng.random(shape) < 0.5
    mask[..., rng.integers(shape[-1])] = True
    return mask


class TestKernelsAreExact:
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
        st.booleans(), st.booleans(), LOGIT_SCALES, st.integers(0, 2**32 - 1),
    )
    @example(2, 2, 5, 5, True, True, "huge", 0)
    @example(1, 2, 4, 1, False, False, "huge", 1)
    @settings(max_examples=80, deadline=None)
    def test_masked_softmax(self, b, h, tq, tk, per_member, one_key, scale, seed):
        rng = np.random.default_rng(seed)
        logits = draw_logits(rng, (b, h, tq, tk), scale)
        mask = draw_mask(rng, (b, 1, tq, tk) if per_member else (tq, tk), one_key)
        grad_out = rng.normal(size=logits.shape)
        copies = unchanged(logits, mask, grad_out)
        probs = masked_softmax(logits, mask)
        assert_same_bits(probs, ref_masked_softmax(logits, mask))
        copies_p = unchanged(probs)
        assert_same_bits(
            masked_softmax_backward(grad_out, probs),
            ref_masked_softmax_backward(grad_out, probs),
        )
        assert_unchanged([logits, mask, grad_out, probs], copies + copies_p)
        if one_key:
            # one allowed key per row: that key gets probability 1 exactly
            assert_same_bits(probs, np.broadcast_to(mask, probs.shape).astype(float))

    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
        st.booleans(), st.booleans(), LOGIT_SCALES, st.integers(0, 2**32 - 1),
    )
    @example(2, 2, 5, 5, True, False, "huge", 0)
    @settings(max_examples=60, deadline=None)
    def test_masked_softmax_never_reads_masked_logits(
        self, b, h, tq, tk, per_member, one_key, scale, seed
    ):
        # masked logits drawn from NaN, +-inf and +-1e308: the allowed
        # entries keep the reference's bits and the masked ones are +0.0
        rng = np.random.default_rng(seed)
        mask = draw_mask(rng, (b, 1, tq, tk) if per_member else (tq, tk), one_key)
        logits = draw_logits(rng, (b, h, tq, tk), scale)
        wild = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308], size=logits.shape)
        masked = ~np.broadcast_to(mask, logits.shape)
        logits[masked] = wild[masked]
        probs = masked_softmax(logits, mask)
        assert_same_bits(probs, ref_masked_softmax(logits, mask))
        assert_same_bits(probs[masked], np.zeros(int(masked.sum())))

    @given(
        st.lists(st.integers(1, 4), min_size=0, max_size=2), st.integers(1, 9),
        st.sampled_from([1.0, 1e-3, 1e3]), st.integers(0, 2**32 - 1),
    )
    @example([3], 1, 1.0, 0)
    @example([], 1, 1e3, 1)
    @settings(max_examples=80, deadline=None)
    def test_layer_norm(self, lead, d, scale, seed):
        rng = np.random.default_rng(seed)
        shape = (*lead, d)
        x = rng.normal(size=shape) * scale + rng.normal()
        gain, bias = rng.normal(size=d), rng.normal(size=d)
        grad_out = rng.normal(size=shape)
        copies = unchanged(x, gain, bias, grad_out)
        y, cache = layer_norm_forward(x, gain, bias)
        want_y, want_cache = ref_layer_norm_forward(x, gain, bias)
        assert_same_bits(y, want_y)
        for got, want in zip(cache, want_cache):
            assert_same_bits(got, want)
        cache_copies = unchanged(*cache)
        for got, want in zip(layer_norm_backward(grad_out, cache),
                             ref_layer_norm_backward(grad_out, want_cache)):
            assert_same_bits(got, want)
        assert_unchanged([x, gain, bias, grad_out, *cache], copies + cache_copies)

    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=3),
        st.sampled_from([1.0, 5.0, 40.0]), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_gelu(self, shape, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape) * scale
        grad_out = rng.normal(size=shape)
        copies = unchanged(x, grad_out)
        y, cache = gelu_forward(x)
        assert_same_bits(y, ref_gelu(x))
        cache_copies = unchanged(*cache)
        assert_same_bits(gelu_backward(grad_out, cache), grad_out * ref_gelu_grad(x))
        assert_unchanged([x, grad_out, *cache], copies + cache_copies)

    def test_gelu_special_values(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150, 37.5, -37.5])
        grad_out = np.ones_like(x)
        y, cache = gelu_forward(x)
        assert_same_bits(y, ref_gelu(x))
        assert_same_bits(gelu_backward(grad_out, cache), grad_out * ref_gelu_grad(x))


class TestCheckGradient:
    def test_catches_wrong_gradient(self):
        def op(v):
            return (v**2).sum(), [3.0 * v]  # wrong on purpose

        err = check_gradient(op, [np.array([1.0, -2.0])])
        assert err > 1e-2

    def test_passes_correct_gradient(self):
        def op(v):
            return (v**3).sum(), [3.0 * v**2]

        assert check_gradient(op, [np.array([0.5, -1.5, 2.0])]) <= 1e-5

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            check_gradient(lambda v: (v.sum(), [np.ones_like(v)]), [np.ones(2)], step=0)


def test_ensure_finite_passthrough_and_raise():
    x = np.ones(3)
    assert ensure_finite(x) is x
    with pytest.raises(NonFiniteError):
        ensure_finite(np.array([1.0, np.inf]))
