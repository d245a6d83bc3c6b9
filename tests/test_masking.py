import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc.encoder import _pad
from streamctc.masking import (
    AttentionMask,
    MaskSpec,
    build_mask,
    eil,
    latency_report,
    reachability,
    reception_field,
)


def bfs_reachability(mask: AttentionMask, n_layers: int) -> np.ndarray:
    """Independent oracle: per-position set union walked layer by layer."""
    n = mask.n_positions
    fields = [{p} for p in range(n)]
    for _ in range(n_layers):
        nxt = []
        for p in range(n):
            s = set(fields[p])
            for q in range(n):
                if mask.allowed[p][q]:
                    s |= fields[q]
            nxt.append(s)
        fields = nxt
    dense = np.zeros((n, n), dtype=bool)
    for p, s in enumerate(fields):
        for q in s:
            dense[p, q] = True
    real_rows = [p for p in range(n) if not mask.is_copy[p]]
    folded = np.zeros((mask.n_frames, mask.n_frames), dtype=bool)
    for i, p in enumerate(real_rows):
        for q in range(n):
            if dense[p, q]:
                folded[i, mask.index_map[q]] = True
    return folded


class TestMaskSpecValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            MaskSpec("triangular")

    def test_time_restricted_requires_right_frames(self):
        with pytest.raises(ValueError):
            MaskSpec("time_restricted")
        with pytest.raises(ValueError):
            MaskSpec("time_restricted", right_frames=-1)

    def test_chunk_requires_chunk_frames(self):
        with pytest.raises(ValueError):
            MaskSpec("chunk")
        with pytest.raises(ValueError):
            MaskSpec("chunk", chunk_frames=0)

    def test_block_requires_both(self):
        with pytest.raises(ValueError):
            MaskSpec("block", chunk_frames=4)
        with pytest.raises(ValueError):
            MaskSpec("block", chunk_frames=0, future_frames=1)
        with pytest.raises(ValueError):
            MaskSpec("block", chunk_frames=4, future_frames=-1)

    def test_irrelevant_params_rejected(self):
        with pytest.raises(ValueError):
            MaskSpec("bidirectional", right_frames=2)
        with pytest.raises(ValueError):
            MaskSpec("chunk", chunk_frames=4, future_frames=2)
        with pytest.raises(ValueError):
            MaskSpec("block", chunk_frames=4, future_frames=2, right_frames=1)

    def test_frame_ms_positive(self):
        with pytest.raises(ValueError):
            MaskSpec("bidirectional", frame_ms=0)

    def test_dict_roundtrip(self):
        spec = MaskSpec("block", chunk_frames=12, future_frames=18)
        assert MaskSpec.from_dict(spec.to_dict()) == spec


class TestBuildMask:
    def test_bidirectional_all_true(self):
        m = build_mask(MaskSpec("bidirectional"), 5)
        assert m.allowed.all()
        assert m.n_positions == 5 and m.allowed.shape == (5, 5)

    def test_time_restricted_rows(self):
        m = build_mask(MaskSpec("time_restricted", right_frames=1), 4)
        expect = np.array(
            [
                [1, 1, 0, 0],
                [1, 1, 1, 0],
                [1, 1, 1, 1],
                [1, 1, 1, 1],
            ],
            dtype=bool,
        )
        np.testing.assert_array_equal(m.allowed, expect)

    def test_time_restricted_left_limit(self):
        m = build_mask(MaskSpec("time_restricted", right_frames=0, left_limit=1), 4)
        expect = np.array(
            [
                [1, 0, 0, 0],
                [1, 1, 0, 0],
                [0, 1, 1, 0],
                [0, 0, 1, 1],
            ],
            dtype=bool,
        )
        np.testing.assert_array_equal(m.allowed, expect)

    def test_chunk_attends_own_and_previous(self):
        m = build_mask(MaskSpec("chunk", chunk_frames=2), 5)
        # chunks: [0,1] [2,3] [4]
        expect = np.array(
            [
                [1, 1, 0, 0, 0],
                [1, 1, 0, 0, 0],
                [1, 1, 1, 1, 0],
                [1, 1, 1, 1, 0],
                [1, 1, 1, 1, 1],
            ],
            dtype=bool,
        )
        np.testing.assert_array_equal(m.allowed, expect)

    def test_chunk_degenerate_full_attention(self):
        m = build_mask(MaskSpec("chunk", chunk_frames=9), 6)
        assert m.allowed.all()

    def test_chunk_left_limit_in_chunks(self):
        m = build_mask(MaskSpec("chunk", chunk_frames=2, left_limit=1), 6)
        assert m.allowed[4, 2]  # one chunk back: visible
        assert not m.allowed[4, 1]  # two chunks back: cut

    def test_self_always_allowed(self):
        for spec in (
            MaskSpec("bidirectional"),
            MaskSpec("time_restricted", right_frames=0),
            MaskSpec("chunk", chunk_frames=3),
        ):
            m = build_mask(spec, 7)
            assert m.allowed.diagonal().all()

    def test_block_layout_and_mask(self):
        # T=6, C=2, F=1: augmented [0,1,c2, 2,3,c4, 4,5] -> 8 positions
        m = build_mask(MaskSpec("block", chunk_frames=2, future_frames=1), 6)
        assert m.n_positions == 8
        np.testing.assert_array_equal(m.index_map, [0, 1, 2, 2, 3, 4, 4, 5])
        np.testing.assert_array_equal(
            m.is_copy, [False, False, True, False, False, True, False, False]
        )
        np.testing.assert_array_equal(np.flatnonzero(~m.is_copy), [0, 1, 3, 4, 6, 7])
        # third frame (augmented position 4, chunk 1) sees chunk 0 real
        # frames but not chunk 0's copy, plus all of chunk 1 incl. the copy
        # of the fifth frame; never the sixth frame
        row = m.allowed[4]
        np.testing.assert_array_equal(row, [1, 1, 0, 1, 1, 1, 0, 0])
        # second frame (position 1, chunk 0) sees only its chunk + its copy
        row = m.allowed[1]
        np.testing.assert_array_equal(row, [1, 1, 1, 0, 0, 0, 0, 0])

    def test_block_copy_count_clipped_at_end(self):
        m = build_mask(MaskSpec("block", chunk_frames=3, future_frames=5), 7)
        # chunk 0 copies frames 3..6 (4 of them), chunk 1 copies frame 6,
        # chunk 2 (frame 6 alone) copies nothing
        assert m.n_positions == 7 + 4 + 1
        np.testing.assert_array_equal(
            m.index_map, [0, 1, 2, 3, 4, 5, 6, 3, 4, 5, 6, 6]
        )
        np.testing.assert_array_equal(m.is_copy, [0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0])

    def test_block_future_zero_copies_nothing(self):
        m = build_mask(MaskSpec("block", chunk_frames=2, future_frames=0), 6)
        assert m.n_positions == 6 and not m.is_copy.any()
        chunk = build_mask(MaskSpec("chunk", chunk_frames=2), 6)
        np.testing.assert_array_equal(m.allowed, chunk.allowed)


def _spec_strategy():
    left = st.none() | st.integers(0, 4)
    return st.one_of(
        st.just(MaskSpec("bidirectional")),
        st.builds(
            lambda r, l: MaskSpec("time_restricted", right_frames=r, left_limit=l),
            st.integers(0, 4), left,
        ),
        st.builds(
            lambda c, l: MaskSpec("chunk", chunk_frames=c, left_limit=l),
            st.integers(1, 6), left,
        ),
        st.builds(
            lambda c, f, l: MaskSpec("block", chunk_frames=c, future_frames=f, left_limit=l),
            st.integers(1, 6), st.integers(0, 4), left,
        ),
    )


class TestOneLayoutKind:
    @given(st.integers(1, 6), st.none() | st.integers(0, 4), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_chunk_is_block_without_lookahead(self, c, left, t):
        chunk = build_mask(MaskSpec("chunk", chunk_frames=c, left_limit=left), t)
        block = build_mask(
            MaskSpec("block", chunk_frames=c, future_frames=0, left_limit=left), t
        )
        np.testing.assert_array_equal(chunk.allowed, block.allowed)
        np.testing.assert_array_equal(chunk.index_map, block.index_map)
        np.testing.assert_array_equal(chunk.is_copy, block.is_copy)

    @given(st.integers(1, 20), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_bidirectional_is_one_chunk_spanning_the_utterance(self, t, extra):
        full = build_mask(MaskSpec("bidirectional"), t)
        chunk = build_mask(MaskSpec("chunk", chunk_frames=t + extra), t)
        np.testing.assert_array_equal(full.allowed, chunk.allowed)
        assert full.allowed.all()

    @given(_spec_strategy(), st.integers(1, 20))
    @settings(max_examples=120, deadline=None)
    def test_every_layout_round_trips(self, spec, t):
        mask = build_mask(spec, t)
        x = np.arange(t * 2, dtype=np.float64).reshape(t, 2)
        np.testing.assert_array_equal(x[mask.index_map][~mask.is_copy], x)
        copies = spec.variant == "block" and spec.future_frames > 0 and spec.chunk_frames < t
        assert mask.is_copy.any() == copies


class TestHardCopyPlan:
    """The block layout's hard copies, gathered and scattered by the encoder."""

    def test_augment_reduce_roundtrip(self):
        pad = _pad(MaskSpec("block", chunk_frames=2, future_frames=2), [7])
        x = np.arange(7 * 3, dtype=np.float64).reshape(1, 7, 3)
        aug = pad.augment(x)
        assert aug.shape == (pad.n_rows, 3) and pad.n_rows > 7
        np.testing.assert_array_equal(aug[pad.outputs], x[0])

    def test_reduce_grad_accumulates_copies(self):
        pad = _pad(MaskSpec("block", chunk_frames=2, future_frames=1), [4])
        # layout [0,1,c2,2,3]; frame 2 appears twice
        back = pad.reduce_grad(np.ones((pad.n_rows, 1)))
        np.testing.assert_array_equal(back[0, :, 0], [1, 1, 2, 1])

    def test_truncated_copies_at_end(self):
        mask = build_mask(MaskSpec("block", chunk_frames=2, future_frames=3), 5)
        # chunk 0 copies 2,3,4; chunk 1 copies only 4; chunk 2 none
        assert mask.n_positions == 5 + 3 + 1
        np.testing.assert_array_equal(mask.index_map, [0, 1, 2, 3, 4, 2, 3, 4, 4])


class TestReachability:
    @pytest.mark.parametrize(
        "spec",
        [
            MaskSpec("bidirectional"),
            MaskSpec("time_restricted", right_frames=1),
            MaskSpec("time_restricted", right_frames=2, left_limit=3),
            MaskSpec("chunk", chunk_frames=3),
            MaskSpec("chunk", chunk_frames=2, left_limit=1),
            MaskSpec("block", chunk_frames=2, future_frames=1),
            MaskSpec("block", chunk_frames=3, future_frames=2, left_limit=1),
        ],
    )
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    def test_matches_bfs_oracle(self, spec, n_layers):
        mask = build_mask(spec, 9)
        got = reachability(mask, n_layers)
        want = bfs_reachability(mask, n_layers)
        np.testing.assert_array_equal(got, want)

    def test_many_paths_do_not_wrap_to_unreachable(self):
        # 256 or more paths into one position still read as reachable
        assert reachability(build_mask(MaskSpec("bidirectional"), 256), 2).all()
        rf = reception_field(MaskSpec("chunk", chunk_frames=256), 2, 300)
        assert rf.latest[0] == 255 and rf.earliest[299] == 0

    @given(st.integers(1, 4), st.integers(0, 3), st.integers(4, 10))
    @settings(max_examples=20, deadline=None)
    def test_block_property_matches_oracle(self, c, f, t):
        mask = build_mask(MaskSpec("block", chunk_frames=c, future_frames=f), t)
        got = reachability(mask, 2)
        np.testing.assert_array_equal(got, bfs_reachability(mask, 2))


class TestReceptionField:
    def test_time_restricted_grows_per_layer(self):
        spec = MaskSpec("time_restricted", right_frames=2)
        for n in range(1, 4):
            rf = reception_field(spec, n, 30)
            np.testing.assert_array_equal(
                rf.latest, np.minimum(np.arange(30) + 2 * n, 29)
            )
            np.testing.assert_array_equal(rf.earliest, 0)

    def test_two_layer_growth_from_single_restricted_frame(self):
        # with R=1, the third frame reaches two frames ahead after 2 layers
        rf = reception_field(MaskSpec("time_restricted", right_frames=1), 2, 6)
        assert rf.latest[2] == 4

    def test_chunk_latest_is_chunk_end_any_depth(self):
        spec = MaskSpec("chunk", chunk_frames=4)
        for n in (1, 3, 6):
            rf = reception_field(spec, n, 11)
            expect = np.minimum((np.arange(11) // 4) * 4 + 3, 10)
            np.testing.assert_array_equal(rf.latest, expect)

    def test_block_latest_is_chunk_end_plus_future(self):
        spec = MaskSpec("block", chunk_frames=2, future_frames=1)
        for n in (1, 2, 4):
            rf = reception_field(spec, n, 10)
            expect = np.minimum((np.arange(10) // 2) * 2 + 1 + 1, 9)
            np.testing.assert_array_equal(rf.latest, expect)

    def test_left_limit_bounds_earliest(self):
        rf = reception_field(
            MaskSpec("time_restricted", right_frames=0, left_limit=1), 2, 8
        )
        np.testing.assert_array_equal(rf.earliest, np.maximum(np.arange(8) - 2, 0))

    @settings(max_examples=80, deadline=None)
    @given(
        variant=st.sampled_from(["time_restricted", "chunk", "block"]),
        right=st.integers(0, 4),
        chunk=st.integers(1, 6),
        future=st.integers(0, 6),
        left=st.none() | st.integers(0, 3),
        depth=st.integers(1, 4),
    )
    def test_max_lookahead_consistent_with_report(
        self, variant, right, chunk, future, left, depth
    ):
        if variant == "time_restricted":
            spec = MaskSpec(variant, right_frames=right, left_limit=left)
            chunk, future = 0, 0
        elif variant == "chunk":
            spec = MaskSpec(variant, chunk_frames=chunk, left_limit=left)
            right, future = 0, 0
        else:
            spec = MaskSpec(variant, chunk_frames=chunk, future_frames=future, left_limit=left)
            right = 0
        # long enough for a full first chunk with its F frames after it, and
        # for frames depth*R before the end
        n = depth * right + 2 * chunk + future + 1
        report = latency_report(spec, depth)

        def lookahead(d):
            return reception_field(spec, d, n).latest - np.arange(n)

        assert report.max_lookahead == lookahead(depth).max()
        assert report.growth == tuple((d, lookahead(d).max()) for d in range(1, depth + 1))
        if variant == "time_restricted":
            settled = lookahead(depth)[: n - depth * right]
        else:
            settled = lookahead(depth)[:chunk]
        assert report.per_frame_lookahead == settled.mean()


class TestLatency:
    def test_table2_configurations_all_480(self):
        assert eil(MaskSpec("time_restricted", right_frames=2), 12) == 480
        assert eil(MaskSpec("chunk", chunk_frames=48), 12) == 480
        assert eil(MaskSpec("block", chunk_frames=24, future_frames=12), 12) == 480
        assert eil(MaskSpec("block", chunk_frames=12, future_frames=18), 12) == 480

    def test_bidirectional_unbounded(self):
        assert math.isinf(eil(MaskSpec("bidirectional"), 12))

    def test_zero_right_context(self):
        assert eil(MaskSpec("time_restricted", right_frames=0), 12) == 0

    def test_custom_frame_ms(self):
        assert eil(MaskSpec("chunk", chunk_frames=10, frame_ms=10), 4) == 50

    def test_report_fields(self):
        rep = latency_report(MaskSpec("block", chunk_frames=12, future_frames=18), 12)
        assert rep.eil_ms == 480
        assert rep.per_frame_lookahead == (12 - 1) / 2 + 18
        assert rep.max_lookahead == 11 + 18
        assert rep.growth[0] == (1, 29) and rep.growth[-1] == (12, 29)

    def test_report_growth_time_restricted(self):
        rep = latency_report(MaskSpec("time_restricted", right_frames=2), 3)
        assert rep.growth == ((1, 2), (2, 4), (3, 6))
        assert rep.per_frame_lookahead == 6

    def test_table_and_machine_line(self):
        rep = latency_report(MaskSpec("block", chunk_frames=12, future_frames=18), 12)
        assert "EIL 480 ms" in rep.table()
        assert rep.machine_line() == "block\t240\t360\t-\t12\t480"
        rep2 = latency_report(MaskSpec("time_restricted", right_frames=2), 12)
        assert rep2.machine_line() == "time_restricted\t-\t-\t2\t12\t480"
        rep3 = latency_report(MaskSpec("bidirectional"), 12)
        assert rep3.machine_line().endswith("inf")

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            eil(MaskSpec("bidirectional"), 0)


class TestMaskCache:
    SPECS = [
        MaskSpec("bidirectional"),
        MaskSpec("time_restricted", right_frames=1, left_limit=2),
        MaskSpec("chunk", chunk_frames=3, left_limit=1),
        MaskSpec("block", chunk_frames=3, future_frames=2),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
    def test_cached_mask_equals_a_fresh_build(self, spec):
        cached = build_mask(spec, 8)
        assert build_mask(spec, 8) is cached
        build_mask.cache_clear()
        fresh = build_mask(spec, 8)
        assert fresh is not cached
        for name in ("allowed", "index_map", "is_copy"):
            got, want = getattr(cached, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (cached.spec, cached.n_frames) == (fresh.spec, fresh.n_frames)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
    @pytest.mark.parametrize("name", ["allowed", "index_map", "is_copy"])
    def test_cached_arrays_are_read_only(self, spec, name):
        array = getattr(build_mask(spec, 8), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]

    def test_bad_length_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="n_frames"):
                build_mask(MaskSpec("bidirectional"), 0)
        # 4.0 == 4, but the float is not served the cached int's mask
        build_mask(MaskSpec("bidirectional"), 4)
        with pytest.raises(TypeError):
            build_mask(MaskSpec("bidirectional"), 4.0)
