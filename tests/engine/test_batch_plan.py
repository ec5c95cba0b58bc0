"""Unit tests for segment-aligned batch slicing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import StreamingExecutor
from repro.engine.batch import build_batch_plan, slice_segments
from repro.errors import ReproError
from repro.partition.plan import build_partition_plan
from repro.partition.sharding import shard_mode
from repro.tensor.kernels import segment_starts
from repro.tensor.reference import mttkrp_coo_reference


class TestSliceSegments:
    def test_empty(self):
        assert slice_segments(np.empty(0, dtype=np.int64), 4) == []

    def test_none_is_single_slice(self):
        keys = np.array([0, 0, 1, 2, 2, 2])
        assert slice_segments(keys, None) == [(0, 6)]

    def test_batch_size_at_least_nnz_is_single_slice(self):
        keys = np.array([0, 1, 1, 3])
        assert slice_segments(keys, 4) == [(0, 4)]
        assert slice_segments(keys, 99) == [(0, 4)]

    def test_cuts_align_to_segment_starts(self):
        keys = np.array([0, 0, 0, 1, 1, 2, 4, 4, 4, 4])
        slices = slice_segments(keys, 4)
        # greedy: [0,0,0,1,1) would need 5 -> cut after first segment? No:
        # boundary <= 4 furthest is 5? bounds = [0,3,5,6,10]; pos=0,
        # pos+4=4 -> furthest boundary <=4 is 3 -> (0,3); pos=3, 3+4=7 ->
        # furthest <=7 is 6 -> (3,6); pos=6, 10 <= 10 -> (6,10).
        assert slices == [(0, 3), (3, 6), (6, 10)]
        for start, _ in slices[1:]:
            assert keys[start] != keys[start - 1]

    def test_oversized_segment_kept_whole(self):
        keys = np.array([5] * 10 + [6, 7])
        slices = slice_segments(keys, 3)
        assert slices[0] == (0, 10)  # one segment > batch_size stays whole
        assert slices[1:] == [(10, 12)]

    def test_batch_size_one_yields_one_segment_per_batch(self):
        keys = np.array([0, 0, 1, 2, 2, 2, 3])
        slices = slice_segments(keys, 1)
        starts = segment_starts(keys)
        assert [s for s, _ in slices] == list(starts)

    def test_invalid_batch_size(self):
        with pytest.raises(ReproError):
            slice_segments(np.array([1, 2]), 0)


class TestBuildBatchPlan:
    @pytest.mark.parametrize("batch_size", [None, 1, 3, 17, 10_000])
    def test_validates_against_partition(self, skewed_tensor, batch_size):
        for mode in range(skewed_tensor.nmodes):
            part = shard_mode(skewed_tensor, mode, 6)
            plan = build_batch_plan(part, batch_size)
            plan.validate_against(part)
            assert plan.nnz == skewed_tensor.nnz

    def test_shard_subset(self, skewed_tensor):
        part = shard_mode(skewed_tensor, 0, 5)
        plan = build_batch_plan(part, 20, shard_ids=[1, 3])
        assert {b.shard_id for b in plan.batches} <= {1, 3}
        assert plan.nnz == part.shards[1].nnz + part.shards[3].nnz

    def test_batches_for_shards_filters_and_orders(self, skewed_tensor):
        part = shard_mode(skewed_tensor, 1, 4)
        plan = build_batch_plan(part, 8)
        subset = plan.batches_for_shards([2, 0])
        assert all(b.shard_id in (0, 2) for b in subset)
        # deterministic (shard, position) order regardless of request order
        keys = [(b.shard_id, b.batch_id) for b in subset]
        assert keys == sorted(keys)
        assert plan.batches_for_shards(None) == list(plan.batches)

    def test_eager_granularity_is_one_batch_per_nonempty_shard(self, skewed_tensor):
        part = shard_mode(skewed_tensor, 2, 7)
        plan = build_batch_plan(part, None)
        nonempty = [s for s in part.shards if s.nnz > 0]
        assert plan.n_batches == len(nonempty)
        for batch, shard in zip(plan.batches, nonempty):
            assert batch.elements == shard.elements


class TestShardExecution:
    """A shard's batches (``batches_for_shards``) run through the executor's
    backend on their own — the per-GPU unit of work."""

    def test_single_shard_partial_result(
        self, small_tensor, make_factors, run_shards
    ):
        """One shard only contributes rows in its output-index range."""
        factors = make_factors(small_tensor.shape)
        plan = build_partition_plan(small_tensor, 3, shards_per_gpu=1)
        shard = plan.modes[0].shards[1]
        out = run_shards(
            StreamingExecutor(plan), factors, 0, [shard.shard_id],
            np.zeros((small_tensor.shape[0], 6)),
        )
        lo, hi = shard.index_range
        assert out[lo:hi].any()
        assert np.all(out[:lo] == 0)
        assert np.all(out[hi:] == 0)

    def test_shards_compose_to_full_result(
        self, small_tensor, make_factors, run_shards
    ):
        factors = make_factors(small_tensor.shape)
        plan = build_partition_plan(small_tensor, 5, shards_per_gpu=1)
        engine = StreamingExecutor(plan, batch_size=3)
        for mode in range(small_tensor.nmodes):
            out = np.zeros((small_tensor.shape[mode], 6))
            for shard in plan.modes[mode].shards:
                run_shards(engine, factors, mode, [shard.shard_id], out)
            assert np.array_equal(out, engine.mttkrp(factors, mode))
            assert np.allclose(
                out, mttkrp_coo_reference(small_tensor, factors, mode)
            )

    def test_unknown_shard_has_no_batches(self, small_tensor):
        plan = build_partition_plan(small_tensor, 2, shards_per_gpu=2)
        batch_plan = StreamingExecutor(plan).batch_plan(0)
        assert batch_plan.batches_for_shards([99]) == []
