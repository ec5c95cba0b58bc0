"""Tests for full partition plans."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition.plan import build_partition_plan, paper_shard_count


class TestBuildPlan:
    def test_valid_plan(self, skewed_tensor):
        plan = build_partition_plan(skewed_tensor, 4, shards_per_gpu=4)
        plan.validate()
        assert plan.nmodes == 3
        assert plan.n_gpus == 4

    def test_every_shard_assigned(self, small_tensor):
        plan = build_partition_plan(small_tensor, 3, shards_per_gpu=2)
        for mode in range(3):
            assigned = sum(
                len(plan.shards_for_gpu(mode, g)) for g in range(3)
            )
            assert assigned == plan.modes[mode].n_shards

    def test_gpu_nnz_sums_to_total(self, small_tensor):
        plan = build_partition_plan(small_tensor, 4, shards_per_gpu=2)
        for mode in range(3):
            assert plan.gpu_nnz(mode).sum() == small_tensor.nnz

    def test_output_rows_disjoint_across_gpus(self, skewed_tensor):
        plan = build_partition_plan(skewed_tensor, 4, shards_per_gpu=4)
        for mode in range(3):
            seen = set()
            for g in range(4):
                for lo, hi in plan.output_rows_for_gpu(mode, g):
                    for i in range(lo, hi):
                        assert i not in seen
                        seen.add(i)
            assert len(seen) == skewed_tensor.shape[mode]

    def test_lpt_balances_better_than_round_robin(self, skewed_tensor):
        lpt = build_partition_plan(skewed_tensor, 4, shards_per_gpu=8, policy="lpt")
        rr = build_partition_plan(
            skewed_tensor, 4, shards_per_gpu=8, policy="round_robin"
        )
        lpt.validate()
        rr.validate()
        from repro.partition.balance import load_imbalance

        imb_lpt = max(load_imbalance(lpt.gpu_nnz(m)) for m in range(3))
        imb_rr = max(load_imbalance(rr.gpu_nnz(m)) for m in range(3))
        assert imb_lpt <= imb_rr

    def test_explicit_shard_counts(self, small_tensor):
        plan = build_partition_plan(small_tensor, 2, n_shards=[3, 5, 2])
        plan.validate()
        assert [p.n_shards for p in plan.modes] == [3, 5, 2]

    def test_scalar_shard_count(self, small_tensor):
        plan = build_partition_plan(small_tensor, 2, n_shards=4)
        plan.validate()
        assert all(p.n_shards == 4 for p in plan.modes)

    def test_paper_shard_count(self):
        assert paper_shard_count(1000, 4) == 250
        assert paper_shard_count(3, 4) == 1  # at least one

    def test_invalid_args(self, small_tensor):
        with pytest.raises(PartitionError):
            build_partition_plan(small_tensor, 0)
        with pytest.raises(PartitionError):
            build_partition_plan(small_tensor, 2, policy="bogus")
        with pytest.raises(PartitionError):
            build_partition_plan(small_tensor, 2, n_shards=[1, 2])
