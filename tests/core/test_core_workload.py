"""Tests for workload descriptors and cache-hit estimation."""

import numpy as np
import pytest

from repro.core.config import AmpedConfig
from repro.core.workload import (
    ModeWorkload,
    TensorWorkload,
    hit_rate_from_histogram,
)
from repro.engine.source import InMemorySource
from repro.errors import PartitionError
from repro.partition.plan import build_partition_plan
from repro.simgpu.kernel import KernelCostModel


class TestHitRate:
    def test_everything_fits(self):
        assert hit_rate_from_histogram(np.ones(10), 10) == 1.0
        assert hit_rate_from_histogram(np.ones(10), 100) == 1.0

    def test_no_cache(self):
        assert hit_rate_from_histogram(np.ones(10), 0) == 0.0

    def test_uniform_is_proportional(self):
        hit = hit_rate_from_histogram(np.ones(100), 25)
        assert hit == pytest.approx(0.25)

    def test_skew_beats_uniform(self):
        """Hot rows cached: skewed access distributions hit more."""
        skewed = np.zeros(100)
        skewed[:5] = 100.0
        skewed[5:] = 1.0
        assert hit_rate_from_histogram(skewed, 10) > hit_rate_from_histogram(
            np.ones(100), 10
        )

    def test_empty_histogram(self):
        assert hit_rate_from_histogram(np.empty(0), 5) == 1.0


class TestFromSource:
    def test_descriptor_consistency(self, skewed_tensor):
        plan = build_partition_plan(skewed_tensor, 4, shards_per_gpu=4)
        wl = TensorWorkload.from_source(
            InMemorySource(plan), KernelCostModel(), rank=8, name="sk"
        )
        assert wl.nnz == skewed_tensor.nnz
        assert wl.shape == skewed_tensor.shape
        assert wl.n_gpus == 4
        for m, mw in enumerate(wl.modes):
            assert mw.nnz == skewed_tensor.nnz
            assert mw.rows_per_gpu.sum() == skewed_tensor.shape[m]
            assert 0.0 <= mw.factor_hit <= 1.0

    def test_gpu_nnz_matches_plan(self, skewed_tensor):
        plan = build_partition_plan(skewed_tensor, 3, shards_per_gpu=4)
        wl = TensorWorkload.from_source(
            InMemorySource(plan), KernelCostModel(), rank=8
        )
        for m in range(3):
            assert np.array_equal(wl.modes[m].gpu_nnz(), plan.gpu_nnz(m))

    def test_factor_bytes(self, small_tensor):
        plan = build_partition_plan(small_tensor, 2, shards_per_gpu=2)
        wl = TensorWorkload.from_source(
            InMemorySource(plan), KernelCostModel(), rank=8
        )
        assert wl.factor_bytes(8) == sum(small_tensor.shape) * 8 * 4
        assert wl.input_factor_bytes(0, 8) == (
            (small_tensor.shape[1] + small_tensor.shape[2]) * 8 * 4
        )

    def test_small_factors_fully_cached(self, small_tensor):
        """Tiny functional tensors must estimate ~perfect cache hits."""
        plan = build_partition_plan(small_tensor, 2, shards_per_gpu=2)
        wl = TensorWorkload.from_source(
            InMemorySource(plan), KernelCostModel(), rank=8
        )
        for mw in wl.modes:
            assert mw.factor_hit == pytest.approx(1.0)


class TestValidation:
    def test_mode_order_enforced(self):
        mw = ModeWorkload(
            mode=1,
            extent=4,
            shard_nnz=np.array([2]),
            assignment=np.array([0]),
            rows_per_gpu=np.array([4]),
            factor_hit=1.0,
        )
        with pytest.raises(PartitionError, match="out of order"):
            TensorWorkload(name="x", shape=(4,), nnz=2, modes=(mw,))

    def test_bad_factor_hit(self):
        with pytest.raises(PartitionError):
            ModeWorkload(
                mode=0,
                extent=4,
                shard_nnz=np.array([2]),
                assignment=np.array([0]),
                rows_per_gpu=np.array([4]),
                factor_hit=1.5,
            )

    def test_misaligned_assignment(self):
        with pytest.raises(PartitionError):
            ModeWorkload(
                mode=0,
                extent=4,
                shard_nnz=np.array([2, 3]),
                assignment=np.array([0]),
                rows_per_gpu=np.array([4]),
                factor_hit=1.0,
            )
