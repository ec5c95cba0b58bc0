"""Tests for the Algorithm 1 timing simulation."""

import numpy as np
import pytest

from repro.core.config import AmpedConfig
from repro.core.simulate import amped_memory_plan, host_memory_plan, simulate_amped
from repro.core.workload import TensorWorkload
from repro.datasets.profiles import AMAZON, REDDIT
from repro.engine.autotune import auto_batch_size
from repro.datasets.workload import paper_workload
from repro.errors import SimulationError
from repro.simgpu.device import GPUSpec
from repro.simgpu.kernel import KernelCostModel
from repro.simgpu.platform import MultiGPUPlatform
from repro.simgpu.presets import (
    EPYC_9654_DUAL,
    PCIE_GEN4_X16,
    P2P_PCIE,
    paper_platform,
)
from repro.simgpu.trace import Category


@pytest.fixture
def cost():
    return KernelCostModel()


@pytest.fixture
def amazon_wl(cost):
    return paper_workload(AMAZON, AmpedConfig(), cost)


class TestSimulateAmped:
    def test_basic_run(self, amazon_wl, cost):
        res = simulate_amped(paper_platform(4), cost, amazon_wl, AmpedConfig())
        assert res.ok
        assert res.total_time > 0
        assert len(res.mode_times) == 3
        assert res.per_gpu_compute.shape == (4,)

    def test_mode_times_ordered_and_cover_total(self, amazon_wl, cost):
        res = simulate_amped(paper_platform(4), cost, amazon_wl, AmpedConfig())
        prev_end = 0.0
        for mt in res.mode_times:
            assert mt.start == pytest.approx(prev_end)
            assert mt.compute_done >= mt.start
            assert mt.end >= mt.compute_done
            prev_end = mt.end
        assert prev_end == pytest.approx(res.total_time)

    def test_timeline_has_all_categories(self, amazon_wl, cost):
        res = simulate_amped(paper_platform(4), cost, amazon_wl, AmpedConfig())
        tl = res.timeline
        assert tl.busy_time(category=Category.COMPUTE) > 0
        assert tl.busy_time(category=Category.H2D) > 0
        assert tl.busy_time(category=Category.P2P) > 0

    def test_gpu_count_mismatch_rejected(self, amazon_wl, cost):
        with pytest.raises(SimulationError):
            simulate_amped(paper_platform(2), cost, amazon_wl, AmpedConfig())
        with pytest.raises(SimulationError):
            simulate_amped(
                paper_platform(2), cost, amazon_wl, AmpedConfig(n_gpus=2)
            )

    def test_dynamic_schedule_runs(self, amazon_wl, cost):
        cfg = AmpedConfig(schedule="dynamic")
        res = simulate_amped(paper_platform(4), cost, amazon_wl, cfg)
        assert res.ok and res.total_time > 0

    def test_direct_allgather_runs(self, amazon_wl, cost):
        cfg = AmpedConfig(allgather="direct")
        res = simulate_amped(paper_platform(4), cost, amazon_wl, cfg)
        assert res.ok and res.total_time > 0

    def test_double_buffer_helps(self, amazon_wl, cost):
        fast = simulate_amped(
            paper_platform(4), cost, amazon_wl, AmpedConfig(double_buffer=True)
        )
        slow = simulate_amped(
            paper_platform(4), cost, amazon_wl, AmpedConfig(double_buffer=False)
        )
        assert fast.total_time < slow.total_time

    def test_memory_freed_after_run(self, amazon_wl, cost):
        plat = paper_platform(4)
        simulate_amped(plat, cost, amazon_wl, AmpedConfig())
        for g in range(4):
            assert plat.gpu(g).memory.used == 0

    def test_oom_produces_error_result(self, amazon_wl, cost):
        tiny_gpu = GPUSpec(
            name="tiny", n_sms=8, fp32_tflops=1.0,
            mem_capacity=64 * 2**20, mem_bandwidth=100e9,
        )
        plat = MultiGPUPlatform(
            gpu_spec=tiny_gpu, n_gpus=4, host=EPYC_9654_DUAL,
            host_link=PCIE_GEN4_X16, p2p_link=P2P_PCIE,
        )
        res = simulate_amped(plat, cost, amazon_wl, AmpedConfig())
        assert not res.ok
        assert "runtime error" in res.error
        for g in range(4):
            assert plat.gpu(g).memory.used == 0  # rollback on OOM

    def test_more_gpus_is_faster(self, cost):
        times = {}
        for m in (1, 2, 4):
            cfg = AmpedConfig(n_gpus=m)
            wl = paper_workload(REDDIT, cfg, cost)
            times[m] = simulate_amped(paper_platform(m), cost, wl, cfg).total_time
        assert times[4] < times[2] < times[1]


class TestMemoryPlan:
    def test_plan_contents(self, amazon_wl, cost):
        plan = amped_memory_plan(amazon_wl, AmpedConfig(), cost)
        assert plan["factor_matrices"] == amazon_wl.factor_bytes(32)
        assert plan["shard_staging"] > 0

    def test_single_buffer_halves_staging(self, amazon_wl, cost):
        dbl = amped_memory_plan(amazon_wl, AmpedConfig(double_buffer=True), cost)
        sgl = amped_memory_plan(amazon_wl, AmpedConfig(double_buffer=False), cost)
        assert dbl["shard_staging"] == 2 * sgl["shard_staging"]

    def test_manual_batch_bounds_staging(self, amazon_wl, cost):
        batched = amped_memory_plan(amazon_wl, AmpedConfig(batch_size=1000), cost)
        assert batched["shard_staging"] == 2 * 1000 * cost.coo_element_bytes(3)

    def test_out_of_core_auto_bounds_staging(self, amazon_wl, cost):
        """batch_size="auto" out of core stages O(batch), not O(shard)."""
        cfg = AmpedConfig(out_of_core=True, shard_cache="amazon.npz")
        plan = amped_memory_plan(amazon_wl, cfg, cost)
        batch = auto_batch_size(cost, cfg.rank, 3)
        assert plan["shard_staging"] == 2 * batch * cost.coo_element_bytes(3)
        eager = amped_memory_plan(amazon_wl, AmpedConfig(batch_size=None), cost)
        assert plan["shard_staging"] < eager["shard_staging"]


class TestHostMemoryPlan:
    """The accounting that separates in-memory from out-of-core residency."""

    def test_resident_path_is_o_nnz(self, amazon_wl, cost):
        plan = host_memory_plan(amazon_wl, AmpedConfig(), cost)
        assert plan["tensor_resident"] == (
            3 * amazon_wl.nnz * cost.host_element_bytes(3)
        )

    def test_out_of_core_is_o_batch_not_o_nnz(self, amazon_wl, cost):
        """Peak resident tensor bytes are bounded by the batch, independent
        of nnz — the out-of-core acceptance criterion."""
        cfg = AmpedConfig(
            out_of_core=True, shard_cache="amazon.npz", batch_size=5000
        )
        plan = host_memory_plan(amazon_wl, cfg, cost)
        assert plan["tensor_resident"] == 2 * 5000 * cost.host_element_bytes(3)
        # same config, 2.7x-larger tensor: identical resident bound
        reddit_wl = paper_workload(REDDIT, AmpedConfig(), cost)
        assert (
            host_memory_plan(reddit_wl, cfg, cost)["tensor_resident"]
            == plan["tensor_resident"]
        )
        # while the in-memory residency scales with nnz
        assert (
            host_memory_plan(reddit_wl, AmpedConfig(), cost)["tensor_resident"]
            > host_memory_plan(amazon_wl, AmpedConfig(), cost)["tensor_resident"]
        )

    def test_out_of_core_auto_uses_cache_model(self, amazon_wl, cost):
        cfg = AmpedConfig(out_of_core=True, shard_cache="amazon.npz")
        plan = host_memory_plan(amazon_wl, cfg, cost)
        batch = auto_batch_size(cost, cfg.rank, 3)
        assert plan["tensor_resident"] == 2 * batch * cost.host_element_bytes(3)

    def test_out_of_core_charges_one_window_per_stream_lane(
        self, amazon_wl, cost
    ):
        """Backend workers and the prefetcher each stage their own batch
        window; double buffering adds one more — the backend-aware host
        accounting (defaults stay the classic two windows)."""
        base = AmpedConfig(
            out_of_core=True, shard_cache="amazon.npz", batch_size=5000
        )
        elem = cost.host_element_bytes(3)
        cases = [
            (base, 2),  # 1 lane + double buffer
            (base.replace(double_buffer=False), 1),
            (base.replace(backend="process", workers=4), 5),
            (base.replace(backend="thread", workers=2, prefetch=True), 4),
            (base.replace(backend="thread", workers=3, double_buffer=False), 3),
        ]
        for cfg, windows in cases:
            plan = host_memory_plan(amazon_wl, cfg, cost)
            assert plan["tensor_resident"] == windows * 5000 * elem, cfg

    def test_v2_compressed_cache_charges_decompress_staging(
        self, amazon_wl, cost
    ):
        """A v2 chunked/compressed cache double-buffers two decompressed
        chunks per stream lane; the raw formats charge nothing."""
        elem = cost.host_element_bytes(3)
        base = AmpedConfig(
            out_of_core=True, shard_cache="amazon.npz", batch_size=5000
        )
        assert host_memory_plan(amazon_wl, base, cost)[
            "decompress_staging"
        ] == 0  # v1 mmap
        raw_v2 = base.replace(cache_codec="none", cache_chunk_nnz=4096)
        assert host_memory_plan(amazon_wl, raw_v2, cost)[
            "decompress_staging"
        ] == 0  # uncompressed frames decompress in place
        zlib_v2 = base.replace(cache_codec="zlib", cache_chunk_nnz=4096)
        plan = host_memory_plan(amazon_wl, zlib_v2, cost)
        assert plan["decompress_staging"] == 1 * 2 * 4096 * elem
        wide = zlib_v2.replace(backend="process", workers=4, prefetch=True)
        assert host_memory_plan(amazon_wl, wide, cost)[
            "decompress_staging"
        ] == 5 * 2 * 4096 * elem  # one double buffer per stream lane
        # resident runs never stage decompression
        assert host_memory_plan(amazon_wl, AmpedConfig(), cost)[
            "decompress_staging"
        ] == 0

    def test_v2_default_chunk_when_unset(self, amazon_wl, cost):
        from repro.tensor.io_v2 import DEFAULT_CHUNK_NNZ

        cfg = AmpedConfig(
            out_of_core=True, shard_cache="a.npz", batch_size=5000,
            cache_codec="zstd",
        )
        plan = host_memory_plan(amazon_wl, cfg, cost)
        assert plan["decompress_staging"] == (
            2 * DEFAULT_CHUNK_NNZ * cost.host_element_bytes(3)
        )

    def test_factor_matrices_always_resident(self, amazon_wl, cost):
        cfg = AmpedConfig(out_of_core=True, shard_cache="amazon.npz")
        for config in (AmpedConfig(), cfg):
            plan = host_memory_plan(amazon_wl, config, cost)
            assert plan["factor_matrices"] == amazon_wl.factor_bytes(
                32, cost.host_value_bytes
            )

    def test_simulate_rejects_tensor_larger_than_host_ram(self, amazon_wl, cost):
        """A resident run that cannot fit host RAM errors out with a pointer
        to the out-of-core path; the out-of-core run proceeds."""
        from repro.simgpu.device import HostSpec
        from repro.simgpu.presets import PCIE_GEN4_X16, P2P_PCIE, RTX6000_ADA

        # 4 GiB: holds the factor matrices (~2.2 GB at amazon scale) and the
        # batch windows, but nowhere near the 163 GB resident element list.
        tiny_host = HostSpec(
            name="tiny", n_cores=8, fp32_tflops=1.0,
            mem_capacity=4 * 2**30, mem_bandwidth=100e9,
        )
        plat = MultiGPUPlatform(
            gpu_spec=RTX6000_ADA, n_gpus=4, host=tiny_host,
            host_link=PCIE_GEN4_X16, p2p_link=P2P_PCIE,
        )
        res = simulate_amped(plat, cost, amazon_wl, AmpedConfig())
        assert not res.ok
        assert "out of core" in res.error
        plat.reset()
        ooc = simulate_amped(
            plat, cost, amazon_wl,
            AmpedConfig(out_of_core=True, shard_cache="amazon.npz"),
        )
        assert ooc.ok
