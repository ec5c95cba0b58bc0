"""Unit tests for the host-pipeline cost model (repro.engine.costmodel).

The golden pin (``tests/golden/test_host_time_plan.py``) freezes the exact
arithmetic; this module covers the machinery around it — HostProfile
validation/persistence/versioning, profile resolution order (explicit >
``REPRO_HOST_PROFILE`` env var), the structure of ``host_time_plan``
(which terms appear for which backend / out-of-core / prefetch settings),
``backend="auto"`` resolution, and the AmpedConfig / AmpedMTTKRP wiring
including the measured stream-cache fraction behind ``batch_size="auto"``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.engine.costmodel import (
    DEFAULT_HOST_PROFILE,
    HOST_PROFILE_ENV,
    HOST_PROFILE_VERSION,
    HostProfile,
    cluster_time_plan,
    host_time_plan,
    load_host_profile,
    loopback_platform,
    rank_executions,
    resolve_auto_execution,
    resolve_host_profile,
)
from repro.errors import ReproError
from repro.simgpu.kernel import KernelCostModel
from repro.tensor.generate import zipf_coo


@pytest.fixture(scope="module")
def tensor():
    return zipf_coo((40, 30, 20), 1200, exponents=1.0, seed=9)


@pytest.fixture(scope="module")
def workload(tensor):
    ex = AmpedMTTKRP(tensor, AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2))
    return ex.workload


COST = KernelCostModel()


class TestHostProfile:
    def test_defaults_are_valid(self):
        HostProfile()  # must not raise

    def test_json_round_trip(self, tmp_path):
        profile = DEFAULT_HOST_PROFILE.replace(
            hostname="box", reduce_bandwidth=3.5e9,
            stream_cache_fraction=0.125,
        )
        path = profile.save(tmp_path / "p.json")
        loaded = load_host_profile(path)
        assert loaded == profile

    @pytest.mark.parametrize(
        "kw",
        [
            {"version": 0},
            {"memcpy_bandwidth": 0.0},
            {"reduce_bandwidth": -1.0},
            {"pipe_bandwidth": 0.0},
            {"serial_dispatch_s": -1e-6},
            {"thread_efficiency": 0.0},
            {"process_efficiency": 1.5},
            {"decompress_bandwidth": {"zlib": 0.0}},
            {"stream_cache_fraction": 0.0},
            {"stream_cache_fraction": 2.0},
            {"stream_cache_fraction": "lots"},
            {"loopback_bandwidth": 0.0},
            {"loopback_latency_s": -1e-6},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ReproError):
            HostProfile(**kw)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        data = DEFAULT_HOST_PROFILE.to_json().replace(
            f'"version": {HOST_PROFILE_VERSION}', '"version": 99'
        )
        path.write_text(data)
        with pytest.raises(ReproError, match="version 99"):
            load_host_profile(path)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(
            DEFAULT_HOST_PROFILE.to_json().replace(
                '"quick"', '"mystery": 1, "quick"'
            )
        )
        with pytest.raises(ReproError, match="mystery"):
            load_host_profile(path)

    def test_missing_file_error_is_actionable(self, tmp_path):
        with pytest.raises(ReproError, match="repro profile"):
            load_host_profile(tmp_path / "absent.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_host_profile(path)

    def test_decompress_rate_falls_back_to_none(self):
        profile = DEFAULT_HOST_PROFILE
        assert profile.decompress_rate(None) == profile.decompress_rate("none")
        assert profile.decompress_rate("made-up-codec") == pytest.approx(
            profile.decompress_bandwidth["none"]
        )


class TestResolveHostProfile:
    def test_none_without_env_is_none(self, monkeypatch):
        monkeypatch.delenv(HOST_PROFILE_ENV, raising=False)
        assert resolve_host_profile(None) is None

    def test_instance_passes_through(self):
        assert resolve_host_profile(DEFAULT_HOST_PROFILE) is DEFAULT_HOST_PROFILE

    def test_path_loads(self, tmp_path):
        path = DEFAULT_HOST_PROFILE.save(tmp_path / "p.json")
        assert resolve_host_profile(str(path)) == DEFAULT_HOST_PROFILE

    def test_env_var_consulted(self, tmp_path, monkeypatch):
        profile = DEFAULT_HOST_PROFILE.replace(hostname="from-env")
        path = profile.save(tmp_path / "env.json")
        monkeypatch.setenv(HOST_PROFILE_ENV, str(path))
        assert resolve_host_profile(None).hostname == "from-env"

    def test_bad_env_var_raises_named_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(HOST_PROFILE_ENV, str(tmp_path / "missing.json"))
        with pytest.raises(ReproError, match="cannot read host profile"):
            resolve_host_profile(None)

    def test_garbage_spec_rejected(self):
        with pytest.raises(ReproError, match="host_profile"):
            resolve_host_profile(123)


class TestHostTimePlan:
    def test_resident_serial_has_no_staging_or_ipc(self, workload):
        plan = host_time_plan(workload, AmpedConfig(rank=8, n_gpus=2), COST)
        assert plan["backend"] == "serial" and plan["workers"] == 1
        assert plan["staging_read_s"] == 0.0
        assert plan["decompress_s"] == 0.0
        assert plan["ipc_s"] == 0.0
        assert plan["compute_s"] > 0.0 and plan["dispatch_s"] > 0.0
        assert plan["total_s"] == pytest.approx(
            plan["compute_s"] + plan["dispatch_s"]
        )

    def test_process_charges_ipc_and_dispatch(self, workload):
        cfg = AmpedConfig(rank=8, n_gpus=2, backend="process", workers=2)
        plan = host_time_plan(workload, cfg, COST)
        assert plan["ipc_s"] > 0.0
        serial = host_time_plan(workload, AmpedConfig(rank=8, n_gpus=2), COST)
        # the pool speedup divides compute, the pipe adds IPC
        assert plan["compute_s"] < serial["compute_s"]
        assert plan["dispatch_s"] > serial["dispatch_s"]

    def test_out_of_core_mmap_charges_staging(self, workload):
        cfg = AmpedConfig(
            rank=8, n_gpus=2, out_of_core=True, shard_cache="x.npz",
            batch_size=128,
        )
        plan = host_time_plan(workload, cfg, COST)
        assert plan["staging_read_s"] > 0.0
        assert plan["decompress_s"] == 0.0  # v1 mmap: no codec
        assert plan["stall_s"] == plan["staging_read_s"]

    def test_v2_codec_charges_decompression(self, workload):
        cfg = AmpedConfig(
            rank=8, n_gpus=2, out_of_core=True, shard_cache="x.npz",
            cache_codec="zlib", batch_size=128,
        )
        plan = host_time_plan(workload, cfg, COST)
        assert plan["decompress_s"] > 0.0
        slower = host_time_plan(
            workload, cfg.replace(cache_codec="lzma"), COST
        )
        # the default profile decompresses lzma slower than zlib
        assert slower["decompress_s"] > plan["decompress_s"]

    def test_prefetch_overlaps_staging(self, workload):
        cfg = AmpedConfig(
            rank=8, n_gpus=2, out_of_core=True, shard_cache="x.npz",
            cache_codec="lzma", batch_size=128,
        )
        plain = host_time_plan(workload, cfg, COST)
        overlapped = host_time_plan(workload, cfg.replace(prefetch=True), COST)
        assert overlapped["stall_s"] < plain["stall_s"]
        assert overlapped["prefetch_overhead_s"] > 0.0
        # overlap hides staging behind compute+dispatch, never below zero
        expected = max(
            0.0,
            plain["staging_read_s"] + plain["decompress_s"]
            - (overlapped["compute_s"] + overlapped["dispatch_s"]),
        )
        assert overlapped["stall_s"] == pytest.approx(expected)

    def test_codec_ratio_scales_read_term(self, workload):
        cfg = AmpedConfig(
            rank=8, n_gpus=2, out_of_core=True, shard_cache="x.npz",
            cache_codec="zstd", batch_size=128,
        )
        lo = host_time_plan(workload, cfg, COST, codec_ratio=0.2)
        hi = host_time_plan(workload, cfg, COST, codec_ratio=0.8)
        assert hi["staging_read_s"] == pytest.approx(4 * lo["staging_read_s"])

    def test_auto_spelling_rejected_without_resolution(self, workload):
        cfg = AmpedConfig(rank=8, n_gpus=2, backend="auto")
        with pytest.raises(ReproError, match="resolve_auto_execution"):
            host_time_plan(workload, cfg, COST)

    def test_explicit_backend_override(self, workload):
        cfg = AmpedConfig(rank=8, n_gpus=2)
        plan = host_time_plan(workload, cfg, COST, backend=("thread", 4))
        assert plan["backend"] == "thread" and plan["workers"] == 4


class TestAutoBackend:
    AUTO = AmpedConfig(rank=8, n_gpus=2, backend="auto")

    def test_rank_executions_sorted_and_complete(self, workload):
        plans = rank_executions(workload, self.AUTO, COST)
        assert [p["backend"] for p in plans] != []
        assert {p["backend"] for p in plans} == {"serial", "thread", "process"}
        totals = [p["total_s"] for p in plans]
        assert totals == sorted(totals)

    def test_resolution_is_deterministic(self, workload):
        first = resolve_auto_execution(workload, self.AUTO, COST)
        assert resolve_auto_execution(workload, self.AUTO, COST) == first

    def test_dispatch_heavy_profile_prefers_serial(self, workload):
        # make every parallel dispatch ruinously expensive
        profile = DEFAULT_HOST_PROFILE.replace(
            thread_dispatch_s=10.0, process_task_s=10.0
        )
        _, name, workers = resolve_auto_execution(
            workload, self.AUTO, COST, profile
        )
        assert (name, workers) == ("serial", 1)

    def test_parallel_friendly_profile_prefers_parallel(self, workload):
        profile = DEFAULT_HOST_PROFILE.replace(
            thread_efficiency=1.0,
            thread_dispatch_s=0.0,
            serial_dispatch_s=0.0,
        )
        _, name, _ = resolve_auto_execution(
            workload, self.AUTO, COST, profile, workers=4,
        )
        assert name in ("thread", "process")

    def test_amped_pins_auto_backend(self, tensor):
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2, backend="auto")
        with AmpedMTTKRP(tensor, cfg) as ex:
            assert ex.config.backend in ("serial", "thread", "process")
            _, name, workers = resolve_auto_execution(
                ex.workload, cfg, ex.cost
            )
            assert ex.config.resolved_backend() == (name, workers)
            assert ex.engine.backend.name == name

    def test_auto_backend_is_bit_identical(self, tensor):
        rng = np.random.default_rng(3)
        factors = [rng.random((s, 8)) for s in tensor.shape]
        base_cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2)
        with AmpedMTTKRP(tensor, base_cfg) as base, AmpedMTTKRP(
            tensor, base_cfg.replace(backend="auto")
        ) as auto:
            for m in range(tensor.nmodes):
                assert np.array_equal(
                    auto.mttkrp(factors, m), base.mttkrp(factors, m)
                )

    def test_amped_plan_carries_time_plan(self, tensor):
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2)
        with AmpedMTTKRP(tensor, cfg) as ex:
            plan = ex.plan.time_plan
            assert plan["backend"] == "serial"
            assert plan["total_s"] > 0.0


class TestClusterTimePlan:
    """The N-node pricing extension: per-node pipelines through
    host_time_plan, the exchange through the repro.comm collectives over
    the measured loopback links."""

    def test_keeps_host_plan_schema(self, workload):
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2)
        single = host_time_plan(workload, cfg, COST)
        plan = cluster_time_plan(workload, cfg, COST, nodes=2)
        assert set(single) <= set(plan)
        assert plan["backend"] == "cluster"
        assert plan["nodes"] == 2
        assert plan["comm_s"] > 0.0 and plan["scatter_s"] > 0.0
        assert plan["total_s"] > 0.0

    def test_compute_scales_down_with_nodes(self, workload):
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2)
        p2 = cluster_time_plan(workload, cfg, COST, nodes=2)
        p4 = cluster_time_plan(workload, cfg, COST, nodes=4)
        assert p4["compute_s"] < p2["compute_s"]
        # ...but the exchange grows with participant count
        assert p4["comm_s"] > p2["comm_s"]

    def test_exchange_schedule_prices_differently(self, workload):
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2)
        ring = cluster_time_plan(workload, cfg, COST, nodes=3)
        direct = cluster_time_plan(
            workload, cfg.replace(allgather="direct"), COST, nodes=3
        )
        assert ring["allgather"] == "ring"
        assert direct["allgather"] == "direct"
        assert ring["comm_s"] != direct["comm_s"]

    def test_measured_loopback_drives_comm_term(self, workload):
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2)
        fast = DEFAULT_HOST_PROFILE.replace(
            loopback_bandwidth=100e9, loopback_latency_s=1e-7
        )
        slow = DEFAULT_HOST_PROFILE.replace(
            loopback_bandwidth=1e8, loopback_latency_s=1e-3
        )
        fast_plan = cluster_time_plan(workload, cfg, COST, fast, nodes=2)
        slow_plan = cluster_time_plan(workload, cfg, COST, slow, nodes=2)
        assert fast_plan["comm_s"] < slow_plan["comm_s"]

    def test_loopback_platform_prices_links(self):
        platform = loopback_platform(3, DEFAULT_HOST_PROFILE)
        assert platform.n_gpus == 3
        # every hop is one pickle frame: the v5 per-frame overhead rides
        # on top of the v4 latency + bytes/bandwidth link terms
        expected = (
            DEFAULT_HOST_PROFILE.loopback_latency_s
            + DEFAULT_HOST_PROFILE.loopback_frame_overhead_s
            + 1000 / DEFAULT_HOST_PROFILE.loopback_bandwidth
        )
        assert platform.p2p(0, 1, 1000, 2.0) == pytest.approx(2.0 + expected)

    def test_frame_overhead_drives_comm_term(self, workload):
        """The v5 small-message correction: a profile with a larger
        per-frame overhead must predict strictly more exchange time at
        identical bandwidth/latency, on both allgather schedules."""
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2)
        cheap = DEFAULT_HOST_PROFILE.replace(loopback_frame_overhead_s=1e-6)
        dear = DEFAULT_HOST_PROFILE.replace(loopback_frame_overhead_s=2e-3)
        for allgather in ("ring", "direct"):
            c = cluster_time_plan(
                workload, cfg.replace(allgather=allgather), COST, cheap,
                nodes=2,
            )
            d = cluster_time_plan(
                workload, cfg.replace(allgather=allgather), COST, dear,
                nodes=2,
            )
            assert d["comm_s"] > c["comm_s"], allgather

    def test_default_prices_the_loopback_bench_cell_near_its_measurement(
        self,
    ):
        """The built-in loopback figures price the 2-node ``bench`` smoke
        cell (twitch, nnz 2,000, rank 4) within 2x of the 2.5 ms median
        exchange recorded for it on a 2-vCPU VM (hostprofile.py says
        where the figure comes from). The timed trial checks the same
        claim against a live measurement; this pins it without timing."""
        from repro.bench.trials import TrialSpec
        from repro.datasets.profiles import profile_by_name
        from repro.datasets.synthetic import materialize

        spec = TrialSpec(nnz=2000, rank=4, backend="cluster", nodes=2)
        tensor = materialize(
            profile_by_name(spec.dataset), spec.nnz, seed=spec.seed
        )
        cfg = AmpedConfig(
            n_gpus=spec.n_gpus, rank=spec.rank,
            shards_per_gpu=spec.shards_per_gpu, backend="cluster",
            nodes=spec.nodes, host_profile=DEFAULT_HOST_PROFILE,
        )
        with AmpedMTTKRP(tensor, cfg) as ex:  # prices; starts no node
            comm_s = ex.plan.time_plan["comm_s"]
        measured_median_s = 2.5e-3
        assert measured_median_s / 2 < comm_s < measured_median_s * 2

    def test_auto_ranks_cluster_only_when_nodes_pinned(self, workload):
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2)
        without = rank_executions(workload, cfg, COST)
        assert "cluster" not in {plan["backend"] for plan in without}
        with_nodes = rank_executions(
            workload, cfg.replace(nodes=2), COST
        )
        assert "cluster" in {plan["backend"] for plan in with_nodes}
        # ranking stays sorted by predicted total
        totals = [plan["total_s"] for plan in with_nodes]
        assert totals == sorted(totals)


class TestKernelAxis:
    """The kernel tier in the cost model: per-tier rates (HostProfile v3),
    the ``kernel`` term of ``host_time_plan``, and the two-axis
    ``resolve_auto_execution`` search."""

    def test_kernel_rate_fallback(self):
        profile = DEFAULT_HOST_PROFILE.replace(
            reduce_bandwidth=2.0e9,
            kernel_reduce_bandwidth={"cc": 8.0e9},
        )
        assert profile.kernel_rate("cc") == 8.0e9
        # unmeasured tiers (and the pre-registry None) price at the
        # legacy reduce rate, so they tie rather than win or lose
        assert profile.kernel_rate("numba") == 2.0e9
        assert profile.kernel_rate("numpy") == 2.0e9
        assert profile.kernel_rate(None) == 2.0e9

    def test_nonpositive_kernel_rate_rejected(self):
        with pytest.raises(ReproError):
            HostProfile(kernel_reduce_bandwidth={"cc": 0.0})
        with pytest.raises(ReproError):
            HostProfile(kernel_reduce_bandwidth={"numba": -1.0})

    def test_v2_profile_files_rejected(self, tmp_path):
        """v2 files predate per-kernel calibration; the version gate must
        send users back to ``repro profile`` instead of silently pricing
        every tier at one rate."""
        path = tmp_path / "v2.json"
        path.write_text(
            DEFAULT_HOST_PROFILE.to_json().replace(
                f'"version": {HOST_PROFILE_VERSION}', '"version": 2'
            )
        )
        with pytest.raises(ReproError, match="version 2"):
            load_host_profile(path)

    def test_plan_names_its_kernel(self, workload):
        cfg = AmpedConfig(rank=8, n_gpus=2)
        assert host_time_plan(workload, cfg, COST)["kernel"] == "numpy"
        assert (
            host_time_plan(workload, cfg.replace(kernel="cc"), COST)["kernel"]
            == "cc"
        )
        plan = host_time_plan(workload, cfg, COST, kernel="cc")
        assert plan["kernel"] == "cc"  # explicit override beats the config

    def test_auto_kernel_rejected_without_resolution(self, workload):
        cfg = AmpedConfig(rank=8, n_gpus=2, kernel="auto")
        with pytest.raises(ReproError, match="resolve_auto_execution"):
            host_time_plan(workload, cfg, COST)

    def test_faster_tier_shrinks_compute_term(self, workload):
        profile = DEFAULT_HOST_PROFILE.replace(
            reduce_bandwidth=2.0e9,
            kernel_reduce_bandwidth={"numpy": 2.0e9, "cc": 8.0e9},
        )
        cfg = AmpedConfig(rank=8, n_gpus=2)
        slow = host_time_plan(workload, cfg, COST, profile, kernel="numpy")
        fast = host_time_plan(workload, cfg, COST, profile, kernel="cc")
        assert fast["compute_s"] == pytest.approx(slow["compute_s"] / 4)
        for key in ("dispatch_s", "ipc_s", "stall_s"):
            assert fast[key] == slow[key]  # only compute is repriced

    def test_rank_executions_covers_the_product(self, workload):
        from repro.engine.costmodel import rank_executions

        cfg = AmpedConfig(rank=8, n_gpus=2)
        plans = rank_executions(
            workload, cfg, COST,
            kernels=["numpy", "cc"],
            backends=[("serial", 1), ("thread", 2)],
        )
        assert len(plans) == 4
        assert {(p["kernel"], p["backend"]) for p in plans} == {
            ("numpy", "serial"), ("numpy", "thread"),
            ("cc", "serial"), ("cc", "thread"),
        }
        totals = [p["total_s"] for p in plans]
        assert totals == sorted(totals)

    def test_resolve_auto_execution_pins_concrete_backend(self, workload):
        """An explicit backend must survive an ``kernel="auto"`` search —
        only the kernel axis is ranked."""
        from repro.engine.costmodel import resolve_auto_execution

        cfg = AmpedConfig(
            rank=8, n_gpus=2, backend="thread", workers=3, kernel="auto"
        )
        kernel, backend, workers = resolve_auto_execution(workload, cfg, COST)
        assert (backend, workers) == ("thread", 3)
        assert kernel != "auto"

    def test_measured_rates_drive_the_kernel_choice(self, workload):
        from repro.engine.costmodel import resolve_auto_execution
        from repro.tensor.kernelreg import available_kernels

        if "cc" not in available_kernels():
            pytest.skip("no compiled tier on this host")
        cfg = AmpedConfig(rank=8, n_gpus=2, kernel="auto")
        # a profile where the compiled tier is slower than numpy: the
        # search must believe the measurements over the preference order
        profile = DEFAULT_HOST_PROFILE.replace(
            kernel_reduce_bandwidth={"numpy": 8.0e9, "cc": 1.0e9},
        )
        kernel, _, _ = resolve_auto_execution(workload, cfg, COST, profile)
        assert kernel == "numpy"
        flipped = DEFAULT_HOST_PROFILE.replace(
            kernel_reduce_bandwidth={"numpy": 1.0e9, "cc": 8.0e9},
        )
        kernel, _, _ = resolve_auto_execution(workload, cfg, COST, flipped)
        assert kernel == "cc"

    def test_amped_pins_auto_kernel(self, tensor):
        from repro.tensor.kernelreg import resolve_kernel_name

        cfg = AmpedConfig(
            n_gpus=2, rank=8, shards_per_gpu=2, kernel="auto"
        )
        with AmpedMTTKRP(tensor, cfg) as ex:
            assert ex.config.kernel != "auto"
            assert ex.config.kernel == ex.config.resolved_kernel()
            # unprofiled host: every tier ties, preference order decides
            assert ex.config.kernel == resolve_kernel_name("auto")

    def test_unresolved_auto_kernel_raises_in_resolved_kernel(self):
        cfg = AmpedConfig(n_gpus=2, rank=8, kernel="auto")
        with pytest.raises(ReproError, match="resolve_auto_execution"):
            cfg.resolved_kernel()

    def test_bad_kernel_name_rejected_at_config(self):
        from repro.errors import TensorFormatError

        with pytest.raises(TensorFormatError, match="kernel"):
            AmpedConfig(n_gpus=2, rank=8, kernel="fortran")


class TestConfigWiring:
    def test_host_profile_field_accepts_instance_and_path(self, tmp_path):
        path = DEFAULT_HOST_PROFILE.save(tmp_path / "p.json")
        by_path = AmpedConfig(host_profile=str(path))
        assert by_path.resolved_host_profile() == DEFAULT_HOST_PROFILE
        by_instance = AmpedConfig(host_profile=DEFAULT_HOST_PROFILE)
        assert by_instance.resolved_host_profile() is DEFAULT_HOST_PROFILE

    def test_bad_host_profile_path_fails_at_construction(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read host profile"):
            AmpedConfig(host_profile=str(tmp_path / "nope.json"))

    def test_profile_fraction_sizes_auto_batch(self):
        from repro.engine.autotune import auto_batch_size

        profile = DEFAULT_HOST_PROFILE.replace(stream_cache_fraction=1.0)
        cfg = AmpedConfig(
            out_of_core=True, shard_cache="x.npz", host_profile=profile
        )
        assert cfg.resolved_batch_size(COST, 3) == auto_batch_size(
            COST, 32, 3, profile=profile
        )
        assert cfg.resolved_batch_size(COST, 3) > cfg.replace(
            host_profile=DEFAULT_HOST_PROFILE
        ).resolved_batch_size(COST, 3)

    def test_unmeasured_profile_falls_through_to_builtin(self):
        from repro.engine.autotune import STREAM_CACHE_FRACTION, auto_batch_size

        measured = DEFAULT_HOST_PROFILE.replace(
            stream_cache_fraction=STREAM_CACHE_FRACTION
        )
        cfg = AmpedConfig(
            out_of_core=True, shard_cache="x.npz",
            host_profile=DEFAULT_HOST_PROFILE,  # stream_cache_fraction None
        )
        assert cfg.resolved_batch_size(COST, 3) == auto_batch_size(
            COST, 32, 3, profile=measured
        )


class TestMeasuredCodecRatioFeed:
    """PR 6 bugfix: the v2 manifest's real compressed/raw ratio reaches
    every prediction instead of the analytic per-codec default."""

    @pytest.fixture(scope="class")
    def zlib_cache(self, tmp_path_factory, tensor):
        from repro.tensor.io import write_shard_cache_v2

        return write_shard_cache_v2(
            tensor, tmp_path_factory.mktemp("v2") / "cache",
            codec="zlib", chunk_nnz=256,
        )

    def test_reader_and_source_expose_manifest_ratio(self, zlib_cache):
        from repro.engine.plan import cache_plan_inputs
        from repro.engine.source import CompressedChunkSource
        from repro.tensor.io import ChunkedCacheReader

        reader = ChunkedCacheReader(zlib_cache)
        try:
            ratio = reader.codec_ratio
        finally:
            reader.close()
        assert 0.0 < ratio < 1.0  # sorted int64/float64 columns compress
        _, planned = cache_plan_inputs(AmpedConfig(), zlib_cache)
        assert planned == pytest.approx(ratio)
        src = CompressedChunkSource(zlib_cache, n_gpus=2, shards_per_gpu=2)
        try:
            assert src.codec_ratio == pytest.approx(ratio)
        finally:
            src.close()

    def test_executor_feeds_measured_ratio_into_prediction(self, zlib_cache):
        from repro.engine.costmodel.timing import DEFAULT_CODEC_RATIO

        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2, batch_size=256)
        ex = AmpedMTTKRP.from_shard_cache(zlib_cache, cfg, name="ratio")
        with ex:
            measured_ratio = ex.cache_codec_ratio
            plan = ex.plan.time_plan
            default_plan = host_time_plan(ex.workload, ex.config, ex.cost)
        assert measured_ratio is not None
        assert measured_ratio != pytest.approx(DEFAULT_CODEC_RATIO["zlib"])
        # staging-read term scales linearly in the ratio
        assert plan["staging_read_s"] == pytest.approx(
            default_plan["staging_read_s"]
            * measured_ratio / DEFAULT_CODEC_RATIO["zlib"]
        )
        assert plan["staging_read_s"] != default_plan["staging_read_s"]

    def test_none_cache_priced_as_a_mapped_read(self, tmp_path, tensor):
        """A ``codec="none"`` cache is mapped: its staging is the mapped
        read of the raw bytes, whatever its manifest ratio, and nothing is
        decompressed."""
        from repro.tensor.io import write_shard_cache_v2

        cache = write_shard_cache_v2(
            tensor, tmp_path / "none_cache", codec="none"
        )
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2, batch_size=256)
        with AmpedMTTKRP.from_shard_cache(cache, cfg, name="none") as ex:
            assert ex.config.cache_codec == "none"
            plan = ex.plan.time_plan
            unread = host_time_plan(
                ex.workload, ex.config.replace(cache_codec=None), ex.cost
            )
            ratio = host_time_plan(
                ex.workload, ex.config, ex.cost, codec_ratio=0.1
            )
        assert plan["decompress_s"] == 0.0
        assert plan["staging_read_s"] > 0.0
        assert plan["staging_read_s"] == unread["staging_read_s"]
        assert plan["staging_read_s"] == ratio["staging_read_s"]

    def test_zstd_cache_ratio_changes_prediction(self, tmp_path, tensor):
        pytest.importorskip("zstandard")
        from repro.engine.costmodel.timing import DEFAULT_CODEC_RATIO
        from repro.tensor.io import write_shard_cache_v2

        cache = write_shard_cache_v2(
            tensor, tmp_path / "zstd_cache", codec="zstd", chunk_nnz=256
        )
        cfg = AmpedConfig(n_gpus=2, rank=8, shards_per_gpu=2, batch_size=256)
        ex = AmpedMTTKRP.from_shard_cache(cache, cfg, name="zstd")
        with ex:
            plan = ex.plan.time_plan
            analytic = host_time_plan(ex.workload, ex.config, ex.cost)
            ratio = ex.cache_codec_ratio
        assert ratio is not None
        assert ratio != pytest.approx(DEFAULT_CODEC_RATIO["zstd"])
        assert plan["staging_read_s"] != analytic["staging_read_s"]
