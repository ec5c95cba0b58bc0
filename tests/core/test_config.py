"""Tests for AmpedConfig."""

import pytest

from repro.core.config import AmpedConfig
from repro.engine.autotune import MIN_AUTO_BATCH, auto_batch_size
from repro.errors import ReproError
from repro.simgpu.kernel import KernelCostModel


class TestAmpedConfig:
    def test_paper_defaults(self):
        cfg = AmpedConfig()
        # §5.1.5: 4 GPUs, R = 32, theta (P) = 32
        assert cfg.n_gpus == 4
        assert cfg.rank == 32
        assert cfg.threadblock_cols == 32

    def test_with_gpus(self):
        cfg = AmpedConfig().with_gpus(2)
        assert cfg.n_gpus == 2
        assert cfg.rank == 32  # everything else preserved

    def test_replace(self):
        cfg = AmpedConfig().replace(allgather="direct", schedule="dynamic")
        assert cfg.allgather == "direct"
        assert cfg.schedule == "dynamic"

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_gpus": 0},
            {"rank": 0},
            {"threadblock_cols": -1},
            {"shards_per_gpu": 0},
            {"policy": "magic"},
            {"schedule": "sometimes"},
            {"allgather": "telepathy"},
            {"batch_size": 0},
            {"batch_size": -5},
            {"batch_size": "adaptive"},
            {"batch_size": ""},
            {"workers": 0},
            {"workers": -1},
            {"workers": 100_000},
            {"backend": "gpu"},
            {"backend": ""},
            {"backend": None},
            {"out_of_core": True},
            {"out_of_core": True, "shard_cache": None},
            {"out_of_core": True, "shard_cache": ""},
            {"cache_codec": "brotli"},
            {"cache_codec": ""},
            {"cache_chunk_nnz": 0},
            {"cache_chunk_nnz": -4},
            {"kernel": "gpu"},
            {"nodes": 0},
            {"cluster_addresses": ()},
            {"cluster_addresses": ("127.0.0.1:1",), "nodes": 2},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ReproError):
            AmpedConfig(**kw)

    def test_v2_cache_fields_accepted(self):
        cfg = AmpedConfig(
            out_of_core=True,
            shard_cache="t.npz",
            cache_codec="zstd",
            cache_chunk_nnz=4096,
        )
        assert cfg.cache_codec == "zstd" and cfg.cache_chunk_nnz == 4096
        # None means the v1 raw mmap format (the default)
        assert AmpedConfig().cache_codec is None
        assert AmpedConfig().cache_chunk_nnz is None

    def test_invalid_batch_size_message_is_clear(self):
        with pytest.raises(ReproError, match="batch_size must be >= 1"):
            AmpedConfig(batch_size=0)
        with pytest.raises(ReproError, match="workers must be in"):
            AmpedConfig(workers=0)
        with pytest.raises(ReproError, match="'auto'"):
            AmpedConfig(batch_size="adaptive")

    def test_out_of_core_error_is_actionable(self):
        with pytest.raises(ReproError, match="shard_cache"):
            AmpedConfig(out_of_core=True)
        with pytest.raises(ReproError, match="write_shard_cache_v2"):
            AmpedConfig(out_of_core=True)

    def test_engine_knob_defaults(self):
        cfg = AmpedConfig()
        assert cfg.batch_size == "auto"  # cache-model autotuning by default
        assert cfg.backend == "serial"
        assert cfg.workers == 1
        assert cfg.prefetch is False
        assert cfg.out_of_core is False
        assert cfg.shard_cache is None

    def test_engine_knobs_accepted(self):
        cfg = AmpedConfig(batch_size=4096, backend="thread", workers=8)
        assert cfg.batch_size == 4096
        assert cfg.workers == 8
        assert AmpedConfig(batch_size=None).batch_size is None
        assert AmpedConfig(batch_size="auto").batch_size == "auto"
        for backend in ("serial", "thread", "process"):
            assert AmpedConfig(backend=backend, workers=1).backend == backend
        assert AmpedConfig(prefetch=True).prefetch is True

    def test_out_of_core_accepted_with_cache(self):
        cfg = AmpedConfig(out_of_core=True, shard_cache="cache.npz")
        assert cfg.out_of_core is True
        assert cfg.shard_cache == "cache.npz"

    def test_frozen(self):
        cfg = AmpedConfig()
        with pytest.raises(Exception):
            cfg.n_gpus = 8  # type: ignore[misc]


class TestResolvedBackend:
    """`backend` names the backend; `workers` only sizes it."""

    def test_default_is_serial(self):
        assert AmpedConfig().resolved_backend() == ("serial", 1)

    def test_serial_with_workers_rejected(self):
        """The serial backend runs in the calling thread: asking it for a
        pool is a named error that says which backend to name instead."""
        with pytest.raises(ReproError, match='backend="thread"'):
            AmpedConfig(workers=2)
        with pytest.raises(ReproError, match='backend="thread"'):
            AmpedConfig(backend="serial", workers=4)

    def test_explicit_backend_passes_through(self):
        assert AmpedConfig(backend="thread", workers=2).resolved_backend() == (
            "thread", 2,
        )
        assert AmpedConfig(backend="process", workers=3).resolved_backend() == (
            "process", 3,
        )

    def test_stream_lanes_counts_workers_and_prefetch(self):
        assert AmpedConfig().stream_lanes() == 1
        assert AmpedConfig(backend="thread", workers=4).stream_lanes() == 4
        assert AmpedConfig(backend="process", workers=2, prefetch=True
                           ).stream_lanes() == 3

    def test_routes_into_executor_backend(self):
        """AmpedMTTKRP builds its engine from the resolved backend pair."""
        import numpy as np

        from repro.core.amped import AmpedMTTKRP
        from repro.tensor.generate import zipf_coo

        tensor = zipf_coo((12, 10, 8), 200, exponents=1.0, seed=3)
        cfg = AmpedConfig(
            n_gpus=2, rank=4, shards_per_gpu=2, backend="thread", workers=2,
            prefetch=True,
        )
        with AmpedMTTKRP(tensor, cfg) as ex:
            assert ex.engine.backend.name == "thread"
            assert ex.engine.backend.workers == 2
            assert ex.engine.prefetch is True
            rng = np.random.default_rng(0)
            factors = [rng.random((s, 4)) for s in tensor.shape]
            baseline = AmpedMTTKRP(
                tensor, AmpedConfig(n_gpus=2, rank=4, shards_per_gpu=2)
            )
            assert np.array_equal(
                ex.mttkrp(factors, 0), baseline.mttkrp(factors, 0)
            )


class TestStreamCacheFraction:
    """A measured host profile's stream_cache_fraction threads into batch
    autotuning; without one the built-in fraction applies."""

    def test_measured_fraction_changes_auto_batch(self):
        from repro.engine.costmodel import DEFAULT_HOST_PROFILE

        cost = KernelCostModel()
        profile = DEFAULT_HOST_PROFILE.replace(stream_cache_fraction=1.0)
        base = AmpedConfig(out_of_core=True, shard_cache="x.npz")
        wide = base.replace(host_profile=profile)
        assert wide.resolved_batch_size(cost, 3) > base.resolved_batch_size(
            cost, 3
        )
        assert wide.resolved_batch_size(cost, 3) == auto_batch_size(
            cost, 32, 3, profile=profile
        )

    def test_config_has_no_fraction_override(self):
        with pytest.raises(TypeError):
            AmpedConfig(stream_cache_fraction=0.5)


class TestResolvedBatchSize:
    """`batch_size="auto"` resolution is source-residency aware."""

    def test_auto_resident_is_eager(self):
        cfg = AmpedConfig()  # batch_size="auto", in-memory
        assert cfg.resolved_batch_size(KernelCostModel(), nmodes=3) is None

    def test_auto_out_of_core_is_cache_model(self):
        cfg = AmpedConfig(out_of_core=True, shard_cache="x.npz")
        cost = KernelCostModel()
        resolved = cfg.resolved_batch_size(cost, nmodes=3)
        assert resolved == auto_batch_size(cost, 32, 3)
        assert resolved >= MIN_AUTO_BATCH

    def test_explicit_values_pass_through(self):
        cost = KernelCostModel()
        assert AmpedConfig(batch_size=None).resolved_batch_size(cost, 3) is None
        assert AmpedConfig(batch_size=777).resolved_batch_size(cost, 3) == 777
        cfg = AmpedConfig(batch_size=777, out_of_core=True, shard_cache="x")
        assert cfg.resolved_batch_size(cost, 3) == 777

    def test_auto_scales_with_rank_and_cache(self):
        cfg = AmpedConfig(out_of_core=True, shard_cache="x.npz")
        cost = KernelCostModel()
        big_rank = cfg.replace(rank=128)
        assert big_rank.resolved_batch_size(cost, 3) <= cfg.resolved_batch_size(
            cost, 3
        )
        small_cache = cost.with_overrides(effective_cache_bytes=8 * 2**20)
        assert cfg.resolved_batch_size(small_cache, 3) <= cfg.resolved_batch_size(
            cost, 3
        )


class TestEnvValidationAtConstruction:
    """A malformed host profile fails *at config resolution* as a named
    ReproError — never as a bare ValueError deep inside batch autotuning."""

    def test_bad_host_profile_env_rejected_eagerly(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_HOST_PROFILE", str(tmp_path / "nope.json"))
        with pytest.raises(ReproError, match="cannot read host profile"):
            AmpedConfig()

    @pytest.mark.parametrize("bad", [1.5, "lots"])
    def test_profile_fraction_out_of_domain_rejected_eagerly(
        self, monkeypatch, tmp_path, bad
    ):
        import json

        from repro.engine.costmodel import DEFAULT_HOST_PROFILE

        data = json.loads(DEFAULT_HOST_PROFILE.to_json())
        data["stream_cache_fraction"] = bad
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        monkeypatch.setenv("REPRO_HOST_PROFILE", str(path))
        with pytest.raises(ReproError, match="stream_cache_fraction"):
            AmpedConfig()

    @pytest.mark.parametrize("value", ["lots", "1.5", "0", "-0.25", "nan"])
    def test_retired_fraction_env_has_no_effect(self, monkeypatch, value):
        """REPRO_STREAM_CACHE_FRACTION is no longer read: whatever a shell
        still exports, construction succeeds and the auto batch is the one
        of an unset environment."""
        cost = KernelCostModel()
        monkeypatch.delenv("REPRO_STREAM_CACHE_FRACTION", raising=False)
        expected = AmpedConfig(
            out_of_core=True, shard_cache="x.npz"
        ).resolved_batch_size(cost, 3)
        monkeypatch.setenv("REPRO_STREAM_CACHE_FRACTION", value)
        cfg = AmpedConfig(out_of_core=True, shard_cache="x.npz")
        assert cfg.resolved_batch_size(cost, 3) == expected


class TestAutoBackendConfig:
    def test_auto_accepted(self):
        assert AmpedConfig(backend="auto").backend == "auto"

    def test_auto_with_workers_accepted(self):
        cfg = AmpedConfig(backend="auto", workers=4)
        assert cfg.backend == "auto" and cfg.workers == 4

    def test_resolved_backend_refuses_unresolved_auto(self):
        with pytest.raises(ReproError, match="resolve_auto_execution"):
            AmpedConfig(backend="auto").resolved_backend()

    def test_stream_lanes_needs_resolution_too(self):
        with pytest.raises(ReproError, match="resolve_auto_execution"):
            AmpedConfig(backend="auto").stream_lanes()

    def test_other_spellings_still_rejected(self):
        with pytest.raises(ReproError, match="backend"):
            AmpedConfig(backend="automatic")


class TestHostProfilePinning:
    """The host profile is loaded once at construction and pinned: what was
    validated is exactly what runs, regardless of later file changes."""

    def test_path_normalized_to_instance(self, tmp_path):
        from repro.engine.costmodel import DEFAULT_HOST_PROFILE, HostProfile

        path = DEFAULT_HOST_PROFILE.save(tmp_path / "p.json")
        cfg = AmpedConfig(host_profile=str(path))
        assert isinstance(cfg.host_profile, HostProfile)
        path.unlink()  # file gone: the pinned instance must keep working
        assert cfg.resolved_host_profile() == DEFAULT_HOST_PROFILE

    def test_env_var_pinned_at_construction(self, tmp_path, monkeypatch):
        from repro.engine.costmodel import DEFAULT_HOST_PROFILE, HostProfile

        path = DEFAULT_HOST_PROFILE.replace(hostname="pinned").save(
            tmp_path / "env.json"
        )
        monkeypatch.setenv("REPRO_HOST_PROFILE", str(path))
        cfg = AmpedConfig()
        assert isinstance(cfg.host_profile, HostProfile)
        monkeypatch.setenv("REPRO_HOST_PROFILE", str(tmp_path / "gone.json"))
        assert cfg.resolved_host_profile().hostname == "pinned"
