"""The execution-plan layer: resolve once, serialize, rebuild, run identical.

The contract under test (PR 10):

* :func:`plan_execution` resolves every ``"auto"`` axis to a concrete
  choice and prices the same dicts admission control and bench records
  consume;
* a plan made *without* building an executor (:func:`plan_tensor` /
  :func:`plan_shard_cache`) fingerprints identically to the plan the
  executor derives for the same config — the ``repro plan`` ==
  ``repro decompose`` fingerprint contract;
* a plan serialized to JSON, reloaded, and handed to
  :func:`build_executor` produces MTTKRP output **bit-identical** to the
  direct ``AmpedMTTKRP`` path across the (source × backend × prefetch)
  matrix;
* tampering, geometry drift, and profile drift are named errors, never
  silent re-decisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.engine.plan import (
    EXECUTION_PLAN_VERSION,
    ExecutionPlan,
    build_executor,
    plan_config,
    plan_execution,
    plan_shard_cache,
    plan_source,
    plan_tensor,
)
from repro.engine.source import CompressedChunkSource, InMemorySource
from repro.errors import ReproError
from repro.tensor.generate import zipf_coo
from repro.tensor.io import write_shard_cache_v2

N_GPUS = 2
SHARDS = 2
RANK = 5


@pytest.fixture(scope="module")
def tensor():
    return zipf_coo((18, 14, 10), 400, exponents=1.1, seed=5)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(21)
    return [rng.random((s, RANK)) for s in tensor.shape]


@pytest.fixture(scope="module")
def base_config():
    return AmpedConfig(n_gpus=N_GPUS, shards_per_gpu=SHARDS, rank=RANK)


@pytest.fixture(scope="module")
def mmap_cache(tensor, tmp_path_factory):
    return write_shard_cache_v2(
        tensor, tmp_path_factory.mktemp("plan") / "cache_none", codec="none"
    )


@pytest.fixture(scope="module")
def chunked_cache(tensor, tmp_path_factory):
    return write_shard_cache_v2(
        tensor, tmp_path_factory.mktemp("plan") / "cache_v2", codec="zlib"
    )


class TestPlanResolution:
    def test_auto_axes_resolve_to_concrete_choices(self, tensor, base_config):
        cfg = base_config.replace(backend="auto", kernel="auto")
        plan = plan_tensor(tensor, cfg)
        assert plan.backend in ("serial", "thread", "process", "cluster")
        assert plan.kernel != "auto"
        assert plan.workers >= 1
        assert plan.source == "inmem"
        assert plan.shape == tensor.shape and plan.nnz == tensor.nnz

    def test_executor_exposes_the_same_plan(self, tensor, base_config):
        with AmpedMTTKRP(tensor, base_config) as ex:
            direct = plan_tensor(tensor, base_config)
            assert ex.plan.fingerprint == direct.fingerprint
            assert ex.plan == direct
            # the engine stack was built from the plan, not alongside it
            assert ex.engine.batch_size == ex.plan.batch_size

    def test_plan_shard_cache_matches_executor_fingerprint(
        self, chunked_cache, base_config
    ):
        cfg = base_config.replace(
            out_of_core=True, shard_cache=str(chunked_cache)
        )
        planned = plan_shard_cache(chunked_cache, cfg)
        with AmpedMTTKRP.from_shard_cache(chunked_cache, cfg) as ex:
            assert planned.fingerprint == ex.plan.fingerprint
        # the v2 manifest's measured ratio fed the plan without an executor
        assert planned.cache_codec == "zlib"
        assert planned.codec_ratio is not None

    def test_plan_source_rejects_gpu_count_mismatch(self, tensor, base_config):
        source = InMemorySource.from_tensor(
            tensor, N_GPUS + 1, shards_per_gpu=SHARDS
        )
        with pytest.raises(ReproError, match="sharded for 3 GPUs"):
            plan_source(source, base_config)

    def test_plan_source_marks_a_cache_out_of_core(
        self, chunked_cache, base_config
    ):
        """An open cache turns a resident config into the out-of-core one
        the returned plan was priced for, and that plan is the one
        plan_shard_cache makes from the path alone."""
        with CompressedChunkSource(
            chunked_cache, n_gpus=N_GPUS, shards_per_gpu=SHARDS
        ) as source:
            config, workload, plan = plan_source(source, base_config)
        assert config.out_of_core
        assert config.shard_cache == str(chunked_cache)
        assert config.cache_codec == "zlib"
        assert workload.nnz == source.nnz
        assert plan.source == "shard_cache"
        assert (
            plan.fingerprint
            == plan_shard_cache(chunked_cache, base_config).fingerprint
        )

    @pytest.mark.parametrize("cache", ["mmap_cache", "chunked_cache"])
    def test_loaded_cache_plans_like_its_tensor(
        self, request, tensor, base_config, cache
    ):
        """A cache loaded into memory (``--shard-cache`` without
        ``--out-of-core``) plans with the fingerprint of the tensor it
        was written from."""
        path = request.getfixturevalue(cache)
        with CompressedChunkSource(path, n_gpus=N_GPUS) as source:
            loaded = source.tensor_view().as_coo()
        assert (
            plan_tensor(loaded, base_config).fingerprint
            == plan_tensor(tensor, base_config).fingerprint
        )

    def test_pricing_matches_admission_schema(self, tensor, base_config):
        plan = plan_tensor(tensor, base_config)
        for key in ("compute_s", "dispatch_s", "stall_s", "total_s",
                    "batch_size", "n_batches", "backend", "kernel"):
            assert key in plan.time_plan
        assert set(plan.memory_plan) == {
            "tensor_resident", "decompress_staging", "factor_matrices"
        }
        assert plan.time_plan["backend"] == plan.backend
        assert plan.time_plan["kernel"] == plan.kernel

    def test_cluster_plan_pins_topology(self, tensor, base_config):
        cfg = base_config.replace(backend="cluster", nodes=2)
        plan = plan_execution_for(tensor, cfg)
        assert plan.backend == "cluster"
        assert plan.nodes == 2
        assert plan.time_plan["backend"] == "cluster"
        assert "comm_s" in plan.time_plan

    def test_plan_config_round_trips_to_the_same_plan(
        self, tensor, base_config
    ):
        cfg = base_config.replace(backend="auto", kernel="auto")
        plan = plan_tensor(tensor, cfg)
        again = plan_tensor(tensor, plan_config(plan))
        assert again.fingerprint == plan.fingerprint


def plan_execution_for(tensor, cfg):
    """plan_tensor shorthand used where the config varies per test."""
    return plan_tensor(tensor, cfg)


class TestSerialization:
    def test_json_round_trip_is_identity(self, tensor, base_config):
        plan = plan_tensor(tensor, base_config)
        again = ExecutionPlan.from_json(plan.to_json())
        assert again == plan
        assert again.to_dict() == plan.to_dict()

    def test_fingerprint_stable_across_round_trips(self, tensor, base_config):
        plan = plan_tensor(tensor, base_config)
        d = plan.to_dict()
        for _ in range(3):
            d = ExecutionPlan.from_dict(d).to_dict()
        assert d["fingerprint"] == plan.fingerprint

    def test_tampered_payload_rejected(self, tensor, base_config):
        d = plan_tensor(tensor, base_config).to_dict()
        d["kernel"] = "numba"
        with pytest.raises(ReproError, match="fingerprint"):
            ExecutionPlan.from_dict(d)

    def test_unknown_and_missing_fields_named(self, tensor, base_config):
        d = plan_tensor(tensor, base_config).to_dict()
        with pytest.raises(ReproError, match="unknown"):
            ExecutionPlan.from_dict({**d, "surprise": 1})
        short = dict(d)
        del short["time_plan"]
        with pytest.raises(ReproError, match="time_plan"):
            ExecutionPlan.from_dict(short)

    def test_wrong_version_rejected(self, tensor, base_config):
        plan = plan_tensor(tensor, base_config)
        d = plan.to_dict()
        d["version"] = EXECUTION_PLAN_VERSION + 1
        # refresh the fingerprint so the version check itself fires
        import hashlib
        import json as _json

        body = {k: v for k, v in d.items() if k != "fingerprint"}
        d["fingerprint"] = hashlib.sha256(
            _json.dumps(body, sort_keys=True).encode()
        ).hexdigest()[:16]
        with pytest.raises(ReproError, match="version"):
            ExecutionPlan.from_dict(d)


class TestBuildExecutor:
    """Serialized → reloaded → built executes bit-identically to direct."""

    @pytest.mark.parametrize("source", ["inmem", "mmap", "chunked"])
    @pytest.mark.parametrize(
        "backend,workers", [("serial", 1), ("thread", 2)]
    )
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_round_tripped_plan_builds_bit_identical_executor(
        self, source, backend, workers, prefetch,
        tensor, factors, base_config, mmap_cache, chunked_cache,
    ):
        cfg = base_config.replace(
            backend=backend, workers=workers, prefetch=prefetch
        )
        if source == "inmem":
            direct = AmpedMTTKRP(tensor, cfg)
        else:
            cache = mmap_cache if source == "mmap" else chunked_cache
            cfg = cfg.replace(out_of_core=True, shard_cache=str(cache))
            direct = AmpedMTTKRP.from_shard_cache(cache, cfg)
        with direct:
            reloaded = ExecutionPlan.from_json(direct.plan.to_json())
            rebuilt = build_executor(
                reloaded, tensor=tensor if source == "inmem" else None
            )
            with rebuilt:
                assert rebuilt.plan.fingerprint == direct.plan.fingerprint
                for mode in range(tensor.nmodes):
                    assert np.array_equal(
                        rebuilt.mttkrp(factors, mode),
                        direct.mttkrp(factors, mode),
                    )

    def test_cluster_plan_rebuilds_bit_identical(
        self, tensor, factors, base_config
    ):
        cfg = base_config.replace(backend="cluster", nodes=2)
        with AmpedMTTKRP(tensor, cfg) as direct:
            want = direct.mttkrp(factors, 0)
            reloaded = ExecutionPlan.from_json(direct.plan.to_json())
        with build_executor(reloaded, tensor=tensor) as rebuilt:
            assert rebuilt._cluster_backend is not None
            assert np.array_equal(rebuilt.mttkrp(factors, 0), want)

    def test_inmem_plan_without_tensor_is_a_named_error(
        self, tensor, base_config
    ):
        plan = plan_tensor(tensor, base_config)
        with pytest.raises(ReproError, match="tensor"):
            build_executor(plan)

    def test_geometry_drift_is_a_named_error(self, tensor, base_config):
        plan = plan_tensor(tensor, base_config)
        other = zipf_coo((18, 14, 10), 300, exponents=1.1, seed=6)
        with pytest.raises(ReproError, match="geometry"):
            build_executor(plan, tensor=other)

    def test_profile_drift_is_a_named_error(self, tensor, base_config):
        from repro.engine.costmodel import HostProfile

        profile = HostProfile(hostname="elsewhere", reduce_bandwidth=9.9e9)
        plan = plan_execution_with_profile(tensor, base_config, profile)
        # rebuilding without the original profile prices differently —
        # the fingerprint check turns silent drift into a named error
        with pytest.raises(ReproError, match="host profile"):
            build_executor(plan, tensor=tensor)
        with build_executor(
            plan, tensor=tensor, host_profile=profile
        ) as ex:
            assert ex.plan.fingerprint == plan.fingerprint


def plan_execution_with_profile(tensor, cfg, profile):
    return plan_tensor(tensor, cfg.replace(host_profile=profile))
