"""Unit tests for the pluggable execution backends and the prefetch layer.

The equivalence matrices (``test_sources.py``, ``tests/golden/``) prove the
numerical contract — every ``(source, batch_size, backend, prefetch)`` cell
is bit-identical. This module covers the machinery itself: the shared
worker/backend validation (the single source of truth), backend lifecycle
(persistent pools, deterministic close, context managers), the process
backend's attachment strategy (mmap caches are never copied into workers;
resident modes are published to shared memory once), and
:class:`PrefetchingSource` delivery semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    BACKEND_NAMES,
    MAX_WORKERS,
    InMemorySource,
    LoadedBatch,
    MmapNpzSource,
    PrefetchingSource,
    ProcessBackend,
    SerialBackend,
    StreamingExecutor,
    ThreadBackend,
    create_backend,
    validate_backend_name,
    validate_workers,
)
from repro.engine.batch import build_batch_plan
from repro.errors import ReproError
from repro.partition.plan import build_partition_plan
from repro.tensor.generate import zipf_coo
from repro.tensor.io import write_shard_cache

N_GPUS = 2
SHARDS_PER_GPU = 3


@pytest.fixture(scope="module")
def tensor():
    return zipf_coo((30, 20, 25), 900, exponents=(1.1, 0.9, 1.0), seed=5)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(17)
    return [rng.random((s, 5)) for s in tensor.shape]


@pytest.fixture(scope="module")
def plan(tensor):
    return build_partition_plan(tensor, N_GPUS, shards_per_gpu=SHARDS_PER_GPU)


@pytest.fixture(scope="module")
def cache_path(tensor, tmp_path_factory):
    return write_shard_cache(tensor, tmp_path_factory.mktemp("bk") / "t.npz")


@pytest.fixture(scope="module")
def eager(tensor, factors, plan):
    engine = StreamingExecutor(plan)
    return [engine.mttkrp(factors, m) for m in range(tensor.nmodes)]


class TestSharedValidation:
    """Worker/backend domains live once in the backend layer."""

    @pytest.mark.parametrize("bad", [0, -1, MAX_WORKERS + 1, 100_000])
    def test_validate_workers_rejects(self, bad):
        with pytest.raises(ReproError, match="workers must be in"):
            validate_workers(bad)

    def test_validate_workers_bounds(self):
        assert validate_workers(1) == 1
        assert validate_workers(MAX_WORKERS) == MAX_WORKERS

    @pytest.mark.parametrize("bad", ["pool", "", None, 3, "Serial"])
    def test_validate_backend_name_rejects(self, bad):
        with pytest.raises(ReproError, match="backend must be one of"):
            validate_backend_name(bad)

    def test_registry_names(self):
        assert BACKEND_NAMES == ("serial", "thread", "process", "cluster")
        for name in BACKEND_NAMES:
            assert validate_backend_name(name) == name

    def test_config_and_executor_share_the_check(self, plan):
        """AmpedConfig and StreamingExecutor both fail through the one
        backend-layer validator (same message, same bounds)."""
        from repro.core.config import AmpedConfig

        with pytest.raises(ReproError, match="workers must be in"):
            AmpedConfig(workers=0)
        with pytest.raises(ReproError, match="workers must be in"):
            StreamingExecutor(plan, workers=0)
        with pytest.raises(ReproError, match="backend must be one of"):
            AmpedConfig(backend="gpu")
        with pytest.raises(ReproError, match="backend must be one of"):
            StreamingExecutor(plan, backend="gpu")


class TestCreateBackend:
    def test_names_map_to_classes(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("thread", 3), ThreadBackend)
        assert isinstance(create_backend("process", 2), ProcessBackend)

    def test_no_backend_means_serial(self):
        """``None`` is the serial backend; a pool must be named."""
        assert isinstance(create_backend(None, 1), SerialBackend)
        with pytest.raises(ReproError, match='backend="thread"'):
            create_backend(None, 4)
        b = create_backend("thread", 4)
        assert isinstance(b, ThreadBackend) and b.workers == 4

    def test_instance_passes_through(self):
        b = ThreadBackend(2)
        assert create_backend(b) is b
        b.close()

    def test_instance_plus_workers_conflicts(self, plan):
        """A backend instance owns its worker count; a second one is a
        silent misconfiguration and must be rejected."""
        b = ThreadBackend(2)
        with pytest.raises(ReproError, match="conflicts"):
            create_backend(b, 8)
        with pytest.raises(ReproError, match="conflicts"):
            StreamingExecutor(plan, backend=b, workers=8)
        b.close()

    def test_serial_rejects_workers(self):
        with pytest.raises(ReproError, match="workers must be 1"):
            SerialBackend(workers=3)
        with pytest.raises(ReproError, match="workers must be 1"):
            create_backend("serial", 3)

    def test_capability_flags(self):
        assert not SerialBackend.parallel
        assert ThreadBackend.parallel and not ThreadBackend.crosses_processes
        assert ProcessBackend.parallel and ProcessBackend.crosses_processes


class TestLifecycle:
    def test_thread_pool_persists_across_calls(self, plan, factors, eager):
        backend = ThreadBackend(2)
        engine = StreamingExecutor(plan, batch_size=32, backend=backend)
        engine.mttkrp(factors, 0)
        pool_after_first = backend._pool
        assert pool_after_first is not None
        out = engine.mttkrp(factors, 0)
        assert backend._pool is pool_after_first  # no per-call churn
        assert np.array_equal(out, eager[0])
        backend.close()
        assert backend._pool is None and backend.closed

    def test_closed_backend_refuses_work(self, plan, factors):
        backend = ThreadBackend(2)
        backend.close()
        engine = StreamingExecutor(plan, backend=backend)
        with pytest.raises(ReproError, match="closed"):
            engine.mttkrp(factors, 0)

    def test_close_is_idempotent(self):
        for backend in (SerialBackend(), ThreadBackend(2), ProcessBackend(1)):
            backend.close()
            backend.close()
            assert backend.closed

    def test_backend_context_manager(self):
        with ThreadBackend(2) as backend:
            assert not backend.closed
        assert backend.closed

    def test_executor_closes_owned_backend(self, plan, factors):
        with StreamingExecutor(plan, backend="thread", workers=2) as engine:
            engine.mttkrp(factors, 0)
            backend = engine.backend
            assert not backend.closed
        assert backend.closed

    def test_executor_leaves_shared_backend_open(self, plan, factors):
        backend = ThreadBackend(2)
        with StreamingExecutor(plan, backend=backend) as engine:
            engine.mttkrp(factors, 0)
        assert not backend.closed  # caller owns it
        backend.close()

    def test_amped_close_releases_engine(self, tensor, factors):
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        cfg = AmpedConfig(
            n_gpus=N_GPUS, rank=5, shards_per_gpu=SHARDS_PER_GPU,
            backend="thread", workers=2,
        )
        with AmpedMTTKRP(tensor, cfg) as ex:
            ex.mttkrp(factors, 0)
            backend = ex.engine.backend
        assert backend.closed

    def test_amped_from_shard_cache_close_releases_source(self, cache_path):
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        cfg = AmpedConfig(n_gpus=N_GPUS, rank=5, shards_per_gpu=SHARDS_PER_GPU)
        ex = AmpedMTTKRP.from_shard_cache(cache_path, cfg)
        ex.close()
        with pytest.raises(ReproError, match="closed"):
            ex.source.partition(0)


class TestProcessAttachment:
    """Tensor bytes reach process workers by attachment, never the pipe."""

    def test_mmap_source_attaches_by_path(self, cache_path):
        source = MmapNpzSource(
            cache_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        spec = source.process_attach_spec(0)
        assert spec[0] == "mmap_npz" and str(cache_path) in spec[1]

    def test_resident_sources_have_no_attach_spec(self, plan):
        assert InMemorySource(plan).process_attach_spec(0) is None

    def test_mmap_run_publishes_no_shared_memory(
        self, cache_path, factors, eager
    ):
        """The zero-copy acceptance cell: a process pool over an mmap cache
        copies no tensor bytes anywhere — workers re-map the same file."""
        source = MmapNpzSource(
            cache_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        backend = ProcessBackend(2)
        with StreamingExecutor(source, batch_size=64, backend=backend) as ex:
            for m, want in enumerate(eager):
                assert np.array_equal(ex.mttkrp(factors, m), want)
            assert backend.published_modes == 0

    def test_resident_run_publishes_each_mode_once(self, plan, factors, eager):
        backend = ProcessBackend(2)
        with StreamingExecutor(plan, batch_size=64, backend=backend) as ex:
            for m, want in enumerate(eager):
                assert np.array_equal(ex.mttkrp(factors, m), want)
            n_modes = len(eager)
            assert backend.published_modes == n_modes
            ex.mttkrp(factors, 0)  # second call reuses the publication
            assert backend.published_modes == n_modes
        backend.close()  # shared instance: the caller closes it
        assert backend.published_modes == 0  # close() unlinked everything

    def test_float32_factors_stay_bit_identical(self, tensor, plan):
        """Factor publication preserves dtype: float32 inputs reduce with
        the same ufunc loops in workers as in the serial path."""
        rng = np.random.default_rng(23)
        f32 = [
            rng.random((s, 4), dtype=np.float32) for s in tensor.shape
        ]
        serial = StreamingExecutor(plan, batch_size=64)
        want = [serial.mttkrp(f32, m) for m in range(tensor.nmodes)]
        with StreamingExecutor(
            plan, batch_size=64, backend="process", workers=2
        ) as engine:
            for m, w in enumerate(want):
                assert np.array_equal(engine.mttkrp(f32, m), w)

    def test_process_pool_persists_across_calls(self, plan, factors, eager):
        backend = ProcessBackend(2)
        with StreamingExecutor(plan, batch_size=64, backend=backend) as ex:
            ex.mttkrp(factors, 0)
            pool = backend._pool
            assert pool is not None
            out = ex.mttkrp(factors, 1)
            assert backend._pool is pool
            assert np.array_equal(out, eager[1])


class TestPrefetchingSource:
    def test_wraps_only_shard_sources(self):
        with pytest.raises(ReproError, match="ShardSource"):
            PrefetchingSource("nope")

    def test_double_wrap_rejected(self, plan):
        ps = PrefetchingSource(InMemorySource(plan))
        with pytest.raises(ReproError, match="already prefetching"):
            PrefetchingSource(ps)

    def test_delegates_structure(self, tensor, plan, cache_path):
        inner = MmapNpzSource(
            cache_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        ps = PrefetchingSource(inner)
        assert ps.shape == tensor.shape and ps.nnz == tensor.nnz
        assert ps.n_gpus == inner.n_gpus
        assert ps.is_out_of_core is True
        assert ps.shards(0) == inner.shards(0)
        assert ps.process_attach_spec(0) == inner.process_attach_spec(0)
        assert np.array_equal(ps.assignment(1), inner.assignment(1))
        assert ps.partition(1).shards == inner.partition(1).shards

    def test_yields_wrapped_batches_in_order(self, tensor, plan):
        source = InMemorySource(plan)
        ps = PrefetchingSource(source)
        part = source.partition(0)
        batches = build_batch_plan(part, 13).batches
        loaded = list(ps.iter_batches(0, batches))
        assert tuple(lb.batch for lb in loaded) == batches
        for lb in loaded:
            assert isinstance(lb, LoadedBatch)
            sl = lb.batch.elements
            assert np.array_equal(lb.indices, part.tensor.indices[sl])
            assert np.array_equal(lb.values, part.tensor.values[sl])

    def test_loader_error_propagates(self, plan):
        ps = PrefetchingSource(InMemorySource(plan))

        def batches():
            yield from build_batch_plan(plan.modes[0], 13).batches[:2]
            raise RuntimeError("disk on fire")

        it = ps.iter_batches(0, batches())
        next(it), next(it)
        with pytest.raises(RuntimeError, match="disk on fire"):
            next(it)

    def test_executor_accepts_prefetching_source(self, plan, factors, eager):
        ps = PrefetchingSource(InMemorySource(plan))
        with StreamingExecutor(ps, batch_size=32) as engine:
            assert engine.prefetch is True
            assert np.array_equal(engine.mttkrp(factors, 0), eager[0])


class TestShardSubsetBackends:
    """One shard's batches reduce to the same bits on every backend."""

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    def test_source_shard_matches_serial(
        self, tensor, plan, factors, backend, workers, run_shards
    ):
        source = InMemorySource(plan)
        mode = 1
        rank = factors[0].shape[1]
        with StreamingExecutor(source, batch_size=11) as reference, \
                StreamingExecutor(
                    source, batch_size=11, backend=backend, workers=workers
                ) as engine:
            for shard_id in range(len(source.shards(mode))):
                want = run_shards(
                    reference, factors, mode, [shard_id],
                    np.zeros((tensor.shape[mode], rank)),
                )
                got = run_shards(
                    engine, factors, mode, [shard_id], np.zeros_like(want)
                )
                assert np.array_equal(got, want)

    def test_source_shard_process_backend_instance(
        self, tensor, cache_path, factors, run_shards
    ):
        """A shared ProcessBackend reduces single shards off the mmap cache."""
        source = MmapNpzSource(
            cache_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        mode = 0
        rank = factors[0].shape[1]
        want = np.zeros((tensor.shape[mode], rank))
        got = np.zeros_like(want)
        with ProcessBackend(2) as backend:
            reference = StreamingExecutor(source, batch_size=11)
            engine = StreamingExecutor(
                source, batch_size=11, backend=backend
            )
            for shard_id in range(len(source.shards(mode))):
                run_shards(reference, factors, mode, [shard_id], want)
                run_shards(engine, factors, mode, [shard_id], got)
            assert backend.published_modes == 0  # attached, not copied
        assert np.array_equal(got, want)


class TestProcessTeardown:
    """Satellite hardening: ProcessBackend.close() is idempotent and never
    leaks shared memory — not after a worker exception, not when closed
    twice (context manager + AmpedMTTKRP.close), not mid-iteration."""

    @staticmethod
    def _shm_segments() -> set:
        import pathlib

        shm = pathlib.Path("/dev/shm")
        if not shm.is_dir():  # pragma: no cover - non-Linux
            return set()
        return {p.name for p in shm.glob("psm_*")}

    def test_worker_exception_then_close_is_clean(self, plan, factors):
        """Poison a worker mid-call (factors too small make the reduction
        raise inside the pool); the exception must surface, and close()
        afterwards must neither raise nor leave shared-memory segments
        (the resource_tracker would warn about leaks at interpreter exit)."""
        before = self._shm_segments()
        backend = ProcessBackend(2)
        poisoned = [f[:1] for f in factors]  # worker-side IndexError
        engine = StreamingExecutor(plan, batch_size=32, backend=backend)
        with pytest.raises(Exception):
            engine.mttkrp(poisoned, 0)
        backend.close()
        backend.close()  # double-close must stay silent
        assert backend.closed
        assert backend.published_modes == 0
        assert backend.inflight_publications == 0
        assert self._shm_segments() <= before

    def test_close_while_generator_suspended_releases_factors(
        self, plan, factors
    ):
        """close() with a map_batches generator still suspended (consumer
        stopped pulling) must release the in-flight factor publication."""
        before = self._shm_segments()
        backend = ProcessBackend(2)
        source = InMemorySource(plan)
        part = source.partition(0)
        batches = build_batch_plan(part, 32).batches
        it = backend.map_batches(part, factors, 0, batches)
        next(it)  # generator now suspended holding its publication
        assert backend.inflight_publications == 1
        backend.close()
        assert backend.inflight_publications == 0
        it.close()  # late generator cleanup must not raise or double-free
        backend.close()
        assert self._shm_segments() <= before

    def test_double_close_via_context_and_amped(self, tensor, factors):
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        cfg = AmpedConfig(
            n_gpus=N_GPUS, rank=5, shards_per_gpu=2,
            backend="process", workers=2, batch_size=64,
        )
        before = self._shm_segments()
        with AmpedMTTKRP(tensor, cfg) as ex:
            ex.mttkrp(factors, 0)
        ex.close()  # second close via the explicit path
        assert ex.engine.backend.closed
        assert self._shm_segments() <= before

    def test_fresh_backend_close_without_start(self):
        backend = ProcessBackend(2)
        backend.close()
        backend.close()
        assert backend.closed
