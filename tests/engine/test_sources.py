"""Source/equivalence test matrix for the shard-source abstraction.

The engine contract extended to sources and backends: for one logical
tensor, every ``ShardSource`` implementation yields mode-sorted copies with
identical coordinates (narrow, in resident copies and shard caches alike),
identical shard tables and batch boundaries, and
therefore **bit-identical** MTTKRP results for every ``(batch_size,
backend, prefetch, mode)`` cell — with a ``codec="none"`` cache (the
``mmap`` rows) additionally keeping the element data on disk
(memory-mapped) rather than resident, and :class:`ProcessBackend`
reducing in other processes that attach to the data instead of receiving
it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from helpers import force_cpus

from repro.engine import (
    ClusterBackend,
    CompressedChunkSource,
    InMemorySource,
    ProcessBackend,
    SerialBackend,
    StreamingExecutor,
    ThreadBackend,
    auto_batch_size,
    open_shard_source,
    resolve_batch_size,
    stream_cache_fraction,
    streamed_batch_bytes,
)
from repro.engine.autotune import (
    MAX_AUTO_BATCH,
    MIN_AUTO_BATCH,
    STREAM_CACHE_FRACTION,
)
from repro.engine.batch import build_batch_plan
from repro.engine.costmodel import DEFAULT_HOST_PROFILE
from repro.errors import ReproError, TensorFormatError
from repro.partition.plan import build_partition_plan
from repro.simgpu.kernel import KernelCostModel
from repro.tensor.coo import index_dtype
from repro.tensor.generate import zipf_coo
from repro.tensor import io_v2
from repro.tensor.io import available_codecs, write_shard_cache_v2
from repro.tensor.kernelreg import (
    KERNEL_DISABLE_ENV,
    KERNEL_NAMES,
    get_kernel,
    kernel_availability,
    refresh_kernel_registry,
)
from repro.tensor.reference import mttkrp_coo_reference

REF_RTOL = 1e-9
REF_ATOL = 1e-12

# Fused tiers promise FUSED_RTOL per batch; an executor accumulates many
# batches across shards, so whole-output comparisons get one order of
# magnitude of slack on top of the per-batch contract.
EXEC_FUSED_RTOL = 1e-11
EXEC_FUSED_ATOL = 1e-13

N_GPUS = 4
SHARDS_PER_GPU = 4


@pytest.fixture(scope="module")
def tensor():
    return zipf_coo((40, 25, 30), 1500, exponents=(1.2, 0.8, 1.0), seed=11)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(99)
    return [rng.random((s, 6)) for s in tensor.shape]


@pytest.fixture(scope="module")
def plan(tensor):
    return build_partition_plan(tensor, N_GPUS, shards_per_gpu=SHARDS_PER_GPU)


@pytest.fixture(scope="module")
def cache_path(tensor, tmp_path_factory):
    """A memory-mapped ``codec="none"`` cache whose 128-row chunks (the
    unit of its CRC checks) are far smaller than the tensor."""
    return write_shard_cache_v2(
        tensor,
        tmp_path_factory.mktemp("cache") / "t.npz",
        codec="none",
        chunk_nnz=128,
    )


@pytest.fixture(scope="module")
def cache_v2_path(tensor, tmp_path_factory):
    """A v2 chunked/compressed cache with chunks far smaller than the
    tensor, so batches genuinely cross chunk boundaries."""
    return write_shard_cache_v2(
        tensor,
        tmp_path_factory.mktemp("cache_v2") / "t.npz",
        codec="zlib",
        chunk_nnz=128,
    )


@pytest.fixture(scope="module")
def eager_outputs(tensor, factors, plan):
    """Canonical bits: the in-memory engine at eager granularity."""
    engine = StreamingExecutor(plan)
    return [engine.mttkrp(factors, m) for m in range(tensor.nmodes)]


def make_source(kind: str, plan, cache_path, cache_v2_path=None):
    if kind == "memory":
        return InMemorySource(plan)
    if kind == "mmap":
        return CompressedChunkSource(
            cache_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
    if kind == "chunked":
        return CompressedChunkSource(
            cache_v2_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
    if kind == "loaded":
        # The compressed cache loaded into memory and partitioned afresh,
        # the resident path of ``--shard-cache`` without --out-of-core.
        with CompressedChunkSource(cache_v2_path, n_gpus=N_GPUS) as cache:
            loaded = cache.tensor_view().as_coo()
        return InMemorySource.from_tensor(
            loaded, N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
    raise AssertionError(kind)


SOURCE_KINDS = ["memory", "mmap", "chunked", "loaded"]
BACKEND_KINDS = ["serial", "thread", "process"]


@pytest.fixture(scope="module")
def shared_backends():
    """One persistent pool per parallel backend for the whole matrix —
    exactly how production reuses backends across calls (and it keeps the
    process matrix from forking a pool per cell)."""
    backends = {
        "serial": SerialBackend(),
        "thread": ThreadBackend(2),
        "process": ProcessBackend(2),
    }
    yield backends
    for backend in backends.values():
        backend.close()


class TestSourceEquivalenceMatrix:
    """Every (source, batch_size, backend, prefetch, mode) cell reproduces
    the eager bits and matches the COO reference."""

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @pytest.mark.parametrize("batch_size", [1, 7, None])
    @pytest.mark.parametrize("backend", BACKEND_KINDS)
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_bit_identical_to_eager(
        self, tensor, factors, plan, cache_path, cache_v2_path, eager_outputs,
        shared_backends, kind, batch_size, backend, prefetch,
    ):
        source = make_source(kind, plan, cache_path, cache_v2_path)
        engine = StreamingExecutor(
            source,
            batch_size=batch_size,
            backend=shared_backends[backend],
            prefetch=prefetch,
        )
        for mode in range(tensor.nmodes):
            got = engine.mttkrp(factors, mode)
            assert np.array_equal(got, eager_outputs[mode])
            assert np.allclose(
                got,
                mttkrp_coo_reference(tensor, factors, mode),
                rtol=REF_RTOL,
                atol=REF_ATOL,
            )

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 4)])
    def test_backend_named_by_string_bit_identical(
        self, tensor, factors, plan, cache_path, cache_v2_path,
        eager_outputs, kind, backend, workers
    ):
        """A backend the executor creates from its name and worker count
        (and so owns and closes) reproduces the same bits."""
        source = make_source(kind, plan, cache_path, cache_v2_path)
        with StreamingExecutor(
            source, batch_size=7, backend=backend, workers=workers
        ) as engine:
            assert engine.backend.name == backend
            assert engine.backend.workers == workers
            for mode in range(tensor.nmodes):
                assert np.array_equal(
                    engine.mttkrp(factors, mode), eager_outputs[mode]
                )

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_identical_shard_tables_and_batch_plans(
        self, tensor, plan, cache_path, cache_v2_path, kind
    ):
        source = make_source(kind, plan, cache_path, cache_v2_path)
        assert source.shape == tensor.shape
        assert source.nnz == tensor.nnz
        for mode in range(tensor.nmodes):
            part = source.partition(mode)
            ref = plan.modes[mode]
            assert part.shards == ref.shards
            assert np.array_equal(source.assignment(mode), plan.assignments[mode])
            assert np.array_equal(
                np.asarray(source.mode_keys(mode)),
                ref.tensor.indices[:, mode],
            )
            got = build_batch_plan(part, 13, keys=source.mode_keys(mode))
            want = build_batch_plan(ref, 13)
            assert got.batches == want.batches

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_validate_passes(self, plan, cache_path, cache_v2_path, kind):
        make_source(kind, plan, cache_path, cache_v2_path).validate()

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_per_gpu_restriction_partitions_output(
        self, tensor, factors, plan, cache_path, cache_v2_path, kind,
        run_shards,
    ):
        source = make_source(kind, plan, cache_path, cache_v2_path)
        engine = StreamingExecutor(source, batch_size=64)
        mode = 1
        total = np.zeros((tensor.shape[mode], 6))
        for g in range(N_GPUS):
            run_shards(
                engine, factors, mode, source.shards_for_gpu(mode, g), total
            )
        assert np.array_equal(total, engine.mttkrp(factors, mode))


class TestKernelEquivalenceMatrix:
    """The kernel axis of the engine contract: every ``(kernel × source ×
    backend)`` cell reproduces the eager output — bit-identically for
    bit-identical tiers, within the documented fused tolerance otherwise —
    and an unavailable tier's cell degrades to the numpy bits instead of
    failing."""

    @pytest.mark.parametrize("kernel", list(KERNEL_NAMES))
    @pytest.mark.parametrize("kind", ["memory", "chunked"])
    @pytest.mark.parametrize("backend", BACKEND_KINDS)
    def test_kernel_cells_reproduce_eager(
        self, tensor, factors, plan, cache_path, cache_v2_path, eager_outputs,
        shared_backends, kernel, kind, backend,
    ):
        source = make_source(kind, plan, cache_path, cache_v2_path)
        engine = StreamingExecutor(
            source,
            batch_size=7,
            backend=shared_backends[backend],
            kernel=kernel,
        )
        resolved = engine.kernel
        if resolved != kernel:
            # graceful fallback: the tier is genuinely unavailable here
            assert resolved == "numpy"
            assert kernel_availability()[kernel] is not None
        bit_exact = get_kernel(resolved).bit_identical
        for mode in range(tensor.nmodes):
            got = engine.mttkrp(factors, mode)
            if bit_exact:
                assert np.array_equal(got, eager_outputs[mode])
            else:
                assert np.allclose(
                    got,
                    eager_outputs[mode],
                    rtol=EXEC_FUSED_RTOL,
                    atol=EXEC_FUSED_ATOL,
                )
            assert np.allclose(
                got,
                mttkrp_coo_reference(tensor, factors, mode),
                rtol=REF_RTOL,
                atol=REF_ATOL,
            )

    @pytest.mark.parametrize("kernel", list(KERNEL_NAMES))
    def test_fused_cells_are_run_to_run_deterministic(
        self, tensor, factors, plan, kernel
    ):
        """Tolerance tiers still promise the same bits on every call."""
        engine = StreamingExecutor(
            InMemorySource(plan), batch_size=7, kernel=kernel
        )
        first = engine.mttkrp(factors, 0)
        assert np.array_equal(first, engine.mttkrp(factors, 0))

    def test_unavailable_tier_falls_back_to_numpy_bits(
        self, tensor, factors, plan, eager_outputs, monkeypatch
    ):
        """With every compiled tier disabled (the numba-less CI leg in
        miniature), an explicit compiled-tier request silently runs the
        numpy reference — same bits, no error."""
        monkeypatch.setenv(KERNEL_DISABLE_ENV, "numba,cc")
        refresh_kernel_registry()
        try:
            for requested in ("numba", "cc"):
                engine = StreamingExecutor(
                    InMemorySource(plan), batch_size=7, kernel=requested
                )
                assert engine.kernel == "numpy"
                for mode in range(tensor.nmodes):
                    assert np.array_equal(
                        engine.mttkrp(factors, mode), eager_outputs[mode]
                    )
        finally:
            refresh_kernel_registry()

    def test_default_executor_stays_on_reference_path(self, plan):
        """No kernel argument means the numpy reference — the golden
        bit-identity contract of every pre-registry call site."""
        assert StreamingExecutor(InMemorySource(plan)).kernel == "numpy"

    def test_executor_refuses_auto_kernel(self, plan):
        """Tier selection is the config's job (cost model); the executor
        takes a concrete tier and names where "auto" belongs."""
        with pytest.raises(ReproError, match=r'AmpedConfig\(kernel="auto"\)'):
            StreamingExecutor(InMemorySource(plan), kernel="auto")


class TestClusterCell:
    """The multi-node cluster backend rides the same engine contract: a
    2-node loopback cluster reproduces the eager bits exactly over the
    resident source (elements shipped over the socket) and both
    out-of-core sources (nodes attach to the cache by path), for both
    exchange schedules."""

    @pytest.fixture(scope="class")
    def cluster_backend(self):
        """One persistent 2-node loopback cluster for the whole class —
        node processes are spawned once, like production reuse."""
        backend = ClusterBackend(nodes=2, workers=1)
        yield backend
        backend.close()

    @pytest.mark.parametrize("kind", ["memory", "mmap", "chunked"])
    @pytest.mark.parametrize("batch_size", [7, None])
    def test_bit_identical_to_eager(
        self, tensor, factors, plan, cache_path, cache_v2_path,
        eager_outputs, cluster_backend, kind, batch_size,
    ):
        source = make_source(kind, plan, cache_path, cache_v2_path)
        engine = StreamingExecutor(
            source, batch_size=batch_size, backend=cluster_backend
        )
        for mode in range(tensor.nmodes):
            got = engine.mttkrp(factors, mode)
            assert np.array_equal(got, eager_outputs[mode])

    def test_direct_exchange_same_bits(
        self, tensor, factors, plan, cache_path, eager_outputs
    ):
        with ClusterBackend(nodes=2, allgather="direct") as backend:
            source = make_source("mmap", plan, cache_path)
            engine = StreamingExecutor(
                source, batch_size=16, backend=backend
            )
            for mode in range(tensor.nmodes):
                assert np.array_equal(
                    engine.mttkrp(factors, mode), eager_outputs[mode]
                )

    def test_three_nodes_same_bits(
        self, tensor, factors, plan, cache_path, eager_outputs
    ):
        """Bit-identity holds for any slice count, not just 2."""
        with ClusterBackend(nodes=3) as backend:
            source = make_source("mmap", plan, cache_path)
            engine = StreamingExecutor(source, backend=backend)
            assert np.array_equal(
                engine.mttkrp(factors, 0), eager_outputs[0]
            )

    def test_comm_stats_accumulate(
        self, tensor, factors, plan, cache_path, cluster_backend
    ):
        """Every MTTKRP call records one measured exchange — the
        measured side of the predicted-vs-measured comm oracle."""
        cluster_backend.reset_comm_stats()
        source = make_source("mmap", plan, cache_path)
        engine = StreamingExecutor(source, backend=cluster_backend)
        engine.mttkrp(factors, 0)
        engine.mttkrp(factors, 1)
        stats = cluster_backend.comm_stats
        assert stats["calls"] == 2
        assert stats["seconds"] > 0.0
        assert stats["bytes"] > 0


class TestResidentIndexWidth:
    """Resident mode copies and shard caches store narrow indices; the
    coordinate values, and so the MTTKRP bits, are the same."""

    def test_sources_hold_equal_coordinates(
        self, tensor, plan, cache_path, cache_v2_path
    ):
        narrow = index_dtype(tensor.shape)
        assert narrow == np.uint16
        for kind in ("mmap", "chunked"):
            source = make_source(kind, plan, cache_path, cache_v2_path)
            for mode in range(tensor.nmodes):
                resident = plan.modes[mode].tensor.indices
                cached = source.partition(mode).tensor.indices
                assert resident.dtype == narrow
                assert cached.dtype == narrow
                assert np.array_equal(np.asarray(cached[:]), resident)

    @pytest.mark.parametrize("kernel", ["numpy", "cc"])
    @pytest.mark.parametrize("backend", BACKEND_KINDS)
    def test_narrow_resident_bit_identical_to_caches(
        self, tensor, factors, plan, cache_path, cache_v2_path,
        shared_backends, kernel, backend,
    ):
        outs = {}
        for kind in ("memory", "mmap", "chunked"):
            source = make_source(kind, plan, cache_path, cache_v2_path)
            engine = StreamingExecutor(
                source, batch_size=7, backend=shared_backends[backend],
                kernel=kernel,
            )
            outs[kind] = engine.mttkrp_all_modes(factors)
        for kind in ("mmap", "chunked"):
            for got, want in zip(outs[kind], outs["memory"]):
                assert np.array_equal(got, want)

    def test_process_run_publishes_narrow_modes(self, tensor, factors, plan):
        """Each published mode is its copy's own bytes: nnz * (N * 2 + 8)
        for uint16 indices and float64 values."""
        nnz, n = tensor.nnz, tensor.nmodes
        with ProcessBackend(2) as backend:
            StreamingExecutor(plan, backend=backend).mttkrp_all_modes(factors)
            assert backend.published_modes == n
            published = sum(
                shm.size for _spec, shms, _refs in backend._shm_cache.values()
                for shm in shms
            )
        assert published == n * nnz * (n * 2 + 8)

    def test_scaled_twitch_copies_hold_two_bytes_per_index(self):
        from repro.datasets.profiles import profile_by_name
        from repro.datasets.synthetic import materialize

        twitch = materialize(profile_by_name("twitch"), 600_000, seed=4)
        assert max(twitch.shape) <= 1 << 16
        plan = build_partition_plan(twitch, 2)
        nnz, n = twitch.nnz, twitch.nmodes
        for part in plan.modes:
            assert part.tensor.indices.dtype == np.uint16
            assert part.tensor.indices.nbytes == nnz * n * 2


class TestInMemorySource:
    def test_wraps_plan_without_copying(self, plan):
        source = InMemorySource(plan)
        assert source.partition_plan() is plan
        for mode in range(len(plan.modes)):
            assert source.partition(mode) is plan.modes[mode]

    def test_rejects_non_plan(self):
        with pytest.raises(ReproError, match="PartitionPlan"):
            InMemorySource("not a plan")

    def test_from_tensor(self, tensor, factors, eager_outputs):
        source = InMemorySource.from_tensor(
            tensor, N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        out = StreamingExecutor(source).mttkrp(factors, 0)
        assert np.array_equal(out, eager_outputs[0])


def _v1_cache(path, tensor):
    """A version-1 shard cache as its writer laid it out: an uncompressed
    ``.npz`` archive of the metadata and the mode-sorted arrays."""
    arrays = {
        "version": np.array([1]),
        "shape": np.asarray(tensor.shape),
        "nnz": np.array([tensor.nnz]),
    }
    for m in range(tensor.nmodes):
        s = tensor.sorted_by_mode(m)
        arrays[f"mode{m}_indices"] = s.indices.astype(np.int64)
        arrays[f"mode{m}_values"] = s.values
        arrays[f"mode{m}_keys"] = s.indices[:, m].astype(np.int64)
    np.savez(path, **arrays)
    return path


class TestMappedCache:
    """A ``codec="none"`` cache is served as read-only maps of its file:
    nothing is decoded or cached, and each chunk's CRC is checked the first
    time a batch reaches it."""

    def test_element_arrays_are_memory_mapped(self, plan, cache_path):
        source = make_source("mmap", plan, cache_path)
        for mode in range(len(source.shape)):
            part = source.partition(mode)
            for arr in (part.tensor.indices, part.tensor.values):
                rows = arr[10:20]
                assert isinstance(rows.base, np.ndarray)  # a view, no copy
                assert not rows.flags.writeable
            assert not source.mode_keys(mode).flags.writeable

    def test_full_sweep_caches_nothing(
        self, tensor, factors, plan, cache_path, eager_outputs
    ):
        with make_source("mmap", plan, cache_path) as source:
            engine = StreamingExecutor(source, batch_size=50, prefetch=True)
            for mode, want in enumerate(eager_outputs):
                assert np.array_equal(engine.mttkrp(factors, mode), want)
            assert source._reader.cached_nbytes == 0

    def test_flipped_byte_named_when_a_batch_first_touches_it(
        self, tensor, factors, tmp_path
    ):
        path = write_shard_cache_v2(
            tensor, tmp_path / "c.npz", codec="none", chunk_nnz=128
        )
        with io_v2.load_shard_cache_v2(path) as reader:
            chunk = reader.manifest["arrays"]["mode1_values"]["chunks"][5]
        raw = bytearray(path.read_bytes())
        raw[chunk["offset"] + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        source = CompressedChunkSource(
            path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        values = source.partition(1).tensor.values
        assert values[0 : chunk["lo"]].shape == (chunk["lo"],)
        with pytest.raises(TensorFormatError) as err:
            values[chunk["lo"] + 10 : chunk["hi"] + 10]
        msg = str(err.value)
        assert "checksum mismatch" in msg
        assert "array 'mode1_values' chunk 5" in msg
        with pytest.raises(TensorFormatError, match="checksum mismatch"):
            StreamingExecutor(source, batch_size=50).mttkrp(factors, 1)
        source.close()

    def test_truncated_region_named_as_short_frame(self, tensor, tmp_path):
        """A file cut inside the last region, its manifest re-appended:
        the region no longer fits, so the array is served by chunk loads
        and the cut frame is named."""
        path = write_shard_cache_v2(
            tensor, tmp_path / "t.npz", codec="none", chunk_nnz=128
        )
        raw = path.read_bytes()
        moff = int.from_bytes(raw[8:16], "little")
        manifest = raw[moff:]
        cut = moff - len(manifest) - 40
        path.write_bytes(
            raw[:8] + cut.to_bytes(8, "little") + raw[16:cut] + manifest
        )
        with io_v2.load_shard_cache_v2(path) as reader:
            keys = reader.array(f"mode{tensor.nmodes - 1}_keys")
            chunks = reader.manifest["arrays"][keys.name]["chunks"]
            last = len(chunks) - 1
            assert keys.name not in reader._maps
            with pytest.raises(TensorFormatError) as err:
                # only the cut chunk's rows: the manifest bytes now lying
                # over the earlier chunks would fail their CRCs first
                keys[chunks[last]["lo"] : chunks[last]["hi"]]
        msg = str(err.value)
        assert "frame truncated" in msg
        assert f"array {keys.name!r} chunk {last}" in msg

    def test_closed_reader_refuses(self, plan, cache_path):
        with make_source("mmap", plan, cache_path) as source:
            indices = source.partition(0).tensor.indices
            assert indices[0:10].shape[0] == 10
        with pytest.raises(TensorFormatError, match="closed"):
            indices[0:10]
        with pytest.raises(ReproError, match="reopen"):
            source.mode_keys(0)

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    @pytest.mark.parametrize("nnz", [0, 1])
    def test_tiny_tensors(self, tmp_path, nnz, codec):
        """Empty and one-element tensors stream like any other, mapped or
        not (a mapped cache then maps nothing or one chunk)."""
        from repro.tensor.coo import SparseTensorCOO

        tensor = SparseTensorCOO(
            np.array([[1, 2, 3]] * nnz, dtype=np.int64).reshape(nnz, 3),
            np.full(nnz, 2.5),
            (4, 5, 6),
        )
        path = write_shard_cache_v2(tensor, tmp_path / "t.npz", codec=codec)
        factors = [np.ones((s, 3)) for s in tensor.shape]
        with CompressedChunkSource(path, n_gpus=1, shards_per_gpu=1) as source:
            engine = StreamingExecutor(source)
            for mode in range(3):
                assert np.array_equal(
                    engine.mttkrp(factors, mode),
                    mttkrp_coo_reference(tensor, factors, mode),
                )
            mapped = source._reader._maps
            assert len(mapped) == (9 if codec == "none" and nnz else 0)

    def test_process_pool_bit_identical(
        self, tensor, factors, plan, cache_path, eager_outputs
    ):
        with make_source("mmap", plan, cache_path) as source, ProcessBackend(
            2
        ) as backend:
            engine = StreamingExecutor(source, batch_size=50, backend=backend)
            for mode, want in enumerate(eager_outputs):
                assert np.array_equal(engine.mttkrp(factors, mode), want)
            assert backend.published_modes == 0

    def test_suffixless_path_normalized(self, tensor, tmp_path):
        """Writer appends .npz; the source must resolve the same path."""
        written = write_shard_cache_v2(
            tensor, tmp_path / "noext", codec="none"
        )
        assert written.name == "noext.npz"
        source = CompressedChunkSource(
            tmp_path / "noext", n_gpus=2, shards_per_gpu=2
        )
        assert source.path == written
        assert source.nnz == tensor.nnz
        source.close()


class TestVersion1CacheRefused:
    """A version-1 ``.npz`` cache is refused by name everywhere a cache is
    opened, with a pointer at ``repro cache``."""

    @pytest.fixture
    def v1(self, tensor, tmp_path):
        return _v1_cache(tmp_path / "v1.npz", tensor)

    def test_open_shard_source(self, v1):
        with pytest.raises(TensorFormatError, match="version 1.*repro cache"):
            open_shard_source(v1)

    def test_from_shard_cache(self, v1):
        from repro.core.amped import AmpedMTTKRP

        with pytest.raises(TensorFormatError, match="version 1.*repro cache"):
            AmpedMTTKRP.from_shard_cache(v1)

    def test_cache_plan_inputs(self, v1):
        from repro.core.config import AmpedConfig
        from repro.engine.plan import cache_plan_inputs

        with pytest.raises(TensorFormatError, match="version 1.*repro cache"):
            cache_plan_inputs(AmpedConfig(), v1)

    def test_junk_file_not_a_shard_cache(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a shard cache")
        with pytest.raises(TensorFormatError, match="not a shard cache"):
            open_shard_source(path)


class TestCompressedChunkSource:
    def test_element_arrays_are_lazy_chunked(self, plan, cache_v2_path):
        from repro.tensor.io import ChunkedArray

        source = make_source("chunked", plan, None, cache_v2_path)
        for mode in range(len(source.shape)):
            part = source.partition(mode)
            assert isinstance(part.tensor.indices, ChunkedArray)
            assert isinstance(part.tensor.values, ChunkedArray)
        assert source.codec == "zlib"
        assert source.chunk_nnz == 128

    def test_mode_keys_cached_one_mode_at_a_time(self, plan, cache_v2_path):
        source = make_source("chunked", plan, None, cache_v2_path)
        k0 = source.mode_keys(0)
        assert source.mode_keys(0) is k0  # cached while current
        source.mode_keys(1)
        assert source.mode_keys(0) is not k0  # evicted, re-decompressed

    def test_missing_file_is_actionable(self, tmp_path):
        with pytest.raises(TensorFormatError, match="repro cache"):
            CompressedChunkSource(tmp_path / "nope.npz")

    def test_close_and_context_manager(self, plan, cache_v2_path):
        with make_source("chunked", plan, None, cache_v2_path) as source:
            assert source.nnz > 0
        with pytest.raises(ReproError, match="closed"):
            source.mode_keys(0)
        with pytest.raises(ReproError, match="reopen"):
            source.partition(0).tensor.indices[0:10]

    def test_corrupt_chunk_named_in_error(self, tensor, tmp_path):
        """A flipped byte inside a chunk frame trips the CRC with a
        diagnostic naming the array and chunk, not wrong numbers."""
        path = write_shard_cache_v2(
            tensor, tmp_path / "corrupt.npz", codec="zlib", chunk_nnz=128
        )
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF  # inside the first frame (frames start at byte 16)
        path.write_bytes(bytes(raw))
        source = CompressedChunkSource(
            path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        with pytest.raises(
            TensorFormatError, match="chunk 0.*checksum mismatch"
        ):
            np.asarray(source.partition(0).tensor.indices)

    def test_process_attach_spec_reopens_by_path(self, plan, cache_v2_path):
        source = make_source("chunked", plan, None, cache_v2_path)
        assert source.process_attach_spec(0) == (
            "chunked_v2",
            str(cache_v2_path),
        )

    def test_bad_construction_args(self, cache_v2_path):
        with pytest.raises(ReproError, match="n_gpus"):
            CompressedChunkSource(cache_v2_path, n_gpus=0)
        with pytest.raises(ReproError, match="shards_per_gpu"):
            CompressedChunkSource(cache_v2_path, shards_per_gpu=0)

    def test_open_shard_source_opens_every_codec(
        self, cache_path, cache_v2_path
    ):
        none = open_shard_source(
            cache_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        zlib = open_shard_source(
            cache_v2_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
        try:
            assert isinstance(none, CompressedChunkSource)
            assert isinstance(zlib, CompressedChunkSource)
            assert (none.codec, zlib.codec) == ("none", "zlib")
            assert none.nnz == zlib.nnz and none.shape == zlib.shape
        finally:
            none.close()
            zlib.close()


@pytest.fixture(scope="module", params=available_codecs())
def codec_cache(request, tensor, tmp_path_factory):
    """``(codec, path)``: the module tensor in a v2 cache with 128-row
    chunks, once per available codec."""
    path = write_shard_cache_v2(
        tensor,
        tmp_path_factory.mktemp(f"v2_{request.param}") / "t.npz",
        codec=request.param,
        chunk_nnz=128,
    )
    return request.param, path


class TestChunkReadAhead:
    """Prefetch over a v2 cache reads chunks ahead on the reader's decode
    pool: same bytes in every cell, no batch loader thread, nothing
    decoded by a process-backend coordinator, and residency inside
    ``host_memory_plan``'s ``decompress_staging``."""

    @pytest.mark.parametrize("cache_chunks", [1, 2])
    @pytest.mark.parametrize("backend", BACKEND_KINDS)
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_bit_identical_to_eager(
        self, monkeypatch, tensor, factors, eager_outputs, shared_backends,
        codec_cache, cache_chunks, backend, prefetch,
    ):
        force_cpus(monkeypatch, 4)
        _, path = codec_cache
        with CompressedChunkSource(
            path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU,
            cache_chunks=cache_chunks,
        ) as source:
            # 100-element batches against 128-row chunks: many span two
            with StreamingExecutor(
                source, batch_size=100, backend=shared_backends[backend],
                prefetch=prefetch,
            ) as engine:
                for _ in range(2):
                    for mode in range(tensor.nmodes):
                        got = engine.mttkrp(factors, mode)
                        assert np.array_equal(got, eager_outputs[mode])

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_in_process_prefetch_decodes_on_the_pool_not_a_loader(
        self, monkeypatch, tensor, factors, eager_outputs, shared_backends,
        cache_v2_path, backend,
    ):
        decoders = []
        load = io_v2.ChunkedCacheReader._load

        def traced(self, name, i):
            decoders.append(threading.current_thread().name)
            return load(self, name, i)

        force_cpus(monkeypatch, 4)
        monkeypatch.setattr(io_v2.ChunkedCacheReader, "_load", traced)
        with CompressedChunkSource(
            cache_v2_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        ) as source:
            with StreamingExecutor(
                source, batch_size=100, backend=shared_backends[backend],
                prefetch=True,
            ) as engine:
                for mode in range(tensor.nmodes):
                    got = engine.mttkrp(factors, mode)
                    assert np.array_equal(got, eager_outputs[mode])
        assert any(name.startswith("repro-v2-decode") for name in decoders)

    def test_process_coordinator_decodes_nothing(
        self, monkeypatch, tensor, factors, eager_outputs, shared_backends,
        cache_v2_path,
    ):
        """Process workers attach to the cache and decode their own chunks,
        so a prefetching coordinator stages no batch and reads no element
        chunk at all."""
        calls = []
        chunk = io_v2.ChunkedCacheReader._chunk

        def counted(self, name, i, read_ahead=0):
            if not name.endswith("_keys"):
                calls.append((name, i))
            return chunk(self, name, i, read_ahead)

        with CompressedChunkSource(
            cache_v2_path, n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        ) as source:
            engine = StreamingExecutor(
                source, batch_size=100, backend=shared_backends["process"],
                prefetch=True,
            )
            monkeypatch.setattr(io_v2.ChunkedCacheReader, "_chunk", counted)
            for mode in range(tensor.nmodes):
                got = engine.mttkrp(factors, mode)
                assert np.array_equal(got, eager_outputs[mode])
            assert calls == []

    @pytest.mark.parametrize("codec", [c for c in available_codecs() if c != "none"])
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_decoded_bytes_within_planned_staging(
        self, monkeypatch, tmp_path, codec, backend, workers, prefetch
    ):
        """After full sweeps the reader holds no more decoded bytes than
        ``host_memory_plan`` prices as ``decompress_staging``, and closing
        the executor leaves no decode (or backend) thread running."""
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        force_cpus(monkeypatch, 4)
        big = zipf_coo((300, 200, 250), 20_000, exponents=1.0, seed=5)
        path = write_shard_cache_v2(
            big, tmp_path / "big.npz", codec=codec, chunk_nnz=1024
        )
        rng = np.random.default_rng(3)
        mats = [rng.random((s, 4)) for s in big.shape]
        cfg = AmpedConfig(
            rank=4, batch_size=700, backend=backend, workers=workers,
            prefetch=prefetch,
        )
        baseline = threading.active_count()
        with AmpedMTTKRP.from_shard_cache(path, cfg) as ex:
            staging = ex.plan.memory_plan["decompress_staging"]
            for _ in range(2):
                for mode in range(big.nmodes):
                    ex.mttkrp(mats, mode)
                    assert 0 < ex.source._reader.cached_nbytes <= staging
        assert threading.active_count() == baseline


class TestAutotune:
    def test_auto_batch_fits_cache(self):
        cost = KernelCostModel()
        for rank in (4, 32, 128):
            for nmodes in (3, 4, 5):
                batch = auto_batch_size(cost, rank, nmodes)
                assert streamed_batch_bytes(batch, rank, nmodes) <= (
                    cost.effective_cache_bytes
                )

    def test_auto_batch_clamped(self):
        tiny = KernelCostModel().with_overrides(effective_cache_bytes=1024)
        assert auto_batch_size(tiny, 32, 3) == MIN_AUTO_BATCH
        huge = KernelCostModel().with_overrides(
            effective_cache_bytes=1 << 45
        )
        assert auto_batch_size(huge, 1, 1) == MAX_AUTO_BATCH

    def test_auto_batch_rejects_bad_inputs(self):
        cost = KernelCostModel()
        with pytest.raises(ReproError):
            auto_batch_size(cost, 0, 3)
        with pytest.raises(ReproError):
            auto_batch_size(cost, 4, 0)

    def test_resolution_is_residency_aware(self):
        cost = KernelCostModel()
        assert (
            resolve_batch_size("auto", cost=cost, rank=32, nmodes=3,
                               out_of_core=False)
            is None
        )
        assert resolve_batch_size(
            "auto", cost=cost, rank=32, nmodes=3, out_of_core=True
        ) == auto_batch_size(cost, 32, 3)

    def test_resolution_validates(self):
        cost = KernelCostModel()
        with pytest.raises(ReproError, match="'auto'"):
            resolve_batch_size(
                "adaptive", cost=cost, rank=32, nmodes=3, out_of_core=False
            )
        with pytest.raises(ReproError, match=">= 1"):
            resolve_batch_size(0, cost=cost, rank=32, nmodes=3, out_of_core=False)
        assert (
            resolve_batch_size(
                None, cost=cost, rank=32, nmodes=3, out_of_core=True
            )
            is None
        )
        assert (
            resolve_batch_size(
                64, cost=cost, rank=32, nmodes=3, out_of_core=True
            )
            == 64
        )

    def test_executor_refuses_unresolved_auto(self, plan):
        with pytest.raises(ReproError, match="resolve"):
            StreamingExecutor(plan, batch_size="auto")

    def test_measured_cache_fraction_scales_batch(self):
        """A larger cache slice per lane means a larger auto batch."""
        cost = KernelCostModel()
        default = auto_batch_size(cost, 32, 3)
        wide = auto_batch_size(
            cost, 32, 3,
            profile=DEFAULT_HOST_PROFILE.replace(stream_cache_fraction=1.0),
        )
        narrow = auto_batch_size(
            cost, 32, 3,
            profile=DEFAULT_HOST_PROFILE.replace(
                stream_cache_fraction=1 / 1024
            ),
        )
        assert narrow <= default <= wide
        assert wide > default  # 1.0 is 32x the default slice

    def test_unmeasured_profile_keeps_builtin_fraction(self):
        assert stream_cache_fraction() == STREAM_CACHE_FRACTION
        assert stream_cache_fraction(DEFAULT_HOST_PROFILE) == (
            STREAM_CACHE_FRACTION
        )
        measured = DEFAULT_HOST_PROFILE.replace(stream_cache_fraction=0.5)
        assert stream_cache_fraction(measured) == 0.5

    @pytest.mark.parametrize("bad", [0, -0.5, 1.5, "lots"])
    def test_cache_fraction_domain(self, bad):
        """The one place a fraction enters is a host profile, which
        rejects an out-of-domain value as a named ReproError."""
        with pytest.raises(ReproError, match="stream_cache_fraction"):
            DEFAULT_HOST_PROFILE.replace(stream_cache_fraction=bad)


class TestAmpedIntegration:
    """AmpedMTTKRP over each source kind: identical bits, O(batch) residency."""

    @pytest.mark.parametrize("kind", ["memory", "mmap", "chunked"])
    def test_amped_over_sources_bit_identical(
        self, tensor, factors, plan, cache_path, cache_v2_path, kind
    ):
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        cfg = AmpedConfig(n_gpus=N_GPUS, rank=6, shards_per_gpu=SHARDS_PER_GPU)
        baseline = AmpedMTTKRP(tensor, cfg)
        source = make_source(kind, plan, cache_path, cache_v2_path)
        ex = AmpedMTTKRP.from_source(source, cfg)
        for mode in range(tensor.nmodes):
            assert np.array_equal(
                ex.mttkrp(factors, mode), baseline.mttkrp(factors, mode)
            )

    def test_amped_kernel_axis(self, tensor, factors):
        """The config's kernel knob end-to-end: numpy stays bit-identical
        to the default, ``auto`` pins a concrete available tier whose
        output is within the fused tolerance, and the resolved name is
        queryable from the pinned config."""
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        cfg = AmpedConfig(n_gpus=N_GPUS, rank=6, shards_per_gpu=SHARDS_PER_GPU)
        baseline = AmpedMTTKRP(tensor, cfg)
        pinned = AmpedMTTKRP(tensor, cfg.replace(kernel="numpy"))
        auto = AmpedMTTKRP(tensor, cfg.replace(kernel="auto"))
        assert auto.config.kernel in KERNEL_NAMES  # concrete after init
        assert auto.config.resolved_kernel() == auto.config.kernel
        for mode in range(tensor.nmodes):
            want = baseline.mttkrp(factors, mode)
            assert np.array_equal(pinned.mttkrp(factors, mode), want)
            assert np.allclose(
                auto.mttkrp(factors, mode),
                want,
                rtol=EXEC_FUSED_RTOL,
                atol=EXEC_FUSED_ATOL,
            )

    def test_source_backed_executor_stays_lazy(self, tensor, factors, tmp_path):
        """Construction from a cache reads only its key columns (workload
        stats come off them and the shard metadata), and so does the
        ``partition_plan`` view: a corrupted value chunk goes unnoticed
        until the first MTTKRP reaches it."""
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        path = write_shard_cache_v2(
            tensor, tmp_path / "c.npz", codec="none", chunk_nnz=128
        )
        with io_v2.load_shard_cache_v2(path) as reader:
            chunk = reader.manifest["arrays"]["mode1_values"]["chunks"][0]
        raw = bytearray(path.read_bytes())
        raw[chunk["offset"] + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        cfg = AmpedConfig(n_gpus=N_GPUS, rank=6, shards_per_gpu=SHARDS_PER_GPU)
        with AmpedMTTKRP.from_shard_cache(path, cfg) as ex:
            assert ex.workload.nnz == tensor.nnz
            assert ex.partition_plan.nmodes == tensor.nmodes
            with pytest.raises(TensorFormatError, match="mode1_values"):
                ex.mttkrp(factors, 1)

    def test_workload_matches_in_memory(self, tensor, cache_path):
        """A resident tensor and its cache produce the same workload
        descriptor, so out-of-core simulation timing equals the in-memory
        one."""
        import numpy as np

        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        cfg = AmpedConfig(n_gpus=N_GPUS, rank=6, shards_per_gpu=SHARDS_PER_GPU)
        mem = AmpedMTTKRP(tensor, cfg).workload
        ooc = AmpedMTTKRP.from_shard_cache(cache_path, cfg).workload
        assert ooc.shape == mem.shape and ooc.nnz == mem.nnz
        for a, b in zip(ooc.modes, mem.modes):
            assert np.array_equal(a.shard_nnz, b.shard_nnz)
            assert np.array_equal(a.assignment, b.assignment)
            assert np.array_equal(a.rows_per_gpu, b.rows_per_gpu)
            assert a.factor_hit == b.factor_hit

    def test_from_shard_cache_normalizes_config(self, tensor, factors, cache_path):
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        cfg = AmpedConfig(n_gpus=N_GPUS, rank=6, shards_per_gpu=SHARDS_PER_GPU)
        ex = AmpedMTTKRP.from_shard_cache(cache_path, cfg)
        assert ex.config.out_of_core is True
        assert str(cache_path) in ex.config.shard_cache
        # auto resolved to the cache-model batch because the source streams
        assert ex.engine.batch_size == auto_batch_size(ex.cost, 6, 3)
        baseline = AmpedMTTKRP(tensor, cfg)
        for mode in range(tensor.nmodes):
            assert np.array_equal(
                ex.mttkrp(factors, mode), baseline.mttkrp(factors, mode)
            )

    def test_from_shard_cache_autodetects_v2_and_normalizes_config(
        self, tensor, factors, cache_v2_path
    ):
        """from_shard_cache on a v2 cache opens the chunked source and
        records the codec/chunk size so host accounting charges the
        decompression staging — and stays bit-identical to in-memory."""
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig
        from repro.core.simulate import host_memory_plan

        cfg = AmpedConfig(n_gpus=N_GPUS, rank=6, shards_per_gpu=SHARDS_PER_GPU)
        with AmpedMTTKRP.from_shard_cache(cache_v2_path, cfg) as ex:
            assert isinstance(ex.source, CompressedChunkSource)
            assert ex.config.out_of_core is True
            assert ex.config.cache_codec == "zlib"
            assert ex.config.cache_chunk_nnz == 128
            plan = host_memory_plan(ex.workload, ex.config, ex.cost)
            lanes = ex.config.stream_lanes()
            assert plan["decompress_staging"] == (
                lanes * 2 * 128 * ex.cost.host_element_bytes(tensor.nmodes)
            )
            baseline = AmpedMTTKRP(tensor, cfg)
            for mode in range(tensor.nmodes):
                assert np.array_equal(
                    ex.mttkrp(factors, mode), baseline.mttkrp(factors, mode)
                )

    def test_tensor_and_source_mutually_exclusive(self, tensor, plan):
        from repro.core.amped import AmpedMTTKRP

        with pytest.raises(ReproError, match="either tensor or source"):
            AmpedMTTKRP(tensor, source=InMemorySource(plan))
        with pytest.raises(ReproError, match="tensor .*or a source|source"):
            AmpedMTTKRP(None)

    def test_source_gpu_count_checked(self, cache_path):
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        source = CompressedChunkSource(cache_path, n_gpus=2, shards_per_gpu=2)
        with pytest.raises(ReproError, match="GPUs"):
            AmpedMTTKRP.from_source(source, AmpedConfig(n_gpus=4))
