"""Golden-regression tests: fixed-seed tensors vs checked-in expected outputs.

The ``.npz`` files under ``data/`` pin the production MTTKRP numerics. The
engine family (StreamingExecutor at any batch granularity, on any execution
backend — serial, thread pool, or shared-memory process pool — with or
without prefetch, and AmpedMTTKRP which runs on it) must reproduce them
**bit-for-bit** — the segment-aligned batching guarantees every
configuration performs the same reductions in the same order, and every
backend returns partial results in deterministic batch order. Format baselines reduce in a different order
(CSF trees, HiCOO blocks, BLCO linearization), so they are held to an
extremely tight tolerance instead: the measured worst-case deviation at this
scale is ~1e-15 relative, and the 1e-12 gate leaves three orders of
magnitude of margin while still catching any real numerical change.
Compiled kernel tiers from the registry (``numba``/``cc``) re-associate
only the per-segment sum, so they get the same documented tolerance gate
(``FUSED_RTOL``/``FUSED_ATOL`` from :mod:`repro.tensor.kernelreg`); the
numpy tier — and every tier falling back to it — stays on the bit-exact
contract.

Regenerate with ``PYTHONPATH=src python tests/golden/make_golden.py`` —
only when a numerical change is intentional.
"""

from __future__ import annotations

import numpy as np
import pytest

from make_golden import CASES, build_case, golden_path

from repro.baselines.registry import BACKEND_REGISTRY, make_backend
from repro.core.amped import AmpedMTTKRP
from repro.cpd.als import cp_als
from repro.engine import (
    CompressedChunkSource,
    InMemorySource,
    ProcessBackend,
    SerialBackend,
    StreamingExecutor,
    ThreadBackend,
)
from repro.errors import UnsupportedTensorError
from repro.partition.plan import build_partition_plan
from repro.tensor.coo import index_dtype
from repro.tensor.io import write_shard_cache_v2
from repro.tensor.kernelreg import (
    FUSED_ATOL,
    FUSED_RTOL,
    KERNEL_NAMES,
    get_kernel,
)
from repro.tensor.reference import mttkrp_coo_reference, mttkrp_dense_reference

CASE_NAMES = sorted(CASES)

#: format baselines re-associate sums; measured worst case is ~1e-15 relative
BASELINE_RTOL = 1e-12
BASELINE_ATOL = 1e-14
CPALS_FIT_TOL = 1e-10


@pytest.fixture(scope="module", params=CASE_NAMES)
def case(request):
    name = request.param
    tensor, factors, rank, config = build_case(name)
    data = np.load(golden_path(name))
    return name, tensor, factors, rank, config, data


@pytest.fixture(scope="module")
def case_cache(case, tmp_path_factory):
    """Memory-mapped ``codec="none"`` cache of the case tensor (small
    chunks, the unit of its CRC checks), for the ``mmap`` source cells."""
    name, tensor, *_ = case
    return write_shard_cache_v2(
        tensor,
        tmp_path_factory.mktemp("golden_cache") / f"{name}.npz",
        codec="none",
        chunk_nnz=97,
    )


@pytest.fixture(scope="module")
def case_cache_v2(case, tmp_path_factory):
    """v2 chunked/compressed cache of the case tensor (small chunks so
    batches cross chunk boundaries), for the compressed source cells."""
    name, tensor, *_ = case
    return write_shard_cache_v2(
        tensor,
        tmp_path_factory.mktemp("golden_cache_v2") / f"{name}.npz",
        codec="zlib",
        chunk_nnz=97,
    )


@pytest.fixture(scope="module")
def shared_backends():
    """One persistent pool per backend kind for the whole golden matrix."""
    backends = {
        "serial": SerialBackend(),
        "thread": ThreadBackend(3),
        "process": ProcessBackend(2),
    }
    yield backends
    for backend in backends.values():
        backend.close()


def _case_source(kind, tensor, config, cache_path):
    if kind == "memory":
        return InMemorySource(
            build_partition_plan(
                tensor, config.n_gpus, shards_per_gpu=config.shards_per_gpu
            )
        )
    if kind in ("mmap", "chunked"):
        return CompressedChunkSource(
            cache_path,
            n_gpus=config.n_gpus,
            shards_per_gpu=config.shards_per_gpu,
        )
    if kind == "loaded":
        # A cache loaded into memory and partitioned afresh, the resident
        # path of ``repro decompose --shard-cache`` without --out-of-core.
        with CompressedChunkSource(cache_path, n_gpus=config.n_gpus) as cache:
            loaded = cache.tensor_view().as_coo()
        return InMemorySource.from_tensor(
            loaded, config.n_gpus, shards_per_gpu=config.shards_per_gpu
        )
    raise AssertionError(kind)


def _expected(data, mode: int) -> np.ndarray:
    return data[f"mttkrp_{mode}"]


class TestGoldenFilesIntact:
    def test_tensor_matches_builder(self, case):
        """The committed tensor bytes equal the fixed-seed builder output."""
        _, tensor, factors, _, _, data = case
        assert np.array_equal(data["indices"], tensor.indices)
        assert np.array_equal(data["values"], tensor.values)
        assert tuple(data["shape"]) == tensor.shape
        for m, f in enumerate(factors):
            assert np.array_equal(data[f"factor_{m}"], f)


class TestEngineBitExact:
    def test_amped_executor(self, case):
        _, tensor, factors, _, config, data = case
        ex = AmpedMTTKRP(tensor, config)
        for m in range(tensor.nmodes):
            assert np.array_equal(ex.mttkrp(factors, m), _expected(data, m))

    @pytest.mark.parametrize("batch_size", [1, 17, None])
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 3)])
    def test_streaming_engine(self, case, batch_size, backend, workers):
        """Every engine granularity reproduces the golden bits exactly."""
        _, tensor, factors, _, config, data = case
        plan = build_partition_plan(
            tensor, config.n_gpus, shards_per_gpu=config.shards_per_gpu
        )
        engine = StreamingExecutor(
            plan, batch_size=batch_size, backend=backend, workers=workers
        )
        for m in range(tensor.nmodes):
            assert np.array_equal(engine.mttkrp(factors, m), _expected(data, m))

    @pytest.mark.parametrize(
        "source_kind", ["memory", "mmap", "chunked", "loaded"]
    )
    @pytest.mark.parametrize("batch_size", [1, 17, None])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_shard_sources(
        self, case, case_cache, case_cache_v2, shared_backends, source_kind,
        batch_size, backend, prefetch,
    ):
        """Every shard source reproduces the golden bits at every cell of the
        (batch_size, backend, prefetch) equivalence matrix."""
        _, tensor, factors, _, config, data = case
        cache = case_cache if source_kind == "mmap" else case_cache_v2
        source = _case_source(source_kind, tensor, config, cache)
        engine = StreamingExecutor(
            source,
            batch_size=batch_size,
            backend=shared_backends[backend],
            prefetch=prefetch,
        )
        for m in range(tensor.nmodes):
            assert np.array_equal(engine.mttkrp(factors, m), _expected(data, m))

    @pytest.mark.parametrize("source_kind", ["mmap", "chunked", "loaded"])
    def test_shard_source_coordinates(
        self, case, case_cache, case_cache_v2, source_kind
    ):
        """The resident copies, both caches and a cache loaded back into
        memory hold the golden coordinates in the narrowest index dtype of
        the shape — the representations the bit-identical matrix above
        runs over."""
        _, tensor, _, _, config, _ = case
        resident = _case_source("memory", tensor, config, case_cache)
        cache = case_cache if source_kind == "mmap" else case_cache_v2
        source = _case_source(source_kind, tensor, config, cache)
        narrow = index_dtype(tensor.shape)
        for m in range(tensor.nmodes):
            want = resident.partition(m).tensor.indices
            got = source.partition(m).tensor.indices
            assert want.dtype == narrow
            assert got.dtype == narrow
            assert np.array_equal(np.asarray(got[:]), want)

    @pytest.mark.parametrize(
        "source_kind", ["memory", "mmap", "chunked", "loaded"]
    )
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("kernel", list(KERNEL_NAMES))
    def test_shard_sources_kernel_tiers(
        self, case, case_cache, case_cache_v2, shared_backends, source_kind,
        backend, kernel,
    ):
        """The kernel axis of the golden matrix: the numpy tier (and any
        tier that falls back to it) reproduces the golden bits exactly;
        fused compiled tiers are held to the documented tolerance
        (:data:`FUSED_RTOL`/:data:`FUSED_ATOL` — their per-segment
        sequential accumulation re-associates ``np.add.reduceat``'s sum
        tree, nothing more)."""
        _, tensor, factors, _, config, data = case
        cache = case_cache if source_kind == "mmap" else case_cache_v2
        source = _case_source(source_kind, tensor, config, cache)
        engine = StreamingExecutor(
            source,
            batch_size=17,
            backend=shared_backends[backend],
            kernel=kernel,
        )
        resolved = engine.kernel
        assert resolved in KERNEL_NAMES
        for m in range(tensor.nmodes):
            got = engine.mttkrp(factors, m)
            if get_kernel(resolved).bit_identical:
                assert np.array_equal(got, _expected(data, m))
            else:
                assert np.allclose(
                    got,
                    _expected(data, m),
                    rtol=FUSED_RTOL,
                    atol=FUSED_ATOL,
                )

    @pytest.mark.parametrize(
        "batch_size,backend,workers,prefetch",
        [
            (1, "serial", 1, False),
            (17, "thread", 3, True),
            (None, "serial", 1, False),
            (17, "process", 2, False),
            (None, "process", 2, True),
        ],
    )
    def test_out_of_core_decompose_bit_identical(
        self, case, case_cache, batch_size, backend, workers, prefetch
    ):
        """CP-ALS streamed from the memory-mapped cache is *bit-identical* to
        the in-memory decompose at every matrix cell — including process
        workers attached to the cache and prefetched delivery (the
        out-of-core acceptance bar) — and a fully out-of-core run
        (mmap-backed norms too) still lands on the golden fit."""
        _, tensor, _, rank, config, data = case
        als_kw = dict(
            rank=rank, n_iters=int(data["cpals_iters"]), tol=0.0, seed=42
        )
        in_memory = AmpedMTTKRP(tensor, config)
        want = cp_als(tensor, mttkrp=in_memory.mttkrp, **als_kw).final_fit
        cfg = config.replace(
            batch_size=batch_size, backend=backend, workers=workers,
            prefetch=prefetch,
        )
        with AmpedMTTKRP.from_shard_cache(case_cache, cfg) as ex:
            got = cp_als(tensor, mttkrp=ex.mttkrp, **als_kw).final_fit
            assert got == want  # bit-identical trajectory, not just close
            fully_ooc = cp_als(ex.tensor, mttkrp=ex.mttkrp, **als_kw).final_fit
            assert fully_ooc == pytest.approx(
                float(data["cpals_fit"]), abs=CPALS_FIT_TOL
            )


    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_compressed_decompose_bit_identical_to_mapped(
        self, case, case_cache, case_cache_v2, backend, prefetch
    ):
        """CP-ALS streamed from a compressed cache is *bit-identical* to
        the mapped ``codec="none"`` path at every (backend, prefetch)
        cell: compression changes how bytes reach the engine, never which
        reductions run."""
        _, tensor, _, rank, config, data = case
        als_kw = dict(
            rank=rank, n_iters=int(data["cpals_iters"]), tol=0.0, seed=42
        )
        cfg = config.replace(
            backend=backend, workers=1 if backend == "serial" else 2,
            prefetch=prefetch,
        )
        with AmpedMTTKRP.from_shard_cache(case_cache, cfg) as mapped:
            want = cp_als(tensor, mttkrp=mapped.mttkrp, **als_kw).final_fit
        with AmpedMTTKRP.from_shard_cache(case_cache_v2, cfg) as zlib:
            got = cp_als(tensor, mttkrp=zlib.mttkrp, **als_kw).final_fit
        assert got == want  # bit-identical trajectory, not just close
        assert got == pytest.approx(float(data["cpals_fit"]), abs=CPALS_FIT_TOL)


class TestClusterGolden:
    """The scale-out acceptance bar: a 2-node loopback cluster (numpy
    tier) reproduces the golden bits and the golden CP-ALS trajectory
    exactly — node count never moves a bit, because nodes own contiguous
    disjoint batch runs and partials merge in rank order."""

    @pytest.fixture(scope="module")
    def cluster_backend(self):
        from repro.engine import ClusterBackend

        backend = ClusterBackend(nodes=2)
        yield backend
        backend.close()

    @pytest.mark.parametrize("batch_size", [17, None])
    def test_mttkrp_bits(self, case, cluster_backend, batch_size):
        _, tensor, factors, _, config, data = case
        plan = build_partition_plan(
            tensor, config.n_gpus, shards_per_gpu=config.shards_per_gpu
        )
        engine = StreamingExecutor(
            plan, batch_size=batch_size, backend=cluster_backend
        )
        for m in range(tensor.nmodes):
            assert np.array_equal(engine.mttkrp(factors, m), _expected(data, m))

    def test_cpals_bit_identical_over_mmap(
        self, case, case_cache, cluster_backend
    ):
        """CP-ALS on 2 nodes streaming the mapped cache lands on the exact
        single-host fit (bit-identical trajectory) and the golden pin."""
        _, tensor, _, rank, config, data = case
        als_kw = dict(
            rank=rank, n_iters=int(data["cpals_iters"]), tol=0.0, seed=42
        )
        in_memory = AmpedMTTKRP(tensor, config)
        want = cp_als(tensor, mttkrp=in_memory.mttkrp, **als_kw).final_fit
        source = _case_source("mmap", tensor, config, case_cache)
        engine = StreamingExecutor(
            source, batch_size=17, backend=cluster_backend
        )
        got = cp_als(tensor, mttkrp=engine.mttkrp, **als_kw).final_fit
        assert got == want  # bit-identical trajectory, not just close
        assert got == pytest.approx(float(data["cpals_fit"]), abs=CPALS_FIT_TOL)


class TestReferencesAndBaselines:
    @pytest.mark.parametrize("reference", [mttkrp_coo_reference, mttkrp_dense_reference])
    def test_references(self, case, reference):
        _, tensor, factors, _, _, data = case
        for m in range(tensor.nmodes):
            assert np.allclose(
                reference(tensor, factors, m),
                _expected(data, m),
                rtol=BASELINE_RTOL,
                atol=BASELINE_ATOL,
            )

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
    def test_baseline_backends(self, case, backend_name):
        _, tensor, factors, rank, _, data = case
        try:
            backend = make_backend(backend_name, tensor, rank=rank)
        except UnsupportedTensorError as exc:
            pytest.skip(f"{backend_name}: {exc}")
        for m in range(tensor.nmodes):
            assert np.allclose(
                backend.mttkrp(factors, m),
                _expected(data, m),
                rtol=BASELINE_RTOL,
                atol=BASELINE_ATOL,
            )


class TestCPALSFits:
    def test_engine_fit_bit_stable(self, case):
        """CP-ALS driven by the AMPED engine reproduces the golden fit."""
        _, tensor, _, rank, config, data = case
        ex = AmpedMTTKRP(tensor, config)
        res = cp_als(
            tensor,
            rank=rank,
            mttkrp=ex.mttkrp,
            n_iters=int(data["cpals_iters"]),
            tol=0.0,
            seed=42,
        )
        assert res.final_fit == pytest.approx(
            float(data["cpals_fit"]), abs=CPALS_FIT_TOL
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
    def test_baseline_fits(self, case, backend_name):
        """Every baseline backend converges to the same golden fit."""
        _, tensor, _, rank, _, data = case
        try:
            backend = make_backend(backend_name, tensor, rank=rank)
        except UnsupportedTensorError as exc:
            pytest.skip(f"{backend_name}: {exc}")
        res = cp_als(
            tensor,
            rank=rank,
            mttkrp=backend.mttkrp,
            n_iters=int(data["cpals_iters"]),
            tol=0.0,
            seed=42,
        )
        assert res.final_fit == pytest.approx(
            float(data["cpals_fit"]), abs=CPALS_FIT_TOL
        )

    @pytest.mark.slow
    def test_reference_fit(self, case):
        _, tensor, _, rank, _, data = case
        res = cp_als(
            tensor, rank=rank, n_iters=int(data["cpals_iters"]), tol=0.0, seed=42
        )
        assert res.final_fit == pytest.approx(
            float(data["cpals_fit"]), abs=CPALS_FIT_TOL
        )
