"""Prefetch starts no thread of its own.

With ``prefetch`` on, the only threads a sweep may start are the backend's
pool threads and a compressed cache's ``repro-v2-decode`` read-ahead pool;
resident sources and mapped ``codec="none"`` caches are sliced in place.
Closing the executor must leave ``threading.active_count()`` where it
started, on every source and backend.

The abandonment paths of :meth:`PrefetchingSource.iter_batches` (an early
``break``, a dropped iterator, an error mid-stream) must leave nothing
running either, on every source type, and ``PrefetchingSource.close()``
must leave the wrapped source open for whoever owns it.
"""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from helpers import force_cpus, make_factors
from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.engine import (
    CompressedChunkSource,
    InMemorySource,
    PrefetchingSource,
    StreamingExecutor,
)
from repro.engine.batch import build_batch_plan
from repro.partition.plan import build_partition_plan
from repro.tensor.generate import zipf_coo
from repro.tensor.io import write_shard_cache_v2

N_GPUS = 2
SHARDS_PER_GPU = 3

#: thread-name prefixes a prefetching sweep may start
ALLOWED_PREFIXES = ("repro-engine", "repro-v2-decode")


@pytest.fixture(scope="module")
def tensor():
    return zipf_coo((30, 20, 25), 900, exponents=1.0, seed=12)


@pytest.fixture(scope="module")
def caches(tensor, tmp_path_factory):
    root = tmp_path_factory.mktemp("pf")
    return {
        "mmap": write_shard_cache_v2(tensor, root / "none.npz", codec="none"),
        "zlib": write_shard_cache_v2(
            tensor, root / "v2.npz", codec="zlib", chunk_nnz=128
        ),
    }


def _is_pool_thread(name: str, target) -> bool:
    """A backend pool thread: the thread backend's workers, or the
    multiprocessing pool's own handler threads."""
    qualname = getattr(target, "__qualname__", "")
    return name.startswith(ALLOWED_PREFIXES) or qualname.startswith("Pool.")


@pytest.mark.parametrize("backend,workers", [
    ("serial", 1), ("thread", 2), ("process", 2),
])
@pytest.mark.parametrize("kind", ["resident", "mmap", "zlib"])
def test_prefetch_sweep_starts_only_pool_threads(
    kind, backend, workers, tensor, caches, monkeypatch
):
    force_cpus(monkeypatch, 2)  # a decode pool even on a one-CPU host
    started: list[tuple[str, object]] = []
    start = threading.Thread.start

    def recording_start(self):
        started.append((self.name, getattr(self, "_target", None)))
        return start(self)

    gc.collect()
    baseline = threading.active_count()
    cfg = AmpedConfig(
        n_gpus=N_GPUS, rank=4, shards_per_gpu=SHARDS_PER_GPU,
        backend=backend, workers=workers, prefetch=True, batch_size=64,
    )
    factors = make_factors(tensor.shape, rank=4)
    serial = cfg.replace(backend="serial", workers=1, prefetch=False)
    with AmpedMTTKRP(tensor, serial) as ref:
        want = ref.mttkrp_all_modes(factors)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    if kind == "resident":
        ex = AmpedMTTKRP(tensor, cfg)
    else:
        ex = AmpedMTTKRP.from_shard_cache(caches[kind], cfg)
    with ex:
        assert ex.engine.prefetch
        got = ex.mttkrp_all_modes(factors)
    monkeypatch.setattr(threading.Thread, "start", start)
    for m in range(tensor.nmodes):
        assert np.array_equal(got[m], want[m])
    stray = [name for name, target in started
             if not _is_pool_thread(name, target)]
    assert not stray, f"prefetch started threads {stray}"
    if kind == "zlib" and backend != "process":
        assert any(n.startswith("repro-v2-decode") for n, _ in started)
    if kind != "zlib":
        assert not any(n.startswith("repro-v2-decode") for n, _ in started)
    assert threading.active_count() == baseline


# ---- iter_batches abandonment and ownership ---------------------------

SOURCE_KINDS = ["memory", "mmap", "chunked", "loaded"]


@pytest.fixture(scope="module")
def plan(tensor):
    return build_partition_plan(tensor, N_GPUS, shards_per_gpu=SHARDS_PER_GPU)


def make_source(kind, plan, caches):
    if kind == "memory":
        return InMemorySource(plan)
    if kind == "mmap":
        return CompressedChunkSource(
            caches["mmap"], n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
    if kind == "chunked":
        return CompressedChunkSource(
            caches["zlib"], n_gpus=N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
    if kind == "loaded":
        with CompressedChunkSource(caches["zlib"], n_gpus=N_GPUS) as cache:
            loaded = cache.tensor_view().as_coo()
        return InMemorySource.from_tensor(
            loaded, N_GPUS, shards_per_gpu=SHARDS_PER_GPU
        )
    raise AssertionError(kind)


@pytest.fixture
def thread_record(monkeypatch):
    """Names of the threads started during the test; on exit, every one of
    them must be a v2 decode thread and the thread count back to baseline."""
    force_cpus(monkeypatch, 2)
    gc.collect()
    baseline = threading.active_count()
    started: list[str] = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    yield started
    monkeypatch.setattr(threading.Thread, "start", start)
    stray = [n for n in started if not n.startswith("repro-v2-decode")]
    assert not stray, f"prefetch started threads {stray}"
    assert threading.active_count() == baseline


def _close(source) -> None:
    if hasattr(source, "close"):
        source.close()


def _small_batches(ps: PrefetchingSource):
    batches = build_batch_plan(
        ps.partition(0), 32, keys=ps.mode_keys(0)
    ).batches
    assert len(batches) > 4
    return batches


class TestAbandonedIteration:
    """A consumer that stops mid-stream leaves nothing running, per source."""

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_break_joins_loader(self, kind, plan, caches, thread_record):
        source = make_source(kind, plan, caches)
        ps = PrefetchingSource(source)
        part = source.partition(0)
        for i, loaded in enumerate(ps.iter_batches(0, _small_batches(ps))):
            sl = loaded.batch.elements
            assert np.array_equal(loaded.indices, part.tensor.indices[sl])
            assert np.array_equal(loaded.values, part.tensor.values[sl])
            if i == 1:
                break
        _close(source)  # shuts down a v2 reader's decode pool
        if kind == "chunked":
            assert any(n.startswith("repro-v2-decode") for n in thread_record)
        else:
            assert not thread_record

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_dropped_iterator_joined_by_close(
        self, kind, plan, caches, thread_record
    ):
        """A reference-dropped (never exhausted) iterator holds nothing
        that ``close()`` must release; closing twice and then closing the
        abandoned generator are no-ops, and the wrapped source stays open."""
        source = make_source(kind, plan, caches)
        ps = PrefetchingSource(source)
        it = ps.iter_batches(0, _small_batches(ps))
        next(it)
        ps.close()
        ps.close()
        it.close()
        want = source.partition(1).tensor.values
        assert np.array_equal(ps.partition(1).tensor.values, want)
        _close(source)

    def test_exhausted_iteration_leaves_nothing(self, plan, thread_record):
        ps = PrefetchingSource(InMemorySource(plan))
        batches = build_batch_plan(ps.partition(0), 64).batches
        assert len(list(ps.iter_batches(0, batches))) == len(batches)


class TestLateLoaderFailure:
    def test_error_while_consuming_still_propagates(self, plan, thread_record):
        """A failing read of the wrapped source surfaces at the consumer."""

        class FailingSource(InMemorySource):
            def partition(self, mode):
                raise RuntimeError("disk on fire")

        ps = PrefetchingSource(FailingSource(plan))
        batches = build_batch_plan(plan.modes[0], 32).batches
        with pytest.raises(RuntimeError, match="disk on fire"):
            list(ps.iter_batches(0, batches))


class TestExecutorOwnership:
    def test_executor_close_joins_owned_prefetcher(self, plan, thread_record):
        factors = make_factors(InMemorySource(plan).shape, rank=4)
        engine = StreamingExecutor(
            InMemorySource(plan), batch_size=32, prefetch=True
        )
        assert isinstance(engine.source, PrefetchingSource)
        engine.mttkrp(factors, 0)
        engine.close()

    def test_executor_leaves_shared_prefetcher_to_owner(
        self, plan, caches, thread_record
    ):
        source = make_source("chunked", plan, caches)
        ps = PrefetchingSource(source)
        factors = make_factors(source.shape, rank=4)
        with StreamingExecutor(ps, batch_size=32) as engine:
            assert engine.source is ps
            got = engine.mttkrp(factors, 0)
        # the executor's close() left the caller's source open
        with StreamingExecutor(source, batch_size=32) as engine:
            assert np.array_equal(engine.mttkrp(factors, 0), got)
        source.close()

    def test_amped_prefetch_run_leaves_nothing(self, tensor, thread_record):
        factors = make_factors(tensor.shape, rank=4)
        cfg = AmpedConfig(
            n_gpus=2, rank=4, shards_per_gpu=2, prefetch=True, batch_size=64
        )
        with AmpedMTTKRP(tensor, cfg) as ex:
            ex.mttkrp(factors, 0)
        gc.collect()
        assert not thread_record
