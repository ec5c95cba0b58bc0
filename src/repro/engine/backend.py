"""Pluggable execution backends for the streaming engine.

The streaming engine separates *what* is reduced (segment-aligned element
batches, planned by :mod:`repro.engine.batch`) from *where* the partial
results are computed. An :class:`ExecutionBackend` owns the "where":

* :class:`SerialBackend` — reduce in the calling thread (the zero-overhead
  default, and the canonical ordering every other backend must reproduce);
* :class:`ThreadBackend` — a persistent :class:`ThreadPoolExecutor`. NumPy
  releases the GIL inside the vectorized kernels, so threads overlap for
  large batches; the pool outlives individual ``mttkrp`` calls instead of
  being rebuilt per call;
* :class:`ProcessBackend` — a persistent :mod:`multiprocessing` pool for
  true multi-core scaling. Workers never receive tensor bytes through the
  task pipe: they *attach* to the element data — re-opening a memory-mapped
  ``.npz`` shard cache read-only (:class:`repro.engine.source.MmapNpzSource`
  provides the attachment spec), or mapping
  :class:`multiprocessing.shared_memory` copies of a resident mode that the
  coordinator publishes once. Factor matrices travel the same way (one
  shared-memory publication per ``map_batches`` call). Only the reduced
  ``(rows, partial)`` blocks cross the pipe back.

**Determinism contract.** ``map_batches`` yields one ``(rows, partial)``
pair per input batch, *in input order*, regardless of how the backend
schedules the reductions. The coordinator scatter-adds the pairs as they
arrive, so every backend produces bit-identical results: each output row is
still one segmented reduction over the same elements in the same order, and
the scatter-add order is fixed by the batch plan, not the scheduler.

Worker validation (``1 <= workers <= MAX_WORKERS``) lives here once and is
reused by :class:`repro.core.config.AmpedConfig`, the CLI, and
:class:`repro.engine.executor.StreamingExecutor` — the single source of
truth for the knob's domain.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.engine.batch import ElementBatch
from repro.errors import ReproError
from repro.tensor.kernelreg import get_kernel

__all__ = [
    "MAX_WORKERS",
    "BACKEND_NAMES",
    "validate_workers",
    "validate_backend_name",
    "create_backend",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "reduce_batch",
    "reduce_batch_arrays",
]

#: Worker counts above this are almost certainly a configuration mistake
#: (the engine uses one OS thread / process per worker).
MAX_WORKERS = 256

#: The backend registry: ``create_backend`` accepts these names.
#: ``"cluster"`` resolves to :class:`repro.engine.cluster.ClusterBackend`
#: (a 2-node loopback by default — callers wanting more nodes or remote
#: addresses construct the instance themselves and pass it through).
BACKEND_NAMES = ("serial", "thread", "process", "cluster")

#: Cap on cached shared-memory mode copies (coordinator side) and cached
#: attachments (worker side). Regenerating sources (SyntheticSource) produce
#: fresh arrays per sweep; the cap keeps republication bounded.
_SHM_CACHE_CAP = 8


def validate_workers(workers) -> int:
    """The one ``workers`` domain check (config, CLI, executor all call it)."""
    workers = int(workers)
    if not 1 <= workers <= MAX_WORKERS:
        raise ReproError(
            f"workers must be in [1, {MAX_WORKERS}], got {workers}"
        )
    return workers


def validate_backend_name(name) -> str:
    if not isinstance(name, str) or name not in BACKEND_NAMES:
        raise ReproError(
            f"backend must be one of {list(BACKEND_NAMES)} (or an "
            f"ExecutionBackend instance), got {name!r}"
        )
    return name


def create_backend(spec, workers: int = 1) -> "ExecutionBackend":
    """Resolve a backend spec (name, ``None``, or instance) to an instance.

    ``None`` means ``"serial"``, which takes only ``workers == 1``. Passing
    an instance returns it unchanged (``workers`` must then be left at its
    default — the instance already owns its worker count).
    """
    if isinstance(spec, ExecutionBackend):
        if workers != 1:
            raise ReproError(
                f"workers={workers} conflicts with the provided "
                f"{type(spec).__name__} instance (it already owns "
                f"workers={spec.workers}); pass one or the other"
            )
        return spec
    workers = validate_workers(workers)
    if spec is None:
        spec = "serial"
    validate_backend_name(spec)
    if spec == "serial":
        return SerialBackend(workers)
    if spec == "thread":
        return ThreadBackend(workers)
    if spec == "cluster":
        from repro.engine.cluster import ClusterBackend  # avoid cycle

        return ClusterBackend(workers=workers)
    return ProcessBackend(workers)


# ----------------------------------------------------------------------
# The per-batch reduction (pure — shared by every backend)
# ----------------------------------------------------------------------
def reduce_batch_arrays(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    kernel: str = "numpy",
) -> tuple[np.ndarray, np.ndarray]:
    """Segmented reduction of one batch's (already materialized) elements.

    ``rows`` are the distinct output-mode indices of the batch's segments
    and ``partial`` their summed contribution rows — the per-segment
    reduction of :func:`repro.tensor.kernels.mttkrp_sorted_segments`, split
    from the scatter-add so workers stay pure. ``kernel`` names the
    :mod:`repro.tensor.kernelreg` tier to dispatch to (default: the
    bit-exact ``numpy`` reference).
    """
    spec = get_kernel(kernel)
    return spec.reduce_batch(indices, values, factors, mode)


def reduce_batch(
    part,
    batch: ElementBatch,
    factors: Sequence[np.ndarray],
    mode: int,
    kernel: str = "numpy",
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce one element batch of ``part`` without touching shared state.

    When ``part.tensor`` is a memory-mapped view, the two slices below are
    the only element reads of the whole reduction — this is where
    out-of-core paging happens.
    """
    sl = batch.elements
    return reduce_batch_arrays(
        part.tensor.indices[sl], part.tensor.values[sl], factors, mode, kernel
    )


def _item_bounds(batch: ElementBatch) -> tuple[int, int]:
    return int(batch.elements.start), int(batch.elements.stop)


# ----------------------------------------------------------------------
# The backend interface
# ----------------------------------------------------------------------
class ExecutionBackend(ABC):
    """Where batch reductions run; see the module docstring for the contract.

    Lifecycle: backends are created once and reused across ``mttkrp``
    calls — :meth:`start` is idempotent (and called lazily by
    :meth:`map_batches`), :meth:`close` releases pools and shared memory
    deterministically. Both are safe to call repeatedly; backends are
    context managers.
    """

    #: registry name of the implementation
    name: str = "abstract"
    #: True when reductions can overlap the coordinator thread
    parallel: bool = False
    #: True when batch payloads cross a process boundary (drives the
    #: attachment machinery and the simulator's host staging accounting)
    crosses_processes: bool = False

    def __init__(self, workers: int = 1) -> None:
        self.workers = validate_workers(workers)
        self._closed = False

    # ---- lifecycle ----------------------------------------------------
    def start(self) -> None:
        """Acquire pools/shared state (idempotent; lazy via map_batches)."""
        if self._closed:
            raise ReproError(
                f"{type(self).__name__} is closed; create a new backend"
            )

    def close(self) -> None:
        """Release pools and shared state (idempotent)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ExecutionBackend":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}(workers={self.workers}, {state})"

    # ---- the one operation --------------------------------------------
    @abstractmethod
    def map_batches(
        self,
        part,
        factors: Sequence[np.ndarray],
        mode: int,
        items: Iterable,
        *,
        attach=None,
        kernel: str = "numpy",
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(rows, partial)`` for every item of ``items``, in order.

        ``items`` are :class:`ElementBatch` slices of ``part``. ``attach`` is
        the source's process-attachment spec
        (:meth:`repro.engine.source.ShardSource.process_attach_spec`) —
        in-process backends ignore it; :class:`ProcessBackend` uses it to
        reach the element bytes without pickling them. ``kernel`` names the
        :mod:`repro.tensor.kernelreg` tier every reduction dispatches to
        (default: the bit-exact numpy reference); process workers resolve
        the name in their own registry, so a tier that fails to build in a
        worker degrades to numpy there too. The iterator must be consumed
        fully (the executor and grid always do).
        """


class SerialBackend(ExecutionBackend):
    """Reduce every batch in the calling thread — the canonical order."""

    name = "serial"
    parallel = False

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        if self.workers != 1:
            raise ReproError(
                f"SerialBackend runs in the calling thread; workers must "
                f"be 1, got {self.workers} (name backend=\"thread\" or "
                f"\"process\" for a worker pool)"
            )

    def map_batches(self, part, factors, mode, items, *, attach=None,
                    kernel="numpy"):
        self.start()
        for item in items:
            yield reduce_batch(part, item, factors, mode, kernel)


class ThreadBackend(ExecutionBackend):
    """A persistent thread pool.

    The pool is created once at :meth:`start` and reused by every
    ``map_batches`` call, so no ``ThreadPoolExecutor`` is built per call.
    In-flight work is bounded to ``workers + 2`` batches so partial results
    never pile up unboundedly.
    """

    name = "thread"
    parallel = True

    def __init__(self, workers: int = 2) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None

    def start(self) -> None:
        super().start()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-engine"
            )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()

    def map_batches(self, part, factors, mode, items, *, attach=None,
                    kernel="numpy"):
        self.start()
        window = self.workers + 2
        pending: deque = deque()
        for item in items:
            pending.append(
                self._pool.submit(reduce_batch, part, item, factors, mode, kernel)
            )
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


# ----------------------------------------------------------------------
# Process backend: shared-memory / mmap attachment
# ----------------------------------------------------------------------
def _attach_view(desc):
    """Map a coordinator-published segment read-only; returns (array, closer).

    On Linux a shared-memory segment is a plain file under ``/dev/shm``, so
    workers map it with :class:`numpy.memmap` — no
    :class:`multiprocessing.shared_memory.SharedMemory` object is created in
    the worker, which keeps the resource tracker's bookkeeping entirely on
    the coordinator side (create registers, unlink unregisters; worker
    attachments would otherwise race the tracker when pool workers are
    terminated). Elsewhere, fall back to a ``SharedMemory`` attachment.
    """
    name, shape, dtype = desc
    path = os.path.join("/dev/shm", name)
    if os.path.exists(path):
        return (
            np.memmap(path, dtype=np.dtype(dtype), mode="r", shape=tuple(shape)),
            None,
        )
    from multiprocessing import shared_memory  # pragma: no cover - non-Linux

    shm = shared_memory.SharedMemory(name=name)  # pragma: no cover
    return _shm_view(shm, desc), shm  # pragma: no cover


def _publish_array(arr: np.ndarray):
    """Copy an array into a fresh shared-memory block; return (shm, desc)."""
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return shm, (shm.name, arr.shape, arr.dtype.str)


def _shm_view(shm, desc) -> np.ndarray:
    _, shape, dtype = desc
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


# ---- worker-process state (module-level: workers import this module) ----
_WORKER_ELEMENTS: "OrderedDict[tuple, tuple]" = OrderedDict()
_WORKER_FACTORS: dict = {"call": None, "shms": [], "factors": None}


def _evict_worker_elements() -> None:
    while len(_WORKER_ELEMENTS) > _SHM_CACHE_CAP:
        _, (_indices, _values, shms) = _WORKER_ELEMENTS.popitem(last=False)
        for shm in shms:
            try:
                shm.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass


def _worker_elements(spec, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """The (indices, values) arrays a worker reduces — attached, never piped.

    ``("mmap_npz", path)`` re-opens the shard cache read-only (the arrays
    are ``np.memmap`` views over the same on-disk bytes the coordinator
    maps; the page cache is shared, so nothing is copied).
    ``("chunked_v2", path)`` re-opens a v2 chunked/compressed cache: the
    arrays are lazy :class:`repro.tensor.io_v2.ChunkedArray` views, so each
    worker reads and decompresses only the chunks its batches cover.
    ``("shm", idx_desc, val_desc)`` maps the coordinator's shared-memory
    copies of a resident mode.
    """
    key = (spec, mode)
    if key in _WORKER_ELEMENTS:
        _WORKER_ELEMENTS.move_to_end(key)
        indices, values, _shms = _WORKER_ELEMENTS[key]
        return indices, values
    kind = spec[0]
    if kind == "mmap_npz":
        from repro.tensor.io import load_shard_cache

        arrays = load_shard_cache(spec[1], mmap=True)
        indices = arrays[f"mode{mode}_indices"]
        values = arrays[f"mode{mode}_values"]
        shms: tuple = ()
    elif kind == "chunked_v2":
        from repro.tensor.io_v2 import load_shard_cache_v2

        reader = load_shard_cache_v2(spec[1])
        indices = reader.array(f"mode{mode}_indices")
        values = reader.array(f"mode{mode}_values")
        shms = ()
    elif kind == "shm":
        indices, idx_closer = _attach_view(spec[1])
        values, val_closer = _attach_view(spec[2])
        shms = tuple(c for c in (idx_closer, val_closer) if c is not None)
    else:  # pragma: no cover - specs are produced by this module
        raise ReproError(f"unknown process attachment spec {spec!r}")
    _WORKER_ELEMENTS[key] = (indices, values, shms)
    _evict_worker_elements()
    return indices, values


def _worker_factors(call_id, descs) -> list[np.ndarray]:
    """Attach this call's factor publication (cached per call id)."""
    if _WORKER_FACTORS["call"] != call_id:
        for shm in _WORKER_FACTORS["shms"]:
            try:
                shm.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        attached = [_attach_view(d) for d in descs]
        _WORKER_FACTORS.update(
            call=call_id,
            shms=[c for _, c in attached if c is not None],
            factors=[arr for arr, _ in attached],
        )
    return _WORKER_FACTORS["factors"]


def _process_reduce_task(task):
    """Top-level worker entry point (must be picklable by name).

    The kernel travels as its registry *name* (a short string), not a
    callable: each worker resolves it against its own lazily-probed
    registry, so a fork inherits the coordinator's compiled state while a
    spawn re-probes (hitting the on-disk ``cc`` object cache) — and a tier
    that fails to build inside a worker degrades to numpy there.
    """
    spec, mode, call_id, factor_descs, (lo, hi), kernel = task
    indices, values = _worker_elements(spec, mode)
    factors = _worker_factors(call_id, factor_descs)
    return reduce_batch_arrays(
        indices[lo:hi], values[lo:hi], factors, mode, kernel
    )


class ProcessBackend(ExecutionBackend):
    """A persistent :mod:`multiprocessing` pool; tensor bytes never pickle.

    Element data reaches workers by *attachment*: an out-of-core source's
    shard cache is re-opened read-only inside each worker (``attach`` spec
    from :meth:`repro.engine.source.MmapNpzSource.process_attach_spec`),
    while a resident mode is published once into
    :class:`multiprocessing.shared_memory` blocks the workers map. Factors
    are published the same way, once per ``map_batches`` call. Each task is
    therefore a few dozen bytes — ``(spec key, mode, call id, factor
    descriptors, element bounds)`` — and only the reduced ``(rows,
    partial)`` blocks travel back.
    """

    name = "process"
    parallel = True
    crosses_processes = True

    #: tasks batched per pipe message (amortizes IPC without hurting balance)
    chunksize = 4

    def __init__(self, workers: int = 2) -> None:
        super().__init__(workers)
        self._pool = None
        self._call_id = 0
        # (array ids) -> (spec, shm blocks, strong array refs pinning the ids)
        self._shm_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # factor publications of map_batches calls still in flight — close()
        # releases them if a generator was abandoned mid-iteration (e.g. a
        # worker exception unwound the consumer before GeneratorExit ran)
        self._inflight_factors: list[list] = []

    def start(self) -> None:
        super().start()
        if self._pool is None:
            import multiprocessing as mp

            self._pool = mp.get_context().Pool(processes=self.workers)

    def close(self) -> None:
        """Release the pool and every shared-memory segment; never raises.

        Deliberately tolerant: ``close()`` runs after worker exceptions
        (the pool may hold dead or wedged processes) and may run twice —
        once via a ``with`` block and again via
        :meth:`repro.core.amped.AmpedMTTKRP.close` — so teardown must stay
        idempotent, and a pool that fails to terminate must not keep the
        shared-memory segments (mode copies *and* in-flight factor
        publications) from being unlinked: leaked segments are what the
        ``resource_tracker`` warns about at interpreter exit.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # pragma: no cover - wedged/poisoned pool
                pass
        while self._shm_cache:
            _, (_spec, shms, _refs) = self._shm_cache.popitem(last=False)
            self._release(shms)
        while self._inflight_factors:
            self._release(self._inflight_factors.pop())
        super().close()

    def __del__(self):  # pragma: no cover - GC safety net for unclosed pools
        try:
            self.close()
        except Exception:
            pass

    @staticmethod
    def _release(shms) -> None:
        for shm in shms:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def _shared_spec(self, part) -> tuple:
        """Publish (or reuse) shared-memory copies of a resident mode.

        The segments keep the mode copy's dtypes, so a plan's narrow index
        block is published as is: ``nnz * (nmodes * itemsize + 8)`` bytes
        per mode, and the reduced ``rows`` come back narrow too.
        """
        indices = part.tensor.indices
        values = part.tensor.values
        key = (id(indices), id(values))
        if key in self._shm_cache:
            self._shm_cache.move_to_end(key)
            return self._shm_cache[key][0]
        idx_shm, idx_desc = _publish_array(indices)
        val_shm, val_desc = _publish_array(values)
        spec = ("shm", idx_desc, val_desc)
        self._shm_cache[key] = (spec, (idx_shm, val_shm), (indices, values))
        while len(self._shm_cache) > _SHM_CACHE_CAP:
            _, (_spec, shms, _refs) = self._shm_cache.popitem(last=False)
            self._release(shms)
        return spec

    @property
    def published_modes(self) -> int:
        """Resident modes currently published to shared memory (test hook:
        stays 0 when workers attach to an mmap shard cache instead)."""
        return len(self._shm_cache)

    @property
    def inflight_publications(self) -> int:
        """Factor publications not yet released (test hook: 0 after every
        fully consumed or abandoned ``map_batches`` call is cleaned up)."""
        return len(self._inflight_factors)

    def map_batches(self, part, factors, mode, items, *, attach=None,
                    kernel="numpy"):
        self.start()
        self._call_id += 1
        call_id = self._call_id
        spec = attach if attach is not None else self._shared_spec(part)
        # Publication preserves dtype: workers must reduce with exactly the
        # factors the serial path would use, or bit-identity breaks for
        # non-float64 inputs.
        published = [_publish_array(np.asarray(f)) for f in factors]
        factor_shms = [shm for shm, _ in published]
        factor_descs = tuple(desc for _, desc in published)
        self._inflight_factors.append(factor_shms)
        try:
            tasks = (
                (spec, mode, call_id, factor_descs, _item_bounds(item), kernel)
                for item in items
            )
            for rows, partial in self._pool.imap(
                _process_reduce_task, tasks, chunksize=self.chunksize
            ):
                yield rows, partial
        finally:
            if factor_shms in self._inflight_factors:
                self._inflight_factors.remove(factor_shms)
                self._release(factor_shms)
