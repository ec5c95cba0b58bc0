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
  task pipe: they *attach* to the element data — re-opening the shard
  cache read-only (:class:`repro.engine.source.CompressedChunkSource`
  provides the attachment spec), or mapping
  :class:`multiprocessing.shared_memory` copies of a resident mode that the
  coordinator publishes once. Factor matrices live in persistent
  shared-memory segments overwritten every call, and workers scatter-add
  their rows straight into one shared output block, so no result crosses
  the pipe either.

**Determinism contract.** :meth:`ExecutionBackend.reduce_into` leaves
``out`` exactly as ``out[rows] += partial`` applied batch by batch in plan
order would. The in-process backends and the cluster do just that over
:meth:`PairStreamBackend.map_batches`, which yields one ``(rows, partial)``
pair per input batch, *in input order*, regardless of how the backend
schedules the reductions. Every backend therefore produces bit-identical
results: each output row is one segmented reduction over the same elements
in the same order, added once to its starting value. Segment-aligned
batches over shards with disjoint index ranges never share an output row,
which is what lets :class:`ProcessBackend` apply the additions in any order.

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

from repro.engine.batch import ElementBatch, split_contiguous
from repro.errors import ReproError
from repro.tensor.kernelreg import get_kernel

__all__ = [
    "MAX_WORKERS",
    "BACKEND_NAMES",
    "validate_workers",
    "validate_backend_name",
    "create_backend",
    "ExecutionBackend",
    "PairStreamBackend",
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
#: attachments (worker side), keyed by the resident arrays' identity: a
#: backend reused across executors publishes each plan's modes anew, and
#: the cap keeps the published set bounded.
_SHM_CACHE_CAP = 8

#: Cap on persistent factor segments and output blocks (coordinator side)
#: and their attachments (worker side): one per factor position and one per
#: output shape, so a tensor of up to 16 modes keeps all of them.
_SEGMENT_CACHE_CAP = 32

#: Contiguous batch runs per process worker in one ``reduce_into`` call:
#: enough that idle workers pull the short runs while the largest one is
#: still reducing, few enough that per-task dispatch stays negligible.
_RUNS_PER_WORKER = 4


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
    :meth:`reduce_into`), :meth:`close` releases
    pools and shared memory
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
        """Acquire pools/shared state (idempotent; called lazily)."""
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
    def reduce_into(
        self,
        part,
        factors: Sequence[np.ndarray],
        mode: int,
        items: Iterable,
        out: np.ndarray,
        *,
        attach=None,
        kernel: str = "numpy",
    ) -> np.ndarray:
        """Scatter-add the reduction of every item of ``items`` into ``out``.

        The operation :class:`repro.engine.executor.StreamingExecutor` runs
        per ``mttkrp`` call. ``items`` are :class:`ElementBatch` slices of
        ``part``. ``attach`` is the source's process-attachment spec
        (:meth:`repro.engine.source.ShardSource.process_attach_spec`) —
        in-process backends ignore it; :class:`ProcessBackend` uses it to
        reach the element bytes without pickling them. ``kernel`` names the
        :mod:`repro.tensor.kernelreg` tier every reduction dispatches to
        (default: the bit-exact numpy reference); process workers resolve
        the name in their own registry, so a tier that fails to build in a
        worker degrades to numpy there too. The result equals
        ``out[rows] += partial`` in item order (the module docstring says
        why any order of the additions is exact). Returns ``out``.
        """


class PairStreamBackend(ExecutionBackend):
    """A backend whose reductions come back to this process as a stream of
    ``(rows, partial)`` pairs, added to ``out`` in item order."""

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
        """Yield ``(rows, partial)`` for every item of ``items``, in order
        (arguments as for :meth:`reduce_into`). The iterator must be
        consumed fully (:meth:`reduce_into` and the cluster's nodes always
        do)."""

    def reduce_into(self, part, factors, mode, items, out, *, attach=None,
                    kernel="numpy"):
        for rows, partial in self.map_batches(
            part, factors, mode, items, attach=attach, kernel=kernel
        ):
            out[rows] += partial
        return out


class SerialBackend(PairStreamBackend):
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


class ThreadBackend(PairStreamBackend):
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
def _attach_view(desc, writable: bool = False):
    """Map a coordinator-published segment; returns (array, closer).

    On Linux a shared-memory segment is a plain file under ``/dev/shm``, so
    workers map it with :class:`numpy.memmap` (read-only unless
    ``writable``) — no
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
            np.memmap(
                path, dtype=np.dtype(dtype), mode="r+" if writable else "r",
                shape=tuple(shape),
            ),
            None,
        )
    from multiprocessing import shared_memory  # pragma: no cover - non-Linux

    shm = shared_memory.SharedMemory(name=name)  # pragma: no cover
    return _shm_view(shm, desc), shm  # pragma: no cover


def _create_segment(shape, dtype):
    """A fresh shared-memory block sized for ``(shape, dtype)``; returns
    ``(shm, desc)``."""
    from multiprocessing import shared_memory

    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    return shm, (shm.name, tuple(shape), dtype.str)


def _publish_array(arr: np.ndarray):
    """Copy an array into a fresh shared-memory block; return (shm, desc)."""
    shm, desc = _create_segment(arr.shape, arr.dtype)
    _shm_view(shm, desc)[...] = arr
    return shm, desc


def _shm_view(shm, desc) -> np.ndarray:
    _, shape, dtype = desc
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


def _largest_first_runs(sizes: Sequence[int], parts: int) -> list[tuple[int, int]]:
    """Group items into at most ``parts`` size-balanced contiguous runs.

    Returns the non-empty ``(start, stop)`` runs of
    :func:`repro.engine.batch.split_contiguous`, largest total size first
    (ties in item order), so a skewed shard is dispatched before the runs
    idle workers can pull behind it.
    """
    runs = [r for r in split_contiguous(sizes, parts) if r[1] > r[0]]
    return sorted(runs, key=lambda r: -sum(sizes[r[0]:r[1]]))


# ---- worker-process state (module-level: workers import this module) ----
_WORKER_ELEMENTS: "OrderedDict[tuple, tuple]" = OrderedDict()
# segment name -> (array, closer): factor segments and output blocks
_WORKER_SEGMENTS: "OrderedDict[str, tuple]" = OrderedDict()


def _close_shms(shms) -> None:
    for shm in shms:
        try:
            shm.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


def _evict_worker_elements() -> None:
    while len(_WORKER_ELEMENTS) > _SHM_CACHE_CAP:
        _, (_indices, _values, shms) = _WORKER_ELEMENTS.popitem(last=False)
        _close_shms(shms)


def _worker_elements(spec, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """The (indices, values) arrays a worker reduces — attached, never piped.

    ``("chunked_v2", path)`` re-opens the shard cache read-only: the
    arrays are lazy :class:`repro.tensor.io_v2.ChunkedArray` views, so each
    worker maps (``codec="none"``: the page cache is shared, nothing is
    copied) or reads and decompresses only the chunks its batches cover.
    ``("shm", idx_desc, val_desc)`` maps the coordinator's shared-memory
    copies of a resident mode.
    """
    key = (spec, mode)
    if key in _WORKER_ELEMENTS:
        _WORKER_ELEMENTS.move_to_end(key)
        indices, values, _shms = _WORKER_ELEMENTS[key]
        return indices, values
    kind = spec[0]
    if kind == "chunked_v2":
        from repro.tensor.io_v2 import load_shard_cache_v2

        reader = load_shard_cache_v2(spec[1])
        indices = reader.array(f"mode{mode}_indices")
        values = reader.array(f"mode{mode}_values")
        shms: tuple = ()
    elif kind == "shm":
        indices, idx_closer = _attach_view(spec[1])
        values, val_closer = _attach_view(spec[2])
        shms = tuple(c for c in (idx_closer, val_closer) if c is not None)
    else:  # pragma: no cover - specs are produced by this module
        raise ReproError(f"unknown process attachment spec {spec!r}")
    _WORKER_ELEMENTS[key] = (indices, values, shms)
    _evict_worker_elements()
    return indices, values


def _worker_segment(desc, writable: bool = False) -> np.ndarray:
    """A persistent segment's array, attached once per worker.

    Segment names are unique for the segment's lifetime and the coordinator
    overwrites a segment in place between calls, so a kept attachment
    always sees the current contents.
    """
    name = desc[0]
    if name in _WORKER_SEGMENTS:
        _WORKER_SEGMENTS.move_to_end(name)
        return _WORKER_SEGMENTS[name][0]
    array, closer = _attach_view(desc, writable)
    _WORKER_SEGMENTS[name] = (array, closer)
    while len(_WORKER_SEGMENTS) > _SEGMENT_CACHE_CAP:
        _, (_array, old) = _WORKER_SEGMENTS.popitem(last=False)
        _close_shms([old] if old is not None else [])
    return array


def _process_scatter_task(task) -> None:
    """Top-level worker entry point of ``reduce_into``: reduce one run of
    batches and scatter-add each into the shared output block.

    ``block[rows] += partial`` is the serial path's arithmetic on every
    row; no other task touches these rows (see the module docstring). The
    kernel travels as its registry *name*: each worker resolves it against
    its own lazily-probed registry, so a fork inherits the coordinator's
    compiled state while a spawn re-probes (hitting the on-disk ``cc``
    object cache) — and a tier that fails to build inside a worker
    degrades to numpy there.
    """
    spec, mode, factor_descs, out_desc, bounds, kernel = task
    indices, values = _worker_elements(spec, mode)
    factors = [_worker_segment(d) for d in factor_descs]
    block = _worker_segment(out_desc, writable=True)
    for lo, hi in bounds:
        rows, partial = reduce_batch_arrays(
            indices[lo:hi], values[lo:hi], factors, mode, kernel
        )
        block[rows] += partial


class ProcessBackend(ExecutionBackend):
    """A persistent :mod:`multiprocessing` pool; tensor bytes never pickle.

    Element data reaches workers by *attachment*: an out-of-core source's
    shard cache is re-opened read-only inside each worker (``attach`` spec
    from
    :meth:`repro.engine.source.CompressedChunkSource.process_attach_spec`),
    while a resident mode is published once into
    :class:`multiprocessing.shared_memory` blocks the workers map. Each
    factor gets one persistent segment per ``(position, shape, dtype)``,
    overwritten every call; workers keep their attachments.

    :meth:`reduce_into` copies ``out`` into a shared output block (one per
    ``(shape, dtype)``, reused across calls), groups the batches into
    ``4 × workers`` nnz-balanced contiguous runs, dispatches them largest
    first, and lets each worker scatter-add its rows into the block; once
    every task is done the block is copied back into ``out``. A task is a
    few dozen bytes — ``(spec key, mode, factor descriptors, block
    descriptor, element bounds)`` — and nothing but a completion crosses
    the pipe back.

    One call at a time: calls overwrite the same factor segments and
    output block.
    """

    name = "process"
    parallel = True
    crosses_processes = True

    def __init__(self, workers: int = 2) -> None:
        super().__init__(workers)
        self._pool = None
        # (array ids) -> (spec, shm blocks, strong array refs pinning the ids)
        self._shm_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # (position | "out", shape, dtype) -> (shm, desc): factor segments
        # and output blocks, created once and overwritten every call
        self._segments: "OrderedDict[tuple, tuple]" = OrderedDict()

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
        shared-memory segments (mode copies, factor segments and output
        blocks) from being unlinked: leaked segments are what the
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
        while self._segments:
            _, (shm, _desc) = self._segments.popitem(last=False)
            self._release([shm])
        super().close()

    def __del__(self):  # pragma: no cover - GC safety net for unclosed pools
        try:
            self.close()
        except Exception:
            pass

    @staticmethod
    def _release(shms) -> None:
        """Unlink, then close: the name goes even while an array over the
        block (say, one held by a traceback) keeps ``close`` from
        unmapping it."""
        for shm in shms:
            try:
                shm.unlink()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        _close_shms(shms)

    def _shared_spec(self, part) -> tuple:
        """Publish (or reuse) shared-memory copies of a resident mode.

        The segments keep the mode copy's dtypes, so a plan's narrow index
        block is published as is: ``nnz * (nmodes * itemsize + 8)`` bytes
        per mode, and the reduced ``rows`` stay narrow too.
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

    def _segment(self, tag, shape, dtype) -> tuple:
        """The persistent segment for ``(tag, shape, dtype)``; returns
        ``(shm, desc)``, creating it on first use."""
        key = (tag, tuple(shape), np.dtype(dtype).str)
        if key in self._segments:
            self._segments.move_to_end(key)
            return self._segments[key]
        self._segments[key] = _create_segment(shape, dtype)
        while len(self._segments) > _SEGMENT_CACHE_CAP:
            _, (shm, _desc) = self._segments.popitem(last=False)
            self._release([shm])
        return self._segments[key]

    def _publish_factors(self, factors) -> tuple:
        """Overwrite each factor's persistent segment; returns descriptors.

        Publication preserves dtype: workers must reduce with exactly the
        factors the serial path would use, or bit-identity breaks for
        non-float64 inputs.
        """
        descs = []
        for position, f in enumerate(factors):
            f = np.asarray(f)
            shm, desc = self._segment(position, f.shape, f.dtype)
            _shm_view(shm, desc)[...] = f
            descs.append(desc)
        return tuple(descs)

    @property
    def published_modes(self) -> int:
        """Resident modes currently published to shared memory (test hook:
        stays 0 when workers attach to a shard cache instead)."""
        return len(self._shm_cache)

    def reduce_into(self, part, factors, mode, items, out, *, attach=None,
                    kernel="numpy"):
        self.start()
        bounds = [_item_bounds(item) for item in items]
        runs = _largest_first_runs(
            [hi - lo for lo, hi in bounds], _RUNS_PER_WORKER * self.workers
        )
        if not runs:
            return out
        spec = attach if attach is not None else self._shared_spec(part)
        factor_descs = self._publish_factors(factors)
        shm, out_desc = self._segment("out", out.shape, out.dtype)
        block = _shm_view(shm, out_desc)
        block[...] = out
        tasks = [
            (spec, mode, factor_descs, out_desc, tuple(bounds[i0:i1]), kernel)
            for i0, i1 in runs
        ]
        results = self._pool.imap_unordered(_process_scatter_task, tasks)
        failure = None
        for _ in tasks:
            # Wait for every task, even after one failed, so no worker is
            # still writing into the block when this call returns.
            try:
                next(results)
            except Exception as exc:  # a worker's exception, re-raised below
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        out[...] = block
        return out
