"""Double-buffered batch prefetch over any shard source.

:class:`PrefetchingSource` wraps a :class:`repro.engine.source.ShardSource`
and stages the *next* batch's element arrays on a background thread while
the current batch is being reduced — the host-side mirror of the
simulator's H2D/compute double-buffering (``AmpedConfig.double_buffer``).
For a memory-mapped source the staging read is what faults the next batch's
pages in, so disk latency overlaps compute (async page read-ahead); for
resident sources it prepays the slice/copy. A v2 chunked source reads
ahead on its own, per chunk rather than per batch
(:meth:`repro.engine.source.ShardSource.read_ahead_partition`), so the
executor runs no loader thread over it.

Semantics are intentionally boring: :meth:`PrefetchingSource.iter_batches`
yields exactly the wrapped source's batches, in order, with byte-identical
element arrays — prefetch changes *when* bytes are read, never *what* is
reduced, so every ``(backend, prefetch)`` cell of the equivalence matrix
stays bit-identical (a hypothesis property in
``tests/property/test_prop_engine.py`` pins this). ``depth`` bounds the
stage-ahead window: ``depth=1`` is classic double buffering (one batch in
compute, one in flight), larger depths deepen the pipeline at the cost of
``depth`` staged batches of residency — which
:func:`repro.core.simulate.host_memory_plan` accounts for.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.engine.batch import ElementBatch
from repro.engine.source import ShardSource
from repro.errors import ReproError
from repro.partition.sharding import ModePartition

__all__ = ["LoadedBatch", "PrefetchingSource", "DEFAULT_PREFETCH_DEPTH"]

#: one batch in compute + one staging = classic double buffering
DEFAULT_PREFETCH_DEPTH = 1

#: max batches a loader may stage ahead (beyond this the "prefetch" would
#: really be a second resident tensor copy)
MAX_PREFETCH_DEPTH = 64

_DONE = object()

#: give up joining a loader wedged inside one batch read (stalled disk/NFS)
#: after this many seconds — it is a daemon thread, and leaking it beats
#: hanging the caller's close()/break path on I/O that may never return
LOADER_JOIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class LoadedBatch:
    """One staged batch: the plan entry plus its materialized element arrays.

    ``indices``/``values`` hold exactly the bytes
    ``part.tensor.indices[batch.elements]`` /
    ``part.tensor.values[batch.elements]`` would read — contiguous copies,
    so reducing a staged batch touches no mmap pages.
    """

    batch: ElementBatch
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return self.batch.nnz


class _LoadFailure:
    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class _Loader:
    """One staging thread plus the queue/stop-flag it is coupled to.

    The shutdown contract lives here so both the consumer generator's
    ``finally`` (normal end, early ``break``, GeneratorExit) and
    :meth:`PrefetchingSource.close` (a consumer that abandoned the iterator
    without closing it) run the *same* join: signal ``stop``, then
    alternately drain the queue and join until the thread is dead. The
    loader re-checks ``stop`` at least every 50 ms even while blocked on a
    full queue, so the loop terminates promptly; draining just releases
    staged arrays early. A loader exception that arrives after the consumer
    stopped pulling is dropped on the floor by design — there is nobody
    left to re-raise it to, and the thread must still exit.
    """

    def __init__(self, depth: int) -> None:
        self.queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self.stop = threading.Event()
        self.thread: threading.Thread | None = None

    def put(self, item) -> bool:
        """Blocking put that aborts (returns False) once ``stop`` is set."""
        while not self.stop.is_set():
            try:
                self.queue.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def shutdown(self) -> None:
        """Stop the thread and join it; idempotent, never raises.

        The join is bounded by :data:`LOADER_JOIN_TIMEOUT`: a loader wedged
        inside one batch read (stalled I/O never re-checks ``stop``) is
        abandoned as the daemon thread it is rather than hanging the
        caller. Either way a ``_DONE`` sentinel is enqueued at the end so a
        consumer blocked in ``queue.get()`` on another thread (close() from
        elsewhere while it waits for the next batch) always wakes up — the
        stopped loader itself will never send one.
        """
        self.stop.set()
        thread = self.thread
        if thread is not None:
            deadline = time.monotonic() + LOADER_JOIN_TIMEOUT
            while thread.is_alive() and time.monotonic() < deadline:
                try:  # release staged arrays / unblock a put-in-progress
                    self.queue.get_nowait()
                except queue.Empty:
                    pass
                thread.join(timeout=0.05)
            if not thread.is_alive():
                self.thread = None
        try:
            self.queue.put_nowait(_DONE)
        except queue.Full:  # pragma: no cover - racing wedged loader
            pass


class PrefetchingSource(ShardSource):
    """A :class:`ShardSource` whose batches are staged ahead on a thread.

    Every structural accessor (``partition``/``assignment``/``shards``/
    ``mode_keys``/``process_attach_spec``/``read_ahead_partition``…)
    delegates to the wrapped source, so shard tables, batch plans, and
    process-worker attachment are those of the inner source; only batch
    *delivery* changes. The executor detects this wrapper and consumes
    :meth:`iter_batches` instead of slicing batches itself — unless the
    wrapped source reads ahead on its own (a v2 chunked cache), in which
    case it reduces the source's read-ahead partition and no loader
    thread runs.
    """

    def __init__(
        self, source: ShardSource, *, depth: int = DEFAULT_PREFETCH_DEPTH
    ) -> None:
        if not isinstance(source, ShardSource):
            raise ReproError(
                f"PrefetchingSource wraps a ShardSource, got "
                f"{type(source).__name__}"
            )
        if isinstance(source, PrefetchingSource):
            raise ReproError("PrefetchingSource is already prefetching")
        depth = int(depth)
        if not 1 <= depth <= MAX_PREFETCH_DEPTH:
            raise ReproError(
                f"prefetch depth must be in [1, {MAX_PREFETCH_DEPTH}], "
                f"got {depth}"
            )
        self.source = source
        self.depth = depth
        self._lock = threading.Lock()
        self._active: set[_Loader] = set()

    # ---- delegation ---------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.source.shape

    @property
    def nnz(self) -> int:
        return self.source.nnz

    @property
    def n_gpus(self) -> int:
        return self.source.n_gpus

    @property
    def is_out_of_core(self) -> bool:  # type: ignore[override]
        return self.source.is_out_of_core

    def partition(self, mode: int) -> ModePartition:
        return self.source.partition(mode)

    def assignment(self, mode: int) -> np.ndarray:
        return self.source.assignment(mode)

    def shards(self, mode: int):
        return self.source.shards(mode)

    def mode_keys(self, mode: int) -> np.ndarray:
        return self.source.mode_keys(mode)

    def partition_plan(self):
        return self.source.partition_plan()

    def process_attach_spec(self, mode: int):
        return self.source.process_attach_spec(mode)

    def read_ahead_partition(self, mode: int):
        return self.source.read_ahead_partition(mode)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrefetchingSource({self.source!r}, depth={self.depth})"

    # ---- lifecycle ----------------------------------------------------
    def close(self) -> None:
        """Stop and join every in-flight loader thread.

        The safety net for consumers that abandoned an :meth:`iter_batches`
        iterator without exhausting or closing it (the generator's own
        ``finally`` handles ``break``/``GeneratorExit``/exceptions): without
        this, an abandoned loader would sit blocked on its full queue until
        interpreter exit. Idempotent; does **not** close the wrapped source
        — ownership of the inner source stays with whoever created it.
        :meth:`repro.engine.executor.StreamingExecutor.close` calls this for
        wrappers the executor created itself.
        """
        while True:
            with self._lock:
                if not self._active:
                    return
                loader = next(iter(self._active))
                self._active.discard(loader)
            loader.shutdown()

    @property
    def active_loaders(self) -> int:
        """In-flight loader threads (test/introspection hook)."""
        with self._lock:
            return len(self._active)

    # ---- the point ----------------------------------------------------
    def iter_batches(
        self, mode: int, batches: Iterable[ElementBatch]
    ) -> Iterator[LoadedBatch]:
        """Yield ``batches`` as staged :class:`LoadedBatch` items, in order.

        A daemon loader thread stays at most ``depth`` batches ahead of the
        consumer (a bounded queue is the backpressure). Loader exceptions
        re-raise at the consumer's next pull; abandoning the iterator —
        ``break``, ``GeneratorExit``, an exception, or :meth:`close` on this
        source — always stops **and joins** the loader, so no daemon thread
        outlives its iterator.
        """
        part = self.source.partition(mode)
        loader = _Loader(self.depth)

        def _load() -> None:
            try:
                for batch in batches:
                    if loader.stop.is_set():
                        return
                    sl = batch.elements
                    staged = LoadedBatch(
                        batch=batch,
                        indices=np.ascontiguousarray(part.tensor.indices[sl]),
                        values=np.ascontiguousarray(part.tensor.values[sl]),
                    )
                    if not loader.put(staged):
                        return
            except BaseException as exc:  # propagate to the consumer
                loader.put(_LoadFailure(exc))
                return
            loader.put(_DONE)

        loader.thread = threading.Thread(
            target=_load, name="repro-prefetch", daemon=True
        )
        with self._lock:
            self._active.add(loader)
        loader.thread.start()
        try:
            while True:
                item = loader.queue.get()
                if item is _DONE:
                    break
                if isinstance(item, _LoadFailure):
                    raise item.exc
                yield item
        finally:
            with self._lock:
                self._active.discard(loader)
            loader.shutdown()
