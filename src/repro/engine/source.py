"""Shard sources: where the streaming engine's element batches come from.

A :class:`ShardSource` hands :class:`repro.engine.StreamingExecutor` the
AMPED preprocessing output (one mode-sorted tensor copy per mode, its
equal-width shard table, and the static shard→GPU assignment) and hides
where the element bytes live. There are two:

* :class:`InMemorySource` — a resident
  :class:`repro.partition.plan.PartitionPlan` (zero copies). This is what
  :class:`repro.core.amped.AmpedMTTKRP` builds from a tensor;
* :class:`CompressedChunkSource` — a shard cache on disk
  (:func:`repro.tensor.io.write_shard_cache_v2`). A ``codec="none"`` cache
  is memory-mapped, so slicing a batch faults in only that batch's pages;
  a compressed one serves batches by explicit double-buffered chunk reads
  + decompression, and with prefetch on
  (:class:`repro.engine.prefetch.PrefetchingSource`) the next chunks
  decompress on the reader's decode pool while the current batch reduces.
  Either way the resident tensor footprint is O(batch), not O(nnz), which
  is what opens tensors larger than host memory.

:func:`open_shard_source` opens a cache file as its source.

Both shard through :func:`repro.partition.plan.shard_layout`, and both
yield **mode-sorted copies with identical coordinates**, stored in the
narrowest index dtype of the shape (:func:`repro.tensor.coo.index_dtype`;
caches before manifest version 4 in int64), with the same values. So they
give the same shard tables, the same segment-aligned
:class:`repro.engine.batch.BatchPlan` boundaries, and bit-identical MTTKRP
results. The source/equivalence matrix in ``tests/engine/test_sources.py``
and ``tests/golden/`` pins this.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ReproError
from repro.partition.plan import (
    PartitionPlan,
    build_partition_plan,
    shard_layout,
)
from repro.partition.sharding import ModePartition, Shard
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.io_v2 import (
    DEFAULT_CHUNK_CACHE,
    READ_AHEAD_CHUNKS,
    load_shard_cache_v2,
    shard_cache_path,
)

__all__ = [
    "ShardSource",
    "InMemorySource",
    "CompressedChunkSource",
    "COOView",
    "open_shard_source",
]

#: chunk length for streaming reductions over (possibly memory-mapped) values
_NORM_CHUNK = 1 << 20


class COOView:
    """Duck-typed COO tensor over externally owned (possibly mmap) arrays.

    Quacks like :class:`repro.tensor.coo.SparseTensorCOO` for every consumer
    the engine family touches (``indices``/``values``/``shape``/``nnz``/
    ``nmodes``/``norm``) but skips the eager full-array validation scan of
    ``SparseTensorCOO.__post_init__`` — for a memory-mapped cache that scan
    would read the whole file at open, defeating lazy paging. The cache
    writer validated the arrays once at build time.
    """

    __slots__ = ("indices", "values", "shape")

    def __init__(
        self, indices: np.ndarray, values: np.ndarray, shape: tuple[int, ...]
    ) -> None:
        self.indices = indices
        self.values = values
        self.shape = tuple(int(s) for s in shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def nmodes(self) -> int:
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        return int(self.indices.nbytes + self.values.nbytes)

    def norm(self) -> float:
        """Frobenius norm, reduced in chunks so mmap pages stream through."""
        total = 0.0
        for lo in range(0, self.nnz, _NORM_CHUNK):
            chunk = np.asarray(self.values[lo : lo + _NORM_CHUNK], dtype=np.float64)
            total += float(np.dot(chunk, chunk))
        return float(np.sqrt(total))

    def as_coo(self) -> SparseTensorCOO:
        """Materialize (and validate) an in-memory ``SparseTensorCOO``."""
        return SparseTensorCOO(
            np.asarray(self.indices, dtype=np.int64),
            np.asarray(self.values, dtype=np.float64),
            self.shape,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOView(shape={self.shape}, nnz={self.nnz})"


class ShardSource(ABC):
    """Yields segment-aligned element batches of the per-mode tensor copies.

    Subclasses provide the mode-sorted element data (resident or on disk),
    the shard tables and the shard→GPU assignment the AMPED algorithm
    schedules on. :class:`repro.engine.StreamingExecutor` is the consumer:
    it plans batches over :meth:`mode_keys` and reduces the blocks
    :meth:`partition` exposes.
    """

    #: True when element data lives outside host RAM (drives batch-size
    #: autotuning and the simulator's host staging accounting).
    is_out_of_core: bool = False

    # ---- identity ----------------------------------------------------
    @property
    @abstractmethod
    def shape(self) -> tuple[int, ...]: ...

    @property
    @abstractmethod
    def nnz(self) -> int: ...

    @property
    @abstractmethod
    def n_gpus(self) -> int: ...

    @property
    def nmodes(self) -> int:
        return len(self.shape)

    # ---- per-mode structure ------------------------------------------
    @abstractmethod
    def partition(self, mode: int) -> ModePartition:
        """Shard table + (possibly lazy) mode-sorted copy of one mode."""

    @abstractmethod
    def assignment(self, mode: int) -> np.ndarray:
        """Static shard→GPU assignment of one mode."""

    @abstractmethod
    def shards(self, mode: int) -> tuple[Shard, ...]:
        """The shard table of one mode.

        Metadata only, so callers that need the table (e.g. workload
        construction) never force a mode copy to materialize.
        """

    def mode_keys(self, mode: int) -> np.ndarray:
        """The sorted output-mode key column (overridden where a contiguous
        copy avoids strided reads through the wide index block)."""
        part = self.partition(mode)
        return part.tensor.indices[:, mode]

    def shards_for_gpu(self, mode: int, gpu: int) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.assignment(mode) == gpu)]

    def process_attach_spec(self, mode: int):
        """How a :class:`repro.engine.backend.ProcessBackend` worker reaches
        this source's element bytes without pickling them.

        ``None`` (the default) means "no out-of-band attachment": the
        backend publishes shared-memory copies of the resident mode arrays
        instead. :class:`CompressedChunkSource` overrides this with its
        cache path so workers re-open the cache read-only — for a mapped
        ``codec="none"`` cache zero tensor bytes are copied anywhere (the
        OS page cache is shared across processes).
        """
        return None

    def read_ahead_partition(self, mode: int) -> ModePartition | None:
        """:meth:`partition` with element arrays that decode ahead of a
        sequential in-process consumer, for sources that read ahead
        themselves.

        ``None`` (the default) means the source has no read-ahead of its
        own: a prefetching executor reduces :meth:`partition` as is.
        """
        return None

    # ---- whole-plan views --------------------------------------------
    def partition_plan(self) -> PartitionPlan:
        """A full :class:`PartitionPlan` view over this source.

        For a shard cache the per-mode tensors inside the plan are lazy
        (mapped or chunk-read) views; nothing is read until they are sliced.
        """
        return PartitionPlan(
            n_gpus=self.n_gpus,
            modes=tuple(self.partition(m) for m in range(self.nmodes)),
            assignments=tuple(self.assignment(m) for m in range(self.nmodes)),
        )

    def tensor_view(self):
        """A COO-duck view of the whole tensor (any element order)."""
        return self.partition(0).tensor

    def validate(self) -> None:
        """Check partition invariants of every mode (test hook)."""
        self.partition_plan().validate()

    def _check_mode(self, mode: int) -> int:
        mode = int(mode)
        if not 0 <= mode < self.nmodes:
            raise ReproError(
                f"mode {mode} out of range for {self.nmodes}-mode source"
            )
        return mode


class InMemorySource(ShardSource):
    """A resident :class:`PartitionPlan` as a source.

    Zero-copy: partitions, assignments, and element arrays are the plan's
    own. :meth:`from_tensor` builds the plan; it is what
    :class:`repro.core.amped.AmpedMTTKRP` plans a resident tensor through,
    and what :class:`repro.engine.StreamingExecutor` wraps a bare plan in.
    """

    is_out_of_core = False

    def __init__(self, plan: PartitionPlan) -> None:
        if not isinstance(plan, PartitionPlan):
            raise ReproError(
                f"InMemorySource wraps a PartitionPlan, got {type(plan).__name__}"
            )
        self._plan = plan

    @classmethod
    def from_tensor(
        cls,
        tensor: SparseTensorCOO,
        n_gpus: int,
        *,
        shards_per_gpu: int = 16,
        policy: str = "lpt",
    ) -> "InMemorySource":
        return cls(
            build_partition_plan(
                tensor, n_gpus, shards_per_gpu=shards_per_gpu, policy=policy
            )
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self._plan.modes[0].tensor.shape

    @property
    def nnz(self) -> int:
        return self._plan.modes[0].tensor.nnz

    @property
    def n_gpus(self) -> int:
        return self._plan.n_gpus

    def partition(self, mode: int) -> ModePartition:
        return self._plan.modes[self._check_mode(mode)]

    def assignment(self, mode: int) -> np.ndarray:
        return self._plan.assignments[self._check_mode(mode)]

    def shards(self, mode: int) -> tuple[Shard, ...]:
        return self.partition(mode).shards

    def partition_plan(self) -> PartitionPlan:
        return self._plan


class CompressedChunkSource(ShardSource):
    """Out-of-core source over a shard cache (:mod:`repro.tensor.io_v2`).

    Opening reads the manifest; shard tables come from the key columns.
    A ``codec="none"`` cache trades on the OS page cache: every array is
    memory-mapped, a batch slice faults in only its pages, and each chunk's
    CRC is checked the first time a batch reaches it. A compressed cache
    trades on **explicit reads**: slicing a batch reads, CRC-checks, and
    decompresses only the chunks the batch overlaps, keeping
    ``cache_chunks`` (default 2 — classic double buffering) decoded chunks
    of a mode's indices and values in one reader-wide cache. That is the
    right trade for cold storage, where bytes moved dominate and mmap
    would fault far more than a batch needs.

    Parameters mirror :func:`repro.partition.plan.build_partition_plan`,
    and the shard tables come from the same
    :func:`repro.partition.plan.shard_layout`, so a cache-backed run shards
    (and therefore batches, and therefore reduces) bit-identically to the
    in-memory path.

    With prefetch on, the source reads ahead itself
    (:meth:`read_ahead_partition`): a chunk the consumer reaches starts
    the next :data:`repro.tensor.io_v2.READ_AHEAD_CHUNKS` chunks of its
    array decoding on the reader's decode pool, so decompression overlaps
    the current batch's reduction. Shard tables, batch boundaries, and
    results are bit-identical to every other source (the cache stores the
    same stable mode-sorted copies), which the source/equivalence matrix
    pins.
    """

    is_out_of_core = True

    def __init__(
        self,
        path,
        *,
        n_gpus: int = 4,
        shards_per_gpu: int = 16,
        policy: str = "lpt",
        cache_chunks: int = DEFAULT_CHUNK_CACHE,
    ) -> None:
        self.path = shard_cache_path(path)
        self._reader = load_shard_cache_v2(self.path, cache_chunks=cache_chunks)
        self._shape = self._reader.shape
        self._nnz = self._reader.nnz
        self._keys_cache: tuple[int, np.ndarray] | None = None
        # one decompressed key column at a time (transient)
        self._shards, self._assignments = shard_layout(
            self._shape,
            lambda m: np.asarray(self._reader.array(f"mode{m}_keys")),
            n_gpus, shards_per_gpu=shards_per_gpu, policy=policy,
        )
        self._n_gpus = int(n_gpus)

    # ---- identity -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def n_gpus(self) -> int:
        return self._n_gpus

    @property
    def codec(self) -> str:
        """Compression codec of the underlying cache (manifest field)."""
        return self._checked_reader().codec_name

    @property
    def chunk_nnz(self) -> int:
        """Rows per compressed chunk (manifest field; feeds the host
        decompression-staging accounting)."""
        return self._checked_reader().chunk_nnz

    @property
    def codec_ratio(self) -> float:
        """Measured compressed/raw byte ratio from the cache manifest.

        The real on-disk ratio, not the analytic per-codec default — feed
        it to ``host_time_plan`` / ``rank_executions`` as ``codec_ratio`` so
        the staging-read term prices the bytes actually read."""
        return self._checked_reader().codec_ratio

    def _checked_reader(self):
        if self._reader is None:
            raise ReproError(
                f"{self.path}: shard source is closed; reopen it with "
                f"CompressedChunkSource({str(self.path)!r})"
            )
        return self._reader

    # ---- per-mode structure ------------------------------------------
    def mode_keys(self, mode: int) -> np.ndarray:
        """The mode's key column, decompressed on demand.

        Only the most recently used mode's column is kept (planning touches
        one mode at a time), so key residency is ``nnz * itemsize`` bytes
        (the cache's index dtype: 2 for a uint16 cache, 8 before version
        4), not ``nmodes * nnz * itemsize``.

        Concurrency: the cache slot is read through a local snapshot and
        replaced with one atomic assignment, so concurrent readers (two
        service jobs sharing this source through the pool) can at worst
        recompute redundantly — never hand back another mode's keys. The
        underlying chunk reader takes its own lock.
        """
        mode = self._check_mode(mode)
        cached = self._keys_cache  # snapshot: concurrent writers swap whole tuples
        if cached is not None and cached[0] == mode:
            return cached[1]
        keys = np.asarray(self._checked_reader().array(f"mode{mode}_keys"))
        self._keys_cache = (mode, keys)
        return keys

    def partition(self, mode: int) -> ModePartition:
        return self._partition(mode, 0)

    def assignment(self, mode: int) -> np.ndarray:
        return self._assignments[self._check_mode(mode)]

    def shards(self, mode: int) -> tuple[Shard, ...]:
        return self._shards[self._check_mode(mode)]

    def read_ahead_partition(self, mode: int) -> ModePartition:
        """The partition whose chunk reads decode the next
        :data:`~repro.tensor.io_v2.READ_AHEAD_CHUNKS` chunks ahead."""
        return self._partition(mode, READ_AHEAD_CHUNKS)

    def _partition(self, mode: int, read_ahead: int) -> ModePartition:
        mode = self._check_mode(mode)
        reader = self._checked_reader()
        view = COOView(
            reader.array(f"mode{mode}_indices", read_ahead=read_ahead),
            reader.array(f"mode{mode}_values", read_ahead=read_ahead),
            self._shape,
        )
        return ModePartition(mode=mode, tensor=view, shards=self._shards[mode])

    def process_attach_spec(self, mode: int):
        """Process workers re-open the cache by path and map (or
        decompress) the chunks their batches cover themselves — no element
        bytes cross the pipe."""
        self._check_mode(mode)
        return ("chunked_v2", str(self.path))

    def close(self) -> None:
        """Release the reader (file handle + decompressed chunk cache).

        Arrays already handed out keep working only while their chunks stay
        cached; new chunk reads raise a :class:`ReproError`/
        :class:`TensorFormatError` naming the reopen path.
        """
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        self._keys_cache = None

    def __enter__(self) -> "CompressedChunkSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        codec = "closed" if self._reader is None else self._reader.codec_name
        return (
            f"CompressedChunkSource({str(self.path)!r}, shape={self._shape}, "
            f"nnz={self._nnz}, codec={codec}, n_gpus={self._n_gpus})"
        )


def open_shard_source(
    path,
    *,
    n_gpus: int = 4,
    shards_per_gpu: int = 16,
    policy: str = "lpt",
) -> ShardSource:
    """Open a shard cache as its out-of-core source.

    What :meth:`repro.core.amped.AmpedMTTKRP.from_shard_cache`, the plan
    layer, the service's source pool and the CLI call. A version-1 ``.npz``
    cache is refused by name (:class:`repro.errors.TensorFormatError`).
    """
    return CompressedChunkSource(
        path, n_gpus=n_gpus, shards_per_gpu=shards_per_gpu, policy=policy
    )

