"""Shard sources: where the streaming engine's element batches come from.

PR 1's :class:`StreamingExecutor` bounded the *transient* working set at
``batch_size`` elements but still required every mode-sorted tensor copy of a
:class:`repro.partition.plan.PartitionPlan` resident in host RAM, capping the
engine at in-memory scale. A :class:`ShardSource` abstracts the storage
behind the batches so the same executor can stream from

* :class:`InMemorySource` — today's resident ``PartitionPlan`` (the default;
  wraps a plan, zero copies);
* :class:`MmapNpzSource` — a memory-mapped shard cache on disk
  (:func:`repro.tensor.io.write_shard_cache`), where slicing a batch faults
  in only that batch's pages: the resident tensor footprint is O(batch), not
  O(nnz), which is what opens tensors larger than host memory;
* :class:`SyntheticSource` — a deterministic generator, for tests and
  benchmarks that want engine-scale inputs without materializing (and
  keeping) every mode copy at once;
* :class:`CompressedChunkSource` — a v2 chunked/compressed shard cache
  (:func:`repro.tensor.io.write_shard_cache_v2`) for cold-storage tensors:
  instead of mmap's page faulting, batches are served by explicit
  double-buffered chunk reads + decompression — with prefetch on
  (:class:`repro.engine.prefetch.PrefetchingSource`) the next chunks
  decompress on the reader's decode pool while the current batch reduces.

:func:`open_shard_source` sniffs a cache file's format (v1 mmap ``.npz``
vs v2 chunked) and opens the matching source.

The contract all sources share: for one logical tensor, every source yields
**mode-sorted copies with identical coordinates** — resident copies and
v2 caches store them in the narrowest index dtype of the shape
(:func:`repro.tensor.coo.index_dtype`), v1 caches in int64, with the
same values — hence the same shard tables, the same segment-aligned
:class:`repro.engine.batch.BatchPlan` boundaries, and bit-identical MTTKRP
results — the source/equivalence test matrix in
``tests/engine/test_sources.py`` and ``tests/golden/`` pins this.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.partition.balance import assign_shards
from repro.partition.plan import PartitionPlan, build_partition_plan
from repro.partition.sharding import ModePartition, Shard, shard_table
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.io import load_shard_cache, shard_cache_path
from repro.tensor.io_v2 import (
    DEFAULT_CHUNK_CACHE,
    READ_AHEAD_CHUNKS,
    detect_shard_cache_version,
    load_shard_cache_v2,
)

__all__ = [
    "ShardSource",
    "InMemorySource",
    "MmapNpzSource",
    "CompressedChunkSource",
    "SyntheticSource",
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

    Subclasses provide the mode-sorted element data (resident, mapped, or
    generated) and build the shard tables and shard→GPU assignment the
    AMPED algorithm schedules on with :meth:`_build_layout` (or override
    the accessors). :class:`repro.engine.StreamingExecutor` is the
    consumer: it plans batches over :meth:`mode_keys` and reduces the blocks
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
    def n_gpus(self) -> int:
        return self._n_gpus

    @property
    def nmodes(self) -> int:
        return len(self.shape)

    # ---- per-mode structure ------------------------------------------
    @abstractmethod
    def partition(self, mode: int) -> ModePartition:
        """Shard table + (possibly lazy) mode-sorted copy of one mode."""

    def assignment(self, mode: int) -> np.ndarray:
        """Static shard→GPU assignment of one mode."""
        return self._assignments[self._check_mode(mode)]

    def shards(self, mode: int) -> tuple[Shard, ...]:
        """The shard table of one mode.

        Metadata only, so callers that need the table (e.g. workload
        construction) never force a mode copy to materialize.
        """
        return self._shards[self._check_mode(mode)]

    def _build_layout(
        self,
        keys_of: Callable[[int], np.ndarray],
        *,
        n_gpus: int,
        shards_per_gpu: int,
        policy: str,
    ) -> None:
        """Validate the sharding knobs and build every mode's shard table
        and shard→GPU assignment from its sorted key column ``keys_of(m)``
        — the same steps as :func:`repro.partition.plan.build_partition_plan`,
        so every source shards bit-identically to the in-memory path."""
        if n_gpus <= 0:
            raise ReproError("n_gpus must be positive")
        if shards_per_gpu <= 0:
            raise ReproError("shards_per_gpu must be positive")
        self._n_gpus = int(n_gpus)
        n_shards = self._n_gpus * int(shards_per_gpu)
        self._shards: list[tuple[Shard, ...]] = []
        self._assignments: list[np.ndarray] = []
        for m, extent in enumerate(self.shape):
            shards = shard_table(keys_of(m), extent, m, n_shards)
            nnz_per_shard = np.array([s.nnz for s in shards], dtype=np.int64)
            self._shards.append(shards)
            self._assignments.append(
                assign_shards(nnz_per_shard, self._n_gpus, policy)
            )

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
        instead. :class:`MmapNpzSource` overrides this with its cache path
        so workers re-open the ``.npz`` read-only — zero tensor bytes are
        copied anywhere (the OS page cache is shared across processes).
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

        For lazy sources the per-mode tensors inside the plan may be
        memory-mapped views; for :class:`SyntheticSource` this materializes
        every mode copy at once (documented trade-off).
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
    """The resident-``PartitionPlan`` source — PR 1's path, wrapped.

    Zero-copy: partitions, assignments, and element arrays are the plan's
    own. This is what :class:`repro.engine.StreamingExecutor` builds when
    handed a bare plan, so existing callers stream exactly as before.
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


class MmapNpzSource(ShardSource):
    """Out-of-core source over a memory-mapped shard cache.

    Opening the cache reads only zip metadata and array headers; shard
    tables come from binary searches over the (contiguous, mapped) key
    columns. Element pages are faulted in batch by batch as the executor
    slices them and are evictable page cache, so the resident tensor
    footprint is O(batch_size), independent of nnz — the out-of-core scaling
    property the paper's sharded layout enables and
    :func:`repro.core.simulate.host_memory_plan` accounts for.

    Parameters mirror :func:`repro.partition.plan.build_partition_plan` so a
    cache-backed run shards (and therefore batches, and therefore reduces)
    bit-identically to the in-memory path.
    """

    is_out_of_core = True

    def __init__(
        self,
        path,
        *,
        n_gpus: int = 4,
        shards_per_gpu: int = 16,
        policy: str = "lpt",
    ) -> None:
        self.path = shard_cache_path(path)
        self._arrays: dict[str, np.ndarray] | None = load_shard_cache(
            self.path, mmap=True
        )
        self._shape = tuple(int(s) for s in np.asarray(self._arrays["shape"]))
        missing = [
            key
            for key in ["nnz"]
            + [
                f"mode{m}_{part}"
                for m in range(len(self._shape))
                for part in ("indices", "values", "keys")
            ]
            if key not in self._arrays
        ]
        if missing:
            raise ReproError(
                f"{self.path}: shard cache is missing arrays {missing}; "
                f"rebuild with write_shard_cache()"
            )
        self._nnz = int(np.asarray(self._arrays["nnz"]).ravel()[0])
        self._build_layout(
            self.mode_keys,
            n_gpus=n_gpus, shards_per_gpu=shards_per_gpu, policy=policy,
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    def _array(self, key: str) -> np.ndarray:
        if self._arrays is None:
            raise ReproError(
                f"{self.path}: shard source is closed; reopen it with "
                f"MmapNpzSource({str(self.path)!r})"
            )
        return self._arrays[key]

    def mode_keys(self, mode: int) -> np.ndarray:
        return self._array(f"mode{self._check_mode(mode)}_keys")

    def partition(self, mode: int) -> ModePartition:
        mode = self._check_mode(mode)
        view = COOView(
            self._array(f"mode{mode}_indices"),
            self._array(f"mode{mode}_values"),
            self._shape,
        )
        return ModePartition(mode=mode, tensor=view, shards=self._shards[mode])

    def process_attach_spec(self, mode: int):
        """Process workers re-open this cache read-only by path (zero-copy:
        both sides map the same on-disk bytes through the page cache)."""
        self._check_mode(mode)
        return ("mmap_npz", str(self.path))

    def close(self) -> None:
        """Drop the memory-mapped views (and with them the open file).

        Views already handed out (e.g. a live ``partition()``) keep their
        mappings until garbage collected; new accesses raise a
        :class:`ReproError`.
        """
        self._arrays = None

    def __enter__(self) -> "MmapNpzSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MmapNpzSource({str(self.path)!r}, shape={self._shape}, "
            f"nnz={self._nnz}, n_gpus={self._n_gpus})"
        )


class CompressedChunkSource(ShardSource):
    """Out-of-core source over a v2 chunked/compressed shard cache.

    Where :class:`MmapNpzSource` trades on the OS page cache (raw bytes,
    4 KiB-granular faults), this source trades on **explicit reads**: every
    mode-sorted array lives as independently compressed chunk frames
    (:mod:`repro.tensor.io_v2`), and slicing a batch reads, CRC-checks, and
    decompresses only the chunks the batch overlaps, keeping
    ``cache_chunks`` (default 2 — classic double buffering) decoded chunks
    of a mode's indices and values in one reader-wide cache. That is the
    right trade for cold storage, where bytes moved dominate and mmap
    would fault far more than a batch needs.

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
        self._build_layout(
            lambda m: np.asarray(self._reader.array(f"mode{m}_keys")),
            n_gpus=n_gpus, shards_per_gpu=shards_per_gpu, policy=policy,
        )

    # ---- identity -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

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
        """Process workers re-open the v2 cache by path and decompress the
        chunks their batches cover themselves — no element bytes cross
        the pipe, mirroring the mmap attachment."""
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
    """Open a shard cache with format autodetection (v1 mmap vs v2 chunked).

    Sniffs the file's magic bytes (:func:`repro.tensor.io.detect_shard_cache_version`)
    and returns the matching out-of-core source. This is what
    :meth:`repro.core.amped.AmpedMTTKRP.from_shard_cache` and the CLI use,
    so ``--shard-cache`` accepts either format transparently.
    """
    version = detect_shard_cache_version(path)
    cls = MmapNpzSource if version == 1 else CompressedChunkSource
    return cls(
        path, n_gpus=n_gpus, shards_per_gpu=shards_per_gpu, policy=policy
    )


class SyntheticSource(ShardSource):
    """Generator-backed source: engine-scale inputs without keeping every
    mode-sorted copy resident.

    ``builder`` is a deterministic zero-argument callable returning the same
    :class:`SparseTensorCOO` on every call (e.g. a seeded
    ``lambda: zipf_coo(...)``). At construction the source generates the
    tensor once to derive shard tables and assignments (metadata only), then
    drops it; each mode's sorted copy is regenerated on demand and only the
    most recently used mode is kept, so peak residency is one copy instead
    of ``nmodes + 1``. Determinism is checked cheaply on every regeneration.
    """

    is_out_of_core = False

    def __init__(
        self,
        builder: Callable[[], SparseTensorCOO],
        *,
        n_gpus: int = 4,
        shards_per_gpu: int = 16,
        policy: str = "lpt",
    ) -> None:
        if not callable(builder):
            raise ReproError("builder must be a zero-argument callable")
        self._builder = builder
        tensor = self._build()
        self._shape = tensor.shape
        self._nnz = tensor.nnz
        self._checksum = self._fingerprint(tensor)
        self._build_layout(
            lambda m: np.sort(tensor.indices[:, m]),
            n_gpus=n_gpus, shards_per_gpu=shards_per_gpu, policy=policy,
        )
        self._cached: tuple[int, ModePartition] | None = None

    @staticmethod
    def _fingerprint(tensor: SparseTensorCOO) -> tuple:
        return (
            tensor.shape,
            tensor.nnz,
            float(tensor.values.sum()),
            int(tensor.indices.sum()),
        )

    def _build(self) -> SparseTensorCOO:
        tensor = self._builder()
        if not isinstance(tensor, SparseTensorCOO):
            raise ReproError(
                f"builder must return a SparseTensorCOO, got "
                f"{type(tensor).__name__}"
            )
        return tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    def partition(self, mode: int) -> ModePartition:
        mode = self._check_mode(mode)
        if self._cached is not None and self._cached[0] == mode:
            return self._cached[1]
        tensor = self._build()
        if self._fingerprint(tensor) != self._checksum:
            raise ReproError(
                "SyntheticSource builder is not deterministic: regenerated "
                "tensor differs from the one the shard tables were built on "
                "(seed the generator)"
            )
        part = ModePartition(
            mode=mode, tensor=tensor.sorted_by_mode(mode), shards=self._shards[mode]
        )
        self._cached = (mode, part)
        return part

