"""Prefetch as a view: delivery through the wrapped source's own read-ahead.

:class:`PrefetchingSource` wraps a :class:`repro.engine.source.ShardSource`
and hands out the source's read-ahead partition
(:meth:`repro.engine.source.ShardSource.read_ahead_partition`) where it has
one. A compressed shard cache does: reaching a chunk starts the next
chunks decoding on the reader's decode pool, so decompression overlaps the
current batch's reduction — the host-side mirror of the simulator's
H2D/compute double-buffering (``AmpedConfig.double_buffer``). Every other
source (resident, a mapped ``codec="none"`` cache, synthetic) has no
read-ahead of its own, and the view
is a pass-through: staging a copy of the next batch on a loader thread
measured slower than slicing in place on every such source.

No thread is started here. Prefetch changes *when* bytes are decoded, never
*what* is reduced: the read-ahead partition holds byte-identical element
arrays, so every ``(backend, prefetch)`` cell of the equivalence matrix
stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.engine.batch import ElementBatch
from repro.engine.source import ShardSource
from repro.errors import ReproError
from repro.partition.sharding import ModePartition

__all__ = ["LoadedBatch", "PrefetchingSource"]


@dataclass(frozen=True)
class LoadedBatch:
    """One staged batch: the plan entry plus its materialized element arrays.

    ``indices``/``values`` hold exactly the bytes
    ``part.tensor.indices[batch.elements]`` /
    ``part.tensor.values[batch.elements]`` would read, as contiguous copies.
    """

    batch: ElementBatch
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return self.batch.nnz


class PrefetchingSource(ShardSource):
    """A :class:`ShardSource` view whose partitions read ahead when the
    wrapped source can.

    Every structural accessor (``assignment``/``shards``/``mode_keys``/
    ``process_attach_spec``…) delegates to the wrapped source, so shard
    tables, batch plans, and process-worker attachment are those of the
    inner source; :meth:`partition` is the inner source's read-ahead
    partition when it has one.
    """

    def __init__(self, source: ShardSource) -> None:
        if not isinstance(source, ShardSource):
            raise ReproError(
                f"PrefetchingSource wraps a ShardSource, got "
                f"{type(source).__name__}"
            )
        if isinstance(source, PrefetchingSource):
            raise ReproError("PrefetchingSource is already prefetching")
        self.source = source

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
        """The wrapped source's read-ahead partition, or its plain one."""
        ahead = self.source.read_ahead_partition(mode)
        return ahead if ahead is not None else self.source.partition(mode)

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
        return f"PrefetchingSource({self.source!r})"

    def close(self) -> None:
        """Nothing to release; the wrapped source stays open — ownership of
        the inner source stays with whoever created it."""

    def iter_batches(
        self, mode: int, batches: Iterable[ElementBatch]
    ) -> Iterator[LoadedBatch]:
        """Yield ``batches`` of :meth:`partition` as :class:`LoadedBatch`
        copies, in order, in the calling thread."""
        part = self.partition(mode)
        for batch in batches:
            sl = batch.elements
            yield LoadedBatch(
                batch=batch,
                indices=np.ascontiguousarray(part.tensor.indices[sl]),
                values=np.ascontiguousarray(part.tensor.values[sl]),
            )
