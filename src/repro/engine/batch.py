"""Segment-aligned element batching of tensor shards.

The eager execution path materializes and reduces a whole shard at once,
which ties the working set to the shard size. The streaming engine instead
cuts every shard into fixed-size *element batches* that are reduced one at a
time, so the transient working set is ``O(batch_size * rank)`` regardless of
how large the shard (or the tensor) is.

Batch edges are **snapped to output-segment boundaries**: a run of nonzeros
sharing the same output-mode index (one output row) is never split across
two batches. This is what makes the streaming result *bit-identical* to the
eager whole-shard reduction — each output row is still produced by exactly
one segmented reduction over exactly the same elements in the same order, so
no floating-point re-association ever happens at a batch edge. A segment
longer than ``batch_size`` therefore becomes a single oversized batch (the
alternative — splitting it — would change the rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ReproError
from repro.partition.sharding import ModePartition
from repro.tensor.kernels import segment_starts

__all__ = [
    "ElementBatch",
    "BatchPlan",
    "slice_segments",
    "split_contiguous",
    "build_batch_plan",
]


@dataclass(frozen=True)
class ElementBatch:
    """One contiguous element batch of a tensor shard.

    ``elements`` is the batch's slice in the *mode-sorted tensor copy*
    (absolute coordinates, like :attr:`repro.partition.sharding.Shard.elements`),
    so ``part.tensor.indices[batch.elements]`` is the batch's index block.
    """

    mode: int
    shard_id: int
    batch_id: int  # position within the shard, 0-based
    elements: slice
    nnz: int


@dataclass(frozen=True)
class BatchPlan:
    """All element batches of one output mode, ordered by (shard, position).

    ``batch_size`` is the target element count per batch; ``None`` means one
    batch per shard (the eager granularity).
    """

    mode: int
    batch_size: int | None
    batches: tuple[ElementBatch, ...]

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.batches)

    @cached_property
    def _by_shard(self) -> dict[int, list[ElementBatch]]:
        index: dict[int, list[ElementBatch]] = {}
        for b in self.batches:
            index.setdefault(b.shard_id, []).append(b)
        return index

    def batches_for_shards(
        self, shard_ids: Iterable[int] | None
    ) -> list[ElementBatch]:
        """Batches of the given shards (all batches when ``shard_ids`` is None),
        in deterministic (shard, position) order."""
        if shard_ids is None:
            return list(self.batches)
        out: list[ElementBatch] = []
        for j in sorted({int(j) for j in shard_ids}):
            out.extend(self._by_shard.get(j, ()))
        return out

    def validate_against(self, part: ModePartition) -> None:
        """Check the partition/alignment invariants (test hook).

        * every shard's nonzeros are covered exactly once, in order;
        * every batch edge coincides with a segment boundary of the
          mode-sorted key array (no output row is split across batches);
        * every batch holds at most ``batch_size`` elements unless it is a
          single oversized segment.
        """
        keys = part.tensor.indices[:, part.mode]
        by_shard: dict[int, list[ElementBatch]] = {}
        for b in self.batches:
            by_shard.setdefault(b.shard_id, []).append(b)
        for shard in part.shards:
            batches = by_shard.pop(shard.shard_id, [])
            pos = shard.elements.start
            for i, b in enumerate(batches):
                if b.batch_id != i:
                    raise ReproError(
                        f"shard {shard.shard_id}: batch ids not consecutive"
                    )
                if b.elements.start != pos:
                    raise ReproError(
                        f"shard {shard.shard_id}: batch {i} starts at "
                        f"{b.elements.start}, expected {pos}"
                    )
                if b.nnz != b.elements.stop - b.elements.start or b.nnz <= 0:
                    raise ReproError(
                        f"shard {shard.shard_id}: batch {i} has bad extent"
                    )
                if b.elements.start > shard.elements.start:
                    if keys[b.elements.start] == keys[b.elements.start - 1]:
                        raise ReproError(
                            f"shard {shard.shard_id}: batch {i} splits a segment"
                        )
                if self.batch_size is not None and b.nnz > self.batch_size:
                    seg = keys[b.elements]
                    if seg.size and (seg != seg[0]).any():
                        raise ReproError(
                            f"shard {shard.shard_id}: batch {i} oversized but "
                            "not a single segment"
                        )
                pos = b.elements.stop
            if pos != shard.elements.stop:
                raise ReproError(
                    f"shard {shard.shard_id}: batches cover up to {pos}, "
                    f"shard ends at {shard.elements.stop}"
                )
        if by_shard:
            raise ReproError(f"batches reference unknown shards {sorted(by_shard)}")


def slice_segments(
    keys: np.ndarray, batch_size: int | None
) -> list[tuple[int, int]]:
    """Greedy segment-aligned cuts of a sorted key array.

    Returns half-open ``(start, stop)`` offset pairs covering ``keys`` exactly
    once. Each slice holds as many whole segments (runs of equal keys) as fit
    in ``batch_size`` elements; a single segment longer than ``batch_size``
    forms its own oversized slice. ``batch_size=None`` returns one slice.
    """
    n = int(keys.shape[0])
    if n == 0:
        return []
    if batch_size is not None and batch_size < 1:
        raise ReproError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size is None or batch_size >= n:
        return [(0, n)]
    # Segment boundaries: starts of every run plus the end sentinel.
    bounds = np.append(segment_starts(keys), n)
    cuts = [0]
    pos = 0
    while pos < n:
        # Furthest segment boundary within batch_size elements of pos.
        j = int(np.searchsorted(bounds, pos + batch_size, side="right")) - 1
        nxt = int(bounds[j])
        if nxt <= pos:
            # The next segment alone exceeds batch_size: take it whole.
            j = int(np.searchsorted(bounds, pos, side="right"))
            nxt = int(bounds[j])
        cuts.append(nxt)
        pos = nxt
    return list(zip(cuts[:-1], cuts[1:]))


def split_contiguous(sizes: Sequence[int], parts: int) -> list[tuple[int, int]]:
    """Split ``len(sizes)`` items into ``parts`` contiguous runs of
    near-equal total size. Returns per-part ``(start, stop)`` index pairs
    (possibly empty runs when there are more parts than items) covering the
    items exactly once, in order. The cluster hands each node one run
    (contiguity keeps concatenated results in input order); the process
    backend hands each worker task one.
    """
    if parts < 1:
        raise ReproError(f"need at least one part, got {parts}")
    n = len(sizes)
    prefix = np.cumsum(np.asarray(sizes, dtype=np.int64)) if n else np.array([])
    total = int(prefix[-1]) if n else 0
    cuts = [0]
    for k in range(1, parts):
        target = total * k / parts
        cut = int(np.searchsorted(prefix, target, side="left"))
        if cut < n and prefix[cut] - target <= target - (
            prefix[cut - 1] if cut else 0
        ):
            cut += 1
        cuts.append(min(n, max(cuts[-1], cut)))
    cuts.append(n)
    return list(zip(cuts[:-1], cuts[1:]))


def build_batch_plan(
    part: ModePartition,
    batch_size: int | None = None,
    *,
    shard_ids: Sequence[int] | None = None,
    keys: np.ndarray | None = None,
) -> BatchPlan:
    """Slice every shard of ``part`` into segment-aligned element batches.

    Parameters
    ----------
    batch_size:
        Target nonzeros per batch; ``None`` keeps one batch per shard. Sizing
        guidance: the streaming working set is roughly
        ``batch_size * (rank * 8 + nmodes * 8 + 8)`` bytes (contribution rows
        plus the index/value block), so a few tens of thousands of elements
        keeps it inside a typical L2/L3 cache while leaving the per-batch
        NumPy dispatch overhead negligible (<1% for batches >= ~4096);
        ``batch_size="auto"`` at the config layer resolves through
        :func:`repro.engine.autotune.resolve_batch_size` before reaching
        here. Pass the resolved value.
    shard_ids:
        Restrict the plan to a subset of shards (e.g. one GPU's assignment).
    keys:
        The mode-sorted key column, when the caller has a contiguous copy
        (out-of-core sources store one per mode so planning streams 8 bytes
        per element instead of striding through the wide index block).
        Defaults to ``part.tensor.indices[:, part.mode]``.
    """
    if shard_ids is None:
        shards = part.shards
    else:
        shards = tuple(part.shards[int(j)] for j in shard_ids)
    if keys is None:
        keys = part.tensor.indices[:, part.mode]
    batches: list[ElementBatch] = []
    for shard in shards:
        base = shard.elements.start
        for i, (lo, hi) in enumerate(
            slice_segments(keys[shard.elements], batch_size)
        ):
            batches.append(
                ElementBatch(
                    mode=part.mode,
                    shard_id=shard.shard_id,
                    batch_id=i,
                    elements=slice(base + lo, base + hi),
                    nnz=hi - lo,
                )
            )
    return BatchPlan(mode=part.mode, batch_size=batch_size, batches=tuple(batches))
