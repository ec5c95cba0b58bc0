"""Output-mode-index tensor sharding (paper §3.1.1-§3.2).

For output mode *d*, the output indices ``I_d`` are divided into contiguous
equal-width ranges ``I_{d,0}, ..., I_{d,k_d-1}``; the shard ``TS_{d,j}``
collects every nonzero whose mode-*d* index falls in ``I_{d,j}``. Because a
row of the output factor matrix is updated only by the shard owning its
index, two different shards can execute on two different GPUs with **no**
inter-GPU coherence (the paper's task-independence property).

The tensor copy for mode *d* is stored sorted by the mode-*d* index, making
every shard a contiguous element slice — this is what lets the host stream a
shard to a GPU with a single contiguous transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.tensor.coo import SparseTensorCOO

__all__ = ["Shard", "ModePartition", "shard_mode", "shard_table"]


@dataclass(frozen=True)
class Shard:
    """One tensor shard ``TS_{d, shard_id}``.

    ``index_range`` is the half-open output-index interval ``[lo, hi)`` the
    shard owns; ``elements`` is its contiguous slice in the mode-sorted
    tensor copy; ``nnz`` its element count.
    """

    mode: int
    shard_id: int
    index_range: tuple[int, int]
    elements: slice
    nnz: int

    @property
    def n_indices(self) -> int:
        return self.index_range[1] - self.index_range[0]


@dataclass(frozen=True)
class ModePartition:
    """All shards of one output mode plus the mode-sorted tensor copy.

    The copy's indices may be narrower than int64 (a plan stores them in
    :func:`repro.tensor.coo.index_dtype` of the shape); the coordinate
    values are the same in every dtype, so shards, batches and MTTKRP bits
    do not depend on it.
    """

    mode: int
    tensor: SparseTensorCOO  # sorted by `mode` — the per-mode tensor copy
    shards: tuple[Shard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_nnz(self) -> np.ndarray:
        return np.array([s.nnz for s in self.shards], dtype=np.int64)

    def shard_elements(self, shard: Shard) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) arrays of one shard."""
        sl = shard.elements
        return self.tensor.indices[sl], self.tensor.values[sl]

    def validate(self) -> None:
        """Check the task-independence and coverage invariants (test hook)."""
        covered = 0
        prev_hi = 0
        for shard in self.shards:
            lo, hi = shard.index_range
            if lo != prev_hi:
                raise PartitionError(
                    f"shard {shard.shard_id} index range [{lo},{hi}) not contiguous"
                )
            prev_hi = hi
            idx = self.tensor.indices[shard.elements, self.mode]
            if idx.size and not ((idx >= lo) & (idx < hi)).all():
                raise PartitionError(
                    f"shard {shard.shard_id} contains out-of-range output indices"
                )
            covered += shard.nnz
        if prev_hi != self.tensor.shape[self.mode]:
            raise PartitionError("shards do not cover the output index space")
        if covered != self.tensor.nnz:
            raise PartitionError(
                f"shards cover {covered} elements of {self.tensor.nnz}"
            )


def shard_table(
    keys: np.ndarray, extent: int, mode: int, n_shards: int
) -> tuple[Shard, ...]:
    """Equal-width shard table over a *mode-sorted* key array.

    ``keys`` is the mode-``mode`` index column of the sorted tensor copy; a
    memory-mapped column works too — the binary searches touch only
    ``O(n_shards log nnz)`` pages, so a shard table never needs the
    element data.
    """
    if n_shards <= 0:
        raise PartitionError("n_shards must be positive")
    n_shards = min(n_shards, extent)  # cannot split finer than one index/shard
    # Equal-width index ranges (§3.2: equal-sized index partitions).
    boundaries = np.linspace(0, extent, n_shards + 1).astype(np.int64)
    boundaries[0], boundaries[-1] = 0, extent
    elem_bounds = np.searchsorted(keys, boundaries)
    shards = []
    for j in range(n_shards):
        lo, hi = int(boundaries[j]), int(boundaries[j + 1])
        s, e = int(elem_bounds[j]), int(elem_bounds[j + 1])
        shards.append(
            Shard(
                mode=mode,
                shard_id=j,
                index_range=(lo, hi),
                elements=slice(s, e),
                nnz=e - s,
            )
        )
    return tuple(shards)


def shard_mode(
    tensor: SparseTensorCOO, mode: int, n_shards: int
) -> ModePartition:
    """Build the mode-*d* shard set with ``n_shards`` equal-width index ranges.

    The paper fixes the range count to ``k_d = |I_d| / m``; here it is a free
    parameter (see DESIGN.md ablation A1) with the paper's value available
    via :func:`repro.partition.plan.paper_shard_count`.
    """
    if not 0 <= mode < tensor.nmodes:
        raise PartitionError(f"mode {mode} out of range")
    if n_shards <= 0:
        raise PartitionError("n_shards must be positive")
    sorted_t = tensor.sorted_by_mode(mode)
    shards = shard_table(
        sorted_t.indices[:, mode], tensor.shape[mode], mode, n_shards
    )
    return ModePartition(mode=mode, tensor=sorted_t, shards=shards)
