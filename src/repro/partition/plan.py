"""Full partition plans: per-mode shards + shard-to-GPU assignments.

A :class:`PartitionPlan` is the preprocessing output (§5.7): one mode-sorted
tensor copy per mode, its shard table, and the static GPU assignment. The
AMPED orchestrator consumes plans directly; the preprocessing benchmark
times their construction.

The mode copies store their indices in the narrowest dtype that holds every
extent (:func:`repro.tensor.coo.index_dtype`), so a plan of a tensor whose
modes are all at most 65,536 long keeps 2 index bytes per coordinate
instead of 8; the values, and so every shard table, batch boundary and
MTTKRP bit, are those of the int64 copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import PartitionError
from repro.partition.balance import assign_shards, bin_loads
from repro.partition.sharding import ModePartition, Shard, shard_table
from repro.tensor.coo import SparseTensorCOO, index_dtype

__all__ = [
    "PartitionPlan",
    "build_partition_plan",
    "paper_shard_count",
    "shard_layout",
]


def paper_shard_count(extent: int, n_gpus: int) -> int:
    """The paper's §3.2 shard count ``k_d = |I_d| / m`` (at least one)."""
    if n_gpus <= 0:
        raise PartitionError("n_gpus must be positive")
    return max(1, extent // n_gpus)


@dataclass(frozen=True)
class PartitionPlan:
    """Partitioning of one tensor for an ``n_gpus`` platform, all modes."""

    n_gpus: int
    modes: tuple[ModePartition, ...]
    assignments: tuple[np.ndarray, ...]  # per mode: shard -> gpu

    @property
    def nmodes(self) -> int:
        return len(self.modes)

    def shards_for_gpu(self, mode: int, gpu: int) -> list[int]:
        """Shard ids of output mode ``mode`` assigned to ``gpu``."""
        a = self.assignments[mode]
        return [int(j) for j in np.flatnonzero(a == gpu)]

    def gpu_nnz(self, mode: int) -> np.ndarray:
        """Per-GPU nonzero totals for one mode (Figure 8 raw data)."""
        part = self.modes[mode]
        return bin_loads(part.shard_nnz(), self.assignments[mode], self.n_gpus)

    def output_rows_for_gpu(self, mode: int, gpu: int) -> list[tuple[int, int]]:
        """Output-index ranges whose rows ``gpu`` produces in ``mode``.

        These are exactly the row blocks exchanged by the all-gather
        (Algorithm 3): each GPU owns the ranges of its shards.
        """
        part = self.modes[mode]
        return [part.shards[j].index_range for j in self.shards_for_gpu(mode, gpu)]

    def validate(self) -> None:
        """Check every mode's shard invariants and assignment (test hook)."""
        for mode, (part, assignment) in enumerate(zip(self.modes, self.assignments)):
            part.validate()
            if assignment.shape[0] != part.n_shards:
                raise PartitionError(f"mode {mode}: assignment length mismatch")
            if assignment.size and (
                assignment.min() < 0 or assignment.max() >= self.n_gpus
            ):
                raise PartitionError(f"mode {mode}: GPU id out of range")


def shard_layout(
    shape: Sequence[int],
    keys_of: Callable[[int], np.ndarray],
    n_gpus: int,
    *,
    shards_per_gpu: int | None = 8,
    n_shards: Sequence[int] | int | None = None,
    policy: str = "lpt",
) -> tuple[tuple[tuple[Shard, ...], ...], tuple[np.ndarray, ...]]:
    """Every mode's shard table and shard→GPU assignment.

    ``keys_of(m)`` returns mode ``m``'s sorted key column: a resident copy's
    index column or a shard cache's stored keys. Resident plans and shard
    caches both shard through this one loop, so they shard bit-identically.
    The sizing knobs are those of :func:`build_partition_plan`.
    """
    if n_gpus <= 0:
        raise PartitionError("n_gpus must be positive")
    nmodes = len(shape)
    if n_shards is None:
        if shards_per_gpu is None or shards_per_gpu <= 0:
            raise PartitionError("shards_per_gpu must be positive")
        counts = [n_gpus * shards_per_gpu] * nmodes
    elif np.isscalar(n_shards):
        counts = [int(n_shards)] * nmodes
    else:
        counts = [int(c) for c in n_shards]
        if len(counts) != nmodes:
            raise PartitionError("need one shard count per mode")
    tables: list[tuple[Shard, ...]] = []
    assignments: list[np.ndarray] = []
    for mode, extent in enumerate(shape):
        table = shard_table(keys_of(mode), extent, mode, counts[mode])
        tables.append(table)
        assignments.append(
            assign_shards([s.nnz for s in table], n_gpus, policy)
        )
    return tuple(tables), tuple(assignments)


def build_partition_plan(
    tensor: SparseTensorCOO,
    n_gpus: int,
    *,
    shards_per_gpu: int | None = 8,
    n_shards: Sequence[int] | int | None = None,
    policy: str = "lpt",
) -> PartitionPlan:
    """Shard every mode of ``tensor`` and assign shards to GPUs.

    Parameters
    ----------
    shards_per_gpu:
        Convenience sizing: each mode gets ``n_gpus * shards_per_gpu``
        shards (capped at the mode extent). Ignored if ``n_shards`` given.
    n_shards:
        Explicit shard count (scalar or per-mode). Use
        :func:`paper_shard_count` for the paper's ``|I_d|/m`` rule.
    policy:
        ``"lpt"`` (default, static balanced) or ``"round_robin"``.

    The plan is not validated here: :meth:`PartitionPlan.validate` is a
    test hook.
    """
    # One narrowing cast of the index block; each mode copy gathers its
    # rows from it, so no int64 copy of a mode is ever made.
    narrowed = tensor._trusted(
        tensor.indices.astype(index_dtype(tensor.shape), copy=False),
        tensor.values,
    )
    copies: list[SparseTensorCOO] = []

    def sorted_keys(mode: int) -> np.ndarray:
        copy = narrowed.sorted_by_mode(mode)
        copies.append(copy)
        return copy.indices[:, mode]

    tables, assignments = shard_layout(
        tensor.shape, sorted_keys, n_gpus,
        shards_per_gpu=shards_per_gpu, n_shards=n_shards, policy=policy,
    )
    modes = tuple(
        ModePartition(mode=m, tensor=copy, shards=table)
        for m, (copy, table) in enumerate(zip(copies, tables))
    )
    return PartitionPlan(n_gpus=n_gpus, modes=modes, assignments=assignments)
