"""Scale-free workload descriptors.

A :class:`TensorWorkload` captures everything the timing simulation needs to
know about a tensor — shard sizes, assignments, output-row ownership, cache
behaviour — *without* the element data. Two producers exist:

* :meth:`TensorWorkload.from_source` extracts the descriptor from a
  :class:`repro.engine.ShardSource`, resident or a shard cache (functional
  scale);
* :mod:`repro.datasets.workload` synthesizes descriptors analytically at the
  paper's full billion-scale sizes (model scale), where materializing the
  tensor would need hundreds of gigabytes.

Because both paths produce the same type, the executors and every benchmark
run identically at either scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.partition.balance import bin_loads
from repro.simgpu.kernel import KernelCostModel

__all__ = ["ModeWorkload", "TensorWorkload", "hit_rate_from_histogram"]


def hit_rate_from_histogram(
    hist_mass: np.ndarray, cache_rows: int
) -> float:
    """Cache hit estimate: access mass captured by the hottest rows.

    ``hist_mass`` is the (unnormalized) access count per factor row;
    ``cache_rows`` how many rows fit in the device cache. An LRU-ish cache
    keeps the hottest rows resident, so the hit rate is the mass fraction of
    the top-``cache_rows`` rows.
    """
    mass = np.asarray(hist_mass, dtype=np.float64)
    total = mass.sum()
    if total <= 0 or mass.size == 0:
        return 1.0
    if cache_rows >= mass.size:
        return 1.0
    if cache_rows <= 0:
        return 0.0
    top = np.partition(mass, mass.size - cache_rows)[-cache_rows:]
    return float(top.sum() / total)


@dataclass(frozen=True)
class ModeWorkload:
    """Per-output-mode workload description."""

    mode: int
    extent: int
    shard_nnz: np.ndarray  # nnz of each tensor shard
    assignment: np.ndarray  # shard -> gpu
    rows_per_gpu: np.ndarray  # output rows owned by each gpu
    factor_hit: float  # input-factor cache hit rate for this output mode

    def __post_init__(self) -> None:
        if self.shard_nnz.shape != self.assignment.shape:
            raise PartitionError("shard_nnz and assignment must align")
        if not 0.0 <= self.factor_hit <= 1.0:
            raise PartitionError("factor_hit must be in [0, 1]")

    @property
    def n_gpus(self) -> int:
        return int(self.rows_per_gpu.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.shard_nnz.sum())

    def gpu_nnz(self) -> np.ndarray:
        return bin_loads(self.shard_nnz, self.assignment, self.n_gpus)

    def shards_for_gpu(self, gpu: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == gpu)


@dataclass(frozen=True)
class TensorWorkload:
    """Whole-tensor workload description for the timing simulations."""

    name: str
    shape: tuple[int, ...]
    nnz: int
    modes: tuple[ModeWorkload, ...]
    csf_internal_ratio: float = 0.30  # CSF internal nodes per nonzero (est.)
    skew_exponents: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.modes) != len(self.shape):
            raise PartitionError("need one ModeWorkload per mode")
        for m, mw in enumerate(self.modes):
            if mw.mode != m:
                raise PartitionError(f"modes out of order at position {m}")
            if mw.extent != self.shape[m]:
                raise PartitionError(f"mode {m} extent mismatch")

    @property
    def nmodes(self) -> int:
        return len(self.shape)

    @property
    def n_gpus(self) -> int:
        return self.modes[0].n_gpus

    def factor_bytes(self, rank: int, value_bytes: int = 4) -> int:
        """Bytes of all factor matrices at ``rank`` (each GPU's local copy)."""
        return int(sum(self.shape)) * rank * value_bytes

    def input_factor_bytes(self, mode: int, rank: int, value_bytes: int = 4) -> int:
        """Bytes of the input (non-output) factor matrices for one mode."""
        return (
            int(sum(s for m, s in enumerate(self.shape) if m != mode))
            * rank
            * value_bytes
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_source(
        cls,
        source,
        cost: KernelCostModel,
        *,
        rank: int,
        name: str = "tensor",
        skew_exponents: Sequence[float] | None = None,
    ) -> "TensorWorkload":
        """Extract the workload descriptor from a :class:`repro.engine.ShardSource`.

        The nnz-per-index histograms come from the source's sorted key
        columns (one sequential pass per mode; for a memory-mapped cache,
        the only element I/O), and the shard tables and assignments come
        from the source's metadata without materializing any mode copy.
        """
        shape = tuple(source.shape)
        nmodes = len(shape)
        n_gpus = source.n_gpus
        hists = [
            np.bincount(
                np.asarray(source.mode_keys(m)), minlength=shape[m]
            ).astype(np.int64)
            for m in range(nmodes)
        ]
        cache_rows_divisor = rank * cost.rank_value_bytes
        modes: list[ModeWorkload] = []
        for m in range(nmodes):
            shards = source.shards(m)
            assignment = np.asarray(source.assignment(m), dtype=np.int64)
            rows = np.zeros(n_gpus, dtype=np.int64)
            for j, shard in enumerate(shards):
                rows[assignment[j]] += shard.n_indices
            # Input-factor accesses of output mode m hit rows of the other
            # modes proportionally to their nnz histograms; the cache is
            # shared, so weight each mode's share by its access volume.
            input_modes = [w for w in range(nmodes) if w != m]
            cache_rows_total = cost.effective_cache_bytes // cache_rows_divisor
            hits = []
            for w in input_modes:
                # Give each input mode a cache share proportional to its
                # row-space size (simple proportional partitioning).
                share = shape[w] / sum(shape[x] for x in input_modes)
                hits.append(
                    hit_rate_from_histogram(
                        hists[w], int(cache_rows_total * share)
                    )
                )
            factor_hit = float(np.mean(hits)) if hits else 1.0
            modes.append(
                ModeWorkload(
                    mode=m,
                    extent=shape[m],
                    shard_nnz=np.array([s.nnz for s in shards], dtype=np.int64),
                    assignment=assignment,
                    rows_per_gpu=rows,
                    factor_hit=factor_hit,
                )
            )
        return cls(
            name=name,
            shape=shape,
            nnz=int(source.nnz),
            modes=tuple(modes),
            skew_exponents=tuple(skew_exponents or ()),
        )
