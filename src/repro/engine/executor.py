"""The streaming batched MTTKRP execution engine.

:class:`StreamingExecutor` drives MTTKRP over a
:class:`repro.engine.source.ShardSource` one element batch at a time
instead of materializing whole shards, which

* bounds the transient working set by ``batch_size`` (out-of-core-sized
  shards stream through a cache-sized window);
* decouples the engine from where the elements live: a resident
  :class:`repro.partition.plan.PartitionPlan`
  (:class:`repro.engine.source.InMemorySource`) or a shard cache on disk
  (:class:`repro.engine.source.CompressedChunkSource`, memory-mapped or
  compressed — tensors larger than host RAM);
* decouples the engine from where the reductions run: batches are mapped
  through a pluggable :class:`repro.engine.backend.ExecutionBackend` —
  serial, a persistent thread pool, or a process pool whose workers attach
  to the element data instead of receiving it through a pipe;
* optionally double-buffers batch delivery
  (:class:`repro.engine.prefetch.PrefetchingSource`): a source that reads
  ahead on its own (a compressed cache) decodes the next chunks on its
  decode pool while the current batch reduces; for every other source
  prefetch is a pass-through;
* keeps the result **bit-identical** to the eager whole-shard reduction for
  every ``(source, batch_size, backend, prefetch)`` combination — each
  output row is produced by one segmented reduction over the same elements
  in the same order, every source yields mode-sorted copies with identical
  coordinates (resident copies and caches store them in the narrow
  ``index_dtype`` of the shape, caches before manifest version 4 in
  int64: same values), and
  every backend adds each batch's partial results once to rows no other
  batch touches.

Batch-size tuning
-----------------
``batch_size=None`` (the executor default) reduces each shard in one batch —
the eager granularity, fastest for in-memory tensors. For out-of-core
sources the batch bounds the *resident* footprint, so pick one that fits the
cache; :func:`repro.engine.autotune.auto_batch_size` derives exactly that
from the device cache model, and config-level ``batch_size="auto"``
(the :class:`repro.core.config.AmpedConfig` default) applies it whenever the
source is out of core. Below ~1024 elements the per-batch NumPy dispatch
overhead starts to show; the regression gate in
``benchmarks/bench_kernels.py --smoke`` holds both the batched and the
memory-mapped paths within 1.2x of eager.

Backends
--------
``backend`` selects where batch reductions run (``"serial"`` | ``"thread"``
| ``"process"``, or an :class:`~repro.engine.backend.ExecutionBackend`
instance). Backends persist across ``mttkrp`` calls — pools are created
once and closed deterministically (the executor is a context manager; see
:meth:`StreamingExecutor.close`); ``workers`` sizes a backend named by
string. Every batch is reduced into private buffers and added to output
rows no other batch touches — by the coordinating thread in (shard,
position) order, or by process workers straight into a shared output
block — so the result is identical to the serial path regardless of
scheduling.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.backend import (
    MAX_WORKERS,
    ExecutionBackend,
    create_backend,
    reduce_batch,
    reduce_batch_arrays,
)
from repro.engine.batch import BatchPlan, build_batch_plan
from repro.engine.prefetch import PrefetchingSource
from repro.engine.source import InMemorySource, ShardSource
from repro.errors import ReproError
from repro.partition.plan import PartitionPlan
from repro.tensor.kernelreg import (
    AUTO_KERNEL,
    resolve_kernel_name,
    validate_kernel_name,
)
from repro.tensor.reference import check_factors

__all__ = [
    "StreamingExecutor",
    "reduce_batch",
    "reduce_batch_arrays",
    "MAX_WORKERS",
]


class StreamingExecutor:
    """Streaming batched MTTKRP over a shard source.

    Parameters
    ----------
    source:
        Where the element batches come from: any
        :class:`repro.engine.source.ShardSource`, or a bare
        :class:`repro.partition.plan.PartitionPlan` which is wrapped in an
        :class:`repro.engine.source.InMemorySource`. Passing a
        :class:`repro.engine.prefetch.PrefetchingSource` turns prefetch on.
    batch_size:
        Target nonzeros per batch (``None``: one batch per shard). Must be
        >= 1. Config-level ``"auto"`` is resolved *before* the executor —
        pass the result of :func:`repro.engine.autotune.resolve_batch_size`.
    backend:
        ``"serial"`` | ``"thread"`` | ``"process"``, or an
        :class:`~repro.engine.backend.ExecutionBackend` instance. A string
        (or ``None``, meaning ``"serial"``) creates a backend the executor
        owns and closes; an instance is shared — the caller keeps
        ownership.
    workers:
        Worker count for a string-specified backend (``"serial"`` takes
        only 1).
    prefetch:
        Reduce the source's read-ahead partition, so a source that reads
        ahead on its own (a compressed shard cache) decodes the next chunks in
        the background (see :mod:`repro.engine.prefetch`); a pass-through
        for every other source. Equivalent to wrapping ``source`` in a
        :class:`PrefetchingSource`.
    kernel:
        Name of the concrete :mod:`repro.tensor.kernelreg` tier every batch
        reduction dispatches to; the default is the bit-exact ``"numpy"``
        reference. ``"auto"`` is refused: cost-model tier selection lives
        a layer up, in ``AmpedConfig(kernel="auto")``. Compiled tiers
        (``"numba"``, ``"cc"``) are documented tolerance tiers —
        deterministic, but not bit-identical to numpy (see
        ``docs/kernels.md``); a tier that is unavailable on this host falls
        back to numpy.
    """

    def __init__(
        self,
        source: ShardSource | PartitionPlan,
        *,
        batch_size: int | None = None,
        workers: int = 1,
        backend: str | ExecutionBackend | None = None,
        prefetch: bool = False,
        kernel: str = "numpy",
    ) -> None:
        if isinstance(source, PartitionPlan):
            source = InMemorySource(source)
        elif not isinstance(source, ShardSource):
            raise ReproError(
                f"source must be a ShardSource or PartitionPlan, got "
                f"{type(source).__name__}"
            )
        if isinstance(batch_size, str):
            raise ReproError(
                "StreamingExecutor takes a resolved batch size (int or "
                "None); resolve 'auto' with "
                "repro.engine.autotune.resolve_batch_size (AmpedMTTKRP and "
                "the CLI do this for you)"
            )
        if batch_size is not None:
            batch_size = int(batch_size)
            if batch_size < 1:
                raise ReproError(
                    f"batch_size must be >= 1 (or None for whole-shard "
                    f"batches), got {batch_size}"
                )
        if isinstance(source, PrefetchingSource):
            prefetch = True
        elif prefetch:
            source = PrefetchingSource(source)
        if kernel == AUTO_KERNEL:
            raise ReproError(
                "StreamingExecutor takes a concrete kernel tier, got 'auto'; "
                "cost-model tier selection is AmpedConfig(kernel=\"auto\"), "
                "which AmpedMTTKRP and the CLI resolve before building the "
                "executor"
            )
        validate_kernel_name(kernel)
        # pin the concrete tier now: dispatch stays stable for the
        # executor's lifetime even if the registry is refreshed later
        self.kernel = resolve_kernel_name(kernel)
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = create_backend(backend, workers)
        self.source = source
        self.batch_size = batch_size
        self.prefetch = bool(prefetch)
        self._closed = False
        self._batch_plans: dict[int, BatchPlan] = {}

    # ------------------------------------------------------------------
    # Lifecycle: the backend persists across calls, so close it once
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the backend (pools, shared memory) if this executor owns
        it. Idempotent."""
        if not self._closed:
            self._closed = True
            if self._owns_backend:
                self.backend.close()

    def __enter__(self) -> "StreamingExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def batch_plan(self, mode: int) -> BatchPlan:
        """The (cached) batch plan of one output mode."""
        if mode not in self._batch_plans:
            if not 0 <= mode < self.source.nmodes:
                raise ReproError(f"mode {mode} out of range")
            self._batch_plans[mode] = build_batch_plan(
                self.source.partition(mode),
                self.batch_size,
                keys=self.source.mode_keys(mode),
            )
        return self._batch_plans[mode]

    def n_batches(self, mode: int) -> int:
        return self.batch_plan(mode).n_batches

    # ------------------------------------------------------------------
    def mttkrp_into(
        self,
        factors: Sequence[np.ndarray],
        mode: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Stream the batches of ``mode`` into ``out``.

        The backend's :meth:`~ExecutionBackend.reduce_into` adds each
        batch's segment sums to its own output rows; batches are
        segment-aligned and shards own disjoint index ranges, so no row is
        added to twice and results never depend on scheduling.
        """
        batches = self.batch_plan(mode).batches
        if not batches:
            return out
        return self.backend.reduce_into(
            self.source.partition(mode), factors, mode, batches, out,
            attach=self.source.process_attach_spec(mode), kernel=self.kernel,
        )

    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """Exact MTTKRP for ``mode`` over all shards of the source."""
        shape = self.source.shape
        mats = check_factors(shape, factors)
        rank = mats[0].shape[1]
        out = np.zeros((shape[mode], rank), dtype=np.float64)
        return self.mttkrp_into(mats, mode, out)

    def mttkrp_all_modes(
        self, factors: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        return [self.mttkrp(factors, m) for m in range(self.source.nmodes)]
