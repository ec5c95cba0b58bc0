"""The AMPED functional executor: real NumPy MTTKRP + simulated timing.

:class:`AmpedMTTKRP` is the user-facing entry point of the library. It owns

* the shard source — an :class:`repro.engine.InMemorySource` built from
  ``tensor`` (default), or a shard cache for out-of-core tensors
  (:meth:`AmpedMTTKRP.from_source` / :meth:`AmpedMTTKRP.from_shard_cache`),
  planned through the one :func:`repro.engine.plan.plan_source`;
* a functional :meth:`mttkrp` that computes the exact MTTKRP result via the
  streaming batched engine (:class:`repro.engine.StreamingExecutor`),
  driving shard element batches through the segmented kernels (used by
  CP-ALS);
* a :meth:`simulate` that times one iteration on the simulated platform.

The ring all-gather of Algorithm 1 runs for real only across processes, in
the cluster backend (:class:`repro.engine.cluster.ClusterBackend`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import AmpedConfig
from repro.core.results import RunResult
from repro.core.simulate import simulate_amped
from repro.engine.plan import build_engine_stack, plan_source
from repro.engine.source import InMemorySource, ShardSource, open_shard_source
from repro.errors import ReproError
from repro.partition.plan import PartitionPlan
from repro.simgpu.kernel import KernelCostModel
from repro.simgpu.platform import MultiGPUPlatform
from repro.simgpu.presets import paper_platform
from repro.tensor.coo import SparseTensorCOO

__all__ = ["AmpedMTTKRP"]


class AmpedMTTKRP:
    """Multi-GPU MTTKRP executor over a simulated platform.

    Parameters
    ----------
    tensor:
        The sparse input tensor (functional scale). Pass ``None`` together
        with ``source`` to run from a shard source instead of a resident
        tensor (out-of-core).
    config:
        Algorithm configuration; defaults to the paper's (§5.1.5).
    platform:
        Simulated platform; defaults to the paper's 4x RTX 6000 Ada node
        (resized to ``config.n_gpus``).
    cost:
        Kernel cost model for the timing simulation (also the cache model
        behind ``batch_size="auto"``).
    name:
        Label used in results and reports.
    source:
        Optional :class:`repro.engine.ShardSource` supplying the element
        batches. Mutually exclusive with ``tensor``; its GPU count must
        match the config. For out-of-core sources the config is normalized
        to ``out_of_core=True`` so batch autotuning and the simulator's
        host staging accounting see the streaming residency.
    """

    def __init__(
        self,
        tensor: SparseTensorCOO | None,
        config: AmpedConfig | None = None,
        *,
        platform: MultiGPUPlatform | None = None,
        cost: KernelCostModel | None = None,
        name: str = "tensor",
        source: ShardSource | None = None,
    ) -> None:
        self.config = config or AmpedConfig()
        self.platform = platform or paper_platform(self.config.n_gpus)
        if self.platform.n_gpus != self.config.n_gpus:
            raise ReproError(
                f"platform has {self.platform.n_gpus} GPUs, "
                f"config requests {self.config.n_gpus}"
            )
        self.cost = cost or KernelCostModel()
        self.name = name

        if source is None:
            if tensor is None:
                raise ReproError(
                    "pass a tensor (resident execution) or a source "
                    "(e.g. CompressedChunkSource for out-of-core shard "
                    "caches)"
                )
            source = InMemorySource.from_tensor(
                tensor,
                self.config.n_gpus,
                shards_per_gpu=self.config.shards_per_gpu,
                policy=self.config.policy,
            )
        elif tensor is not None:
            raise ReproError(
                "pass either tensor or source, not both (the source "
                "already owns the element data)"
            )
        else:
            tensor = source.tensor_view()
        # A resident run keeps the caller's tensor (and its element order)
        # for fits; a shard source's view is a lazy mode-sorted copy.
        self.tensor = tensor
        self.source = source
        self._owns_source = False
        # The one planning path of every source, so this plan fingerprints
        # identically to plan_tensor's / plan_shard_cache's, and every
        # later consumer (admission control, bench records, the CLI) reads
        # this decision instead of re-deriving it.
        self.config, self.workload, self.plan = plan_source(
            source, self.config, cost=self.cost, name=name
        )
        #: the shard cache manifest's measured compressed/raw byte ratio
        #: the plan was priced at; None for a resident source.
        self.cache_codec_ratio = self.plan.codec_ratio
        if self.config.backend == "auto" or self.config.kernel == "auto":
            # Pin the resolved axes so every later consumer of the config
            # sees concrete choices.
            self.config = self.config.replace(
                kernel=self.plan.kernel,
                backend=self.plan.backend,
                workers=self.plan.workers,
            )
        # build_engine_stack is the single construction chokepoint: the
        # engine (and, for cluster plans, the node-process backend — an
        # instance is caller-owned by the executor's contract, so close()
        # below releases it) is built from the plan that was priced.
        self.engine, self._cluster_backend = build_engine_stack(
            self.plan, source
        )

    @property
    def partition_plan(self) -> PartitionPlan:
        """The :class:`PartitionPlan` view of the shard layout.

        The resident plan itself, or lazy views over a shard cache's mode
        copies. Distinct from :attr:`plan`, the resolved+priced
        :class:`repro.engine.plan.ExecutionPlan`.

        A resident plan's mode copies hold their indices in a narrow
        unsigned dtype (:func:`repro.tensor.coo.index_dtype`; uint16 when
        no mode is longer than 65,536): the values are exact, but
        arithmetic on them can wrap or overflow — widen with
        ``.astype(np.int64)`` first.
        """
        return self.source.partition_plan()

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_source(
        cls, source: ShardSource, config: AmpedConfig | None = None, **kw
    ) -> "AmpedMTTKRP":
        """Build an executor over any shard source (out-of-core entry point)."""
        return cls(None, config, source=source, **kw)

    @classmethod
    def from_shard_cache(
        cls, path, config: AmpedConfig | None = None, **kw
    ) -> "AmpedMTTKRP":
        """Open a shard cache and stream it out of core.

        The cache (``write_shard_cache_v2`` /
        ``write_shard_cache_streaming``, CLI ``repro cache``) opens as
        :class:`repro.engine.CompressedChunkSource`, memory-mapped for
        ``codec="none"``, and streams bit-identically to the in-memory
        path. A version-1 ``.npz`` cache is refused by name.
        """
        config = config or AmpedConfig()
        source = open_shard_source(
            path,
            n_gpus=config.n_gpus,
            shards_per_gpu=config.shards_per_gpu,
            policy=config.policy,
        )
        ex = cls.from_source(source, config, **kw)
        ex._owns_source = True  # close() releases the mmap/chunk views too
        return ex

    # ------------------------------------------------------------------
    # Lifecycle: the engine backend persists across calls — close it once
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the engine backend (pools, shared memory) and, when this
        executor opened the source itself (:meth:`from_shard_cache`), the
        memory-mapped views. A cluster backend built here is owned here too
        (the executor treats backend instances as caller-owned), so its node
        processes are shut down as well. Idempotent; the executor is a
        context manager.
        """
        self.engine.close()
        if self._cluster_backend is not None:
            self._cluster_backend.close()
        if self._owns_source and hasattr(self.source, "close"):
            self.source.close()

    def __enter__(self) -> "AmpedMTTKRP":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """Exact MTTKRP for ``mode`` through the streaming shard/batch engine.

        The result is bit-identical for every ``(source, batch_size,
        backend, prefetch)`` configuration: every source yields
        mode-sorted copies with identical coordinates, batch edges are
        segment-aligned, and every backend returns partial results in
        batch order, so each output row is produced by one segmented
        reduction over the same elements in the same order. The default
        ``kernel="numpy"`` preserves that contract exactly; compiled tiers
        are deterministic but agree with it only to the documented ~1e-12
        tolerance (``docs/kernels.md``).
        """
        return self.engine.mttkrp(factors, mode)

    def mttkrp_all_modes(self, factors: Sequence[np.ndarray]) -> list[np.ndarray]:
        """MTTKRP along every mode with the *same* input factors.

        Note this is the benchmark operation (§5.1.6), not an ALS sweep —
        ALS updates each factor before moving on (see :mod:`repro.cpd.als`).
        """
        return [self.mttkrp(factors, m) for m in range(self.tensor.nmodes)]

    # ------------------------------------------------------------------
    # Timing simulation
    # ------------------------------------------------------------------
    def simulate(self, *, reset: bool = True) -> RunResult:
        """Time one iteration of Algorithm 1 on the simulated platform."""
        if reset:
            self.platform.reset()
        return simulate_amped(self.platform, self.cost, self.workload, self.config)
