"""Configuration for the AMPED executor (paper §5.1.5 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.autotune import resolve_batch_size, validate_batch_size
from repro.engine.backend import (
    MAX_WORKERS,
    validate_backend_name,
    validate_workers,
)
from repro.engine.costmodel.hostprofile import HostProfile, resolve_host_profile
from repro.errors import ConfigConflictError, ReproError
from repro.tensor.kernelreg import (
    AUTO_KERNEL,
    resolve_kernel_name,
    validate_kernel_name,
)
from repro.util.humanize import parse_size

__all__ = ["AmpedConfig", "MAX_WORKERS", "AUTO_BACKEND", "AUTO_KERNEL"]

#: The config spelling of "let the host cost model pick the backend"
#: (resolved by :func:`repro.engine.costmodel.resolve_auto_execution`;
#: :class:`repro.core.AmpedMTTKRP` pins the concrete choice at construction).
AUTO_BACKEND = "auto"


@dataclass(frozen=True)
class AmpedConfig:
    """Algorithm knobs; defaults match the paper's default configuration.

    Attributes
    ----------
    n_gpus: GPUs in the platform (paper default 4).
    rank: factor-matrix rank R (paper sets R = 32).
    threadblock_cols: P (called θ in §5.1.5) — nonzeros loaded per
        threadblock at a time; the threadblock is R x P.
    shards_per_gpu: tensor shards per GPU per mode. The paper's §3.2 formula
        (``k_d = |I_d| / m``) creates one shard per m output indices; a
        moderate shard count keeps the same task-independence while making
        grid scheduling efficient (DESIGN.md ablation A1 sweeps this).
    policy: shard→GPU balancing ("lpt" static, "round_robin" naive).
    schedule: "static" executes the precomputed assignment; "dynamic"
        dispatches shards to the earliest-available GPU at run time (paying
        a per-dispatch host overhead).
    allgather: "ring" (Algorithm 3) or "direct" (A3 ablation).
    double_buffer: overlap shard H2D transfers with compute (CUDA streams).
    batch_size: nonzeros per streaming element batch. The default
        ``"auto"`` derives the size from the device cache model
        (:func:`repro.engine.autotune.auto_batch_size`): eager whole-shard
        batches for fully resident sources (the fastest in-memory
        granularity), a cache-fitting batch when streaming out of core
        (where the batch bounds the resident footprint). ``None`` forces one
        batch per shard; an int sets the granularity manually. A single
        output row heavier than the batch streams as one oversized batch
        (segments are never split, to keep results bit-identical). The
        resolved value also feeds the timing simulation, which charges one
        kernel launch per batch.
    backend: execution backend of the streaming engine — ``"serial"``
        (reduce in the calling thread), ``"thread"`` (persistent GIL-
        releasing thread pool), ``"process"`` (persistent process pool
        attaching to the mmap shard cache / shared-memory mode copies; true
        multi-core scaling), or ``"auto"`` (pick the backend with the
        smallest :func:`repro.engine.costmodel.host_time_plan` prediction
        for the actual workload — resolved once at
        :class:`~repro.core.amped.AmpedMTTKRP` construction, preferring the
        measured ``host_profile``). Results are bit-identical across
        backends, so the choice only moves wall time.
    workers: worker count of the selected backend. ``"serial"`` takes only
        1; name ``backend="thread"`` (or ``"process"``) for a pool.
    kernel: MTTKRP kernel tier of the streaming engine
        (:mod:`repro.tensor.kernelreg`) — ``"numpy"`` (the bit-exact
        reference, the default: results stay bit-identical to every
        golden pin), ``"numba"`` / ``"cc"`` (fused compiled tiers —
        deterministic but a documented ~1e-12 tolerance tier against
        numpy, falling back to numpy when unavailable on the host), or
        ``"auto"`` (pick the tier with the smallest
        :func:`repro.engine.costmodel.host_time_plan` prediction, like
        ``backend="auto"`` — resolved once at
        :class:`~repro.core.amped.AmpedMTTKRP` construction).
    prefetch: reduce the source's read-ahead partition, the host-side
        mirror of ``double_buffer``: a v2 compressed cache decodes the next
        chunks on its reader's decode pool while the current batch reduces;
        for every other source it is a pass-through. Never changes results.
    host_profile: the measured per-host calibration consumed by the host
        pipeline timing model, ``backend="auto"``, and batch autotuning
        (its ``stream_cache_fraction`` sizes ``batch_size="auto"``; without
        one, the built-in
        :data:`repro.engine.autotune.STREAM_CACHE_FRACTION` applies) —
        a :class:`repro.engine.costmodel.HostProfile`, a path to the JSON
        written by ``repro profile``, or ``None`` (consult the
        ``REPRO_HOST_PROFILE`` environment variable, else fall back to the
        committed synthetic default where a profile is required). A path
        (or the env var) is loaded, validated, and **pinned as the loaded
        instance at construction** — the file is read exactly once, so
        deleting or editing it afterwards cannot change or break this
        config.
    out_of_core: stream element batches from an on-disk shard cache
        (:class:`repro.engine.CompressedChunkSource`) instead of a
        resident partition plan; requires
        ``shard_cache``. Bounds the host-resident tensor footprint at
        O(batch_size) — see :func:`repro.core.simulate.host_memory_plan`.
    shard_cache: path of the shard cache written by
        :func:`repro.tensor.io.write_shard_cache_v2` /
        :func:`repro.tensor.io.write_shard_cache_streaming` (CLI:
        ``repro cache``).
    cache_codec: compression codec of the shard cache (``"none"`` |
        ``"zlib"`` | ``"lzma"`` | ``"zstd"``); ``None`` until it is
        normalized from the cache manifest by
        :meth:`AmpedMTTKRP.from_shard_cache`, and priced like ``"none"``
        (a mapped cache, nothing decompressed). Drives the decompression
        staging term of :func:`repro.core.simulate.host_memory_plan` and
        the staging terms of :func:`repro.engine.costmodel.host_time_plan`.
    cache_chunk_nnz: rows per compressed chunk of a v2 cache (``None``:
        the format default). Accepts the same literals as the CLI's
        ``--chunk-nnz`` — a positive int or a string with a binary k/M/G
        suffix (``"64k"``), normalized to the int at construction by the
        shared parser (:func:`repro.util.humanize.parse_size`), so the CLI
        and the API can never disagree on a literal. Each stream lane
        double-buffers two decompressed chunks of this size.
    nodes: node-process count of the multi-node cluster backend
        (:class:`repro.engine.cluster.ClusterBackend`). ``None`` (the
        default) means single-host; with ``backend="cluster"`` it defaults
        to 2 at backend construction. A pinned ``nodes > 1`` also makes
        ``backend="auto"`` rank the cluster backend against the
        single-host backends (:func:`repro.engine.costmodel.rank_executions`
        prices it with :func:`repro.engine.costmodel.cluster_time_plan`).
        Results stay bit-identical to single-host for any node count
        (numpy tier) — nodes own contiguous disjoint element runs and
        partial results are merged in rank order.
    cluster_addresses: explicit ``"host:port"`` node addresses of already
        running ``repro cluster node`` servers. ``None`` (the default)
        spawns loopback node processes locally. When given, ``nodes`` must
        be unset or equal to ``len(cluster_addresses)``; each entry is
        validated at construction.
    """

    n_gpus: int = 4
    rank: int = 32
    threadblock_cols: int = 32
    shards_per_gpu: int = 16
    policy: str = "lpt"
    schedule: str = "static"
    allgather: str = "ring"
    double_buffer: bool = True
    batch_size: int | str | None = "auto"
    backend: str = "serial"
    workers: int = 1
    kernel: str = "numpy"
    prefetch: bool = False
    out_of_core: bool = False
    shard_cache: str | None = None
    cache_codec: str | None = None
    cache_chunk_nnz: int | str | None = None
    host_profile: HostProfile | str | None = None
    nodes: int | None = None
    cluster_addresses: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_gpus <= 0:
            raise ReproError("n_gpus must be positive")
        if self.rank <= 0:
            raise ReproError("rank must be positive")
        if self.threadblock_cols <= 0:
            raise ReproError("threadblock_cols must be positive")
        if self.shards_per_gpu <= 0:
            raise ReproError("shards_per_gpu must be positive")
        if self.policy not in ("lpt", "round_robin"):
            raise ReproError(f"unknown policy {self.policy!r}")
        if self.schedule not in ("static", "dynamic"):
            raise ReproError(f"unknown schedule {self.schedule!r}")
        if self.allgather not in ("ring", "direct"):
            raise ReproError(f"unknown allgather {self.allgather!r}")
        validate_batch_size(self.batch_size)
        # Worker/backend domains live in the backend layer (single source
        # of truth shared with the executor and the CLI); "auto" is a
        # config-level spelling resolved through the host cost model.
        if self.backend != AUTO_BACKEND:
            validate_backend_name(self.backend)
        validate_workers(self.workers)
        if self.backend == "serial" and self.workers > 1:
            raise ConfigConflictError(
                f"workers={self.workers} needs a pool backend: the serial "
                f"backend runs in the calling thread; pass "
                f"backend=\"thread\" (or \"process\")"
            )
        # Kernel names live in the registry layer ("auto" included): the
        # domain check here, resolution (availability + cost model) at
        # AmpedMTTKRP construction.
        validate_kernel_name(self.kernel)
        # Resolve the host profile ONCE, eagerly (validates a configured
        # path / the REPRO_HOST_PROFILE env var) and pin the loaded
        # instance into the field — later consumers never re-read the
        # file, so what was validated here is exactly what runs, and a
        # profile file deleted or edited after construction cannot fail
        # late or drift.
        profile = resolve_host_profile(self.host_profile)
        if profile is not None:
            object.__setattr__(self, "host_profile", profile)
        # Cluster topology: validate eagerly (bad addresses or an
        # inconsistent node count must fail at config construction, not
        # when the first socket dial times out mid-decomposition).
        if self.cluster_addresses is not None:
            from repro.engine.cluster import parse_cluster_address

            addrs = tuple(self.cluster_addresses)
            if not addrs:
                raise ReproError(
                    "cluster_addresses must be a non-empty sequence of "
                    "'host:port' strings (or None to spawn loopback node "
                    "processes)"
                )
            for spec in addrs:
                parse_cluster_address(spec)  # raises ClusterError on junk
            if self.nodes is not None and self.nodes != len(addrs):
                raise ReproError(
                    f"nodes={self.nodes} disagrees with the "
                    f"{len(addrs)} cluster_addresses given — drop nodes "
                    f"or make them match"
                )
            object.__setattr__(self, "cluster_addresses", addrs)
            object.__setattr__(self, "nodes", len(addrs))
        if self.nodes is not None:
            from repro.engine.cluster import MAX_NODES

            if not 1 <= self.nodes <= MAX_NODES:
                raise ReproError(
                    f"nodes must be in [1, {MAX_NODES}], got {self.nodes}"
                )
        if self.out_of_core and not self.shard_cache:
            raise ReproError(
                "out_of_core=True requires shard_cache: point it at a "
                "shard cache written by repro.tensor.io.write_shard_cache_v2 "
                "(CLI: `repro cache`, then pass --shard-cache)"
            )
        if self.cache_codec is not None:
            from repro.tensor.io_v2 import CODEC_NAMES

            if self.cache_codec not in CODEC_NAMES:
                raise ReproError(
                    f"cache_codec must be one of {list(CODEC_NAMES)} (or "
                    f"None before the manifest is read), got "
                    f"{self.cache_codec!r}"
                )
        if self.cache_chunk_nnz is not None:
            # The one chunk-size parser, shared with the CLI's --chunk-nnz:
            # both reject 0/negative (also after suffix multiplication) with
            # the same canonical message.
            try:
                normalized = parse_size(self.cache_chunk_nnz, what="cache_chunk_nnz")
            except ValueError as exc:
                raise ReproError(str(exc)) from None
            object.__setattr__(self, "cache_chunk_nnz", normalized)

    def resolved_host_profile(self) -> HostProfile | None:
        """The measured :class:`HostProfile` this config means (or ``None``).

        Resolution happened once, eagerly, at construction — a configured
        path (or the ``REPRO_HOST_PROFILE`` environment variable) was
        loaded, validated, and pinned into the field then, so this is a
        plain read. ``None`` means nothing was configured anywhere; callers
        needing a profile then use the committed synthetic default,
        :data:`repro.engine.costmodel.DEFAULT_HOST_PROFILE`.
        """
        assert self.host_profile is None or isinstance(
            self.host_profile, HostProfile
        )
        return self.host_profile

    def resolved_backend(self) -> tuple[str, int]:
        """The concrete ``(backend name, workers)`` pair.

        ``backend="auto"`` has no answer without a workload — resolve it
        first (:func:`repro.engine.costmodel.resolve_auto_execution`, done
        automatically by :class:`~repro.core.amped.AmpedMTTKRP`).
        """
        if self.backend == AUTO_BACKEND:
            raise ReproError(
                "backend='auto' is resolved against a workload: build the "
                "executor (AmpedMTTKRP pins the choice) or call "
                "repro.engine.costmodel.resolve_auto_execution first"
            )
        return self.backend, self.workers

    def resolved_kernel(self) -> str:
        """The concrete kernel tier this config means.

        A named tier resolves through the registry's availability probe
        (an unavailable tier gracefully falls back to ``"numpy"``).
        ``kernel="auto"`` has no answer without a workload — resolve it
        first (:func:`repro.engine.costmodel.resolve_auto_execution`,
        done automatically by :class:`~repro.core.amped.AmpedMTTKRP`).
        """
        if self.kernel == AUTO_KERNEL:
            raise ReproError(
                "kernel='auto' is resolved against a workload: build the "
                "executor (AmpedMTTKRP pins the choice) or call "
                "repro.engine.costmodel.resolve_auto_execution first"
            )
        return resolve_kernel_name(self.kernel)

    def resolved_batch_size(self, cost, nmodes: int) -> int | None:
        """The engine-level batch size this config means on a given platform.

        ``"auto"`` resolves through the cache model of ``cost`` (a
        :class:`repro.simgpu.kernel.KernelCostModel`): a cache-fitting batch
        when ``out_of_core`` (the batch bounds residency there), eager
        whole-shard batches otherwise. Ints and ``None`` pass through.
        """
        return resolve_batch_size(
            self.batch_size,
            cost=cost,
            rank=self.rank,
            nmodes=nmodes,
            out_of_core=self.out_of_core,
            profile=self.resolved_host_profile(),
        )

    def stream_lanes(self) -> int:
        """Concurrent host lanes staging a batch window at once.

        Each backend worker streams its own batch block, and prefetch
        counts one more lane — the host-residency accounting
        :func:`repro.core.simulate.host_memory_plan` charges per lane when
        running out of core. Only a v2 cache's read-ahead fills that lane;
        for other sources it overprices residency by one window (kept so
        plans stay comparable until the next ``HostProfile`` version).
        """
        _, workers = self.resolved_backend()
        return workers + (1 if self.prefetch else 0)

    def with_gpus(self, n_gpus: int) -> "AmpedConfig":
        """Copy with a different GPU count (scalability sweeps)."""
        return replace(self, n_gpus=n_gpus)

    def replace(self, **kw) -> "AmpedConfig":
        return replace(self, **kw)
