"""repro.engine — streaming batched execution for MTTKRP.

* :mod:`batch` — segment-aligned slicing of shard tables into fixed-size
  element batches (:class:`ElementBatch` / :class:`BatchPlan`);
* :mod:`source` — where batches come from: :class:`ShardSource` and its
  two implementations, resident (:class:`InMemorySource`) and out-of-core
  shard cache (:class:`CompressedChunkSource`: memory-mapped for
  ``codec="none"``, explicit double-buffered chunk reads for compressed
  cold storage) — :func:`open_shard_source` opens a cache file;
* :mod:`backend` — where batch reductions run: :class:`ExecutionBackend`
  and its serial (:class:`SerialBackend`), persistent-thread-pool
  (:class:`ThreadBackend`), and shared-memory process-pool
  (:class:`ProcessBackend`) implementations; the in-process ones (and the
  cluster) stream ``(rows, partial)`` pairs (:class:`PairStreamBackend`);
* :mod:`cluster` — :class:`ClusterBackend`, the multi-node execution
  backend: N node processes over sockets (loopback-spawned or remote
  ``repro cluster node`` servers via :func:`serve_node`), each running its
  own local pipeline, exchanging factor-row partials with a real ring
  all-gather;
* :mod:`prefetch` — :class:`PrefetchingSource`, the view that reduces a
  source's own read-ahead partition (compressed-cache chunk read-ahead; a
  pass-through for other sources);
* :mod:`autotune` — cache-model batch sizing behind ``batch_size="auto"``;
* :mod:`costmodel` — the measured host-pipeline cost model:
  :class:`HostProfile` (versioned per-host calibration JSON),
  :func:`host_time_plan` (per-batch backend dispatch/IPC, staging, codec
  decompression, prefetch overlap), and ``backend="auto"`` /
  ``kernel="auto"`` resolution (:func:`resolve_auto_execution`);
* :mod:`profile` — the microbenchmark profiler filling a
  :class:`HostProfile` (CLI: ``repro profile``);
* :mod:`plan` — :class:`ExecutionPlan`, the frozen JSON-round-trippable
  resolve→price→build record (:func:`plan_source` is the one planning
  path over a source, :func:`plan_execution` resolves and prices,
  :func:`build_engine_stack`/:func:`build_executor` are the only
  constructors of the executor stack) shared by core, CLI, serve, and
  bench;
* :mod:`executor` — :class:`StreamingExecutor`, the batched MTTKRP driver
  used by :class:`repro.core.AmpedMTTKRP`, CP-ALS, and the benchmark suite.

The engine's contract: for any ``(source, batch_size, backend, prefetch)``
the result is bit-identical to the eager whole-shard reduction, because
every source yields mode-sorted copies with identical coordinates (in the
narrow :func:`repro.tensor.coo.index_dtype` of the shape, for resident
copies and for caches from manifest version 4 on), batch edges are
snapped to output-segment boundaries, prefetch only changes *when* bytes
are read, and partial results are applied in a deterministic order.
"""

from repro.engine.autotune import (
    auto_batch_size,
    resolve_batch_size,
    stream_cache_fraction,
    streamed_batch_bytes,
)
from repro.engine.backend import (
    BACKEND_NAMES,
    MAX_WORKERS,
    ExecutionBackend,
    PairStreamBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
    validate_backend_name,
    validate_workers,
)
from repro.engine.batch import (
    BatchPlan,
    ElementBatch,
    build_batch_plan,
    slice_segments,
    split_contiguous,
)
from repro.engine.cluster import (
    ClusterBackend,
    parse_cluster_address,
    serve_node,
)
from repro.engine.costmodel import (
    DEFAULT_HOST_PROFILE,
    HOST_PROFILE_ENV,
    HostProfile,
    cluster_time_plan,
    host_time_plan,
    load_host_profile,
    rank_executions,
    resolve_auto_execution,
    resolve_host_profile,
)
from repro.engine.executor import StreamingExecutor, reduce_batch, reduce_batch_arrays
from repro.engine.plan import (
    EXECUTION_PLAN_VERSION,
    ExecutionPlan,
    build_engine_stack,
    build_executor,
    cache_plan_inputs,
    host_profile_hash,
    normalize_source_config,
    plan_config,
    plan_execution,
    plan_shard_cache,
    plan_source,
    plan_tensor,
)
from repro.engine.prefetch import LoadedBatch, PrefetchingSource
from repro.engine.source import (
    CompressedChunkSource,
    COOView,
    InMemorySource,
    ShardSource,
    open_shard_source,
)

__all__ = [
    "BatchPlan",
    "ElementBatch",
    "build_batch_plan",
    "slice_segments",
    "StreamingExecutor",
    "reduce_batch",
    "reduce_batch_arrays",
    "ShardSource",
    "InMemorySource",
    "CompressedChunkSource",
    "open_shard_source",
    "COOView",
    "ExecutionBackend",
    "PairStreamBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ClusterBackend",
    "serve_node",
    "parse_cluster_address",
    "split_contiguous",
    "create_backend",
    "validate_backend_name",
    "validate_workers",
    "BACKEND_NAMES",
    "MAX_WORKERS",
    "PrefetchingSource",
    "LoadedBatch",
    "auto_batch_size",
    "resolve_batch_size",
    "stream_cache_fraction",
    "streamed_batch_bytes",
    "HostProfile",
    "DEFAULT_HOST_PROFILE",
    "HOST_PROFILE_ENV",
    "load_host_profile",
    "resolve_host_profile",
    "cluster_time_plan",
    "host_time_plan",
    "rank_executions",
    "resolve_auto_execution",
    "EXECUTION_PLAN_VERSION",
    "ExecutionPlan",
    "build_engine_stack",
    "build_executor",
    "cache_plan_inputs",
    "host_profile_hash",
    "normalize_source_config",
    "plan_config",
    "plan_execution",
    "plan_shard_cache",
    "plan_source",
    "plan_tensor",
]
