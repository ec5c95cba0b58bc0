"""The host-pipeline timing model: per-batch dispatch, IPC, staging, codecs.

:func:`host_memory_plan` (PR 2-4) accounts what the functional host pipeline
keeps *resident*; this module charges what it *costs in time*. For a
workload descriptor and a config it predicts, per output-mode pass and
summed over modes:

* **compute** — streamed-batch bytes through one serial reduction lane
  (:func:`repro.engine.autotune.streamed_batch_bytes` counts the bytes,
  the profile's measured ``reduce_bandwidth`` prices them), scaled by the
  backend's worker speedup ``1 + (workers - 1) * efficiency``;
* **dispatch** — one per-batch overhead per backend: Python call dispatch
  (serial), pool submit/result bookkeeping (thread), or the pool task
  round-trip (process);
* **IPC** — process backend only: the pickled task tuples out and the
  reduced ``(rows, partial)`` blocks back through the pool pipe. Tensor
  bytes never cross the pipe (workers attach), so this term counts segment
  rows, not elements;
* **staging** — out-of-core only: faulting the batch window in from a
  mapped ``codec="none"`` cache, or explicitly reading + decompressing
  compressed chunk frames (the codec's measured throughput and
  compression ratio);
* **prefetch overlap** — with ``config.prefetch`` staging runs ahead of
  the consumer, so only the part of staging that exceeds compute +
  dispatch stalls it (classic double-buffer overlap), at a small per-batch
  handoff overhead. Only a compressed cache reads ahead; for other sources
  prefetch is a pass-through, and the handoff term overprices it (see
  ``docs/cost_model.md``).

Every term is linear (or a max of linear terms) in nnz and in the codec's
compressed-size ratio, so predictions are monotone in both — a property
test pins this, and a golden test pins the exact output for the committed
synthetic profile. The model is what turns the simulator into a planner:
:func:`resolve_auto_execution` resolves ``backend="auto"`` and
``kernel="auto"`` to the (kernel × backend) candidate with the smallest
predicted total for the actual workload, pricing each tier with the
profile's measured reduce rate (:func:`rank_executions` lists every
candidate). :func:`repro.engine.plan.plan_execution` is its one caller in
the run path; an executor's prediction is its ``plan.time_plan``.
"""

from __future__ import annotations

from repro.engine.autotune import resolve_batch_size, streamed_batch_bytes
from repro.engine.costmodel.hostprofile import (
    DEFAULT_HOST_PROFILE,
    HostProfile,
    resolve_host_profile,
)
from repro.errors import ReproError
from repro.tensor.kernelreg import (
    AUTO_KERNEL,
    KERNEL_PREFERENCE,
    available_kernels,
    resolve_kernel_name,
)

__all__ = [
    "DEFAULT_CODEC_RATIO",
    "AUTO_BACKEND_WORKERS",
    "host_time_plan",
    "cluster_time_plan",
    "loopback_platform",
    "rank_executions",
    "resolve_auto_execution",
]

#: Nominal compressed/raw size ratio per v2 codec, used when the caller has
#: no measured ratio from an actual cache manifest (pass ``codec_ratio`` to
#: override). Ratios are data-dependent; these sit in the middle of the
#: sorted-element caches the test matrix builds.
DEFAULT_CODEC_RATIO = {"zlib": 0.55, "lzma": 0.45, "zstd": 0.50}

#: Worker count ``backend="auto"`` considers for the parallel candidates
#: when the config leaves ``workers`` at its default of 1 (a deterministic
#: constant, not ``os.cpu_count()``, so resolution is host-independent).
AUTO_BACKEND_WORKERS = 2

#: Pickled bytes of one process-pool task tuple (spec key, mode, call id,
#: factor descriptors, bounds) — measured order of magnitude.
_TASK_BYTES = 256

#: Value/index bytes of one reduced segment row crossing the result pipe
#: (float64 partial row + int64 row id).
def _result_row_bytes(rank: int) -> int:
    return rank * 8 + 8


def _mode_batches(shard_nnz, batch_size) -> int:
    """Batches one mode pass dispatches (mirrors the engine's batch plan
    at descriptor scale: segment snapping is ignored, like
    :meth:`repro.simgpu.kernel.KernelCostModel.batch_split`)."""
    n = 0
    for nnz in shard_nnz:
        nnz = int(nnz)
        if nnz <= 0:
            continue
        if batch_size is None or batch_size >= nnz:
            n += 1
        else:
            n += nnz // batch_size + (1 if nnz % batch_size else 0)
    return n


def host_time_plan(
    workload,
    config,
    cost,
    profile: HostProfile | None = None,
    *,
    backend: tuple[str, int] | None = None,
    kernel: str | None = None,
    codec_ratio: float | None = None,
) -> dict:
    """Predict the functional host pipeline's time for one MTTKRP iteration.

    Parameters
    ----------
    workload: a :class:`repro.core.workload.TensorWorkload` descriptor.
    config: the :class:`repro.core.config.AmpedConfig`; its backend,
        kernel, prefetch, batch-size, and cache-codec knobs select the
        terms.
    cost: the :class:`repro.simgpu.kernel.KernelCostModel` behind batch
        resolution and host element sizes.
    profile: a :class:`HostProfile`; ``None`` resolves the config's
        ``host_profile`` (then the ``REPRO_HOST_PROFILE`` env var, then the
        committed :data:`DEFAULT_HOST_PROFILE`).
    backend: explicit ``(name, workers)`` override — how
        :func:`rank_executions` evaluates candidates without mutating the
        config. Defaults to ``config.resolved_backend()``.
    kernel: explicit kernel-tier override pricing the compute term with
        the profile's :meth:`HostProfile.kernel_rate`. Defaults to the
        config's ``kernel`` (where present; the reference ``numpy``
        otherwise); like the backend it must be concrete — resolve
        ``"auto"`` with :func:`resolve_auto_execution` first.
    codec_ratio: measured compressed/raw byte ratio of a compressed cache;
        ``None`` uses :data:`DEFAULT_CODEC_RATIO` for the config's codec.
        A ``"none"`` cache is mapped, not read, so it takes no ratio.

    Returns a dict of named seconds terms plus the resolved granularity:
    ``compute_s``, ``dispatch_s``, ``ipc_s``, ``staging_read_s``,
    ``decompress_s`` (the raw pipeline components), ``stall_s`` (staging
    visible after prefetch overlap), ``prefetch_overhead_s``, and
    ``total_s = compute + dispatch + ipc + stall + prefetch overhead``.
    """
    if profile is None:
        profile = resolve_host_profile(getattr(config, "host_profile", None))
        if profile is None:
            profile = DEFAULT_HOST_PROFILE
    if backend is None:
        backend_name, workers = config.resolved_backend()
    else:
        backend_name, workers = backend
        workers = int(workers)
    if backend_name not in ("serial", "thread", "process"):
        raise ReproError(
            f"host_time_plan needs a concrete single-host backend (serial/"
            f"thread/process), got {backend_name!r}; resolve 'auto' with "
            f"resolve_auto_execution first, and price 'cluster' with "
            f"cluster_time_plan"
        )
    if kernel is None:
        kernel = getattr(config, "kernel", None) or "numpy"
    if kernel == AUTO_KERNEL:
        raise ReproError(
            "host_time_plan needs a concrete kernel tier, got 'auto'; "
            "resolve it with resolve_auto_execution first"
        )
    nmodes = workload.nmodes
    rank = config.rank
    batch_size = resolve_batch_size(
        config.batch_size,
        cost=cost,
        rank=rank,
        nmodes=nmodes,
        out_of_core=config.out_of_core,
        profile=profile,
    )
    elem_bytes = cost.host_element_bytes(nmodes)
    streamed_per_elem = streamed_batch_bytes(1, rank, nmodes)

    n_batches = 0
    result_rows = 0
    for mw in workload.modes:
        mb = _mode_batches(mw.shard_nnz, batch_size)
        n_batches += mb
        # Segment rows one mode pass sends back: at most one per distinct
        # output index, plus one boundary segment per extra batch.
        result_rows += min(int(mw.nnz), int(mw.extent)) + mb

    total_elems = nmodes * workload.nnz  # every mode pass reduces all nnz
    streamed_bytes = total_elems * streamed_per_elem
    raw_bytes = total_elems * elem_bytes

    # ---- compute -------------------------------------------------------
    speedup = 1.0
    if backend_name == "thread" and workers > 1:
        speedup = 1.0 + (workers - 1) * profile.thread_efficiency
    elif backend_name == "process" and workers > 1:
        speedup = 1.0 + (workers - 1) * profile.process_efficiency
    compute_s = streamed_bytes / profile.kernel_rate(kernel) / speedup

    # ---- dispatch ------------------------------------------------------
    per_batch = {
        "serial": profile.serial_dispatch_s,
        "thread": profile.thread_dispatch_s,
        "process": profile.process_task_s,
    }[backend_name]
    dispatch_s = n_batches * per_batch

    # ---- IPC (process pipe traffic; elements never cross it) -----------
    ipc_s = 0.0
    if backend_name == "process":
        pipe_bytes = n_batches * _TASK_BYTES + result_rows * _result_row_bytes(
            rank
        )
        ipc_s = pipe_bytes / profile.pipe_bandwidth

    # ---- staging (out of core only) ------------------------------------
    staging_read_s = 0.0
    decompress_s = 0.0
    codec = getattr(config, "cache_codec", None)
    if config.out_of_core:
        if codec in (None, "none"):  # mapped: page faults, nothing decoded
            staging_read_s = raw_bytes / profile.mmap_read_bandwidth
        else:
            ratio = (
                float(codec_ratio)
                if codec_ratio is not None
                else DEFAULT_CODEC_RATIO.get(codec, 1.0)
            )
            if ratio < 0.0:
                raise ReproError(
                    f"codec_ratio must be >= 0, got {codec_ratio!r}"
                )
            staging_read_s = raw_bytes * ratio / profile.chunk_read_bandwidth
            decompress_s = raw_bytes / profile.decompress_rate(codec)

    # ---- prefetch overlap ----------------------------------------------
    staging_s = staging_read_s + decompress_s
    prefetch_overhead_s = 0.0
    if config.prefetch:
        prefetch_overhead_s = n_batches * profile.prefetch_overhead_s
        stall_s = max(0.0, staging_s - (compute_s + dispatch_s))
    else:
        stall_s = staging_s

    total_s = compute_s + dispatch_s + ipc_s + stall_s + prefetch_overhead_s
    return {
        "backend": backend_name,
        "workers": workers,
        "kernel": str(kernel),
        "prefetch": bool(config.prefetch),
        "batch_size": batch_size,
        "n_batches": int(n_batches),
        "compute_s": float(compute_s),
        "dispatch_s": float(dispatch_s),
        "ipc_s": float(ipc_s),
        "staging_read_s": float(staging_read_s),
        "decompress_s": float(decompress_s),
        "stall_s": float(stall_s),
        "prefetch_overhead_s": float(prefetch_overhead_s),
        "total_s": float(total_s),
    }


class _LoopbackPlatform:
    """The minimal platform surface the ``repro.comm`` analytic collectives
    need (``n_gpus`` + ``p2p``), priced with the HostProfile socket
    measurements instead of simulated GPU links — node processes take the
    place of ranks. Built by :func:`loopback_platform`.

    Every hop is one pickle frame on the cluster transport, so
    :meth:`link_time` charges the v5 ``loopback_frame_overhead_s`` (pickle
    framing + helper-thread send + cold scheduler wakeup) on top of the v4
    latency + bytes/bandwidth terms — the small-message correction that
    closes the ~5–8× loopback underprediction BENCH_8 recorded.
    """

    def __init__(self, nodes: int, profile: HostProfile) -> None:
        self.n_gpus = int(nodes)
        self._latency = float(profile.loopback_latency_s)
        self._bandwidth = float(profile.loopback_bandwidth)
        self._frame_overhead = float(profile.loopback_frame_overhead_s)

    def link_time(self, nbytes: float) -> float:
        return (
            self._latency
            + self._frame_overhead
            + float(nbytes) / self._bandwidth
        )

    def p2p(self, src: int, dst: int, nbytes: float, start: float,
            *, label: str = "") -> float:
        return float(start) + self.link_time(nbytes)


def loopback_platform(nodes: int, profile: HostProfile) -> _LoopbackPlatform:
    """A ``repro.comm``-compatible platform over measured socket links.

    This is what keeps ``ring_allgather_time`` the cluster's
    predicted-vs-measured oracle: the same schedule arithmetic that prices
    the simulated GPU grid prices the socket ring, with the profile's
    measured loopback bandwidth/latency as the link model.
    """
    if int(nodes) < 1:
        raise ReproError(f"need at least one node, got {nodes}")
    return _LoopbackPlatform(int(nodes), profile)


def cluster_time_plan(
    workload,
    config,
    cost,
    profile: HostProfile | None = None,
    *,
    nodes: int | None = None,
    sub_backend: tuple[str, int] | None = None,
    kernel: str | None = None,
    codec_ratio: float | None = None,
) -> dict:
    """Predict one MTTKRP iteration on the N-node cluster backend.

    Per-node pipeline terms come from :func:`host_time_plan` evaluated for
    the node's *local* sub-backend and divided by ``nodes`` (contiguous
    nnz-balanced slices — each node owns ``1/nodes`` of every mode pass);
    the exchange is priced by the ``repro.comm`` analytic collectives over
    :func:`loopback_platform`: per mode pass a ring all-gather of the
    per-node result chunks (``allgather="ring"``), or a sequential
    gather-merge drain at the coordinator (``"direct"``), plus the factor
    broadcast and — for resident sources — the element-window scatter.

    Returns the :func:`host_time_plan` keys (so every consumer of a plan
    dict keeps working) plus ``nodes``, ``sub_backend``, ``comm_s`` and
    ``scatter_s``; ``backend`` is ``"cluster"``. Every hop charges the
    profile's measured per-frame overhead (``loopback_frame_overhead_s``,
    v5) on top of latency + bytes/bandwidth — the pickle-framing +
    scheduler-wakeup term whose omission underpredicted small-message
    loopback exchange ~5–8× in BENCH_8. The committed bench still records
    the signed error per trial: the residual gap (compute skew between
    nodes landing in the recv wait) stays measured, not hidden.
    """
    from repro.comm.allgather import direct_allgather_time, ring_allgather_time

    if profile is None:
        profile = resolve_host_profile(getattr(config, "host_profile", None))
        if profile is None:
            profile = DEFAULT_HOST_PROFILE
    if nodes is None:
        nodes = getattr(config, "nodes", None) or 2
    nodes = int(nodes)
    if nodes < 1:
        raise ReproError(f"cluster_time_plan needs nodes >= 1, got {nodes}")
    if sub_backend is None:
        workers = int(getattr(config, "workers", 1))
        sub_backend = ("thread" if workers > 1 else "serial", workers)
    base = host_time_plan(
        workload, config, cost, profile,
        backend=sub_backend, kernel=kernel, codec_ratio=codec_ratio,
    )
    scaled = {
        key: base[key] / nodes
        for key in (
            "compute_s", "dispatch_s", "ipc_s", "staging_read_s",
            "decompress_s", "stall_s", "prefetch_overhead_s",
        )
    }

    rank = config.rank
    platform = loopback_platform(nodes, profile)
    allgather = getattr(config, "allgather", "ring")
    comm_s = 0.0
    for mw in workload.modes:
        mb = _mode_batches(mw.shard_nnz, base["batch_size"])
        result_rows = min(int(mw.nnz), int(mw.extent)) + mb
        chunk = result_rows * _result_row_bytes(rank) / nodes
        if nodes == 1:
            continue
        if allgather == "ring":
            comm_s += ring_allgather_time(
                platform, [chunk] * nodes, [0.0] * nodes
            )[0]
            # node 0 forwards the assembled set to the coordinator
            comm_s += platform.link_time(chunk * nodes)
        else:
            comm_s += direct_allgather_time(
                platform, [chunk] * nodes, [0.0] * nodes
            )[0]

    # per mode pass the coordinator ships the factor set to every node;
    # resident (non-out-of-core) sources additionally scatter the element
    # windows (attached caches are re-opened node-side instead)
    nmodes = workload.nmodes
    factor_bytes = sum(int(mw.extent) for mw in workload.modes) * rank * 8
    scatter_s = nmodes * nodes * platform.link_time(factor_bytes)
    if not config.out_of_core:
        elem_bytes = nmodes * workload.nnz * cost.host_element_bytes(nmodes)
        scatter_s += nmodes * nodes * (
            platform._latency + platform._frame_overhead
        ) + elem_bytes / platform._bandwidth

    total_s = sum(
        scaled[key]
        for key in ("compute_s", "dispatch_s", "ipc_s", "stall_s",
                    "prefetch_overhead_s")
    ) + comm_s + scatter_s
    plan = dict(base)
    plan.update(scaled)
    plan.update(
        backend="cluster",
        workers=sub_backend[1],
        nodes=nodes,
        sub_backend=sub_backend[0],
        allgather=str(allgather),
        comm_s=float(comm_s),
        scatter_s=float(scatter_s),
        total_s=float(total_s),
    )
    return plan


def _auto_workers(config, workers: int | None) -> int:
    if workers is None:
        return config.workers if config.workers > 1 else AUTO_BACKEND_WORKERS
    return int(workers)


def _kernel_candidates(config) -> list[str]:
    """Concrete kernel tiers an auto search should price, in preference
    order (so the stable total-time sort breaks ties toward the preferred —
    compiled — tier when an unprofiled host makes every tier tie)."""
    kernel = getattr(config, "kernel", None) or "numpy"
    if kernel == AUTO_KERNEL:
        avail = available_kernels()
        return [k for k in KERNEL_PREFERENCE if k in avail]
    return [resolve_kernel_name(kernel)]


def rank_executions(
    workload,
    config,
    cost,
    profile: HostProfile | None = None,
    *,
    workers: int | None = None,
    kernels: list[str] | None = None,
    backends: list[tuple[str, int]] | None = None,
    codec_ratio: float | None = None,
) -> list[dict]:
    """Predicted plans over the (kernel × backend) product, fastest first.

    ``kernels`` defaults to the config's tier — expanded to every
    *available* tier in :data:`KERNEL_PREFERENCE` order when the config
    says ``"auto"``. ``backends`` defaults to the standard auto candidates
    (serial×1, thread×w, process×w); pass an explicit ``[(name, workers)]``
    list to pin that axis. The compute term of each candidate is priced
    with the profile's measured per-tier rate
    (:meth:`HostProfile.kernel_rate`); unmeasured tiers fall back to the
    numpy rate, so on an unprofiled host every tier ties and the stable
    sort resolves toward the preferred (compiled) tier.
    """
    if kernels is None:
        kernels = _kernel_candidates(config)
    if backends is None:
        workers = _auto_workers(config, workers)
        backends = [("serial", 1), ("thread", workers), ("process", workers)]
        # a pinned node count opts the cluster into the auto search: with
        # --nodes N and backend="auto" the ranking decides whether N-node
        # scale-out beats the best single-host pipeline
        if getattr(config, "nodes", None) and config.nodes > 1:
            backends.append(("cluster", config.workers))
    candidates = list(backends)

    def plan_for(cand, kern):
        if cand[0] == "cluster":
            w = int(cand[1])
            return cluster_time_plan(
                workload, config, cost, profile,
                sub_backend=("thread" if w > 1 else "serial", w),
                kernel=kern, codec_ratio=codec_ratio,
            )
        return host_time_plan(
            workload, config, cost, profile,
            backend=cand, kernel=kern, codec_ratio=codec_ratio,
        )

    plans = [
        plan_for(cand, kern) for kern in kernels for cand in candidates
    ]
    order = sorted(range(len(plans)), key=lambda i: plans[i]["total_s"])
    return [plans[i] for i in order]


def resolve_auto_execution(
    workload,
    config,
    cost,
    profile: HostProfile | None = None,
    *,
    workers: int | None = None,
    codec_ratio: float | None = None,
) -> tuple[str, str, int]:
    """The ``(kernel, backend, workers)`` triple the auto knobs mean.

    Searches the (kernel × backend) product with :func:`rank_executions`,
    holding whichever axis the config pins concrete fixed — so
    ``backend="thread", kernel="auto"`` only ranks kernels, and
    ``backend="auto", kernel="cc"`` only ranks backends.
    :class:`repro.core.AmpedMTTKRP` calls this once at construction and
    pins all three into its config.
    """
    backends = None
    if getattr(config, "backend", "auto") != "auto":
        backends = [config.resolved_backend()]
    best = rank_executions(
        workload, config, cost, profile,
        workers=workers, backends=backends, codec_ratio=codec_ratio,
    )[0]
    return best["kernel"], best["backend"], best["workers"]
