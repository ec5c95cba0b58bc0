"""Algorithm 1 charged against the simulated platform.

:func:`simulate_amped` plays one full MTTKRP iteration (all output modes) of
the AMPED algorithm on a :class:`MultiGPUPlatform`:

mode loop:
  1. every GPU streams its assigned tensor shards host→GPU (its own PCIe
     link; transfers overlap kernels when double-buffering is on);
  2. each shard runs as a grid on the GPU's compute engine (duration from
     the kernel cost model, using the workload's cache-hit estimate);
  3. inter-GPU barrier (Algorithm 1 line 9);
  4. ring all-gather of the updated output-factor rows (Algorithm 3);
  5. barrier, next mode.

The function is scale-free: it sees only the :class:`TensorWorkload`
descriptor, so the same code times both functional-scale runs and the
paper's billion-scale tensors.
"""

from __future__ import annotations

import numpy as np

from repro.comm.allgather import direct_allgather_time, ring_allgather_time
from repro.core.config import AmpedConfig
from repro.core.results import ModeTiming, RunResult
from repro.core.workload import ModeWorkload, TensorWorkload
from repro.errors import DeviceMemoryError, SimulationError
from repro.simgpu.kernel import KernelCostModel
from repro.simgpu.platform import MultiGPUPlatform
from repro.simgpu.trace import Category

__all__ = [
    "simulate_amped",
    "amped_memory_plan",
    "host_memory_plan",
]


def _max_shard_nnz(workload: TensorWorkload) -> int:
    max_shard = 0
    for mw in workload.modes:
        if mw.shard_nnz.size:
            max_shard = max(max_shard, int(mw.shard_nnz.max()))
    return max_shard


def amped_memory_plan(
    workload: TensorWorkload, config: AmpedConfig, cost: KernelCostModel
) -> dict[str, int]:
    """Per-GPU allocations AMPED needs resident (bytes by name).

    Each GPU keeps a local copy of *all* factor matrices (§4.4) plus a
    double-buffered staging area for the largest shard it will receive — or,
    when the resolved ``config.batch_size`` bounds the streaming
    granularity, for one element batch: streaming is exactly what decouples
    the resident footprint from the shard size and opens out-of-core-sized
    shards.

    Caveat: segment-aligned batching never splits one output row's nonzeros,
    so a row heavier than ``batch_size`` streams as one oversized batch. The
    workload descriptor does not carry per-row masses, so this plan reports
    the nominal ``batch_size`` staging bound; on extremely hot-row tensors
    (e.g. Patents' 46-row mode) the true transient peak is
    ``max(batch_size, heaviest row's nnz)``.
    """
    elem_bytes = cost.coo_element_bytes(workload.nmodes)
    batch_size = config.resolved_batch_size(cost, workload.nmodes)
    staging_elems = _max_shard_nnz(workload)
    if batch_size is not None:
        staging_elems = min(staging_elems, batch_size)
    buffers = 2 if config.double_buffer else 1
    return {
        "factor_matrices": workload.factor_bytes(config.rank, cost.rank_value_bytes),
        "shard_staging": buffers * staging_elems * elem_bytes,
    }


def host_memory_plan(
    workload: TensorWorkload, config: AmpedConfig, cost: KernelCostModel
) -> dict[str, int]:
    """Host-RAM allocations of the preprocessing output (bytes by name).

    This is the accounting that separates the in-memory and out-of-core
    execution classes:

    * resident (default): the host keeps one mode-sorted copy of the whole
      element list per mode (§5.7 preprocessing) — ``nmodes * nnz`` elements,
      O(nnz);
    * ``config.out_of_core``: the copies live in a memory-mapped shard cache
      and only the in-flight batch windows are resident — O(batch_size),
      independent of nnz. (Mapped pages beyond the windows are evictable
      page cache, which this plan deliberately does not count as resident.)

    The number of in-flight windows follows the execution backend: every
    backend worker lane streams its own batch block and an enabled
    prefetcher stages one more ahead of compute
    (:meth:`repro.core.config.AmpedConfig.stream_lanes`), plus one extra
    window when ``double_buffer`` overlaps the H2D copy-out. With the
    defaults (serial backend, no prefetch, double buffering) this is the
    classic two windows.

    A **compressed cache** (``config.cache_codec`` set to a real codec)
    additionally charges *decompression staging*: every stream
    lane double-buffers two decompressed chunks of its mode's indices and
    values — ``2 * cache_chunk_nnz`` elements per lane — still O(chunk),
    never O(nnz). :class:`repro.engine.CompressedChunkSource` caps its
    reader-wide chunk cache inside that: 2 chunk pairs, plus 2 read-ahead
    pairs when prefetch runs in the coordinator. A ``codec="none"`` cache
    (served as memory-mapped views) charges nothing here.

    Either way the host also pins every factor matrix (the functional
    engine gathers from them on every batch).

    This plan accounts *residency*; its time-side companion is
    :func:`repro.engine.costmodel.host_time_plan`, which charges the same
    pipeline's per-batch dispatch/IPC/staging/decompression cost against a
    measured host profile.
    """
    elem_bytes = cost.host_element_bytes(workload.nmodes)
    batch_size = config.resolved_batch_size(cost, workload.nmodes)
    decompress_staging = 0
    if config.out_of_core:
        staging_elems = _max_shard_nnz(workload)
        if batch_size is not None:
            staging_elems = min(staging_elems, batch_size)
        windows = config.stream_lanes() + (1 if config.double_buffer else 0)
        tensor_resident = windows * staging_elems * elem_bytes
        if config.cache_codec not in (None, "none"):
            from repro.tensor.io_v2 import DEFAULT_CHUNK_NNZ

            chunk_nnz = int(config.cache_chunk_nnz or DEFAULT_CHUNK_NNZ)
            decompress_staging = (
                config.stream_lanes() * 2 * chunk_nnz * elem_bytes
            )
    else:
        tensor_resident = workload.nmodes * workload.nnz * elem_bytes
    return {
        "tensor_resident": int(tensor_resident),
        "decompress_staging": int(decompress_staging),
        "factor_matrices": workload.factor_bytes(
            config.rank, cost.host_value_bytes
        ),
    }


def _shard_kernel_time(
    platform: MultiGPUPlatform,
    cost: KernelCostModel,
    workload: TensorWorkload,
    mw: ModeWorkload,
    config: AmpedConfig,
    nnz: int,
    elem_bytes: float,
    input_bytes: float,
    batch_size: int | None,
) -> float:
    """Kernel duration of one shard, at the resolved batch granularity.

    With ``batch_size`` set the shard streams as fixed-size element batches,
    each paying its own launch overhead (the engine's granularity);
    otherwise the eager single-kernel time is charged.
    """
    return cost.mttkrp_batched_time(
        platform.gpu_spec,
        nnz,
        config.rank,
        workload.nmodes,
        batch_size=batch_size,
        elem_bytes=elem_bytes,
        factor_hit=mw.factor_hit,
        input_factor_bytes=input_bytes,
        sorted_output=True,
        bandwidth_efficiency=cost.amped_kernel_efficiency,
    )


def _mode_static(
    platform: MultiGPUPlatform,
    cost: KernelCostModel,
    workload: TensorWorkload,
    mw: ModeWorkload,
    config: AmpedConfig,
    mode_start: float,
) -> list[float]:
    """Static schedule: each GPU streams its pre-assigned shards in order."""
    elem_bytes = cost.coo_element_bytes(workload.nmodes)
    input_bytes = workload.input_factor_bytes(mw.mode, config.rank)
    batch_size = config.resolved_batch_size(cost, workload.nmodes)
    done = [mode_start] * platform.n_gpus
    for g in range(platform.n_gpus):
        shard_ids = mw.shards_for_gpu(g)
        # Process larger shards first so the tail is short.
        shard_ids = shard_ids[np.argsort(mw.shard_nnz[shard_ids], kind="stable")[::-1]]
        prev_compute_end = mode_start
        for j in shard_ids:
            nnz = int(mw.shard_nnz[j])
            h2d_ready = mode_start if config.double_buffer else prev_compute_end
            h2d_end = platform.h2d(
                g, nnz * elem_bytes, h2d_ready, label=f"m{mw.mode}.shard{j}"
            )
            ktime = _shard_kernel_time(
                platform, cost, workload, mw, config, nnz, elem_bytes,
                input_bytes, batch_size,
            )
            prev_compute_end = platform.compute(
                g, ktime, h2d_end, label=f"m{mw.mode}.grid{j}"
            )
        done[g] = prev_compute_end
    return done


def _mode_dynamic(
    platform: MultiGPUPlatform,
    cost: KernelCostModel,
    workload: TensorWorkload,
    mw: ModeWorkload,
    config: AmpedConfig,
    mode_start: float,
) -> list[float]:
    """Dynamic schedule: dispatch shards to the earliest-available GPU.

    Pays a host dispatch overhead per grid — the scheduling cost the paper's
    introduction attributes to dynamic load balancing (§1 item 4).
    """
    elem_bytes = cost.coo_element_bytes(workload.nmodes)
    input_bytes = workload.input_factor_bytes(mw.mode, config.rank)
    batch_size = config.resolved_batch_size(cost, workload.nmodes)
    order = np.argsort(mw.shard_nnz, kind="stable")[::-1]
    done = [mode_start] * platform.n_gpus
    dispatch_clock = mode_start
    for j in order:
        nnz = int(mw.shard_nnz[j])
        # Pick the GPU that would start this shard's kernel earliest.
        candidates = []
        for g in range(platform.n_gpus):
            dev = platform.gpu(g)
            est = max(dev.dma_in.free_at, mode_start)
            candidates.append((max(est, dev.compute.free_at), g))
        _, g = min(candidates)
        dispatch_clock += cost.dispatch_overhead
        h2d_ready = max(mode_start, dispatch_clock)
        if not config.double_buffer:
            h2d_ready = max(h2d_ready, done[g])
        h2d_end = platform.h2d(
            g, nnz * elem_bytes, h2d_ready, label=f"m{mw.mode}.shard{j}"
        )
        ktime = _shard_kernel_time(
            platform, cost, workload, mw, config, nnz, elem_bytes,
            input_bytes, batch_size,
        )
        done[g] = platform.compute(g, ktime, h2d_end, label=f"m{mw.mode}.grid{j}")
    return done


def simulate_amped(
    platform: MultiGPUPlatform,
    cost: KernelCostModel,
    workload: TensorWorkload,
    config: AmpedConfig,
) -> RunResult:
    """Time one full AMPED iteration; returns a populated :class:`RunResult`."""
    if platform.n_gpus != config.n_gpus:
        raise SimulationError(
            f"platform has {platform.n_gpus} GPUs but config expects {config.n_gpus}"
        )
    if workload.n_gpus != config.n_gpus:
        raise SimulationError(
            f"workload was partitioned for {workload.n_gpus} GPUs, "
            f"config expects {config.n_gpus}"
        )
    result = RunResult(
        method="amped", tensor_name=workload.name, n_gpus=config.n_gpus
    )
    # Host feasibility: the preprocessing output must fit host RAM. The
    # resident path keeps nmodes sorted element-list copies; out-of-core
    # runs are bounded by the batch windows instead (host_memory_plan).
    host_plan = host_memory_plan(workload, config, cost)
    host_bytes = sum(host_plan.values())
    if host_bytes > platform.host.mem_capacity:
        result.error = (
            f"runtime error: host needs {host_bytes} bytes resident "
            f"({host_plan}) but has {platform.host.mem_capacity}; convert "
            f"the tensor to a shard cache and run out of core"
        )
        return result
    # Memory feasibility: every GPU must hold the allocations.
    plan = amped_memory_plan(workload, config, cost)
    held: list[tuple[int, str]] = []
    try:
        for g in range(platform.n_gpus):
            for name, nbytes in plan.items():
                platform.gpu(g).memory.allocate(name, nbytes)
                held.append((g, name))
    except DeviceMemoryError as exc:
        for g, name in held:
            platform.gpu(g).memory.free(name)
        result.error = f"runtime error: {exc}"
        return result

    try:
        t = 0.0
        value_bytes = cost.rank_value_bytes
        for mw in workload.modes:
            mode_start = t
            if config.schedule == "static":
                done = _mode_static(platform, cost, workload, mw, config, mode_start)
            else:
                done = _mode_dynamic(platform, cost, workload, mw, config, mode_start)
            barrier_t = platform.barrier(done)
            chunk_bytes = (
                mw.rows_per_gpu.astype(np.float64) * config.rank * value_bytes
            )
            if config.allgather == "ring":
                ends = ring_allgather_time(
                    platform,
                    list(chunk_bytes),
                    [barrier_t] * platform.n_gpus,
                    label=f"m{mw.mode}.allgather",
                )
            else:
                ends = direct_allgather_time(
                    platform,
                    list(chunk_bytes),
                    [barrier_t] * platform.n_gpus,
                    label=f"m{mw.mode}.allgather",
                )
            t = platform.barrier(ends)
            result.mode_times.append(
                ModeTiming(mode=mw.mode, start=mode_start, compute_done=barrier_t, end=t)
            )
        result.total_time = t
        result.timeline = platform.timeline
        result.per_gpu_compute = np.array(
            [
                platform.timeline.device_busy(g, Category.COMPUTE)
                for g in range(platform.n_gpus)
            ]
        )
        return result
    finally:
        for g, name in held:
            platform.gpu(g).memory.free(name)
