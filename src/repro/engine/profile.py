"""Per-host calibration profiler: microbenchmarks filling a HostProfile.

``repro profile`` (CLI) runs this module's short microbenchmarks and
persists the result as the versioned JSON
:class:`repro.engine.costmodel.HostProfile` that the host-pipeline timing
model (:func:`repro.engine.costmodel.host_time_plan`), batch autotuning
(``batch_size="auto"`` through the measured ``stream_cache_fraction``), and
``backend="auto"`` resolution consume. Measured per benchmark:

* ``memcpy_bandwidth`` — large-block :func:`numpy.copyto`;
* ``reduce_bandwidth`` — streamed-batch bytes through one serial
  :func:`repro.engine.backend.reduce_batch_arrays` lane (the actual
  engine kernel, so the compute term tracks this host's NumPy build);
* ``kernel_reduce_bandwidth`` — the same reduction once per *available*
  :mod:`repro.tensor.kernelreg` tier (numpy always; numba/cc where they
  import/compile on this host), each tier warmed before timing so JIT and
  shared-object compilation never land on the clock — this is what lets
  ``kernel="auto"`` rank tiers with measured rates instead of ties;
* ``thread_efficiency`` — the realized speedup of running two of those
  reductions on a two-worker thread pool (GIL residue included);
* ``process_efficiency`` — the realized speedup of reducing a small batch
  sweep through a real two-worker :class:`repro.engine.backend.ProcessBackend`
  (factor-segment overwrite, task pickling, and the workers' scatter-add
  into the shared output block all included — this was a documented 0.70
  default before profile version 2);
* ``mmap_read_bandwidth`` / ``chunk_read_bandwidth`` — memory-mapped vs
  explicit reads of a temporary file (page-cache-warm, like a hot run);
* ``decompress_bandwidth`` — raw bytes/s per available v2 cache codec,
  through the v2 reader's own frame decode (frame filter included);
* ``serial_dispatch_s`` / ``thread_dispatch_s`` / ``process_task_s`` /
  ``pipe_bandwidth`` / ``prefetch_overhead_s`` — the per-batch overheads
  of each dispatch path (Python call, pool submit, process-pool round
  trip + pickled pipe traffic, staging-queue handoff);
* ``loopback_bandwidth`` / ``loopback_latency_s`` /
  ``loopback_frame_overhead_s`` — echo ping-pong with a child process over
  a ``multiprocessing.connection`` loopback socket (the cluster backend's
  transport), feeding ``cluster_time_plan``'s comm terms. The frame
  overhead is the residual cost of one *framed* hop at exchange cadence —
  a helper-thread send of a factor-block-sized payload against a peer
  that must be woken from idle, minus the analytic latency + bytes/
  bandwidth charge — the pickle-framing + scheduler-wakeup term the v4
  model omitted;
* ``stream_cache_fraction`` — a batch-size sweep of the reduction kernel:
  the largest batch within 10% of peak throughput, expressed as the
  fraction of the cost model's effective cache its streamed block occupies.

``quick=True`` shrinks every working set and repeat count (CI-friendly,
about a second); the profile records which mode produced it.
"""

from __future__ import annotations

import queue
import socket
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.engine.autotune import streamed_batch_bytes
from repro.engine.backend import reduce_batch_arrays
from repro.engine.costmodel.hostprofile import (
    DEFAULT_PROFILE_PATH,
    HostProfile,
)
from repro.tensor.io_v2 import (
    _compress_frame,
    _decode_frame,
    _frame_filter,
    _resolve_codec,
    available_codecs,
)

__all__ = ["profile_host", "write_host_profile"]

#: rank/modes the calibration reductions run at (the paper's defaults).
_RANK = 32
_NMODES = 3


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


def _reduce_case(nnz: int, seed: int = 0):
    """A mode-sorted synthetic batch + factors for the reduction benchmark."""
    rng = np.random.default_rng(seed)
    shape = (max(64, nnz // 16), 1000, 800)
    indices = np.stack(
        [np.sort(rng.integers(0, s, nnz)) for s in shape], axis=1
    ).astype(np.int64)
    indices[:, 0].sort(kind="stable")
    values = rng.random(nnz)
    factors = [rng.random((s, _RANK)) for s in shape]
    return indices, values, factors


def _measure_reduce(nnz: int, repeats: int, kernel: str = "numpy") -> float:
    indices, values, factors = _reduce_case(nnz)

    def one():
        reduce_batch_arrays(indices, values, factors, 0, kernel)

    one()  # warm: JIT/shared-object build + first-touch never on the clock
    t = _best(one, repeats)
    return streamed_batch_bytes(nnz, _RANK, _NMODES) / t


def _measure_kernels(nnz: int, repeats: int) -> dict[str, float]:
    """Measured reduce bandwidth per available kernel tier."""
    from repro.tensor.kernelreg import available_kernels

    return {
        name: _measure_reduce(nnz, repeats, name)
        for name in available_kernels()
    }


def _measure_memcpy(nbytes: int, repeats: int) -> float:
    src = np.ones(nbytes // 8, dtype=np.float64)
    dst = np.empty_like(src)
    return src.nbytes / _best(lambda: np.copyto(dst, src), repeats)


def _measure_thread_efficiency(nnz: int, repeats: int) -> float:
    """Realized fraction of a second worker: speedup(2 workers) - 1."""
    indices, values, factors = _reduce_case(nnz)

    def one():
        reduce_batch_arrays(indices, values, factors, 0)

    t_serial = _best(lambda: (one(), one()), repeats)
    with ThreadPoolExecutor(max_workers=2) as pool:
        def both():
            futs = [pool.submit(one), pool.submit(one)]
            for f in futs:
                f.result()

        both()  # warm the pool before timing
        t_pool = _best(both, repeats)
    return float(min(1.0, max(0.05, t_serial / t_pool - 1.0)))


def _measure_process_efficiency(nnz: int, repeats: int) -> float:
    """Realized extra-worker fraction of a real two-worker process pool.

    Streams a small sweep of segment-aligned
    :class:`repro.engine.batch.ElementBatch` slices through
    :meth:`repro.engine.backend.ProcessBackend.reduce_into`, the path the
    executor runs — factor-segment overwrite, task pickling, the workers'
    scatter-add into the shared output block and its copy back are all on
    the clock, exactly as they are in a real run — and compares against
    :class:`repro.engine.backend.SerialBackend` reducing the same batches
    into the same output. Mirrors :func:`_measure_thread_efficiency`:
    ``efficiency = speedup(2 workers) - 1``, clamped to ``(0.05, 1.0]``.
    """
    from types import SimpleNamespace

    from repro.engine.backend import ProcessBackend, SerialBackend
    from repro.engine.batch import ElementBatch, slice_segments

    indices, values, factors = _reduce_case(nnz)
    part = SimpleNamespace(
        tensor=SimpleNamespace(indices=indices, values=values)
    )
    # whole segments only: no two batches may share an output row
    items = [
        ElementBatch(mode=0, shard_id=0, batch_id=i, elements=slice(lo, hi),
                     nnz=hi - lo)
        for i, (lo, hi) in enumerate(
            slice_segments(indices[:, 0], max(1, nnz // 8))
        )
    ]
    out = np.zeros_like(factors[0])

    def sweep(backend):
        return lambda: backend.reduce_into(part, factors, 0, items, out)

    t_serial = _best(sweep(SerialBackend()), repeats)
    with ProcessBackend(workers=2) as backend:
        pool_pass = sweep(backend)
        pool_pass()  # warm: spawn workers, publish + map the shared mode
        t_pool = _best(pool_pass, repeats)
    return float(min(1.0, max(0.05, t_serial / t_pool - 1.0)))


def _measure_file_bandwidths(nbytes: int, repeats: int) -> tuple[float, float]:
    """(mmap_read, chunk_read) bytes/s over a temp file (page-cache warm)."""
    data = np.arange(nbytes // 8, dtype=np.int64)
    with tempfile.NamedTemporaryFile(suffix=".bin") as tmp:
        data.tofile(tmp.name)

        def fault():
            view = np.memmap(tmp.name, dtype=np.int64, mode="r")
            # touch every page through the map (what batch staging does)
            return int(view[:: 512].sum())

        mmap_bw = nbytes / _best(fault, repeats)

        def read():
            with open(tmp.name, "rb") as f:
                while f.read(1 << 20):
                    pass

        chunk_bw = nbytes / _best(read, repeats)
    return mmap_bw, chunk_bw


def _measure_decompress(nbytes: int, repeats: int, memcpy_bw: float) -> dict:
    """Raw bytes/s per available codec through the v2 reader's own frame
    decode (decompress, then undo the frame filter) of a frame written as
    a new cache writes it; ``none`` frames are plain views."""
    arr = np.arange(nbytes // 8, dtype=np.int64)
    rates = {"none": float(memcpy_bw)}
    for name in available_codecs():
        if name == "none":
            continue
        codec = _resolve_codec(name)
        filter_name = _frame_filter(codec)
        frame, _ = _compress_frame(codec, filter_name, arr)
        rates[name] = arr.nbytes / _best(
            lambda: _decode_frame(
                codec, filter_name, frame, arr.nbytes, arr.dtype, arr.shape
            ),
            max(1, repeats // 2) if name == "lzma" else repeats,
        )
    return rates


def _noop():
    return None


def _echo_len(payload) -> int:
    return len(payload)


def _measure_dispatch(repeats: int) -> tuple[float, float, float]:
    """(serial, thread, prefetch-handoff) per-operation overheads."""
    n = 2000 * repeats

    def calls():
        for _ in range(n):
            _noop()

    serial = _best(calls, 3) / n

    m = 200 * repeats
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(_noop).result()  # warm

        def submits():
            for _ in range(m):
                pool.submit(_noop).result()

        thread = _best(submits, 3) / m

    q: "queue.Queue" = queue.Queue(maxsize=4)

    def handoff():
        for _ in range(m):
            q.put(None)
            q.get()

    prefetch = _best(handoff, 3) / m
    return serial, thread, prefetch


def _measure_process(payload_bytes: int, repeats: int) -> tuple[float, float]:
    """(per-task round-trip seconds, pipe bytes/s) through an mp pool."""
    import multiprocessing as mp

    with mp.get_context().Pool(processes=1) as pool:
        pool.apply(_noop)  # warm the worker

        n = 50 * repeats

        def round_trips():
            for _ in range(n):
                pool.apply(_noop)

        task_s = _best(round_trips, 3) / n

        payload = b"\x00" * payload_bytes

        def pipe():
            pool.apply(_echo_len, (payload,))

        pipe_t = _best(pipe, max(3, repeats))
        pipe_bw = payload_bytes / max(pipe_t - task_s, 1e-9)
    return task_s, pipe_bw


def _loopback_echo_child(address, authkey: bytes) -> None:
    """Child process: connect back and echo every payload until EOF."""
    from multiprocessing.connection import Client

    from repro.engine.cluster import _enable_nodelay

    with Client(address, authkey=authkey) as conn:
        _enable_nodelay(conn)
        while True:
            try:
                blob = conn.recv_bytes()
            except EOFError:
                return
            conn.send_bytes(blob)


#: Payload of one framed-hop cycle in the frame-overhead measurement —
#: the order of magnitude of a per-node factor-row blob in the functional
#: bench cells (tens of KB), so the subtracted bandwidth term is realistic.
_FRAME_PROBE_BYTES = 16384


def _measure_loopback_socket(
    payload_bytes: int, repeats: int
) -> tuple[float, float, float]:
    """(bytes/s, one-way latency s, per-frame overhead s) of loopback sockets.

    Spawns an echo child connected over ``multiprocessing.connection`` on
    127.0.0.1 — the exact transport :class:`repro.engine.cluster.
    ClusterBackend` rings factor rows through. A small-message ping-pong
    pins the per-hop latency (half the round trip); a large echoed payload,
    with that round trip subtracted, pins the stream bandwidth (the payload
    crosses the wire twice per echo).

    The third figure is the v5 per-frame overhead: the cost of one *framed*
    exchange hop beyond what latency + bytes/bandwidth explain. One cycle
    mirrors a ring step exactly — a helper ``threading.Thread`` issues
    ``send_bytes`` of a factor-block-sized payload while the main thread
    blocks in ``recv_bytes`` (the :func:`repro.engine.cluster._ring_exchange`
    shape) — and cycles are separated by short idle gaps so both processes
    sleep between hops, the way cluster nodes compute between exchanges:
    the scheduler wakeups on the clock are cold ones, not hot-loop ones.
    The mean cycle time minus the analytic round-trip charge is the
    per-hop residual (pickle framing, thread spawn, cold wakeups).
    """
    import multiprocessing as mp
    import threading
    from multiprocessing.connection import Listener

    from repro.engine.cluster import _enable_nodelay

    authkey = b"repro-profile-loopback"
    with Listener(("127.0.0.1", 0), authkey=authkey) as listener:
        child = mp.get_context().Process(
            target=_loopback_echo_child,
            args=(listener.address, authkey),
            daemon=True,
        )
        child.start()
        conn = listener.accept()
    try:
        _enable_nodelay(conn)
        ping = b"\x00" * 64

        def pong(blob):
            conn.send_bytes(blob)
            return conn.recv_bytes()

        pong(ping)  # warm: connection + child scheduling off the clock
        n = 100 * repeats

        def ping_pongs():
            for _ in range(n):
                pong(ping)

        rtt = _best(ping_pongs, 3) / n
        payload = b"\x00" * payload_bytes
        pong(payload)  # warm the big buffers
        echo_t = _best(lambda: pong(payload), max(3, repeats))
        bandwidth = 2 * payload_bytes / max(echo_t - rtt, 1e-9)

        frame_payload = b"\x00" * _FRAME_PROBE_BYTES

        def framed_cycle() -> float:
            t0 = time.perf_counter()
            sender = threading.Thread(
                target=conn.send_bytes, args=(frame_payload,)
            )
            sender.start()
            conn.recv_bytes()
            sender.join()
            return time.perf_counter() - t0

        framed_cycle()  # warm the thread machinery
        cycles = []
        for _ in range(10 * max(repeats, 1)):
            time.sleep(0.002)  # both sides go idle: cold wakeups on clock
            cycles.append(framed_cycle())
        analytic = rtt + 2 * _FRAME_PROBE_BYTES / bandwidth
        frame_overhead = max(
            sum(cycles) / len(cycles) - analytic, 1e-6
        )
        return (
            float(bandwidth),
            float(max(rtt / 2, 1e-9)),
            float(frame_overhead),
        )
    finally:
        conn.close()
        child.join(timeout=5)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


def _measure_cache_fraction(quick: bool, cost=None) -> float:
    """Batch-size sweep of the reduction: the plateau edge as a fraction.

    Picks the largest batch whose throughput stays within 10% of the best
    probed throughput and expresses its streamed block as a fraction of
    the cost model's effective cache (the quantity
    ``batch_size="auto"`` consumes).
    """
    from repro.simgpu.kernel import KernelCostModel

    cost = cost or KernelCostModel()
    sizes = [4096, 32768] if quick else [4096, 16384, 65536, 262144]
    repeats = 2 if quick else 4
    rates = {b: _measure_reduce(b, repeats) for b in sizes}
    best = max(rates.values())
    plateau = max(b for b, r in rates.items() if r >= 0.9 * best)
    frac = streamed_batch_bytes(plateau, _RANK, _NMODES) / float(
        cost.effective_cache_bytes
    )
    return float(min(1.0, max(1e-4, frac)))


def profile_host(*, quick: bool = False, cost=None) -> HostProfile:
    """Run every microbenchmark and return the measured :class:`HostProfile`.

    ``quick=True`` shrinks working sets and repeats (about a second; CI
    mode); the full run uses larger blocks for steadier bandwidth numbers.
    ``cost`` overrides the :class:`repro.simgpu.kernel.KernelCostModel`
    whose effective cache the measured ``stream_cache_fraction`` is
    relative to.
    """
    repeats = 2 if quick else 5
    big = (8 << 20) if quick else (64 << 20)
    blob = (1 << 20) if quick else (8 << 20)
    reduce_nnz = 16384 if quick else 65536

    memcpy_bw = _measure_memcpy(big, repeats)
    reduce_bw = _measure_reduce(reduce_nnz, repeats)
    kernel_bw = _measure_kernels(reduce_nnz, repeats)
    # the reference tier was just measured twice; keep them consistent
    kernel_bw["numpy"] = reduce_bw
    thread_eff = _measure_thread_efficiency(reduce_nnz, repeats)
    process_eff = _measure_process_efficiency(
        4096 if quick else 32768, 1 if quick else 3
    )
    mmap_bw, chunk_bw = _measure_file_bandwidths(big, repeats)
    decompress = _measure_decompress(blob, repeats, memcpy_bw)
    serial_s, thread_s, prefetch_s = _measure_dispatch(1 if quick else 3)
    task_s, pipe_bw = _measure_process(blob, 1 if quick else 3)
    loopback_bw, loopback_lat, loopback_frame = _measure_loopback_socket(
        blob, 1 if quick else 3
    )
    fraction = _measure_cache_fraction(quick, cost)

    return HostProfile(
        hostname=socket.gethostname(),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        quick=bool(quick),
        memcpy_bandwidth=memcpy_bw,
        reduce_bandwidth=reduce_bw,
        mmap_read_bandwidth=mmap_bw,
        chunk_read_bandwidth=chunk_bw,
        decompress_bandwidth=decompress,
        kernel_reduce_bandwidth=kernel_bw,
        serial_dispatch_s=serial_s,
        thread_dispatch_s=thread_s,
        process_task_s=task_s,
        pipe_bandwidth=pipe_bw,
        thread_efficiency=thread_eff,
        process_efficiency=process_eff,
        prefetch_overhead_s=prefetch_s,
        loopback_bandwidth=loopback_bw,
        loopback_latency_s=loopback_lat,
        loopback_frame_overhead_s=loopback_frame,
        stream_cache_fraction=fraction,
    )


def write_host_profile(
    path=None, *, quick: bool = False, cost=None
) -> tuple[Path, HostProfile]:
    """Profile this host and persist the JSON; returns ``(path, profile)``.

    ``path=None`` writes the default location
    (:data:`repro.engine.costmodel.DEFAULT_PROFILE_PATH`); point the
    ``REPRO_HOST_PROFILE`` environment variable at the written file to have
    every later run consume it.
    """
    profile = profile_host(quick=quick, cost=cost)
    out = profile.save(path if path is not None else DEFAULT_PROFILE_PATH)
    return out, profile
