"""Micro-benchmarks of the functional compute kernels.

These are the hot paths of the measured-mode harness; tracking them guards
against regressions in the NumPy vectorization (guide: profile before
optimizing, then keep the receipts).

Run directly with ``--smoke`` for the CI engine check: verifies that the
streaming batched executor is bit-identical to the eager path and within
1.2x of its wall time on the seed synthetic tensor, that every available
kernel tier (numpy, cc, numba) reduces int64, uint32 and uint16 mode copies
to the same bits with neither narrow cell beyond 1.2x of the int64 one,
then repeats the check
out of core — a memory-mapped ``codec="none"`` shard cache must match the
in-memory bits at every probed batch size, and the cache-model ``auto``
batch must land within 1.2x of the best manually tuned one — and finally
sweeps the execution backends: the process pool (attached to the mapped
cache, with and without prefetch) must be bit-identical, and the
persistent thread pool must stay within 1.2x of the serial backend's wall
time. The backend sweep ends with
the host-pipeline timing-model gate: a quick host calibration
(``repro.engine.profile``) feeds ``host_time_plan``, whose predicted
serial-vs-thread ordering must match the measured one (ties near parity
pass — see ``_run_prediction_smoke``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.engine import (
    CompressedChunkSource,
    InMemorySource,
    ProcessBackend,
    StreamingExecutor,
    ThreadBackend,
    auto_batch_size,
    streamed_batch_bytes,
)
from repro.partition.plan import build_partition_plan
from repro.simgpu.kernel import KernelCostModel
from repro.tensor.io import write_shard_cache_streaming, write_shard_cache_v2
from repro.tensor.formats.csf import CSFTensor
from repro.tensor.generate import zipf_coo
from repro.tensor.kernels import (
    ec_contributions,
    mttkrp_sorted_segments,
    scatter_rows_atomic,
)


@pytest.fixture(scope="module")
def kernel_data():
    tensor = zipf_coo((5000, 3000, 2000), 200_000, exponents=1.0, seed=0)
    rng = np.random.default_rng(1)
    factors = [rng.random((s, 32)) for s in tensor.shape]
    return tensor, factors


def test_ec_contributions(benchmark, kernel_data):
    tensor, factors = kernel_data
    out = benchmark(
        ec_contributions, tensor.indices, tensor.values, factors, 0
    )
    assert out.shape == (tensor.nnz, 32)


def test_scatter_rows_atomic(benchmark, kernel_data):
    tensor, factors = kernel_data
    contrib = ec_contributions(tensor.indices, tensor.values, factors, 0)
    rows = tensor.indices[:, 0]

    def run():
        out = np.zeros((tensor.shape[0], 32))
        scatter_rows_atomic(out, rows, contrib)
        return out

    out = benchmark(run)
    assert out.shape[0] == tensor.shape[0]


def test_mttkrp_sorted_segments(benchmark, kernel_data):
    tensor, factors = kernel_data
    sorted_t = tensor.sorted_by_mode(0)

    def run():
        out = np.zeros((tensor.shape[0], 32))
        mttkrp_sorted_segments(
            sorted_t.indices, sorted_t.values, factors, 0, out
        )
        return out

    out = benchmark(run)
    assert out.shape[0] == tensor.shape[0]


def test_csf_tree_mttkrp(benchmark, kernel_data):
    tensor, factors = kernel_data
    csf = CSFTensor.from_coo(tensor)
    out = benchmark(csf.mttkrp, factors, 0)
    assert out.shape == (tensor.shape[0], 32)


def test_csf_construction(benchmark, kernel_data):
    tensor, _ = kernel_data
    csf = benchmark(CSFTensor.from_coo, tensor)
    assert csf.nnz == tensor.nnz


@pytest.fixture(scope="module")
def engine_plan(kernel_data):
    tensor, _ = kernel_data
    return build_partition_plan(tensor, 4, shards_per_gpu=8)


def test_streaming_engine_eager(benchmark, kernel_data, engine_plan):
    _, factors = kernel_data
    engine = StreamingExecutor(engine_plan)
    out = benchmark(engine.mttkrp, factors, 0)
    assert out.shape[1] == 32


def test_streaming_engine_batched(benchmark, kernel_data, engine_plan):
    _, factors = kernel_data
    engine = StreamingExecutor(engine_plan, batch_size=4096)
    out = benchmark(engine.mttkrp, factors, 0)
    assert out.shape[1] == 32


def test_streaming_engine_thread_backend(benchmark, kernel_data, engine_plan):
    _, factors = kernel_data
    with StreamingExecutor(
        engine_plan, batch_size=4096, backend="thread", workers=2
    ) as engine:
        out = benchmark(engine.mttkrp, factors, 0)
    assert out.shape[1] == 32


def test_streaming_engine_prefetch(benchmark, kernel_data, engine_plan):
    """Serial backend with prefetch on a resident plan (a pass-through)."""
    _, factors = kernel_data
    with StreamingExecutor(
        engine_plan, batch_size=4096, prefetch=True
    ) as engine:
        out = benchmark(engine.mttkrp, factors, 0)
    assert out.shape[1] == 32


def test_streaming_engine_mmap(benchmark, kernel_data, tmp_path):
    """Throughput of the mapped out-of-core path on a warm page cache."""
    tensor, factors = kernel_data
    cache = write_shard_cache_v2(tensor, tmp_path / "bench.npz", codec="none")
    source = CompressedChunkSource(cache, n_gpus=4, shards_per_gpu=8)
    engine = StreamingExecutor(
        source, batch_size=auto_batch_size(KernelCostModel(), 32, tensor.nmodes)
    )
    out = benchmark(engine.mttkrp, factors, 0)
    assert out.shape[1] == 32


def test_streaming_engine_compressed(benchmark, kernel_data, tmp_path):
    """Throughput of the v2 chunked/compressed path: explicit chunk reads +
    zlib decompression, with the next chunks decoding on the reader's
    read-ahead pool."""
    tensor, factors = kernel_data
    res = write_shard_cache_streaming(
        tensor, tmp_path / "bench_v2.npz", memory_budget=8 << 20, codec="zlib"
    )
    source = CompressedChunkSource(res.path, n_gpus=4, shards_per_gpu=8)
    with StreamingExecutor(
        source,
        batch_size=auto_batch_size(KernelCostModel(), 32, tensor.nmodes),
        prefetch=True,
    ) as engine:
        out = benchmark(engine.mttkrp, factors, 0)
    assert out.shape[1] == 32


# ----------------------------------------------------------------------
# CI smoke mode: `python benchmarks/bench_kernels.py --smoke`
# ----------------------------------------------------------------------
SMOKE_RATIO_LIMIT = 1.2


def _best_wall_times(fns: dict, repeats: int = 5) -> dict:
    """Best-of-``repeats`` wall time of every labelled callable.

    Repetitions run round-robin across the labels, so a slow phase of the
    host hits every label alike instead of one label's whole block, and
    the ratios the gates compare stay host-phase-free.
    """
    import time

    best = {label: float("inf") for label in fns}
    for _ in range(repeats):
        for label, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[label] = min(best[label], time.perf_counter() - t0)
    return best


def run_smoke(batch_size: int = 4096) -> int:
    """Correctness + perf gate for the streaming engine.

    Returns a process exit code: 0 when the batched path is bit-identical to
    the eager path and within ``SMOKE_RATIO_LIMIT`` of its best wall time.
    """
    tensor = zipf_coo((5000, 3000, 2000), 200_000, exponents=1.0, seed=0)
    rng = np.random.default_rng(1)
    factors = [rng.random((s, 32)) for s in tensor.shape]
    plan = build_partition_plan(tensor, 4, shards_per_gpu=8)

    eager = StreamingExecutor(plan)
    batched = StreamingExecutor(plan, batch_size=batch_size)
    # Build batch plans (cached) before timing, as a warm production run would.
    for m in range(tensor.nmodes):
        eager.batch_plan(m), batched.batch_plan(m)

    eager_out = eager.mttkrp_all_modes(factors)
    batched_out = batched.mttkrp_all_modes(factors)
    for m, (a, b) in enumerate(zip(eager_out, batched_out)):
        if not np.array_equal(a, b):
            print(f"SMOKE FAIL: mode {m} batched output differs from eager")
            return 1

    times = _best_wall_times({
        "eager": lambda: eager.mttkrp_all_modes(factors),
        "batched": lambda: batched.mttkrp_all_modes(factors),
    })
    t_eager, t_batched = times["eager"], times["batched"]
    ratio = t_batched / t_eager
    n_batches = sum(batched.n_batches(m) for m in range(tensor.nmodes))
    print(
        f"engine smoke: eager {t_eager * 1e3:.1f} ms, "
        f"batched(batch_size={batch_size}, "
        f"{n_batches} batches) {t_batched * 1e3:.1f} ms, ratio {ratio:.3f}x"
    )
    if ratio > SMOKE_RATIO_LIMIT:
        print(f"SMOKE FAIL: batched path exceeds {SMOKE_RATIO_LIMIT}x eager")
        return 1

    rc = _run_index_width_smoke(plan, factors, batch_size)
    if rc != 0:
        return rc
    rc = _run_out_of_core_smoke(tensor, factors, eager_out, t_eager)
    if rc != 0:
        return rc
    rc = _run_compressed_smoke(tensor, factors, eager_out)
    if rc != 0:
        return rc
    rc = _run_backend_smoke(tensor, factors, plan, eager_out, batch_size)
    if rc != 0:
        return rc
    print("SMOKE OK: bit-identical outputs, no perf regression")
    return 0


def _widened(plan, dtype):
    """``plan`` with every mode copy's indices cast to ``dtype`` (the plan
    itself stores the narrowest dtype of the shape)."""
    return replace(plan, modes=tuple(
        replace(part, tensor=part.tensor._trusted(
            part.tensor.indices.astype(dtype), part.tensor.values
        ))
        for part in plan.modes
    ))


def _run_index_width_smoke(plan, factors, batch_size) -> int:
    """Index-width gate, per available kernel tier.

    Reduces the same plan with int64, uint32 and uint16 mode copies on
    every available tier (numpy gathers with the narrow columns directly,
    cc runs one compiled instantiation per index type, numba widens each
    batch to int64): the narrow cells must be bit-identical to the int64
    cell of their tier and within SMOKE_RATIO_LIMIT of its best wall time.
    """
    from repro.tensor.kernelreg import available_kernels

    plans = {
        "int64": _widened(plan, np.int64),
        "uint32": _widened(plan, np.uint32),
        "uint16": plan,
    }
    if plan.modes[0].tensor.indices.dtype != np.uint16:
        print("SMOKE FAIL: the smoke plan's mode copies are not uint16")
        return 1
    for kernel in available_kernels():
        engines = {}
        for label, p in plans.items():
            engine = StreamingExecutor(p, batch_size=batch_size, kernel=kernel)
            for m in range(len(p.modes)):
                engine.batch_plan(m)
            engines[label] = engine
        want = engines["int64"].mttkrp_all_modes(factors)
        for label in ("uint32", "uint16"):
            outs = engines[label].mttkrp_all_modes(factors)
            for m, (a, o) in enumerate(zip(want, outs)):
                if not np.array_equal(a, o):
                    print(
                        f"SMOKE FAIL: {kernel} kernel on {label} indices, "
                        f"mode {m}, differs from the int64 cell"
                    )
                    return 1
        times = _best_wall_times({
            label: (lambda e=engine: e.mttkrp_all_modes(factors))
            for label, engine in engines.items()
        })
        ratios = {label: times[label] / times["int64"] for label in times}
        print(
            f"index-width smoke ({kernel}): "
            + ", ".join(
                f"{label} {times[label] * 1e3:.1f} ms ({ratios[label]:.3f}x)"
                for label in times
            )
            + "; narrow cells bit-identical to int64"
        )
        slow = [label for label, r in ratios.items() if r > SMOKE_RATIO_LIMIT]
        if slow:
            print(
                f"SMOKE FAIL: {kernel} kernel on {slow} indices exceeds "
                f"{SMOKE_RATIO_LIMIT}x the int64 cell"
            )
            return 1
    return 0


#: Measured or predicted serial/thread ratios closer to parity than this
#: are ties: the ordering is not meaningful at smoke scale, so the
#: prediction gate only fails on a *confident* disagreement.
PREDICTION_TIE_BAND = 0.10


def _run_prediction_smoke(tensor, plan, batch_size, t_serial, t_thread) -> int:
    """Host-pipeline timing-model gate.

    Calibrates this host with the quick profiler, predicts the serial and
    thread(2) backend times for the smoke workload through
    ``host_time_plan``, and requires the predicted serial-vs-thread
    ordering to match the measured one. Ratios within
    ``PREDICTION_TIE_BAND`` of parity (on either side) are ties — at smoke
    scale the two backends can be genuinely indistinguishable, and the
    model must only be *confidently wrong* to fail CI.
    """
    from repro.core.config import AmpedConfig
    from repro.engine.costmodel import host_time_plan
    from repro.core.workload import TensorWorkload
    from repro.engine.profile import profile_host

    cost = KernelCostModel()
    profile = profile_host(quick=True)
    workload = TensorWorkload.from_source(
        InMemorySource(plan), cost, rank=32
    )
    cfg = AmpedConfig(batch_size=batch_size)
    pred_serial = host_time_plan(workload, cfg, cost, profile)["total_s"]
    pred_thread = host_time_plan(
        workload, cfg.replace(backend="thread", workers=2), cost, profile
    )["total_s"]
    measured_ratio = t_thread / t_serial
    predicted_ratio = pred_thread / pred_serial
    print(
        f"prediction smoke: measured thread/serial {measured_ratio:.3f}x, "
        f"predicted {predicted_ratio:.3f}x (serial {pred_serial * 1e3:.1f} ms "
        f"vs thread {pred_thread * 1e3:.1f} ms predicted; quick profile: "
        f"reduce {profile.reduce_bandwidth / 1e9:.2f} GB/s, thread "
        f"efficiency {profile.thread_efficiency:.2f})"
    )
    lo, hi = 1.0 - PREDICTION_TIE_BAND, 1.0 + PREDICTION_TIE_BAND
    if lo <= measured_ratio <= hi or lo <= predicted_ratio <= hi:
        return 0  # a tie on either side: ordering not meaningful
    if (measured_ratio > 1.0) != (predicted_ratio > 1.0):
        print(
            "SMOKE FAIL: the timing model confidently predicts the wrong "
            "serial-vs-thread ordering for this host"
        )
        return 1
    return 0


def _run_compressed_smoke(tensor, factors, eager_out) -> int:
    """v2 chunked/compressed cache gate.

    Builds the v2 cache with the external-sort streaming builder under a
    memory budget smaller than the tensor's element footprint (so the
    external sort genuinely runs), then requires the compressed source —
    with and without prefetch (chunk read-ahead) — to reproduce the
    in-memory bits exactly. Correctness gate only: decompression cost is
    the price
    of cold storage and is reported, not bounded.
    """
    import tempfile
    from pathlib import Path

    elem_bytes = tensor.nmodes * 8 + 8
    budget = (tensor.nnz * elem_bytes) // 4  # force a multi-run build
    with tempfile.TemporaryDirectory() as tmp:
        res = write_shard_cache_streaming(
            tensor, Path(tmp) / "smoke_v2.npz",
            memory_budget=budget, codec="zlib",
        )
        if res.n_runs < 2:
            print(
                f"SMOKE FAIL: streaming builder used {res.n_runs} run(s); "
                f"the budget was meant to force an external sort"
            )
            return 1
        if res.peak_run_nnz > 2 * max(res.run_nnz, res.n_runs):
            print(
                f"SMOKE FAIL: builder peak {res.peak_run_nnz} elements "
                f"exceeds the budgeted run bound {res.run_nnz}"
            )
            return 1
        source = CompressedChunkSource(res.path, n_gpus=4, shards_per_gpu=8)
        engines = {
            prefetch: StreamingExecutor(
                source, batch_size=32768, prefetch=prefetch
            )
            for prefetch in (False, True)
        }
        for prefetch, engine in engines.items():
            outs = engine.mttkrp_all_modes(factors)
            for m, (a, o) in enumerate(zip(eager_out, outs)):
                if not np.array_equal(a, o):
                    print(
                        f"SMOKE FAIL: v2 compressed cache "
                        f"(prefetch={prefetch}) mode {m} differs from "
                        f"the in-memory bits"
                    )
                    return 1
        times = _best_wall_times(
            {
                prefetch: (lambda e=engine: e.mttkrp_all_modes(factors))
                for prefetch, engine in engines.items()
            },
            repeats=3,
        )
        for engine in engines.values():
            engine.close()
        source.close()
        raw = tensor.nnz * elem_bytes * tensor.nmodes
        size = res.path.stat().st_size
        print(
            f"compressed-cache smoke (zlib, external sort {res.n_runs} runs, "
            f"peak {res.peak_run_nnz} elems): {size / raw:.2f}x of raw bytes; "
            f"plain {times[False] * 1e3:.1f} ms, "
            f"prefetch {times[True] * 1e3:.1f} ms; zlib+prefetch "
            f"bit-identical to in-memory"
        )
    return 0


def _run_backend_smoke(tensor, factors, plan, eager_out, batch_size) -> int:
    """Execution-backend gate: process bit-identity + thread parity.

    The process pool — attached to a memory-mapped ``codec="none"`` shard
    cache, with and without prefetch — must reproduce the eager bits
    exactly; the
    persistent thread pool must additionally land within SMOKE_RATIO_LIMIT
    of the serial backend's wall time (threads only pay pool bookkeeping:
    NumPy releases the GIL inside the kernels).
    """
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        cache = write_shard_cache_v2(
            tensor, Path(tmp) / "backend_smoke.npz", codec="none"
        )
        source = CompressedChunkSource(cache, n_gpus=4, shards_per_gpu=8)
        with ProcessBackend(2) as process:
            for prefetch in (False, True):
                engine = StreamingExecutor(
                    source, batch_size=batch_size, backend=process,
                    prefetch=prefetch,
                )
                outs = engine.mttkrp_all_modes(factors)
                for m, (a, o) in enumerate(zip(eager_out, outs)):
                    if not np.array_equal(a, o):
                        print(
                            f"SMOKE FAIL: process backend "
                            f"(prefetch={prefetch}) mode {m} differs from "
                            f"eager"
                        )
                        return 1
            if process.published_modes != 0:
                print(
                    "SMOKE FAIL: process backend copied tensor bytes into "
                    "shared memory despite the mapped cache attachment"
                )
                return 1
        source.close()

    serial = StreamingExecutor(plan, batch_size=batch_size)
    with ThreadBackend(2) as thread_backend:
        threaded = StreamingExecutor(
            plan, batch_size=batch_size, backend=thread_backend
        )
        for m in range(tensor.nmodes):
            serial.batch_plan(m), threaded.batch_plan(m)
        outs = threaded.mttkrp_all_modes(factors)
        for m, (a, o) in enumerate(zip(eager_out, outs)):
            if not np.array_equal(a, o):
                print(f"SMOKE FAIL: thread backend mode {m} differs from eager")
                return 1
        times = _best_wall_times({
            "serial": lambda: serial.mttkrp_all_modes(factors),
            "thread": lambda: threaded.mttkrp_all_modes(factors),
        })
        t_serial, t_thread = times["serial"], times["thread"]
    ratio = t_thread / t_serial
    print(
        f"backend smoke: serial {t_serial * 1e3:.1f} ms, "
        f"thread(workers=2) {t_thread * 1e3:.1f} ms, ratio {ratio:.3f}x; "
        f"process backend bit-identical (mapped cache attach, prefetch on/off)"
    )
    if ratio > SMOKE_RATIO_LIMIT:
        print(
            f"SMOKE FAIL: thread backend exceeds {SMOKE_RATIO_LIMIT}x the "
            f"serial backend"
        )
        return 1
    return _run_prediction_smoke(tensor, plan, batch_size, t_serial, t_thread)


def _run_out_of_core_smoke(tensor, factors, eager_out, t_eager: float) -> int:
    """Mmap-vs-in-memory throughput + the cache-model `auto` batch gate.

    Builds a shard cache in a temp dir, checks every probed batch size is
    bit-identical to the in-memory bits, and requires the `auto` batch to be
    within SMOKE_RATIO_LIMIT of the best manually tuned mmap time (and its
    staged bytes to fit the modeled cache).
    """
    import tempfile
    from pathlib import Path

    cost = KernelCostModel()
    auto_b = auto_batch_size(cost, 32, tensor.nmodes)
    if streamed_batch_bytes(auto_b, 32, tensor.nmodes) > cost.effective_cache_bytes:
        print(
            f"SMOKE FAIL: auto batch {auto_b} stages more than "
            f"effective_cache_bytes={cost.effective_cache_bytes}"
        )
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        cache = write_shard_cache_v2(
            tensor, Path(tmp) / "smoke.npz", codec="none"
        )
        source = CompressedChunkSource(cache, n_gpus=4, shards_per_gpu=8)
        candidates: dict[str, int | None] = {
            "eager": None,
            "4096": 4096,
            "32768": 32768,
            f"auto={auto_b}": auto_b,
        }
        engines = {}
        for label, b in candidates.items():
            engine = StreamingExecutor(source, batch_size=b)
            for m in range(tensor.nmodes):
                engine.batch_plan(m)
            outs = engine.mttkrp_all_modes(factors)
            for m, (a, o) in enumerate(zip(eager_out, outs)):
                if not np.array_equal(a, o):
                    print(
                        f"SMOKE FAIL: mapped batch_size={label} mode {m} "
                        f"differs from in-memory"
                    )
                    return 1
            engines[label] = engine
        times = _best_wall_times({
            label: (lambda e=engine: e.mttkrp_all_modes(factors))
            for label, engine in engines.items()
        })
        melems = tensor.nnz * tensor.nmodes / 1e6
        summary = ", ".join(
            f"{label} {t * 1e3:.1f} ms ({melems / t:.0f} Melem/s)"
            for label, t in times.items()
        )
        print(
            f"out-of-core smoke (mapped none cache, vs in-memory eager "
            f"{t_eager * 1e3:.1f} ms): {summary}"
        )
        auto_label = f"auto={auto_b}"
        best_manual = min(t for label, t in times.items() if label != auto_label)
        auto_ratio = times[auto_label] / best_manual
        print(
            f"auto batch {auto_b}: {auto_ratio:.3f}x of best manual time"
        )
        if auto_ratio > SMOKE_RATIO_LIMIT:
            print(
                f"SMOKE FAIL: auto batch exceeds {SMOKE_RATIO_LIMIT}x the "
                f"best manual batch size"
            )
            return 1
        source.close()
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="run the quick CI engine check"
    )
    parser.add_argument("--batch-size", type=int, default=4096)
    args = parser.parse_args()
    if not args.smoke:
        parser.error("use --smoke (pytest runs the benchmark suite)")
    raise SystemExit(run_smoke(args.batch_size))
