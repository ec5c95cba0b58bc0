"""End-to-end CP-ALS benchmark: workloads, measurement, tracing, gates.

Every layer is timed from outside, around calls to its public functions;
nothing here reaches into the program's internals. One untraced run
reports the end-to-end metrics a user waits for; a traced run records
layer spans into a :class:`repro.simgpu.trace.Timeline`, exports them as a
Chrome trace and reports per-layer numbers (see ``README.md``).
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
import tracemalloc
import zlib
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro import AmpedConfig, AmpedMTTKRP
from repro.cpd.als import cp_als
from repro.cpd.init import init_factors
from repro.cpd.ktensor import KruskalTensor
from repro.datasets.profiles import profile_by_name
from repro.datasets.synthetic import materialize
from repro.engine.prefetch import PrefetchingSource
from repro.simgpu.trace import Category, Timeline
from repro.simgpu.trace_export import write_chrome_trace
from repro.tensor.io_v2 import write_shard_cache_v2
from repro.tensor.kernelreg import FUSED_ATOL, FUSED_RTOL
from repro.tensor.reference import mttkrp_coo_reference

RANK = 16
SWEEPS = 3  # fixed work per decomposition: tol=0 never stops early
MIN_REPS = 3  # setup + decompose repetitions per untraced run
MAX_MODES = 5  # executor.mttkrp_mode<m>_s is reported for m < MAX_MODES
MIB = float(1 << 20)
# Untraced timings are reported in seconds of a reference host on which
# one HostProbe.sample takes this long (see HostProbe).
REF_PROBE_S = 0.080
PROBES_PER_REP = 2


@dataclass(frozen=True)
class Workload:
    dataset: str
    nnz: int
    backend: str = "serial"
    workers: int = 1
    cache_codec: str | None = None  # set: write + stream a v2 shard cache
    prefetch: bool = False

    def config(self) -> AmpedConfig:
        return AmpedConfig(
            rank=RANK,
            kernel="cc",
            backend=self.backend,
            workers=self.workers,
            prefetch=self.prefetch,
        )


WORKLOADS = {
    "ooc-amazon-zlib": Workload(
        "amazon", 800_000, cache_codec="zlib", prefetch=True
    ),
    "process2-twitch": Workload("twitch", 600_000, backend="process", workers=2),
}

# (name, unit) in report order; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("decompose_s", "s"),
    ("sweep_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MiB"),
)
PER_LAYER = (
    ("io_v2.cache_build_s", "s"),
    ("io_v2.cache_mb", "MiB"),
    ("io_v2.codec_ratio", "ratio"),
    ("plan.executor_build_s", "s"),
    ("plan.n_batches", "count"),
    ("plan.batch_size", "count"),
    ("executor.mttkrp_s", "s"),
    *((f"executor.mttkrp_mode{m}_s", "s") for m in range(MAX_MODES)),
    ("executor.mttkrp_first_s", "s"),
    ("source.staging_pass_s", "s"),
    ("backend.warmup_s", "s"),
    ("backend.children_rss_mb", "MiB"),
    ("als.solve_s", "s"),
    ("ktensor.fit_s", "s"),
    ("ktensor.fit_peak_mb", "MiB"),
    ("costmodel.prediction_error", "ratio"),
    ("trace.overhead_s", "s"),
    ("host.probe_s", "s"),
)


def checked_mttkrp(ex: AmpedMTTKRP, factors, mode: int) -> np.ndarray:
    """The program output the correctness gate inspects (a test seam)."""
    return ex.mttkrp(factors, mode)


# ----------------------------------------------------------------------
# Process memory, read from /proc (Linux)
# ----------------------------------------------------------------------
def _status_kb(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:  # the process ended between listing and reading
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def children_peak_mib() -> float:
    """Sum of the peak RSS of every live descendant process."""
    return sum(_status_kb(p, "VmHWM") for p in _descendants(os.getpid())) / 1024


def reset_self_peak() -> None:
    """Reset this process's peak-RSS mark to its current RSS (Linux >= 4.0).

    Where the kernel refuses, the mark keeps counting from process start.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def self_peak_mib() -> float:
    return _status_kb("self", "VmHWM") / 1024


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class HostProbe:
    """A fixed kernel, timed between repetitions, that gauges host speed.

    On a shared host, co-tenants change per-core throughput by up to ~2x
    in phases of seconds to minutes, and no statistic over one run's wall
    times hides a phase that covers the whole run. The probe does the
    kinds of work the workloads do (row gather and scatter-add as in
    MTTKRP, a rank-16 Gram product as in ALS, a sort as in set-up, a zlib
    round trip as in the shard cache) on inputs that never depend on the
    workload, the seed or the program, so its time tracks only the host.
    ``scale()`` turns this run's seconds into reference-host seconds.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20250)
        n, rows = 200_000, 20_000
        self.idx = rng.integers(0, rows, n)
        self.table = rng.random((rows, RANK))
        self.weights = rng.random(n)
        self.keys = rng.integers(0, 1 << 40, n)
        self.column = np.sort(rng.integers(0, 1 << 20, n // 4)).tobytes()
        self.times: list[float] = []

    def sample(self, k: int = PROBES_PER_REP) -> None:
        for _ in range(k):
            start = time.perf_counter()
            rows = self.table[self.idx] * self.weights[:, None]
            np.bincount(self.idx, weights=rows[:, 0], minlength=len(self.table))
            rows.T @ rows
            np.argsort(self.keys)
            zlib.decompress(zlib.compress(self.column, 6))
            self.times.append(time.perf_counter() - start)

    def median(self) -> float:
        return statistics.median(self.times)

    def scale(self) -> float:
        return REF_PROBE_S / self.median()


def running() -> tuple[int, set[int]]:
    """This process's live thread count and descendant process ids."""
    return threading.active_count(), set(_descendants(os.getpid()))


# ----------------------------------------------------------------------
# Spans around layer calls
# ----------------------------------------------------------------------
class Tracer:
    """Records host spans into a Timeline; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.timeline = Timeline()
        self.t0 = time.perf_counter()

    def call(self, label, fn, *args, category=Category.HOST, **kw):
        if not self.enabled:
            return fn(*args, **kw)
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.timeline.add(
                -1, category, start - self.t0, time.perf_counter() - self.t0,
                label,
            )


def self_times(timeline: Timeline) -> dict[str, float]:
    """Self time per span label: duration minus what its children cover.

    Spans nest by time (they are recorded on one thread), so a stack
    walk over spans ordered by (start, -end) finds each span's parent.
    """
    out: dict[str, float] = {}
    stack: list = []
    spans = sorted(timeline.spans, key=lambda s: (s.start, -s.end))
    child_cover: dict[int, float] = {}
    for s in spans:
        while stack and stack[-1].end <= s.start:
            stack.pop()
        if stack:
            parent = id(stack[-1])
            child_cover[parent] = child_cover.get(parent, 0.0) + s.duration
        stack.append(s)
    for s in spans:
        name = s.label.split("[", 1)[0]
        out[name] = out.get(name, 0.0) + s.duration - child_cover.get(id(s), 0.0)
    return out


# ----------------------------------------------------------------------
# One setup and one decomposition
# ----------------------------------------------------------------------
def _setup(wl: Workload, tensor, cache_path: Path, tracer: Tracer):
    """Generated tensor -> executor ready for its first sweep."""
    config = wl.config()
    if wl.cache_codec is None:
        return tracer.call("plan.executor_build", AmpedMTTKRP, tensor, config)
    cache_path.unlink(missing_ok=True)
    path = tracer.call(
        "io_v2.cache_build", write_shard_cache_v2, tensor, cache_path,
        codec=wl.cache_codec,
    )
    return tracer.call(
        "plan.executor_build", AmpedMTTKRP.from_shard_cache, path, config
    )


def _decompose(ex: AmpedMTTKRP, factors, tracer: Tracer):
    """Fixed-sweep CP-ALS; returns (result, wall_s, sweep_s list, mttkrp calls)."""
    calls: list[tuple[int, int, float]] = []  # (sweep, mode, seconds)
    marks: list[float] = []

    def mttkrp(f, mode):
        start = time.perf_counter()
        out = tracer.call(
            f"executor.mttkrp[{mode}]", ex.mttkrp, f, mode,
            category=Category.COMPUTE,
        )
        calls.append((len(marks), mode, time.perf_counter() - start))
        return out

    def on_sweep(it, fit):
        marks.append(time.perf_counter())
        return False

    start = time.perf_counter()
    result = tracer.call(
        "cpd.als", cp_als, ex.tensor, RANK,
        mttkrp=mttkrp if tracer.enabled else ex.mttkrp,
        factors=factors, n_iters=SWEEPS, tol=0.0, callback=on_sweep,
    )
    wall = time.perf_counter() - start
    sweeps = list(np.diff([start, *marks]))
    return result, wall, sweeps, calls


def _check(ex: AmpedMTTKRP, tensor, factors) -> tuple[bool, float]:
    """MTTKRP of the seeded factors vs the COO reference, every mode."""
    worst = 0.0
    ok = True
    for mode in range(tensor.nmodes):
        got = checked_mttkrp(ex, factors, mode)
        want = mttkrp_coo_reference(tensor, factors, mode)
        ok &= bool(np.allclose(got, want, rtol=FUSED_RTOL, atol=FUSED_ATOL))
        scale = np.maximum(np.abs(want), FUSED_ATOL)
        worst = max(worst, float(np.max(np.abs(got - want) / scale, initial=0.0)))
    return ok, worst


class Run:
    """Counts operations and failures; each failure is also logged."""

    def __init__(self, log) -> None:
        self.attempted = 0
        self.failed = 0
        self.log = log

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"FAILED: {what}")


def _symmetric_ratio(predicted: float, measured: float) -> float:
    """max(p/m, m/p) - 1: 0 is exact, 1 is a 2x miss either way."""
    p, m = max(predicted, 1e-12), max(measured, 1e-12)
    return max(p / m, m / p) - 1.0


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *,
    out_dir: Path, scale: float = 1.0, log=print,
) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    wl = WORKLOADS[name]
    profile = profile_by_name(wl.dataset)
    tensor = materialize(profile, max(1000, int(wl.nnz * scale)), seed=seed)
    factors = init_factors(tensor, RANK, seed=seed + 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / f"{name}.cache.npz"
    log(f"workload {name} seed {seed}: {wl.dataset} shape={tensor.shape} "
        f"nnz={tensor.nnz} sweeps={SWEEPS} rank={RANK}")
    run = Run(log)
    try:
        if trace:
            metrics = _traced(wl, name, seed, tensor, factors, cache_path,
                              out_dir, run, log)
            units = dict(PER_LAYER)
        else:
            metrics = _untraced(wl, tensor, factors, cache_path, seconds,
                                run, log)
            units = dict(END_TO_END)
    finally:
        cache_path.unlink(missing_ok=True)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            k: {"value": float(metrics[k]), "unit": units[k]} for k in units
        },
    }


def _gate(ex, tensor, factors, fits, fingerprints, run: Run, log) -> None:
    """The correctness gate, run outside every timed region."""
    try:
        ok, worst = _check(ex, tensor, factors)
    except Exception as exc:  # a crash in the checked path is a failed op
        ok, worst = False, float("nan")
        log(f"check raised {exc!r}")
    run.op(ok, f"mttkrp vs reference (max rel err {worst:.3g}, "
               f"rtol {FUSED_RTOL:g})")
    run.op(bool(fits) and all(np.isfinite(fits)), f"final fits finite {fits}")
    run.op(len(set(fingerprints)) == 1,
           f"one plan fingerprint per workload {sorted(set(fingerprints))}")
    log(f"kernel {ex.plan.kernel} fingerprint {ex.plan.fingerprint} "
        f"max rel err {worst:.3g}")


def _close_checked(ex: AmpedMTTKRP, baseline, run: Run) -> None:
    """Close the executor; anything it leaves running is a failed op."""
    ex.close()
    threads, procs = running()
    run.op(threads <= baseline[0] and procs <= baseline[1],
           f"close left {threads - baseline[0]} threads and "
           f"{len(procs - baseline[1])} processes running")


def _untraced(wl, tensor, factors, cache_path, seconds, run: Run, log) -> dict:
    tracer = Tracer(False)
    probe = HostProbe()
    setups, decomposes, steady, fits, prints, peaks = [], [], [], [], [], []
    # The shared-memory tracker that the process backend starts outlives
    # every executor by design (run.py stops it at exit); start it first
    # so that the baseline holds it.
    resource_tracker.ensure_running()
    baseline = running()
    start = time.perf_counter()
    ex = None
    while len(setups) < MIN_REPS or (
        time.perf_counter() - start
        + statistics.median(setups) + statistics.median(decomposes) < seconds
    ):
        if ex is not None:
            _close_checked(ex, baseline, run)
            ex = None
        gc.collect()
        probe.sample()
        reset_self_peak()
        t = time.perf_counter()
        try:
            ex = _setup(wl, tensor, cache_path, tracer)
        except Exception as exc:
            run.op(False, f"setup raised {exc!r}")
            break
        setup_s = time.perf_counter() - t
        try:
            result, wall, sweeps, _ = _decompose(ex, factors, tracer)
        except Exception as exc:
            run.attempted += SWEEPS - 1  # the sweeps of this decomposition
            run.op(False, f"decompose raised {exc!r}")
            break
        run.attempted += len(sweeps)
        peaks.append(self_peak_mib() + children_peak_mib())
        setups.append(setup_s)
        decomposes.append(wall)
        steady.extend(sweeps[1:])
        fits.append(result.final_fit)
        prints.append(ex.plan.fingerprint)
    if ex is not None:
        try:
            _gate(ex, tensor, factors, fits, prints, run, log)
        finally:
            _close_checked(ex, baseline, run)
    if not setups:
        raise RuntimeError("no repetition completed; see FAILED lines")
    probe.sample()
    scale = probe.scale()
    log(f"reps {len(setups)} setup {_fmt(setups)} decompose {_fmt(decomposes)} "
        f"steady sweeps {_fmt(steady)}")
    log(f"host probe median {probe.median():.4f}s over {len(probe.times)}: "
        f"wall seconds x {scale:.4f} = reference seconds")
    setup_s = statistics.median(setups) * scale
    decompose_s = statistics.median(decomposes) * scale
    return {
        "setup_s": setup_s,
        "decompose_s": decompose_s,
        "sweep_s": statistics.median(steady) * scale,
        "total_s": setup_s + decompose_s,
        "peak_rss_mb": statistics.median(peaks),
    }


def _traced(wl, name, seed, tensor, factors, cache_path, out_dir,
            run: Run, log) -> dict:
    tracer = Tracer(True)
    probe = HostProbe()
    probe.sample()
    m: dict[str, float] = {k: 0.0 for k, _ in PER_LAYER}
    ex = tracer.call("setup", _setup, wl, tensor, cache_path, tracer)
    try:
        nmodes = tensor.nmodes
        n_batches = sum(ex.engine.n_batches(mode) for mode in range(nmodes))
        m["plan.n_batches"] = n_batches
        m["plan.batch_size"] = (
            ex.plan.batch_size or tensor.nnz * nmodes / n_batches
        )
        if wl.cache_codec is not None:
            m["io_v2.cache_mb"] = cache_path.stat().st_size / MIB
            m["io_v2.codec_ratio"] = ex.cache_codec_ratio
        result, traced_wall, sweeps, calls = _decompose(ex, factors, tracer)
        run.attempted += len(sweeps)
        m["backend.children_rss_mb"] = children_peak_mib()
        per_mode = {
            mode: statistics.median(s for sw, md, s in calls if sw > 0 and md == mode)
            for mode in range(nmodes)
        }
        for mode in range(min(nmodes, MAX_MODES)):
            m[f"executor.mttkrp_mode{mode}_s"] = per_mode[mode]
        m["executor.mttkrp_first_s"] = calls[0][2]
        m["backend.warmup_s"] = calls[0][2] - per_mode[calls[0][1]]
        m["costmodel.prediction_error"] = _symmetric_ratio(
            ex.plan.time_plan["total_s"], sum(per_mode.values())
        )
        _staging_pass(ex, tracer)
        tracer.call("ktensor.fit", result.model.fit_sparse, ex.tensor)
        m["ktensor.fit_peak_mb"] = _fit_peak_mib(result.model, ex.tensor)
        _gate(ex, tensor, factors, [result.final_fit],
              [ex.plan.fingerprint], run, log)
    finally:
        ex.close()

    # The same decomposition untraced, on a fresh executor like the traced
    # one, so the difference is the tracing overhead.
    plain = _setup(wl, tensor, cache_path, Tracer(False))
    try:
        _, plain_wall, _, _ = _decompose(plain, factors, Tracer(False))
    finally:
        plain.close()
    m["trace.overhead_s"] = traced_wall - plain_wall
    probe.sample()
    m["host.probe_s"] = probe.median()

    own = self_times(tracer.timeline)
    m["io_v2.cache_build_s"] = own.get("io_v2.cache_build", 0.0)
    m["plan.executor_build_s"] = own["plan.executor_build"]
    m["executor.mttkrp_s"] = own["executor.mttkrp"]
    m["als.solve_s"] = own["cpd.als"]
    m["source.staging_pass_s"] = own["source.staging_pass"]
    m["ktensor.fit_s"] = own["ktensor.fit"]
    path = write_chrome_trace(
        tracer.timeline, out_dir / f"trace-{name}-seed{seed}.json"
    )
    log("self time per layer: " + ", ".join(
        f"{k} {v:.4f}s" for k, v in sorted(own.items())))
    log(f"traced decompose {traced_wall:.4f}s untraced {plain_wall:.4f}s; "
        f"plan total_s {ex.plan.time_plan['total_s']:.4f}s; chrome trace {path}")
    return m


def _staging_pass(ex: AmpedMTTKRP, tracer: Tracer) -> None:
    """One staging-only pass over every mode's batches, no reduction."""
    src = ex.engine.source
    own = not isinstance(src, PrefetchingSource)
    if own:
        src = PrefetchingSource(src)
    try:
        for mode in range(ex.tensor.nmodes):
            batches = ex.engine.batch_plan(mode).batches_for_shards(None)
            tracer.call(
                f"source.staging_pass[{mode}]",
                lambda: sum(b.nnz for b in src.iter_batches(mode, batches)),
                category=Category.H2D,
            )
    finally:
        if own:
            src.close()


def _fit_peak_mib(model: KruskalTensor, tensor) -> float:
    tracemalloc.start()
    try:
        model.fit_sparse(tensor)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _fmt(values) -> str:
    return "[" + " ".join(f"{v:.4f}" for v in values) + "]"
