"""Scheduled benchmark trials: sweep expansion + single-trial execution.

A *trial* is one measured cell of the benchmark sweep — (dataset × source ×
backend × kernel × prefetch × codec × rank × nodes) — run with warmup
iterations followed by
timed repeats of a full MTTKRP iteration (``mttkrp_all_modes``), the same
quantity the host-pipeline timing model predicts. Each trial produces one
versioned JSON record holding the measured wall times, the per-phase
prediction from the executor's ``plan.time_plan``, the
predicted-vs-measured error, peak RSS, a config fingerprint, the host
profile hash, and the git revision — enough provenance to compare the same
cell across trajectory files from different commits (see
:mod:`repro.bench.trajectory`).

Modeled on fuzzbench's scheduler: the sweep spec expands into a flat list
of pending :class:`TrialSpec` rows up front, and the runner
(:mod:`repro.bench.runner`) drains them one at a time so a crash loses at
most the in-flight trial.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from statistics import median

import numpy as np

from repro.errors import ReproError
from repro.tensor.kernelreg import AUTO_KERNEL, validate_kernel_name

__all__ = [
    "TRIAL_RECORD_VERSION",
    "TrialSpec",
    "expand_sweep",
    "run_trial",
    "git_rev",
    "host_profile_hash",
]

#: Format version of one per-trial record (the ``record_version`` field).
#: v2 (PR 10) embeds the executor's serialized
#: :class:`repro.engine.plan.ExecutionPlan` plus its ``plan_fingerprint``
#: — recorded verbatim from the executor instead of re-deriving
#: ``resolved_backend()`` — and the trajectory validator gates their
#: self-consistency. v1 records (``BENCH_6``–``BENCH_8``) predate plans
#: and stay loadable.
TRIAL_RECORD_VERSION = 2

#: How a trial's element data reaches the engine.
SOURCES = ("inmem", "mmap", "chunked")

#: Execution backends a trial may request (``auto`` resolves at construction).
BACKENDS = ("serial", "thread", "process", "cluster", "auto")


@dataclass(frozen=True)
class TrialSpec:
    """One fully-specified benchmark cell (what to run, how many times).

    ``source`` selects element delivery: ``inmem`` (resident
    :class:`~repro.engine.InMemorySource`), ``mmap`` (a memory-mapped
    ``codec="none"`` shard cache; the name predates it and is kept so cell
    keys compare with older trajectories), or ``chunked`` (a compressed
    cache with ``codec``). ``codec`` is only meaningful for ``chunked``.
    The identity fields (everything except ``warmup``/``repeats``/``seed``)
    define the :attr:`cell` key that trajectory comparison matches across
    runs.
    """

    dataset: str = "twitch"
    nnz: int = 2000
    source: str = "inmem"
    backend: str = "serial"
    kernel: str = AUTO_KERNEL
    workers: int = 1
    prefetch: bool = False
    codec: str | None = None
    rank: int = 8
    n_gpus: int = 2
    shards_per_gpu: int = 2
    nodes: int | None = None
    warmup: int = 1
    repeats: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ReproError(
                f"trial source must be one of {list(SOURCES)}, "
                f"got {self.source!r}"
            )
        if self.backend not in BACKENDS:
            raise ReproError(
                f"trial backend must be one of {list(BACKENDS)}, "
                f"got {self.backend!r}"
            )
        validate_kernel_name(self.kernel)
        if self.codec is not None and self.source != "chunked":
            raise ReproError(
                f"codec={self.codec!r} only applies to the 'chunked' "
                f"source, got source={self.source!r}"
            )
        if self.nodes is not None and self.backend != "cluster":
            raise ReproError(
                f"nodes={self.nodes} only applies to the 'cluster' "
                f"backend, got backend={self.backend!r}"
            )
        if self.nodes is not None and self.nodes < 1:
            raise ReproError(f"nodes must be >= 1, got {self.nodes}")
        if self.repeats < 1:
            raise ReproError(f"repeats must be >= 1, got {self.repeats}")
        if self.warmup < 0:
            raise ReproError(f"warmup must be >= 0, got {self.warmup}")

    # ------------------------------------------------------------------
    @property
    def cell(self) -> str:
        """The cross-trajectory comparison key of this cell.

        The kernel segment only appears for an explicitly pinned tier:
        ``kernel="auto"`` cells keep the pre-kernel-registry key layout so
        trajectory files from before the registry existed still line up
        with the same logical cell (what the engine picked is recorded in
        the trial record's ``resolved_kernel``, not in the identity).
        """
        src = self.source if self.codec is None else f"{self.source}+{self.codec}"
        pf = "pf" if self.prefetch else "nopf"
        key = (
            f"{self.dataset}/{self.nnz}/{src}/"
            f"{self.backend}x{self.workers}/{pf}/r{self.rank}"
        )
        if self.kernel != AUTO_KERNEL:
            key += f"/k-{self.kernel}"
        if self.nodes is not None:
            # only cluster cells carry the segment, so every pre-cluster
            # trajectory key stays byte-identical and comparable
            key += f"/n{self.nodes}"
        return key

    def fingerprint(self) -> str:
        """Stable hash of every spec field (config provenance per record)."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def expand_sweep(axes: dict) -> list[TrialSpec]:
    """Expand a sweep spec into scheduled trials (full cartesian product).

    ``axes`` maps axis names to lists: ``datasets``, ``nnz``, ``sources``
    (entries like ``"inmem"``, ``"mmap"``, ``"chunked:zlib"`` — the suffix
    after ``:`` is the codec), ``backends`` (``"serial"``, ``"thread:2"``,
    ``"process:2"``, ``"auto"`` — suffix is the worker count), ``kernels``
    (registry tier names or ``"auto"``; unavailable explicit tiers fall
    back to numpy at run time and the record's ``resolved_kernel`` says
    so), ``prefetch`` (bools), ``ranks``, and ``nodes`` (node counts — the
    axis only applies to ``"cluster"`` backend entries, which expand over
    it; every other backend ignores it so non-cluster cell keys never grow
    a node segment); scalar knobs ``warmup``/``repeats``/``seed`` and
    shape knobs ``n_gpus``/``shards_per_gpu`` apply to every trial.
    Unknown keys raise so a typoed axis cannot silently shrink the sweep.
    """
    known = {
        "datasets", "nnz", "sources", "backends", "kernels", "prefetch",
        "ranks", "nodes", "warmup", "repeats", "seed", "n_gpus",
        "shards_per_gpu",
    }
    unknown = set(axes) - known
    if unknown:
        raise ReproError(
            f"unknown sweep axes {sorted(unknown)}; known: {sorted(known)}"
        )
    specs: list[TrialSpec] = []
    for dataset in axes.get("datasets", ["twitch"]):
        for nnz in axes.get("nnz", [2000]):
            for src_spec in axes.get("sources", ["inmem"]):
                source, _, codec = str(src_spec).partition(":")
                for be_spec in axes.get("backends", ["serial"]):
                    backend, _, w = str(be_spec).partition(":")
                    if w:
                        workers = int(w)
                    else:
                        workers = 2 if backend in ("thread", "process") else 1
                    node_counts = (
                        [int(n) for n in axes.get("nodes", [2])]
                        if backend == "cluster"
                        else [None]
                    )
                    for kernel in axes.get("kernels", [AUTO_KERNEL]):
                        for prefetch in axes.get("prefetch", [False]):
                            for rank in axes.get("ranks", [8]):
                                for nodes in node_counts:
                                    specs.append(TrialSpec(
                                        dataset=dataset,
                                        nnz=int(nnz),
                                        source=source,
                                        backend=backend,
                                        kernel=str(kernel),
                                        workers=workers,
                                        prefetch=bool(prefetch),
                                        codec=codec or None,
                                        rank=int(rank),
                                        n_gpus=int(axes.get("n_gpus", 2)),
                                        shards_per_gpu=int(
                                            axes.get("shards_per_gpu", 2)
                                        ),
                                        nodes=nodes,
                                        warmup=int(axes.get("warmup", 1)),
                                        repeats=int(axes.get("repeats", 3)),
                                        seed=int(axes.get("seed", 0)),
                                    ))
    return specs


# ----------------------------------------------------------------------
# Provenance helpers
# ----------------------------------------------------------------------
def git_rev() -> str | None:
    """Short git revision of the working tree, or ``None`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def host_profile_hash(profile) -> str:
    """Stable hash of the resolved host profile a prediction used.

    Canonically defined by the plan layer now (the same identity an
    :class:`repro.engine.plan.ExecutionPlan` stores); kept here as a
    re-export for existing callers.
    """
    from repro.engine.plan import host_profile_hash as _hash

    return _hash(profile)


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _symmetric_ratio_error(predicted: float, measured: float) -> float:
    """Signed ratio error, symmetric in over/underprediction.

    ``+ (predicted/measured - 1)`` when the model overpredicts,
    ``- (measured/predicted - 1)`` when it underpredicts — so a 5x miss
    reads as ±4 whichever side it lands on, and ``|error| < 1`` is exactly
    "within 2x". The naive relative error is bounded in (-1, 0) for every
    underprediction, which made "within 2x" untestable on the side the
    comm model actually misses.
    """
    p = max(float(predicted), 1e-12)
    m = max(float(measured), 1e-12)
    return float(p / m - 1.0) if p >= m else float(-(m / p - 1.0))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _build_executor(spec: TrialSpec, tensor, config, workdir: Path):
    """The executor for a trial's source kind (caches land in ``workdir``)."""
    from repro.core.amped import AmpedMTTKRP
    from repro.tensor.io import write_shard_cache_v2

    if spec.source == "inmem":
        return AmpedMTTKRP(tensor, config, name=spec.cell)
    codec = "none" if spec.source == "mmap" else spec.codec or "zlib"
    cache = write_shard_cache_v2(tensor, workdir / "trial_cache", codec=codec)
    config = config.replace(out_of_core=True, shard_cache=str(cache))
    return AmpedMTTKRP.from_shard_cache(cache, config, name=spec.cell)


def run_trial(
    spec: TrialSpec,
    *,
    host_profile=None,
    workdir=None,
) -> dict:
    """Run one trial and return its versioned JSON record.

    Builds the dataset and source, takes the prediction straight off the
    executor's :class:`repro.engine.plan.ExecutionPlan` (which a v2
    cache's measured ``codec_ratio`` feeds automatically) and records the
    serialized plan + fingerprint verbatim — what was priced is what is
    measured — runs ``warmup`` untimed iterations, then
    times ``repeats`` full MTTKRP iterations. ``host_profile`` overrides
    the prediction's calibration (profile object or path); ``workdir``
    holds trial shard caches (a temporary directory by default).
    """
    from repro.core.config import AmpedConfig
    from repro.datasets.profiles import profile_by_name
    from repro.datasets.synthetic import materialize
    from repro.util.timer import Timer

    tensor = materialize(
        profile_by_name(spec.dataset), spec.nnz, seed=spec.seed
    )
    config = AmpedConfig(
        n_gpus=spec.n_gpus,
        rank=spec.rank,
        shards_per_gpu=spec.shards_per_gpu,
        backend=spec.backend,
        kernel=spec.kernel,
        workers=spec.workers,
        prefetch=spec.prefetch,
        host_profile=host_profile,
        nodes=spec.nodes,
    )
    rng = np.random.default_rng(spec.seed + 1)
    factors = [rng.random((s, spec.rank)) for s in tensor.shape]

    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with tempfile.TemporaryDirectory(prefix="repro-trial-") as tmp:
        base = Path(workdir) if workdir is not None else Path(tmp)
        ex = _build_executor(spec, tensor, config, base)
        with ex:
            # The executor's ExecutionPlan *is* the record of what ran:
            # resolved axes, pricing, and fingerprint come off it verbatim
            # instead of being re-derived from the config here.
            execution_plan = ex.plan
            plan = execution_plan.time_plan
            codec_ratio = ex.cache_codec_ratio
            for _ in range(spec.warmup):
                ex.mttkrp_all_modes(factors)
            cluster = getattr(ex, "_cluster_backend", None)
            if cluster is not None:
                # measure the exchange over the timed repeats only — the
                # measured side of the predicted-vs-measured comm oracle
                cluster.reset_comm_stats()
            wall_times: list[float] = []
            for _ in range(spec.repeats):
                timer = Timer()
                with timer:
                    ex.mttkrp_all_modes(factors)
                wall_times.append(timer.elapsed)
            comm_stats = None if cluster is None else dict(cluster.comm_stats)

    measured_s = float(median(wall_times))
    predicted_s = float(plan["total_s"])
    comm = None
    if comm_stats is not None:
        comm_measured = comm_stats["seconds"] / max(spec.repeats, 1)
        comm_predicted = float(plan.get("comm_s", 0.0))
        comm = {
            "measured_s": float(comm_measured),
            "predicted_s": comm_predicted,
            "bytes_per_iteration": comm_stats["bytes"] // max(spec.repeats, 1),
            # symmetric signed ratio error: positive = the analytic
            # repro.comm model overpredicts, and |error| < 1 means the
            # prediction is within 2x of the measurement in either
            # direction. (The old (pred - meas) / meas definition was
            # bounded in (-1, 0) for ANY underprediction, so a 5-8x miss
            # still read as |error| < 1 — see docs/benchmarking.md.)
            "error": _symmetric_ratio_error(comm_predicted, comm_measured),
        }
    return {
        "record_version": TRIAL_RECORD_VERSION,
        "cell": spec.cell,
        "spec": asdict(spec),
        "config_fingerprint": spec.fingerprint(),
        "plan": execution_plan.to_dict(),
        "plan_fingerprint": execution_plan.fingerprint,
        "resolved_backend": execution_plan.backend,
        "resolved_workers": int(execution_plan.workers),
        "resolved_kernel": execution_plan.kernel,
        "nnz": int(tensor.nnz),
        "wall_times_s": [float(t) for t in wall_times],
        "median_s": measured_s,
        "predicted": {k: plan[k] for k in (
            "compute_s", "dispatch_s", "ipc_s", "staging_read_s",
            "decompress_s", "stall_s", "prefetch_overhead_s", "total_s",
            "batch_size", "n_batches",
        )},
        "predicted_total_s": predicted_s,
        "prediction_error": _symmetric_ratio_error(predicted_s, measured_s),
        "comm": comm,
        "codec_ratio": None if codec_ratio is None else float(codec_ratio),
        "peak_rss_bytes": _peak_rss_bytes(),
        "host_profile_hash": execution_plan.host_profile_hash,
        "git_rev": git_rev(),
        "started": started,
    }
