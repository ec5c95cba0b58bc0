"""The ``repro bench run`` scheduler: drain a sweep into a trajectory file.

Fuzzbench-style scheduling at single-host scale: :func:`run_bench` expands
the sweep spec into pending :class:`~repro.bench.trials.TrialSpec` rows up
front, runs them sequentially (each trial already owns its repeats — a
process-pool trial must not share the host with a concurrent serial trial
it would skew), and aggregates the records into one validated trajectory
(:mod:`repro.bench.trajectory`) written atomically at the end.

Two built-in sweeps: :data:`SMOKE_SWEEP` is the CI gate (seconds — tiny
tensors, no process pools), :data:`DEFAULT_SWEEP` is the committed
``BENCH_*.json`` matrix covering every source kind and backend.
"""

from __future__ import annotations

import socket

from repro.bench.trajectory import build_trajectory, save_trajectory
from repro.bench.trials import expand_sweep, git_rev, run_trial

__all__ = ["SMOKE_SWEEP", "DEFAULT_SWEEP", "run_bench"]

#: CI smoke matrix: resident + one compressed source across the in-process
#: backends plus a 2-node loopback cluster cell (zlib is in the stdlib;
#: process pools are left to the full sweep so the gate stays fast and
#: start-up-noise free). The cluster cells carry the measured-vs-predicted
#: comm record the CI oracle gate reads.
SMOKE_SWEEP: dict = {
    "datasets": ["twitch"],
    "nnz": [2000],
    "sources": ["inmem", "chunked:zlib"],
    "backends": ["serial", "thread:2", "cluster:1", "auto"],
    "kernels": ["auto", "numpy"],
    "prefetch": [False],
    "ranks": [4],
    "nodes": [2],
    "n_gpus": 2,
    "shards_per_gpu": 2,
    "warmup": 1,
    "repeats": 3,
}

#: The committed-trajectory matrix: every source kind (resident, mapped
#: ``codec="none"`` cache, compressed cache), every backend including the
#: process pool and auto resolution, both the auto-resolved and
#: pinned-numpy kernel tiers (auto cells keep pre-registry cell keys, so
#: trajectory comparison against older files sees the compiled tier as an
#: in-place improvement),
#: with and without prefetch, plus the 2-node loopback cluster column
#: (only cluster cells grow the ``/n2`` key segment, so every
#: pre-cluster cell key stays byte-identical and comparable).
DEFAULT_SWEEP: dict = {
    "datasets": ["twitch"],
    "nnz": [4000],
    "sources": ["inmem", "mmap", "chunked:zlib"],
    "backends": ["serial", "thread:2", "process:2", "cluster:1", "auto"],
    "kernels": ["auto", "numpy"],
    "prefetch": [False, True],
    "ranks": [8],
    "nodes": [2],
    "n_gpus": 2,
    "shards_per_gpu": 2,
    "warmup": 1,
    "repeats": 5,
}


def run_bench(
    sweep: dict,
    *,
    out,
    label: str = "",
    host_profile=None,
    only: str | None = None,
    progress=None,
) -> tuple:
    """Expand ``sweep``, run every trial, write the trajectory to ``out``.

    ``only`` keeps just the cells whose key contains the substring (for
    quick local iteration on one corner of the matrix); ``progress`` is an
    optional callable receiving one status line per trial. Returns
    ``(path, trajectory)``.
    """
    specs = expand_sweep(sweep)
    if only:
        specs = [s for s in specs if only in s.cell]
    emit = progress if progress is not None else (lambda line: None)
    records = []
    for i, spec in enumerate(specs, 1):
        emit(f"[{i}/{len(specs)}] {spec.cell}")
        rec = run_trial(spec, host_profile=host_profile)
        records.append(rec)
        emit(
            f"    median {rec['median_s'] * 1e3:.2f}ms, predicted "
            f"{rec['predicted_total_s'] * 1e3:.2f}ms "
            f"({rec['prediction_error'] * 100:+.1f}%)"
        )
    trajectory = build_trajectory(
        records,
        label=label,
        git_rev=git_rev(),
        host=socket.gethostname(),
    )
    path = save_trajectory(out, trajectory)
    return path, trajectory
