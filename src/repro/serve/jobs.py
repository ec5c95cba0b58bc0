"""Job model of the decomposition service: specs, lifecycle, priority queue.

A *job* is one CP-ALS decomposition request with its own
:class:`repro.core.config.AmpedConfig`. The submitted JSON payload is
validated into a :class:`JobSpec` (unknown keys and malformed values are
named :class:`repro.errors.ServiceError`\\ s — a typo must never silently
run the default), tracked through a :class:`Job` record (state machine +
per-iteration fit stream + cooperative cancel flag), and scheduled through
the bounded :class:`JobQueue` (higher ``priority`` first, FIFO within a
priority; a full queue raises the named backpressure error with a retry
hint instead of buffering unboundedly).

Terminal states carry a ``result_digest`` — a SHA-256 over the arranged
Kruskal model's bytes (:func:`factor_digest`) — so bit-identity between a
service job and a direct :func:`repro.cpd.cp_als` run is a string
comparison, the same contract the engine's determinism tests pin.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.core.config import AmpedConfig
from repro.errors import QueueFullError, ReproError, ServiceError

__all__ = [
    "JOB_STATES",
    "Job",
    "JobQueue",
    "JobSpec",
    "factor_digest",
]

#: Every state a job can be in. ``queued -> running -> done`` is the happy
#: path; ``rejected`` never entered the queue (admission), ``cancelled``
#: covers both a queued job that never started and a running job stopped
#: at a sweep boundary, ``failed`` carries the error message.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "rejected")

#: Terminal states: the record stops changing, pooled resources are released.
TERMINAL_STATES = ("done", "failed", "cancelled", "rejected")

#: AmpedConfig fields a job payload's ``config`` section may override.
#: Deliberately excludes ``host_profile`` (server-wide, pinned at startup
#: so every admission plan prices against the same calibration),
#: ``shard_cache``/``out_of_core`` (spelled via the top-level
#: ``shard_cache`` field so the source pool sees every cache path), and
#: the cache-format fields ``cache_codec``/``cache_chunk_nnz`` (a cache's
#: manifest sets them; an in-memory job has no chunks to size).
CONFIG_KEYS = (
    "n_gpus", "rank", "threadblock_cols", "shards_per_gpu", "policy",
    "schedule", "allgather", "double_buffer", "batch_size", "backend",
    "workers", "kernel", "prefetch", "nodes", "cluster_addresses",
)


@dataclass(frozen=True)
class JobSpec:
    """One validated decomposition request.

    ``shard_cache`` switches the element delivery: ``None`` materializes
    the synthetic ``dataset``/``nnz`` tensor resident in memory; a path
    streams the cache out of core through the server's shared source pool.
    ``config`` holds :class:`AmpedConfig` overrides (see
    :data:`CONFIG_KEYS`); ``rank`` is the CP rank of both the config and
    the ALS run. ``seed`` fixes factor initialization, making the result
    digest reproducible.
    """

    dataset: str = "twitch"
    nnz: int = 2000
    seed: int = 0
    rank: int = 8
    n_iters: int = 10
    tol: float = 1e-5
    priority: int = 0
    shard_cache: str | None = None
    config: dict = field(default_factory=dict)

    KEYS = (
        "dataset", "nnz", "seed", "rank", "n_iters", "tol", "priority",
        "shard_cache", "config",
    )

    @classmethod
    def from_payload(cls, payload) -> "JobSpec":
        """Validate a submitted JSON payload into a spec (named errors)."""
        if not isinstance(payload, dict):
            raise ServiceError(
                f"job payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = set(payload) - set(cls.KEYS)
        if unknown:
            raise ServiceError(
                f"unknown job fields {sorted(unknown)}; "
                f"known: {list(cls.KEYS)}"
            )
        config = payload.get("config", {})
        if not isinstance(config, dict):
            raise ServiceError("job config must be a JSON object")
        bad = set(config) - set(CONFIG_KEYS)
        if bad:
            raise ServiceError(
                f"config overrides {sorted(bad)} are not accepted by the "
                f"service; allowed: {list(CONFIG_KEYS)}"
            )
        try:
            spec = cls(
                dataset=str(payload.get("dataset", "twitch")),
                nnz=int(payload.get("nnz", 2000)),
                seed=int(payload.get("seed", 0)),
                rank=int(payload.get("rank", 8)),
                n_iters=int(payload.get("n_iters", 10)),
                tol=float(payload.get("tol", 1e-5)),
                priority=int(payload.get("priority", 0)),
                shard_cache=(
                    None if payload.get("shard_cache") is None
                    else str(payload["shard_cache"])
                ),
                config=dict(config),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job payload: {exc}") from None
        if spec.nnz <= 0:
            raise ServiceError(f"nnz must be positive, got {spec.nnz}")
        if spec.rank <= 0:
            raise ServiceError(f"rank must be positive, got {spec.rank}")
        if spec.n_iters <= 0:
            raise ServiceError(
                f"n_iters must be positive, got {spec.n_iters}"
            )
        return spec

    def build_config(self, host_profile=None) -> AmpedConfig:
        """The per-job :class:`AmpedConfig` this spec means.

        ``rank`` comes from the spec; a ``shard_cache`` forces the
        out-of-core spelling; the server's pinned host profile calibrates
        the admission plans and any ``backend="auto"`` resolution.
        Config validation errors surface as the named service error.
        """
        kw = dict(self.config)
        if "cluster_addresses" in kw and kw["cluster_addresses"] is not None:
            kw["cluster_addresses"] = tuple(kw["cluster_addresses"])
        kw["rank"] = self.rank
        if self.shard_cache is not None:
            kw["out_of_core"] = True
            kw["shard_cache"] = self.shard_cache
        if host_profile is not None:
            kw["host_profile"] = host_profile
        try:
            return AmpedConfig(**kw)
        except ReproError as exc:
            raise ServiceError(f"invalid job config: {exc}") from exc


class Job:
    """One tracked job: spec + state machine + progress stream.

    All mutation goes through the methods below under the record's own
    lock; :meth:`snapshot` is the JSON view the HTTP layer serves. The
    ``cancel_event`` is the cooperative flag the ALS progress callback
    polls between sweeps.
    """

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.cancel_event = threading.Event()
        self._lock = threading.Lock()
        self._state = "queued"
        self._phase = "queued"
        self._fits: list[float] = []
        self._error: str | None = None
        self._result: dict | None = None
        self._planned: dict | None = None
        self._submitted = time.time()
        self._finished: float | None = None

    # ---- state transitions (worker/service side) ----------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def done(self) -> bool:
        return self._state in TERMINAL_STATES

    def set_planned(self, planned: dict) -> None:
        with self._lock:
            self._planned = planned

    def set_phase(self, phase: str) -> None:
        with self._lock:
            self._phase = phase

    def start(self) -> None:
        with self._lock:
            self._state = "running"
            self._phase = "building"

    def record_fit(self, iteration: int, fit: float) -> None:
        with self._lock:
            self._fits.append(float(fit))
            self._phase = f"decomposing (iteration {iteration + 1})"

    def finish(self, result: dict) -> None:
        with self._lock:
            self._state = "done"
            self._phase = "finished"
            self._result = result
            self._finished = time.time()

    def fail(self, message: str) -> None:
        with self._lock:
            self._state = "failed"
            self._phase = "failed"
            self._error = message
            self._finished = time.time()

    def cancelled(self) -> None:
        with self._lock:
            self._state = "cancelled"
            self._phase = "cancelled"
            self._finished = time.time()

    def rejected(self, message: str) -> None:
        with self._lock:
            self._state = "rejected"
            self._phase = "rejected"
            self._error = message
            self._finished = time.time()

    # ---- views --------------------------------------------------------
    def snapshot(self) -> dict:
        """The JSON-safe progress view (``GET /jobs/<id>``)."""
        with self._lock:
            return {
                "id": self.id,
                "state": self._state,
                "phase": self._phase,
                "priority": self.spec.priority,
                "dataset": self.spec.dataset,
                "nnz": self.spec.nnz,
                "rank": self.spec.rank,
                "shard_cache": self.spec.shard_cache,
                "fits": list(self._fits),
                "iterations": len(self._fits),
                "planned": self._planned,
                "error": self._error,
                "result": self._result,
                "submitted": self._submitted,
                "finished": self._finished,
            }


def factor_digest(result) -> str:
    """SHA-256 of an :class:`repro.cpd.als.ALSResult`'s model bytes.

    Hashes the arranged weights then each factor matrix's raw float64
    buffer in mode order — two runs are bit-identical iff their digests
    match, which turns the service's cross-job determinism contract into
    a string equality any HTTP client can check.
    """
    h = hashlib.sha256()
    model = result.model
    # tobytes() serializes in C order regardless of the view's strides —
    # arrange() hands back column-permuted (non-contiguous) factors
    h.update(model.weights.tobytes())
    for f in model.factors:
        h.update(f.tobytes())
    return h.hexdigest()


class JobQueue:
    """Bounded priority queue with named backpressure.

    Higher ``spec.priority`` pops first; equal priorities stay FIFO via a
    monotone sequence number. :meth:`push` never blocks — at ``depth``
    pending jobs it raises :class:`repro.errors.QueueFullError` carrying
    the server's retry hint, the 429 backpressure contract. :meth:`pop`
    blocks with a timeout so worker threads can poll their stop flag.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ServiceError(f"queue depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def push(self, job: Job, *, retry_after_s: float = 1.0) -> None:
        with self._not_empty:
            if len(self._heap) >= self.depth:
                raise QueueFullError(
                    f"job queue is full ({self.depth} pending); retry in "
                    f"~{retry_after_s:.1f}s",
                    retry_after_s=retry_after_s,
                )
            heapq.heappush(
                self._heap, (-job.spec.priority, next(self._seq), job)
            )
            self._not_empty.notify()

    def pop(self, timeout: float | None = None) -> Job | None:
        """The highest-priority pending job, or ``None`` on timeout."""
        with self._not_empty:
            if not self._heap:
                self._not_empty.wait(timeout)
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def drain(self) -> list[Job]:
        """Remove and return every pending job (shutdown without drain)."""
        with self._lock:
            jobs = [item[2] for item in self._heap]
            self._heap.clear()
            return jobs
