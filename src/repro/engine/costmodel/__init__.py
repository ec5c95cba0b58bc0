"""repro.engine.costmodel — the measured host-pipeline cost model.

* :mod:`hostprofile` — :class:`HostProfile`, the versioned per-host
  calibration record (measured bandwidths/overheads, persisted as JSON by
  ``repro profile``), its load/save/resolution helpers, and the committed
  synthetic :data:`DEFAULT_HOST_PROFILE`;
* :mod:`timing` — :func:`host_time_plan`, the per-batch timing model of
  the functional host pipeline (backend dispatch/IPC, mmap vs explicit
  staging, v2 per-chunk decompression, prefetch overlap), and the
  ``backend="auto"`` / ``kernel="auto"`` resolution built on it
  (:func:`resolve_auto_execution` picks the fastest candidate of the
  (kernel × backend) product, :func:`rank_executions` lists them all),
  plus :func:`cluster_time_plan` — the N-node extension pricing per-node
  pipelines with :func:`host_time_plan` and the socket exchange with the
  ``repro.comm`` collectives over :func:`loopback_platform` (the
  HostProfile v4 measured links).

The profiler that fills a :class:`HostProfile` lives in
:mod:`repro.engine.profile` (CLI: ``repro profile``); the residency-side
companion of :func:`host_time_plan` is
:func:`repro.core.simulate.host_memory_plan`. Both are priced once per run
by :func:`repro.engine.plan.plan_execution`: read an executor's prediction
from its ``plan.time_plan`` (CLI: ``repro plan``).
"""

from repro.engine.costmodel.hostprofile import (
    DEFAULT_HOST_PROFILE,
    DEFAULT_PROFILE_PATH,
    HOST_PROFILE_ENV,
    HOST_PROFILE_VERSION,
    HostProfile,
    load_host_profile,
    resolve_host_profile,
)
from repro.engine.costmodel.timing import (
    AUTO_BACKEND_WORKERS,
    DEFAULT_CODEC_RATIO,
    cluster_time_plan,
    host_time_plan,
    loopback_platform,
    rank_executions,
    resolve_auto_execution,
)

__all__ = [
    "HostProfile",
    "DEFAULT_HOST_PROFILE",
    "DEFAULT_PROFILE_PATH",
    "HOST_PROFILE_ENV",
    "HOST_PROFILE_VERSION",
    "load_host_profile",
    "resolve_host_profile",
    "AUTO_BACKEND_WORKERS",
    "DEFAULT_CODEC_RATIO",
    "cluster_time_plan",
    "host_time_plan",
    "loopback_platform",
    "rank_executions",
    "resolve_auto_execution",
]
